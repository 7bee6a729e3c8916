import dataclasses

import pytest

from orbitduality.duality import DualPair, embed, pair_leq
from orbitduality.errors import InconsistentDataError, UnknownLabelError
from orbitduality.orbits import BundlePoset
from orbitduality.packets import (
    Parameter,
    ParameterSet,
    arthur_packet,
    az_dual,
    check_infl_sum,
    check_jiang,
    cuwf,
    geometric_wf,
    infl_sum_witness,
    is_tempered,
    natural_key,
    weak_packet,
)
from orbitduality.rootdata import Coweight

ARTHUR = ["X5", "X13", "X17", "X19", "X20"]
WEAK = ["X5", "X7", "X8", "X9", "X11", "X13", "X15", "X17", "X18", "X19", "X20"]


def test_natural_key_ordering():
    ids = ["X10", "X2", "X1", "X20", "X3"]
    assert sorted(ids, key=natural_key) == ["X1", "X2", "X3", "X10", "X20"]


def test_tempered_examples(f4_params):
    ps = f4_params
    assert is_tempered(ps, ps.get("X1"))
    assert not is_tempered(ps, ps.get("X6"))
    assert not is_tempered(ps, ps.get("X20"))
    tempered = {x.id for x in ps if is_tempered(ps, x)}
    assert tempered == {"X1", "X2", "X3", "X4", "X5"}


def test_az_examples(f4_params):
    ps = f4_params
    assert az_dual(ps, ps.get("X1")).id == "X20"
    assert az_dual(ps, ps.get("X5")).id == "X5"
    assert az_dual(ps, ps.get("X7")).id == "X9"
    for x in ps:
        assert az_dual(ps, az_dual(ps, x)).id == x.id


def test_cuwf_examples(f4_pair, f4_params):
    assert cuwf(f4_pair, f4_params, f4_params.get("X1")) == ("F4", "1")
    assert cuwf(f4_pair, f4_params, f4_params.get("X2")) == ("F4(a1)", "(12)")
    assert cuwf(f4_pair, f4_params, f4_params.get("X5")) == ("F4(a3)", "1")


def test_geometric_examples(f4_pair, f4_params):
    assert geometric_wf(f4_pair, f4_params, f4_params.get("X5")) == "F4(a3)"
    assert geometric_wf(f4_pair, f4_params, f4_params.get("X1")) == "F4"
    assert geometric_wf(f4_pair, f4_params, f4_params.get("X12")) == "B3"


def test_arthur_packet(f4_pair, f4_params):
    got = arthur_packet(f4_pair, f4_params)
    assert got == ARTHUR
    # members achieve the bound exactly
    from orbitduality.duality import achar_dual

    bound = achar_dual(f4_pair.flip(), (f4_params.ic_orbit, "1"))
    for pid in got:
        assert cuwf(f4_pair, f4_params, f4_params.get(pid)) == bound
    # agreement with the dual-tempered characterization, recomputed here
    by_dual = sorted(
        (x.id for x in f4_params if is_tempered(f4_params, az_dual(f4_params, x))),
        key=natural_key,
    )
    assert got == by_dual


def test_weak_packet(f4_pair, f4_params):
    got = weak_packet(f4_pair, f4_params)
    assert got == WEAK
    assert set(ARTHUR) <= set(got)
    assert "X6" not in got
    assert geometric_wf(f4_pair, f4_params, f4_params.get("X6")) == "F4(a2)"
    assert not f4_pair.g.leq("F4(a2)", "F4(a3)")
    # agreement with the special-piece characterization, recomputed here
    piece = set(f4_pair.gd.special_piece(f4_params.ic_orbit))
    by_piece = sorted(
        (x.id for x in f4_params if az_dual(f4_params, x).n_orbit in piece),
        key=natural_key,
    )
    assert got == by_piece


def test_tempered_duals_land_in_packet(f4_pair, f4_params):
    packet = set(arthur_packet(f4_pair, f4_params))
    for x in f4_params:
        if is_tempered(f4_params, x):
            assert az_dual(f4_params, x).id in packet


def test_lower_bound_all_parameters(f4_pair, f4_params):
    from orbitduality.duality import achar_dual

    bound = embed(f4_pair, achar_dual(f4_pair.flip(), (f4_params.ic_orbit, "1")))
    for x in f4_params:
        wf = embed(f4_pair, cuwf(f4_pair, f4_params, x))
        assert pair_leq(f4_pair, bound, wf), x.id


def test_check_jiang(f4_pair, f4_params):
    report = check_jiang(f4_pair, f4_params)
    assert report.passed
    assert report.dual_orbit == "F4(a3)"
    assert [m[0] for m in report.members] == ARTHUR
    assert all(wf == "F4(a3)" for _, wf, _ in report.members)
    assert len(report.lower_bounds) == 20
    d = report.to_dict()
    assert d["passed"] and len(d["members"]) == 5


def test_check_jiang_empty_set_vacuous(f4_pair):
    empty = ParameterSet("F4(a3)", ())
    assert arthur_packet(f4_pair, empty) == []
    assert check_jiang(f4_pair, empty).passed


def test_unknown_parameter(f4_params):
    with pytest.raises(UnknownLabelError):
        f4_params.get("X99")


def test_parameter_set_index_is_not_a_field():
    names = [f.name for f in dataclasses.fields(ParameterSet)]
    assert names == ["ic_orbit", "params"]
    x = Parameter("X1", "0", "", az_partner="X1")
    ps = ParameterSet("F4(a3)", (x,))
    assert ps.get("X1") is x
    assert ps == ParameterSet("F4(a3)", (x,))
    with pytest.raises(UnknownLabelError):
        ps.get("X2")
    with pytest.raises(TypeError):
        ParameterSet("F4(a3)", (x,), {})


def test_check_infl_sum(f4_pair):
    g = f4_pair.gd
    h_target = g.weighted_dynkin("F4(a3)")
    zero = Coweight.of([0, 0, 0, 0])
    assert check_infl_sum(g, zero, h_target, "F4(a3)")
    assert check_infl_sum(g, h_target, zero, "F4(a3)")
    h_a1 = g.weighted_dynkin("A1")
    assert not check_infl_sum(g, h_a1, h_a1, "F4(a3)")
    with pytest.raises(UnknownLabelError):
        check_infl_sum(g, zero, zero, "nope")


def test_infl_sum_witness_search(f4_pair):
    g = f4_pair.gd
    found = infl_sum_witness(g, "B2", "~A1", "F4(a3)")
    assert found is not None
    h_art, h_lan = found
    assert check_infl_sum(g, h_art, h_lan, "F4(a3)")


def _toy_pair():
    # chain 0 < a < r whose refined duality identifies the images of
    # (a, 1) and (r, 1); the two packet characterizations then disagree
    poset = BundlePoset(
        group_id="toy",
        labels=("0", "a", "r"),
        covers=(("0", "a"), ("a", "r")),
        bar_a={},
        ds={("0", "1"): "r", ("a", "1"): "r", ("r", "1"): "0"},
    )
    poset.attach_dual(poset)
    return DualPair(poset, poset)


def test_packet_inconsistency_detected():
    pair = _toy_pair()
    ps = ParameterSet(
        "r",
        (
            Parameter(id="Y1", n_orbit="r", rho="", az_partner="Y2"),
            Parameter(id="Y2", n_orbit="a", rho="", az_partner="Y1"),
        ),
    )
    with pytest.raises(InconsistentDataError):
        arthur_packet(pair, ps)
