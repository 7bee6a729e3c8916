import itertools
import json
import random
from pathlib import Path

import pytest

from orbitduality import data, packets
from orbitduality.duality import DualPair, achar_dual, embed, pair_leq
from orbitduality.errors import InconsistentDataError, UnknownLabelError
from orbitduality.orbits import BundlePoset, classical_poset
from orbitduality.packets import (
    JiangReport,
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
from orbitduality.rootdata import Coweight, coweight_orbit, dominant_rep
from test_data import _reference_identities

ARTHUR = ["X5", "X13", "X17", "X19", "X20"]
WEAK = ["X5", "X7", "X8", "X9", "X11", "X13", "X15", "X17", "X18", "X19", "X20"]


def test_natural_key_ordering():
    ids = ["X10", "X2", "X1", "X20", "X3"]
    assert sorted(ids, key=natural_key) == ["X1", "X2", "X3", "X10", "X20"]


def test_natural_key_orders_suffixed_ids():
    ids = ["X10a", "X2", "X1b", "X1a"]
    assert sorted(ids, key=natural_key) == ["X1a", "X1b", "X2", "X10a"]


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


def test_pass_does_not_fix_which_class_goes_to_which_orbit(
    f4_doc, f4_pair, f4_params
):
    """Of the 120 ways to hand out the five non-trivial d_s targets, the
    validator and check_jiang accept the 24 relabellings of F4(a3)'s four
    classes; only the shipped table keeps every wavefront at F4(a3)."""
    nontrivial = [(o, c) for o, t in f4_doc["d_s"].items() for c in t if c != "1"]
    assert nontrivial[-1] == ("F4(a1)", "(12)")
    targets = tuple(f4_doc["d_s"][o][c] for o, c in nontrivial)
    shipped = [cuwf(f4_pair, f4_params, x) for x in f4_params]
    accepted, same_wavefronts = [], []
    for perm in itertools.permutations(targets):
        for (o, c), t in zip(nontrivial, perm):
            f4_doc["d_s"][o][c] = t
        bundle = data.parse_bundle(json.dumps(f4_doc))
        if not data.validate_bundle(bundle).passed:
            continue
        pair, ps = data.dual_pair(bundle), data.parameter_set(bundle, "F4(a3)")
        if not check_jiang(pair, ps).passed:
            continue
        accepted.append(perm)
        if [cuwf(pair, ps, x) for x in ps] == shipped:
            same_wavefronts.append(perm)
    assert len(accepted) == 24
    assert {perm[-1] for perm in accepted} == {"A1"}
    assert same_wavefronts == [targets]


def test_unknown_parameter(f4_params):
    with pytest.raises(UnknownLabelError):
        f4_params.get("X99")


def test_unhashable_class_or_parameter_id_is_unknown(f4_pair, f4_params):
    with pytest.raises(UnknownLabelError, match=r"unknown class \['1'\] on orbit 0"):
        f4_pair.g.sommers("0", ["1"])
    with pytest.raises(UnknownLabelError, match=r"unknown parameter id \['X1'\]"):
        f4_params.get(["X1"])


def test_parameter_set_index_is_not_a_field():
    assert list(ParameterSet.__match_args__) == ["ic_orbit", "params"]
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


def test_infl_sum_needs_weighted_dynkin_data(f4_doc):
    c2 = classical_poset("C", 2)
    zero = Coweight.of([0, 0])
    with pytest.raises(UnknownLabelError):
        check_infl_sum(c2, zero, zero, "(4)")
    with pytest.raises(UnknownLabelError):
        infl_sum_witness(c2, "(4)", "(4)", "(4)")
    f4_doc["group"]["type"] = "E6"  # a type without root-system tables
    e6 = data.bundle_poset(data.parse_bundle(json.dumps(f4_doc)))
    with pytest.raises(UnknownLabelError, match="carries no root system data"):
        check_infl_sum(e6, Coweight.of([0] * 4), Coweight.of([0] * 4), "F4(a3)")


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


# -- golden answers ------------------------------------------------------------

GOLDEN_LIB = (
    Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "f4_lib.json"
)


def _encode(answer):
    """The golden file's encoding: tuples as lists, reports as dicts."""
    if isinstance(answer, JiangReport):
        return answer.to_dict()
    return list(answer) if isinstance(answer, tuple) else answer


def test_packet_queries_match_golden_answers(f4_pair, f4_params):
    golden = json.loads(GOLDEN_LIB.read_text(encoding="utf-8"))
    ic = f4_params.ic_orbit
    for kind, query in (
        ("arthur_packet", arthur_packet),
        ("weak_packet", weak_packet),
        ("check_jiang", check_jiang),
    ):
        assert _encode(query(f4_pair, f4_params)) == golden[kind][ic], kind
    assert len(f4_params.ids()) == 20
    for kind, query in (("cuwf", cuwf), ("geometric_wf", geometric_wf)):
        assert set(golden[kind]) == set(f4_params.ids())
        for x in f4_params:
            answer = _encode(query(f4_pair, f4_params, x))
            assert answer == golden[kind][x.id], (kind, x.id)


def _encode_witness(found):
    return None if found is None else [str(h) for h in found]


def test_infl_sum_queries_match_golden_answers(f4_pair, f4_params, monkeypatch):
    golden = json.loads(GOLDEN_LIB.read_text(encoding="utf-8"))
    g, target = f4_pair.g, f4_params.ic_orbit
    assert len(golden["infl_sum_witness"]) == len(golden["check_infl_sum"]) == 256
    calls = []

    def counting_dominant_rep(w, rs):
        calls.append(w)
        return dominant_rep(w, rs)

    monkeypatch.setattr(packets, "dominant_rep", counting_dominant_rep)
    for key, want in golden["infl_sum_witness"].items():
        art, lan = key.split("|")
        assert _encode_witness(infl_sum_witness(g, art, lan, target)) == want, key
    # one call for the target, then one per orbit element the form lets through
    assert len(calls) <= 312
    for key, want in golden["check_infl_sum"].items():
        art, lan = key.split("|")
        h_art, h_lan = g.weighted_dynkin(art), g.weighted_dynkin(lan)
        assert check_infl_sum(g, h_art, h_lan, target) is want, key


def _unpruned_witness(poset, orbit_art, orbit_lan, target):
    rs = poset.root_system()
    h1 = poset.weighted_dynkin(orbit_art)
    target_dom = dominant_rep(poset.weighted_dynkin(target), rs)
    for w2 in coweight_orbit(poset.weighted_dynkin(orbit_lan), rs):
        if dominant_rep(h1 + w2, rs) == target_dom:
            return (h1, w2)
    return None


def test_infl_sum_witness_matches_unpruned_search(f4_pair):
    g = f4_pair.g
    pairs = list(itertools.product(g.labels, repeat=2))[::51]
    found = 0
    for target in g.labels:
        for art, lan in pairs:
            want = _unpruned_witness(g, art, lan, target)
            assert infl_sum_witness(g, art, lan, target) == want, (art, lan, target)
            found += want is not None
    assert found > 0


def test_conjectural_infl_char_pairs_have_witnesses(f4_bundle, f4_pair):
    g = f4_pair.g
    (ps,) = f4_bundle.parameter_sets
    pairs = f4_bundle.conjectural["infl_char_pairs"]
    assert pairs
    for a, b in pairs:
        found = infl_sum_witness(g, a, b, ps.ic_orbit)
        assert found is not None, (a, b)
        assert check_infl_sum(g, *found, ps.ic_orbit), (a, b)


# -- one table per query against per-parameter calls ---------------------------


def _ref_bound(pair, ps):
    return embed(pair, achar_dual(pair.flip(), (ps.ic_orbit, "1")))


def _ref_arthur_packet(pair, ps):
    bound = _ref_bound(pair, ps)
    by_wavefront = {
        x.id
        for x in ps
        if pair_leq(pair, embed(pair, cuwf(pair, ps, x)), bound)
    }
    by_tempered_dual = {x.id for x in ps if is_tempered(ps, az_dual(ps, x))}
    if by_wavefront != by_tempered_dual:
        raise InconsistentDataError(
            f"packet characterizations disagree at {ps.ic_orbit}: "
            f"wavefront {sorted(by_wavefront)} vs "
            f"tempered-dual {sorted(by_tempered_dual)}"
        )
    return sorted(by_wavefront, key=natural_key)


def _ref_weak_packet(pair, ps):
    bound = pair.gd.d(ps.ic_orbit)
    by_wavefront = {
        x.id for x in ps if pair.g.leq(geometric_wf(pair, ps, x), bound)
    }
    piece = set(pair.gd.special_piece(ps.ic_orbit))
    by_piece = {x.id for x in ps if az_dual(ps, x).n_orbit in piece}
    if by_wavefront != by_piece:
        raise InconsistentDataError(
            f"weak packet characterizations disagree at {ps.ic_orbit}: "
            f"wavefront {sorted(by_wavefront)} vs "
            f"special-piece {sorted(by_piece)}"
        )
    return sorted(by_wavefront, key=natural_key)


def _ref_check_jiang(pair, ps):
    d_ic = pair.gd.d(ps.ic_orbit)
    members = []
    for pid in _ref_arthur_packet(pair, ps):
        wf = geometric_wf(pair, ps, ps.get(pid))
        members.append((pid, wf, wf == d_ic))
    bound = _ref_bound(pair, ps)
    lower = []
    for x in sorted(ps, key=lambda x: natural_key(x.id)):
        holds = pair_leq(pair, bound, embed(pair, cuwf(pair, ps, x)))
        lower.append((x.id, holds))
    return JiangReport(ps.ic_orbit, d_ic, tuple(members), tuple(lower))


def _outcome(query, *args):
    try:
        return ("ok", _encode(query(*args)))
    except Exception as exc:
        return (type(exc).__name__, str(exc))


# d_s entries set to other targets, as (orbit, class, target)
DS_CORRUPTIONS = {
    "intact": [],
    "values-move": [("A2", "1", "B3")],
    "no-unique-cover": [("0", "1", "A1+~A1"), ("A1+~A1", "1", "F4")],
    "packets-disagree": [("0", "1", "F4(a3)"), ("C3(a1)", "1", "F4")],
    "weak-packets-disagree": [("A1", "1", "C3"), ("A2", "1", "F4(a1)")],
    "not-injective": [("F4(a3)", "(12)", "F4(a3)")],
    # the bound and the parameters' invariants fail on different classes
    "first-error": [("A1", "1", "F4(a2)"), ("F4(a3)", "1", "F4"), ("C3", "1", "C3")],
}


@pytest.mark.parametrize("name", sorted(DS_CORRUPTIONS))
def test_packet_queries_match_per_parameter_reference(f4_doc, name):
    for orbit, cls, target in DS_CORRUPTIONS[name]:
        f4_doc["d_s"][orbit][cls] = target
    bundle = data.parse_bundle(json.dumps(f4_doc))
    pair = data.dual_pair(bundle)
    ps = data.parameter_set(bundle, "F4(a3)")
    for query, reference in (
        (arthur_packet, _ref_arthur_packet),
        (weak_packet, _ref_weak_packet),
        (check_jiang, _ref_check_jiang),
    ):
        assert _outcome(query, pair, ps) == _outcome(reference, pair, ps)
    for x in ps:
        assert _outcome(cuwf, pair, ps, x) == _outcome(
            lambda: achar_dual(
                pair.flip(), (az_dual(ps, x).n_orbit, "1")
            )
        )


def test_seeded_d_s_corruptions_match_references(f4_doc):
    rng = random.Random(20221001)
    entries = [(o, c) for o, table in f4_doc["d_s"].items() for c in table]
    labels = [rec["label"] for rec in f4_doc["orbits"]]
    text = json.dumps(f4_doc)
    outcomes = set()
    for _ in range(60):
        doc = json.loads(text)
        for orbit, cls in rng.sample(entries, rng.randint(1, 6)):
            doc["d_s"][orbit][cls] = rng.choice(labels)
        if rng.random() < 0.25:
            orbit, cls = rng.choice(entries)
            del doc["d_s"][orbit][cls]
        bundle = data.parse_bundle(json.dumps(doc))
        pair = data.dual_pair(bundle)
        ps = data.parameter_set(bundle, "F4(a3)")
        for query, reference in (
            (arthur_packet, _ref_arthur_packet),
            (weak_packet, _ref_weak_packet),
            (check_jiang, _ref_check_jiang),
        ):
            got = _outcome(query, pair, ps)
            assert got == _outcome(reference, pair, ps), (doc["d_s"], query)
            outcomes.add(got[0])
        for x in ps:
            assert _outcome(cuwf, pair, ps, x) == _outcome(
                lambda: achar_dual(pair.flip(), (az_dual(ps, x).n_orbit, "1"))
            ), (doc["d_s"], x.id)
        result = data._check_duality_identities(pair)
        assert result == _reference_identities(pair), doc["d_s"]
        outcomes.add(result.details.partition(":")[0])
    # the draws reach every kind of answer both sides give
    assert outcomes >= {
        "ok",
        "InconsistentDataError",
        "NonUniqueCoverError",
        "MissingTableError",
        "embedding collision",
        "embedding injective, D^3 = D, pr1∘D = d_S",
    }
