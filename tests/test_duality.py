import gc
import json
from pathlib import Path

import pytest

from orbitduality import data, duality
from orbitduality.duality import (
    DualPair,
    achar_dual,
    all_bar_classes,
    embed,
    is_special_pair,
    min_special_cover,
    pair_leq,
    sommers_dual,
)
from orbitduality.errors import (
    GroupMismatchError,
    NonUniqueCoverError,
    UnknownLabelError,
)
from orbitduality.orbits import BundlePoset, classical_poset
from orbitduality.packets import arthur_packet, check_jiang, weak_packet

GOLDEN_LIB = (
    Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "f4_lib.json"
)


@pytest.fixture(scope="module")
def a2_pair():
    p = classical_poset("A", 2)
    return DualPair(p, p.dual)


def test_sommers_examples(f4_pair, a2_pair):
    assert sommers_dual(f4_pair, ("F4(a3)", "1")) == "F4(a3)"
    assert sommers_dual(f4_pair, ("A2", "1")) == "C3"
    assert sommers_dual(a2_pair, ("(2,1)", "1")) == "(2,1)"


def test_sommers_surjective(f4_pair):
    image = {sommers_dual(f4_pair, bc) for bc in all_bar_classes(f4_pair.g)}
    assert image == set(f4_pair.gd.labels)


def test_sommers_extends_d(f4_pair):
    for label in f4_pair.g.labels:
        assert sommers_dual(f4_pair, (label, "1")) == f4_pair.g.d(label)


def test_embed_examples(f4_pair):
    assert embed(f4_pair, ("F4(a3)", "1")) == ("F4(a3)", "F4(a3)")
    assert embed(f4_pair, ("0", "1")) == ("0", "F4")
    assert embed(f4_pair, ("A1", "1")) == ("A1", "F4(a1)")


def test_embed_injective(f4_pair):
    classes = all_bar_classes(f4_pair.g)
    images = {embed(f4_pair, bc) for bc in classes}
    assert len(images) == len(classes) == 21


def test_class_label_normalization(f4_pair):
    assert sommers_dual(f4_pair, ("F4(a3)", " (12) ")) == "C3(a1)"
    with pytest.raises(UnknownLabelError):
        sommers_dual(f4_pair, ("F4(a3)", "(13)"))


def test_pair_leq(f4_pair):
    p = ("0", "F4")
    q = ("F4(a3)", "F4(a3)")
    assert pair_leq(f4_pair, p, p)
    assert pair_leq(f4_pair, p, q)
    assert not pair_leq(f4_pair, q, p)
    with pytest.raises(GroupMismatchError):
        pair_leq(f4_pair, ("0", "nope"), q)


def test_pair_leq_is_partial_order(f4_pair):
    points = [embed(f4_pair, bc) for bc in all_bar_classes(f4_pair.g)]
    for p in points:
        assert pair_leq(f4_pair, p, p)
        for q in points:
            if pair_leq(f4_pair, p, q) and pair_leq(f4_pair, q, p):
                assert p == q
            for r in points:
                if pair_leq(f4_pair, p, q) and pair_leq(f4_pair, q, r):
                    assert pair_leq(f4_pair, p, r)


def test_special_pair_examples(f4_pair):
    assert is_special_pair(f4_pair, ("F4(a3)", "1"))
    assert is_special_pair(f4_pair, ("0", "1"))
    # in the shipped tables every bar class is special
    assert all(is_special_pair(f4_pair, bc) for bc in all_bar_classes(f4_pair.g))


def test_min_special_cover_examples(f4_pair):
    assert min_special_cover(f4_pair, ("F4(a3)", "1")) == ("F4(a3)", "1")
    assert min_special_cover(f4_pair, ("0", "1")) == ("0", "1")
    assert min_special_cover(f4_pair, ("~A1", "1")) == ("~A1", "1")


def test_achar_examples(f4_pair):
    assert achar_dual(f4_pair, ("F4(a3)", "1")) == ("F4(a3)", "1")
    assert achar_dual(f4_pair, ("A1", "1")) == ("F4(a1)", "(12)")
    assert achar_dual(f4_pair, ("B2", "1")) == ("F4(a3)", "(12)(34)")
    assert achar_dual(f4_pair, ("F4(a3)", "(123)")) == ("A1+~A2", "1")


def test_achar_laws(f4_pair):
    flip = f4_pair.flip()
    for bc in all_bar_classes(f4_pair.g):
        once = achar_dual(f4_pair, bc)
        # first projection matches the Sommers image
        assert once[0] == sommers_dual(f4_pair, bc)
        # applying the map three times equals applying it once
        assert achar_dual(f4_pair, achar_dual(flip, once)) == once
        # special elements: involution
        if is_special_pair(f4_pair, bc):
            assert achar_dual(flip, once) == bc


def test_achar_order_reversing(f4_pair):
    flip = f4_pair.flip()
    classes = all_bar_classes(f4_pair.g)
    for x in classes:
        for y in classes:
            if pair_leq(f4_pair, embed(f4_pair, x), embed(f4_pair, y)):
                dx, dy = achar_dual(f4_pair, x), achar_dual(f4_pair, y)
                assert pair_leq(flip, embed(flip, dy), embed(flip, dx))


def test_type_a_achar_is_transpose(a2_pair):
    for label in a2_pair.g.labels:
        assert achar_dual(a2_pair, (label, "1")) == (a2_pair.g.d(label), "1")


def test_non_unique_cover_raises():
    # hand-built tables: (0,1) is non-special with two incomparable
    # minimal special covers (a,1) and (b,1)
    poset = BundlePoset(
        group_id="toy",
        labels=("0", "a", "b", "r"),
        covers=(("0", "a"), ("0", "b"), ("a", "r"), ("b", "r")),
        bar_a={"r": ("1", "c")},
        ds={
            ("0", "1"): "r",
            ("a", "1"): "r",
            ("b", "1"): "r",
            ("r", "1"): "a",
            ("r", "c"): "b",
        },
    )
    poset.attach_dual(poset)
    pair = DualPair(poset, poset)
    assert not is_special_pair(pair, ("0", "1"))
    assert is_special_pair(pair, ("a", "1"))
    assert is_special_pair(pair, ("b", "1"))
    with pytest.raises(NonUniqueCoverError):
        min_special_cover(pair, ("0", "1"))
    with pytest.raises(NonUniqueCoverError):
        achar_dual(pair, ("0", "1"))


def test_refined_duality_matches_golden_answers(f4_pair):
    golden = json.loads(GOLDEN_LIB.read_text(encoding="utf-8"))
    classes = all_bar_classes(f4_pair.g)
    assert len(classes) == 21
    for kind, pair, fn in (
        ("achar_dual.g", f4_pair, achar_dual),
        ("achar_dual.gd", f4_pair.flip(), achar_dual),
        ("min_special_cover", f4_pair, min_special_cover),
    ):
        assert set(golden[kind]) == {f"{o}|{c}" for o, c in classes}
        for o, c in classes:
            assert list(fn(pair, (o, c))) == golden[kind][f"{o}|{c}"], (kind, o, c)


def test_refined_duality_is_linear_in_bar_classes(f4_pair, sommers_calls):
    # each call tabulates both sides' embeddings once: 2 x 21 lookups
    for bc in all_bar_classes(f4_pair.g):
        sommers_calls.clear()
        achar_dual(f4_pair, bc)
        assert 0 < len(sommers_calls) <= 42, bc


def test_validation_lookup_count(sommers_calls):
    bundle = data.parse_bundle(data.builtin_bundle_text("f4"))
    assert data.validate_bundle(bundle).passed
    assert 0 < len(sommers_calls) <= 2500


def test_identities_check_lookup_count(f4_pair, sommers_calls):
    # one table on both sides, shared with its flip: 2 x 21 lookups
    assert data._check_duality_identities(f4_pair).passed
    assert 0 < len(sommers_calls) <= 42


def test_validation_lookup_bound(sommers_calls):
    # the identities check's 42 lookups and the d-based checks' ~360
    bundle = data.parse_bundle(data.builtin_bundle_text("f4"))
    assert data.validate_bundle(bundle).passed
    assert 0 < len(sommers_calls) <= 500


def test_check_jiang_lookup_count(f4_pair, f4_params, sommers_calls):
    assert check_jiang(f4_pair, f4_params).passed
    assert 0 < len(sommers_calls) <= 2500


@pytest.mark.parametrize(
    "query,most",
    [
        # one table on both sides, 2 x 21 lookups; check_jiang adds d(ic_orbit)
        (arthur_packet, 42),
        (check_jiang, 43),
        # the rest is the special piece of ic_orbit, computed from d
        (weak_packet, 600),
    ],
)
def test_packet_query_lookup_count(f4_pair, f4_params, sommers_calls, query, most):
    query(f4_pair, f4_params)
    assert 0 < len(sommers_calls) <= most


def test_self_dual_pair_is_tabulated_once(f4_pair, sommers_calls):
    # g and its dual are one poset, so one tabulation serves both sides
    assert f4_pair.g is f4_pair.gd
    for bc in all_bar_classes(f4_pair.g):
        sommers_calls.clear()
        achar_dual(f4_pair, bc)
        assert 0 < len(sommers_calls) <= 21, bc


@pytest.mark.parametrize(
    "query",
    [lambda pair, ps: data._check_duality_identities(pair), arthur_packet],
    ids=["identities", "arthur_packet"],
)
def test_self_dual_queries_tabulate_once(f4_pair, f4_params, sommers_calls, query):
    query(f4_pair, f4_params)
    assert 0 < len(sommers_calls) <= 21


def test_distinct_dual_posets_are_tabulated_separately(f4_bundle, sommers_calls):
    pair = data.dual_pair(f4_bundle, f4_bundle)
    assert pair.g is not pair.gd
    for bc in all_bar_classes(pair.g):
        sommers_calls.clear()
        achar_dual(pair, bc)
        assert len(sommers_calls) == 42, bc


@pytest.fixture()
def cover_searches(monkeypatch):
    calls = []
    real = duality._least

    def counted(items, leq):
        calls.append(items)
        return real(items, leq)

    monkeypatch.setattr(duality, "_least", counted)
    return calls


@pytest.mark.parametrize(
    "check",
    [
        lambda bundle: data._check_duality_identities(data.dual_pair(bundle)),
        data.validate_bundle,
    ],
    ids=["identities", "validate_bundle"],
)
def test_self_dual_covers_are_searched_once(f4_bundle, cover_searches, check):
    # a self-dual pair equals its flip, so both orientations share 21 covers
    assert check(f4_bundle).passed
    assert len(cover_searches) == 21


def test_distinct_dual_posets_keep_separate_covers(f4_bundle, cover_searches):
    pair = data.dual_pair(f4_bundle, f4_bundle)
    assert data._check_duality_identities(pair).passed
    assert len(cover_searches) == 42


def test_unknown_bar_class_raises_before_any_lookup(f4_pair, sommers_calls):
    for fn in (achar_dual, min_special_cover):
        with pytest.raises(UnknownLabelError):
            fn(f4_pair, ("E8", "1"))
        with pytest.raises(UnknownLabelError):
            fn(f4_pair, ("F4(a3)", "(13)"))
    assert sommers_calls == []


def test_malformed_bar_class_raises_unknown_label(f4_pair):
    for fn in (achar_dual, min_special_cover, is_special_pair, embed, sommers_dual):
        for bc in (("B2", 1), ("B2", None), ("B2",)):
            with pytest.raises(UnknownLabelError):
                fn(f4_pair, bc)


def test_duality_tables_leave_no_reference_cycle(f4_pair, f4_params):
    # a table and its flip must be freed by reference counting, not left
    # to the cyclic garbage collector after every call
    gc.collect()
    gc.disable()
    try:
        achar_dual(f4_pair, ("B2", "1"))
        check_jiang(f4_pair, f4_params)
        assert data._check_duality_identities(f4_pair).passed
        assert gc.collect() == 0
    finally:
        gc.enable()
