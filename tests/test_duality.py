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
from orbitduality.packets import arthur_packet, check_jiang, cuwf, weak_packet

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


def test_self_dual_pair_is_tabulated_once(f4_pair, sommers_calls):
    # g and its dual are one poset, so one tabulation serves both sides
    assert f4_pair.g is f4_pair.gd
    for bc in all_bar_classes(f4_pair.g):
        sommers_calls.clear()
        achar_dual(f4_pair, bc)
        assert 0 < len(sommers_calls) <= 21, bc


def test_distinct_dual_posets_are_tabulated_separately(f4_bundle, sommers_calls):
    pair = data.dual_pair(f4_bundle, f4_bundle)
    assert pair.g is not pair.gd
    for bc in all_bar_classes(pair.g):
        sommers_calls.clear()
        achar_dual(pair, bc)
        assert len(sommers_calls) == 42, bc


def test_distinct_dual_posets_keep_separate_covers(f4_bundle, cover_searches):
    # the check takes D on pair.g alone, one search per bar class; D on the
    # flip is never needed (D^3 = D holds by construction)
    pair = data.dual_pair(f4_bundle, f4_bundle)
    assert data._check_duality_identities(pair).passed
    assert len(cover_searches) == 21


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


# the self-dual F4 pair has one poset, so a call's table tabulates it once
# (21 reads) for both sides; each call asks one orientation and searches
# each cover it needs once
@pytest.mark.parametrize(
    "call,reads,searches",
    [
        (lambda pair, ps: data._check_duality_identities(pair), 21, 21),
        (lambda pair, ps: achar_dual(pair, ("B2", "1")), 21, 1),
        (lambda pair, ps: cuwf(pair, ps, ps.get("X2")), 21, 1),
        (arthur_packet, 21, 11),
        (check_jiang, 22, 11),
        (weak_packet, 566, 11),
        (lambda pair, ps: data.validate_bundle(
            data.parse_bundle(data.builtin_bundle_text("f4"))), 431, 21),
    ],
    ids=["identities", "achar_dual", "cuwf", "arthur_packet", "check_jiang",
         "weak_packet", "validate_bundle"],
)
def test_f4_calls_read_and_search_pinned_counts(
    f4_pair, f4_params, sommers_calls, cover_searches, call, reads, searches
):
    call(f4_pair, f4_params)
    assert (len(sommers_calls), len(cover_searches)) == (reads, searches)


def test_repeated_calls_keep_no_memo(f4_pair, f4_params, cover_searches):
    for _ in range(2):
        achar_dual(f4_pair, ("B2", "1"))
        arthur_packet(f4_pair, f4_params)
    assert len(cover_searches) == 2 * (1 + 11)


def test_wavefronts_are_refined_duals_on_the_flip(f4_pair):
    orbits = list(f4_pair.gd.labels)
    found = dict(duality.wavefronts(f4_pair, orbits))
    assert list(found) == orbits
    for orbit, (bc, img) in found.items():
        assert bc == achar_dual(f4_pair.flip(), (orbit, "1"))
        assert img == embed(f4_pair, bc)


def test_wavefronts_check_each_label_when_it_is_reached(f4_pair, sommers_calls):
    found = duality.wavefronts(f4_pair, ["F4(a3)", "E8"])
    assert next(found)[0] == "F4(a3)"
    assert sommers_calls
    with pytest.raises(UnknownLabelError):
        next(found)


def test_refined_duality_failures_on_shipped_pairs(f4_bundle, f4_pair):
    assert duality.refined_duality_failures(f4_pair) is None
    separate = data.dual_pair(f4_bundle, f4_bundle)
    assert duality.refined_duality_failures(separate) is None


def test_only_duality_names_its_table():
    src = Path(duality.__file__).parent
    naming = sorted(
        p.name for p in src.glob("*.py") if "_DualityTable" in p.read_text()
    )
    assert naming == ["duality.py"]
