import gc
import json
import random
from pathlib import Path

import pytest

from orbitduality import data, duality, packets
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
    InconsistentDataError,
    NonUniqueCoverError,
    UnknownLabelError,
)
from orbitduality.orbits import classical_poset
from orbitduality.packets import arthur_packet, check_jiang, cuwf, weak_packet
from orbitduality.poset import (
    BundlePoset,
    _least_one,
    bvls_dual,
    closure_leq,
    d_table,
    special_piece_of,
)
from test_data import INJECTIVE_DS, _toy_poset as _four_orbit_toy

GOLDEN_LIB = (
    Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "f4_lib.json"
)


@pytest.fixture(scope="module")
def a2_pair():
    p = classical_poset("A", 2)
    return DualPair(p, p.dual_d)


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


def _non_unique_cover_pair():
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
    poset.dual_d = d_table(poset)
    return DualPair(poset, poset)


def test_non_unique_cover_raises():
    pair = _non_unique_cover_pair()
    assert not is_special_pair(pair, ("0", "1"))
    assert is_special_pair(pair, ("a", "1"))
    assert is_special_pair(pair, ("b", "1"))
    with pytest.raises(NonUniqueCoverError):
        min_special_cover(pair, ("0", "1"))
    with pytest.raises(NonUniqueCoverError):
        achar_dual(pair, ("0", "1"))


def _not_injective_dual_pair():
    # the dual side's (r,1) and (r,c) both embed as (r,0)
    return DualPair(_four_orbit_toy("toy", INJECTIVE_DS),
                    _four_orbit_toy("toy-dual", {**INJECTIVE_DS, ("r", "c"): "0"}))


@pytest.mark.parametrize(
    "make,error",
    [(_non_unique_cover_pair, NonUniqueCoverError),
     (_not_injective_dual_pair, InconsistentDataError)],
    ids=["non-unique-cover", "dual-side-not-injective"],
)
def test_a_refined_dual_that_raises_stores_nothing(make, error):
    # the first call checks the bar class in full, the second on the
    # tabulation it left; both raise the same error and store no D
    pair, texts = make(), []
    for _ in range(2):
        with pytest.raises(error) as raised:
            achar_dual(pair, ("0", "1"))
        texts.append(str(raised.value))
        assert pair._table._duals == {}
    assert texts[0] == texts[1]


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


def test_self_dual_pair_is_tabulated_once(fresh_f4_pair, sommers_calls):
    # g and its dual are one poset, so one tabulation serves both sides and
    # both orientations, and the pair keeps it
    pair = fresh_f4_pair
    assert pair.g is pair.gd
    for bc in all_bar_classes(pair.g):
        achar_dual(pair, bc)
        assert len(sommers_calls) == 21, bc
        achar_dual(pair.flip(), bc)
    assert len(sommers_calls) == 21


def test_distinct_dual_posets_are_tabulated_once(f4_bundle, sommers_calls):
    # the pair's one table tabulates each poset once, on first use, for
    # both orientations
    pair = data.dual_pair(f4_bundle, f4_bundle)
    assert pair.g is not pair.gd
    for side, reads in ((pair, 42), (pair.flip(), 42)):
        for bc in all_bar_classes(side.g):
            achar_dual(side, bc)
            assert len(sommers_calls) == reads, bc


def test_distinct_dual_posets_keep_separate_covers(f4_bundle, cover_searches):
    # the check takes D on pair.g alone, one search per bar class; D on the
    # flip is never needed (D^3 = D holds by construction)
    pair = data.dual_pair(f4_bundle, f4_bundle)
    assert data._check_duality_identities(pair).passed
    assert len(cover_searches) == 21


def test_unknown_bar_class_raises_before_any_lookup(fresh_f4_pair, sommers_calls):
    for fn in (achar_dual, min_special_cover):
        with pytest.raises(UnknownLabelError):
            fn(fresh_f4_pair, ("E8", "1"))
        with pytest.raises(UnknownLabelError):
            fn(fresh_f4_pair, ("F4(a3)", "(13)"))
    assert sommers_calls == []


def test_malformed_bar_class_raises_unknown_label(f4_pair):
    for fn in (achar_dual, min_special_cover, is_special_pair, embed, sommers_dual):
        for bc in (("B2", 1), ("B2", None), ("B2",)):
            with pytest.raises(UnknownLabelError):
                fn(f4_pair, bc)


def _typed_check(pair, bc):
    found = pair.check(bc)
    return type(found), found


@pytest.mark.parametrize("separate", [False, True], ids=["self-dual", "separate"])
def test_check_on_a_tabulation_answers_as_the_full_check(f4_bundle, separate):
    # before tabulation every input takes the full check; after it, a plain
    # tuple among the bar classes is passed on, and all else still the full
    # check.  On the separate pair, tabulating one side leaves the other's
    # check full, so each orientation is compared in both states
    pair = data.dual_pair(f4_bundle, f4_bundle if separate else None)
    inputs = list(all_bar_classes(pair.g)) + [
        ("A1", ["1"]), ["A1", "1"], ("A1", " 1 "), ("A1",), ("B2", 1),
        ("E8", "1"), ("F4(a3)", " (12) "), ("F4(a3)", "(13)"),
    ]
    sides = (pair, pair.flip())
    assert pair._table._sides == {}
    full = [[_outcome(_typed_check, side, bc) for bc in inputs] for side in sides]
    assert full[0][-8:] == [
        "UnknownLabelError: ('A1', ['1']) is not an (orbit, class) pair",
        (tuple, ("A1", "1")),
        (tuple, ("A1", "1")),
        "UnknownLabelError: ('A1',) is not an (orbit, class) pair",
        "UnknownLabelError: ('B2', 1) is not an (orbit, class) pair",
        "UnknownLabelError: unknown orbit 'E8' in group F4",
        (tuple, ("F4(a3)", "(12)")),
        "UnknownLabelError: orbit F4(a3) of F4 has no class '(13)'",
    ]
    for side in sides:
        achar_dual(side, ("0", "1"))  # tabulates side.g
        assert [[_outcome(_typed_check, s, bc) for bc in inputs] for s in sides] == full
    assert set(pair._table._sides) == {pair.g, pair.gd}


def test_duality_tables_leave_no_reference_cycle(f4_bundle):
    # nothing that pairing, validating or a round of the session's queries
    # builds waits for the cyclic garbage collector: posets hold no partner
    # and the table no pair, so dropping a pair and its flip frees the table.
    # The self-dual pair, a separate pair and that pair's flip
    gc.collect()
    gc.disable()
    try:
        assert data.validate_bundle(f4_bundle).passed
        for make in (lambda: data.dual_pair(f4_bundle),
                     lambda: data.dual_pair(f4_bundle, f4_bundle),
                     lambda: data.dual_pair(f4_bundle, f4_bundle).flip()):
            pair = make()
            for kind in F4_KINDS:
                _f4_query(pair, f4_bundle, kind, _f4_arguments(f4_bundle, kind)[-1])
            table, flip = pair._table, pair.flip()
            assert flip._table is table
            assert set(table._sides) == {pair.g, pair.gd}  # one tabulation per poset
            assert table._special and table._covers and table._duals
            # a constructed pair keeps its flip, which keeps no pair
            assert (pair.flip() is flip) == ("_flip" in vars(pair))
            assert "_flip" not in vars(flip)
            del pair, table, flip
            assert gc.collect() == 0
    finally:
        gc.enable()


# the self-dual F4 pair has one poset, so its table tabulates it once (21
# reads) for both sides; each call asks one orientation and searches each
# cover it needs once.  These are first calls, on a pair no call has used.
# Validating F4 reads 96 entries besides the tabulation: the laws of d read
# the d column once, d^3 = d the dual's d of each label and d of that, and
# the specials law the dual's d of each dual label (64); that law decides
# the specials, reading d and the dual's d of each label (32), and stores
# them for the special-flags check.  Against a separate copy of itself it
# runs every check on both sides: each side's 96 reads and each poset
# tabulated once for both orientations (42);
# each side's injectivity walk reads that tabulation.
# weak_packet adds its bound's d and the special piece's specials, worked out
# once per poset: d and the dual's d of each of the 16 labels
@pytest.mark.parametrize(
    "call,reads,searches",
    [
        (lambda pair, ps: data._check_duality_identities(pair), 21, 21),
        (lambda pair, ps: achar_dual(pair, ("B2", "1")), 21, 1),
        (lambda pair, ps: cuwf(pair, ps, ps.get("X2")), 21, 1),
        (arthur_packet, 21, 11),
        (check_jiang, 22, 11),
        (weak_packet, 54, 11),
        (lambda pair, ps: data.validate_bundle(
            data.parse_bundle(data.builtin_bundle_text("f4"))), 117, 21),
        (lambda pair, ps: data.validate_bundle(
            f4 := data.parse_bundle(data.builtin_bundle_text("f4")), f4), 234, 42),
    ],
    ids=["identities", "achar_dual", "cuwf", "arthur_packet", "check_jiang",
         "weak_packet", "validate_bundle", "validate_bundle_separate_dual"],
)
def test_f4_calls_read_and_search_pinned_counts(
    fresh_f4_pair, f4_params, sommers_calls, cover_searches, call, reads, searches
):
    call(fresh_f4_pair, f4_params)
    assert (len(sommers_calls), len(cover_searches)) == (reads, searches)


# the cover search reads both orders from lower sets, and one checked
# pair_leq per search covers the one label there that may name no orbit, the
# bar class's own Sommers value; the other checks are the callers' own and
# the Sommers and bar-class reads that tabulate a poset.  Validation reads
# the closure order from lower sets too, for the extreme orbits and for
# order reversal, which reads the d column that d^3 = d built and checked.
# The specials law decides the specials the special-flags check then reads
@pytest.mark.parametrize(
    "call,checks",
    [
        (lambda pair, ps: achar_dual(pair, ("B2", "1")), 42),
        (arthur_packet, 144),
        (check_jiang, 225),
        (weak_packet, 928),
        (lambda pair, ps: data.validate_bundle(
            data.parse_bundle(data.builtin_bundle_text("f4"))), 358),
    ],
    ids=["achar_dual", "arthur_packet", "check_jiang", "weak_packet",
         "validate_bundle"],
)
def test_f4_calls_check_pinned_label_counts(
    fresh_f4_pair, f4_params, label_checks, call, checks
):
    call(fresh_f4_pair, f4_params)
    assert len(label_checks) == checks


def test_repeated_calls_read_the_kept_table(
    fresh_f4_pair, f4_params, sommers_calls, cover_searches, label_checks
):
    # the pair keeps its table: a second round reads and searches nothing,
    # and its refined-duality queries check no label.  Both orientations of
    # the self-dual pair are one table, so the packet's 11 covers include
    # the others'
    pair, x = fresh_f4_pair, f4_params.get("X2")
    rounds = []
    for _ in range(2):
        achar_dual(pair, ("B2", "1"))
        min_special_cover(pair, ("B2", "1"))
        cuwf(pair, f4_params, x)
        dict(duality.wavefronts(pair, ["0", "F4(a3)"]))
        queries = (len(sommers_calls), len(cover_searches), len(label_checks))
        arthur_packet(pair, f4_params)
        rounds.append((queries, (len(sommers_calls), len(cover_searches))))
        for calls in (sommers_calls, cover_searches, label_checks):
            calls.clear()
    assert rounds == [((21, 4, 54), (21, 11)), ((0, 0, 0), (0, 0))]


@pytest.mark.parametrize("fn", [embed, sommers_dual, is_special_pair])
def test_embed_sommers_and_special_flags_read_the_kept_table(
    fresh_f4_pair, sommers_calls, label_checks, fn
):
    # the first call tabulates the poset: its bar classes and 21 reads, with
    # one label check each, and the full check of its own bar class; every
    # later call, on any bar class, reads the table and checks nothing
    classes, rounds = all_bar_classes(fresh_f4_pair.g), []
    sommers_calls.clear()
    label_checks.clear()
    for _ in range(2):
        for bc in classes:
            fn(fresh_f4_pair, bc)
        rounds.append((len(sommers_calls), len(label_checks)))
        sommers_calls.clear()
        label_checks.clear()
    assert rounds == [(21, 38), (0, 0)]


def test_embed_on_an_incomplete_table_reads_the_class_own_entry(f4_doc):
    # with an entry missing the table cannot be tabulated: each bar class is
    # read from its own entry, and the missing one raises with its own name
    del f4_doc["d_s"]["B3"]
    pair = data.dual_pair(data.parse_bundle(json.dumps(f4_doc)))
    assert embed(pair, ("A1", "1")) == ("A1", "F4(a1)")
    assert sommers_dual(pair, ("F4(a3)", "(12)")) == "C3(a1)"
    for fn in (embed, sommers_dual, is_special_pair):
        assert _outcome(fn, pair, ("B3", "1")) == (
            "MissingTableError: no duality entry for (B3, 1) in F4")
    # the dual side is this poset, so a flag still needs the whole table
    assert _outcome(is_special_pair, pair, ("A1", "1")) == (
        "MissingTableError: no duality entry for (B3, 1) in F4")


def test_wavefronts_are_refined_duals_on_the_flip(f4_pair):
    orbits = list(f4_pair.gd.labels)
    found = dict(duality.wavefronts(f4_pair, orbits))
    assert list(found) == orbits
    for orbit, (bc, img) in found.items():
        assert bc == achar_dual(f4_pair.flip(), (orbit, "1"))
        assert img == embed(f4_pair, bc)


def test_wavefronts_check_each_label_when_it_is_reached(
    fresh_f4_pair, sommers_calls
):
    # on a fresh table the first answer reads the table; on the warm one it
    # reads nothing, and the unknown label still raises when it is reached
    for reads in (21, 0):
        found = duality.wavefronts(fresh_f4_pair, ["F4(a3)", "E8"])
        assert next(found)[0] == "F4(a3)"
        assert len(sommers_calls) == reads
        with pytest.raises(UnknownLabelError):
            next(found)
        sommers_calls.clear()


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


# -- reference sweep for the cover search -----------------------------------
# Validation rejects tables like these before any query runs, so the outcome
# sweep never reaches their errors.  The reference is the plain search: every
# cover tabulating both sides afresh, each bar class's flip unembedded and
# every comparison a checked pair_leq, walked in all_bar_classes order.

def _reference_pairs(poset):
    return {bc: (bc[0], poset.sommers(*bc)) for bc in all_bar_classes(poset)}


def _reference_unembed(poset, pairs, target):
    hits = [bc for bc, p in pairs.items() if p == target]
    if len(hits) > 1:
        raise InconsistentDataError(
            f"embedding of {poset.group_id} is not injective at {target}"
        )
    return hits[0] if hits else None


def _reference_cover(pair, bc):
    pairs, dual_pairs = _reference_pairs(pair.g), _reference_pairs(pair.gd)
    here = pairs[bc]
    above = [
        other
        for other, p in pairs.items()
        if _reference_unembed(pair.gd, dual_pairs, (p[1], p[0])) is not None
        and pair_leq(pair, here, p)
    ]
    return _least_one(
        above, lambda x, y: pair_leq(pair, pairs[x], pairs[y]),
        lambda count: f"bar class {bc} of {pair.g.group_id} has "
                      f"{count} minimal special covers",
    )


def _reference_dual(pair, bc):
    p = _reference_pairs(pair.g)[_reference_cover(pair, bc)]
    return _reference_unembed(pair.gd, _reference_pairs(pair.gd), (p[1], p[0]))


def _reference_wavefronts(pair, orbits):
    for orbit in orbits:
        bc = _reference_dual(pair.flip(), (orbit, "1"))
        yield orbit, (bc, _reference_pairs(pair.g)[bc])


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # any error is an outcome to compare
        return f"{type(exc).__name__}: {exc}"


_TOY_SHAPES = {  # labels, covering pairs; a and b (s and t) incomparable
    5: (("0", "a", "b", "c", "r"),
        (("0", "a"), ("0", "b"), ("a", "c"), ("b", "c"), ("c", "r"))),
    4: (("0", "s", "t", "r"), (("0", "s"), ("0", "t"), ("s", "r"), ("t", "r"))),
}


def _toy_poset(rng, size, dual_labels, group_id):
    labels, covers = _TOY_SHAPES[size]
    bar_a = {o: ("1", "x", "y")[:rng.randint(1, 3)] for o in labels[1:]}
    ds = {
        (o, c): rng.choice(dual_labels) if rng.random() > 0.12 else "nowhere"
        for o in labels for c in bar_a.get(o, ("1",))
    }
    return BundlePoset(group_id, labels, covers, bar_a, ds)


def _toy_pairs(rng):
    self_dual = _toy_poset(rng, 5, _TOY_SHAPES[5][0], "toy5")
    g = _toy_poset(rng, 5, _TOY_SHAPES[4][0], "toy5'")
    gd = _toy_poset(rng, 4, _TOY_SHAPES[5][0], "toy4")
    return DualPair(self_dual, self_dual), DualPair(g, gd)


def _cover_outcomes(pair, cover, dual, fronts, step=1):
    """Every outcome on both sides, in bar-class order, or reversed with
    ``step`` -1."""
    out = []
    for side in (pair, pair.flip()):
        for bc in all_bar_classes(side.g)[::step]:
            out.append(_outcome(dual, side, bc))
            out.append(_outcome(cover, side, bc))
    out.append(_outcome(lambda: dict(fronts(pair, pair.gd.labels[::step]))))
    return out


def test_cover_search_matches_the_reference_on_seeded_toys():
    # each pair keeps its tables across three passes, the last in reverse
    # order, so whatever a call that raised left in them changes no answer
    rng = random.Random(20)
    kinds = set()
    for _ in range(80):
        for pair in _toy_pairs(rng):
            for step in (1, 1, -1):
                found = _cover_outcomes(
                    pair, min_special_cover, achar_dual, duality.wavefronts, step
                )
                expected = _cover_outcomes(
                    pair, _reference_cover, _reference_dual, _reference_wavefronts,
                    step,
                )
                assert found == expected, (pair, step)
                kinds |= {o.split(":")[0] if isinstance(o, str) else "value"
                          for o in expected}
    assert kinds == {"value", "InconsistentDataError", "GroupMismatchError",
                     "NonUniqueCoverError"}


def _unknown_value_before_a_collision_pair():
    # a chain 0 < a < b < r.  (a,1)'s Sommers value names no orbit, and
    # (b,1) is the first special class above a.  Both classes of 0 embed as
    # (0,r), the flip of the later (r,1), so deciding (r,1)'s flag collides
    poset = BundlePoset(
        group_id="toy", labels=("0", "a", "b", "r"),
        covers=(("0", "a"), ("a", "b"), ("b", "r")), bar_a={"0": ("1", "c")},
        ds={("0", "1"): "r", ("0", "c"): "r", ("a", "1"): "nowhere",
            ("b", "1"): "b", ("r", "1"): "0"},
    )
    return DualPair(poset, poset)


def test_first_search_checks_the_sommers_value_before_later_flags():
    # the first search checks (a,1)'s value at (b,1), before it decides the
    # flag of (r,1); a search that decided every flag first would report the
    # collision.  The next search, from 0, reaches (r,1) and reports it
    pair = _unknown_value_before_a_collision_pair()
    found = [_outcome(min_special_cover, pair, bc) for bc in (("a", "1"), ("0", "1"))]
    assert found == [
        "GroupMismatchError: unknown orbit 'nowhere' in group toy",
        "InconsistentDataError: embedding of toy is not injective at ('0', 'r')",
    ]
    fresh = _unknown_value_before_a_collision_pair()
    assert found == [_outcome(_reference_cover, fresh, bc)
                     for bc in (("a", "1"), ("0", "1"))]


# -- the 13 query kinds of an F4 session ---------------------------------------

F4_KINDS = (
    "achar_dual.g", "achar_dual.gd", "min_special_cover", "closure_leq",
    "bvls_dual", "special_piece_of", "cuwf", "geometric_wf", "arthur_packet",
    "weak_packet", "check_jiang", "check_infl_sum", "infl_sum_witness",
)


def _f4_arguments(bundle, kind):
    labels = bundle.labels()
    if kind in ("achar_dual.g", "achar_dual.gd", "min_special_cover"):
        return [(o, c) for o in labels for c in bundle.bar_a.get(o, ("1",))]
    if kind in ("closure_leq", "check_infl_sum", "infl_sum_witness"):
        return [(a, b) for a in labels for b in labels]
    if kind in ("bvls_dual", "special_piece_of"):
        return [(o,) for o in labels]
    if kind in ("cuwf", "geometric_wf"):
        return [(x.id,) for ps in bundle.parameter_sets for x in ps]
    return [(ps.ic_orbit,) for ps in bundle.parameter_sets]


def _f4_query(pair, bundle, kind, args):
    """The answer to one query of an F4 session on ``pair``."""
    g, sets = pair.g, {ps.ic_orbit: ps for ps in bundle.parameter_sets}
    param = {x.id: (ps, x) for ps in bundle.parameter_sets for x in ps}
    target = bundle.parameter_sets[0].ic_orbit
    calls = {
        "achar_dual.g": lambda: achar_dual(pair, args),
        "achar_dual.gd": lambda: achar_dual(pair.flip(), args),
        "min_special_cover": lambda: min_special_cover(pair, args),
        "closure_leq": lambda: closure_leq(g, *args),
        "bvls_dual": lambda: bvls_dual(g, *args),
        "special_piece_of": lambda: special_piece_of(g, *args),
        "cuwf": lambda: cuwf(pair, *param[args[0]]),
        "geometric_wf": lambda: packets.geometric_wf(pair, *param[args[0]]),
        "arthur_packet": lambda: arthur_packet(pair, sets[args[0]]),
        "weak_packet": lambda: weak_packet(pair, sets[args[0]]),
        "check_jiang": lambda: check_jiang(pair, sets[args[0]]),
        "check_infl_sum": lambda: packets.check_infl_sum(
            g, *map(g.weighted_dynkin, args), target),
        "infl_sum_witness": lambda: packets.infl_sum_witness(g, *args, target),
    }
    return calls[kind]()


def test_kept_f4_table_answers_as_a_fresh_pair(f4_bundle):
    rng = random.Random(21)
    pair = data.dual_pair(f4_bundle)
    for _ in range(10):
        for kind in rng.sample(F4_KINDS, len(F4_KINDS)):
            args = rng.choice(_f4_arguments(f4_bundle, kind))
            fresh = _f4_query(data.dual_pair(f4_bundle), f4_bundle, kind, args)
            assert _f4_query(pair, f4_bundle, kind, args) == fresh, (kind, args)

