import importlib
import json
import pkgutil

import pytest

import orbitduality
from conftest import LAW_RANKS, PIECE_RANKS
from orbitduality import data
from orbitduality import partitions as pt
from orbitduality.errors import (
    MissingTableError,
    NonUniqueCoverError,
    UnknownLabelError,
)
from orbitduality.orbits import ClassicalPoset, classical_poset, partition_label
from orbitduality.poset import (
    BundlePoset,
    NilpotentPoset,
    bvls_dual,
    closure_leq,
    d_table,
    duality_failures,
    is_special,
    order_failures,
    special_closure,
    special_piece_of,
)


def test_partition_labels_round_trip():
    assert partition_label((3, 1, 1)) == "(3,1,1)"
    assert partition_label((2, 2), "II") == "(2,2)II"


def test_zero_and_regular_orbits():
    b2 = classical_poset("B", 2)
    assert b2.zero() == "(1,1,1,1,1)"
    assert b2.regular() == "(5)"
    d3 = classical_poset("D", 3)
    assert d3.regular() == "(5,1)"
    for fam, rank in PIECE_RANKS:
        p = classical_poset(fam, rank)
        z, r = p.zero(), p.regular()
        assert all(p.leq(z, a) and p.leq(a, r) for a in p.labels)
        assert p.is_special(z) and p.is_special(r)


def test_closure_is_dominance_for_classical():
    c3 = classical_poset("C", 3)
    for a in c3.labels:
        for b in c3.labels:
            expected = pt.dominates(c3.partition_of(b), c3.partition_of(a))
            assert closure_leq(c3, a, b) == expected


def test_closure_examples():
    c2 = classical_poset("C", 2)
    z = c2.zero()
    assert all(closure_leq(c2, z, a) for a in c2.labels)
    assert all(closure_leq(c2, a, a) for a in c2.labels)


def test_type_a_dual_is_transpose():
    a2 = classical_poset("A", 2)
    assert bvls_dual(a2, "(2,1)") == "(2,1)"
    assert bvls_dual(a2, "(3)") == "(1,1,1)"
    for label in a2.labels:
        p = a2.partition_of(label)
        assert bvls_dual(a2, label) == partition_label(pt.transpose(p))


def test_classical_duality_laws():
    for fam, rank in LAW_RANKS:
        p = classical_poset(fam, rank)
        assert order_failures(p) == [], p.group_id
        assert duality_failures(p) is None, p.group_id


def strip_dec(label):
    for suffix in ("II", "I"):
        if label.endswith(suffix):
            return label[: -len(suffix)]
    return label


def test_classical_specials_match_brute_force_image():
    # an independent check of the law duality_failures checks: the specials,
    # decorations dropped, are exactly the image of the dual's d
    for fam, rank in LAW_RANKS:
        p = classical_poset(fam, rank)
        q = p.dual_d
        image = {strip_dec(q.d(b)) for b in q.labels}
        fixed = {strip_dec(a) for a in p.labels if p.is_special(a)}
        assert image == fixed, (fam, rank)


def _variant(poset, d=(), order=()):
    """A bare poset on poset's labels, order and d, with the (lo, hi)
    pairs in order added and d(a) = b for each (a, b) in d."""
    ls = poset.labels
    below = {b: {a for a in ls if poset.leq(a, b)} for b in ls}
    for lo, hi in order:
        below[hi].add(lo)
    ds = {(a, "1"): dict(d).get(a, poset.d(a)) for a in ls}
    return NilpotentPoset(poset.group_id, below, {}, ds)


B6 = classical_poset("B", 6)


def _paired(g, gd):
    """g with gd bound as its dual_d: the one dual the laws read."""
    g.dual_d = gd
    return g


@pytest.mark.parametrize("g,law,first", [
    # two d values swapped, twice; then the dual's d sending a non-special
    # C6 orbit to the non-special (6,6,1), read by a bare copy of B6, since
    # a classical poset's dual_d is its classical dual
    (_paired(_variant(B6, [("(13)", B6.d("(11,1,1)")),
                           ("(11,1,1)", B6.d("(13)"))]), B6.dual_d),
     "d^3 != d", "(13)"),
    (_paired(_variant(B6, [("(6,6,1)", B6.d("(5,3,2,2,1)")),
                           ("(5,3,2,2,1)", B6.d("(6,6,1)"))]), B6.dual_d),
     "order reversal fails", "(5,5,3) <= (6,6,1)"),
    (_paired(_variant(B6), _variant(B6.dual_d, [("(10,1,1)", "(6,6,1)")])),
     "specials differ from the image of d", "(6,6,1)"),
], ids=["d-cubed", "order-reversal", "specials-image"])
def test_duality_failures_names_the_first_broken_law(g, law, first):
    found, where = duality_failures(g)
    assert (found, where[0]) == (law, first)


def test_order_failures_names_a_reversed_pair():
    zero, reg = B6.zero(), B6.regular()
    assert order_failures(_variant(B6, order=[(reg, zero)])) == [(zero, reg)]


def test_d_cubed_is_exact_on_type_d_twins():
    # twins exist at even rank and keep their decoration under d∘d'∘d, so
    # the exact comparison in duality_failures agrees with same_image
    for rank in range(2, 11):
        p = classical_poset("D", rank)
        assert any(a.endswith("I") for a in p.labels) == (rank % 2 == 0)
        assert all(p.d(p.dual_d.d(p.d(a))) == p.d(a) for a in p.labels), rank


def test_special_closure_properties():
    posets = [classical_poset(f, r) for f, r in PIECE_RANKS]
    for p in posets:
        for a in p.labels:
            top = special_closure(p, a)
            assert p.is_special(top)
            assert p.leq(a, top)
            if p.is_special(a):
                assert top == a
            assert p.same_image(p.d(top), p.d(a)), (p.group_id, a)


def test_special_pieces_partition_classical():
    for fam, rank in PIECE_RANKS:
        p = classical_poset(fam, rank)
        pieces = {special_piece_of(p, a) for a in p.labels}
        seen = [a for piece in pieces for a in piece]
        assert sorted(seen) == sorted(p.labels)
        for piece in pieces:
            specials = [a for a in piece if p.is_special(a)]
            assert len(specials) == 1
            top = specials[0]
            assert all(p.leq(a, top) for a in piece)


@pytest.mark.parametrize("rank", [4, 6, 8])
def test_very_even_twins(rank):
    dn = classical_poset("D", rank)
    top = partition_label((rank, rank))
    bottom = partition_label((2,) * rank)
    assert top + "I" in dn.labels and top + "II" in dn.labels
    assert not dn.leq(top + "I", top + "II")
    assert not dn.leq(top + "II", top + "I")
    assert dn.leq(top + "I", top + "I")
    # identical closures below
    below_i = {a for a in dn.labels if dn.leq(a, top + "I")} - {top + "I"}
    below_ii = {a for a in dn.labels if dn.leq(a, top + "II")} - {top + "II"}
    assert below_i == below_ii
    # duality carries the decoration
    assert dn.d(top + "I") == bottom + "I"
    assert dn.d(top + "II") == bottom + "II"
    assert dn.same_image(top + "I", top + "II")
    assert not dn.same_image(top + "I", bottom + "I")


# (orbits, specials, special pieces), as recorded for the classical sweep
RECORDED_COUNTS = {
    ("B", 4): (13, 10, 10), ("B", 5): (21, 16, 16), ("B", 6): (35, 26, 26),
    ("C", 4): (14, 10, 10), ("C", 5): (24, 16, 16), ("C", 6): (40, 26, 26),
    ("D", 4): (12, 11, 11), ("D", 5): (16, 14, 14), ("D", 6): (31, 27, 27),
}


@pytest.mark.parametrize("family,rank", sorted(RECORDED_COUNTS))
def test_classical_counts_match_recorded(family, rank):
    p = classical_poset(family, rank)
    pieces = {special_piece_of(p, a) for a in p.labels}
    counts = (len(p.labels), len(p.specials()), len(pieces))
    assert counts == RECORDED_COUNTS[(family, rank)]


def test_unknown_label_and_missing_tables():
    c2 = classical_poset("C", 2)
    with pytest.raises(UnknownLabelError):
        c2.leq("(9)", "(4)")
    with pytest.raises(MissingTableError):
        c2.sommers("(4)", "1")
    a2 = classical_poset("A", 2)
    assert a2.sommers("(2,1)", "1") == "(2,1)"
    with pytest.raises(UnknownLabelError):
        a2.sommers("(2,1)", "(12)")


@pytest.mark.parametrize("family,rank", [("E", 4), ("D", 1), ("A", 0)])
def test_bad_family_or_rank_is_value_error(family, rank):
    with pytest.raises(ValueError):
        ClassicalPoset(family, rank)


@pytest.mark.parametrize("label", [3, None, ("(4)",), ["(4)"], {"(4)": 1}])
def test_non_string_label_is_unknown(f4_pair, label):
    for poset in (classical_poset("C", 2), f4_pair.g):
        with pytest.raises(UnknownLabelError):
            poset.check_label(label)
        with pytest.raises(UnknownLabelError):
            poset.leq(label, poset.labels[0])


# -- bundle-backed poset ------------------------------------------------------

def test_f4_duality_examples(f4_pair):
    g = f4_pair.g
    assert bvls_dual(g, "0") == "F4"
    assert bvls_dual(g, "F4(a3)") == "F4(a3)"
    assert bvls_dual(g, "A2") == "C3"


def test_f4_closure_examples(f4_pair):
    g = f4_pair.g
    assert closure_leq(g, "A1", "F4(a3)")
    assert all(closure_leq(g, "0", a) for a in g.labels)
    assert all(closure_leq(g, a, a) for a in g.labels)


def test_is_special_needs_an_attached_dual(f4_doc, f4_pair):
    # an unpaired bundle poset, a partner's d_table and a bare table poset
    # carry no dual of their own
    f4_doc["dual_group"] = "F4-partner"
    unpaired = data.bundle_poset(data.parse_bundle(json.dumps(f4_doc)))
    bare = NilpotentPoset("toy", {"0": {"0"}}, {}, {("0", "1"): "0"})
    for poset in (unpaired, f4_pair.g.dual_d, bare):
        for call in (is_special, special_piece_of):
            with pytest.raises(MissingTableError) as err:
                call(poset, "0")
            assert str(err.value) == (
                f"group {poset.group_id} has no dual-group data attached")


def test_only_nilpotent_poset_defines_is_special():
    # specialness has one definition; subclasses differ only in dual_d
    modules = [importlib.import_module(f"orbitduality.{m.name}")
               for m in pkgutil.iter_modules(orbitduality.__path__)]
    defining = sorted(
        f"{m.__name__}.{name}" for m in modules for name, cls in vars(m).items()
        if isinstance(cls, type) and cls.__module__ == m.__name__
        and "is_special" in vars(cls)
    )
    assert defining == ["orbitduality.poset.NilpotentPoset"]


def test_orbits_reexports_the_bundle_path_core():
    # each poset name has one home, poset; orbits passes on only its base
    # class and what the benchmark reads through it: orbits.bvls_dual and
    # orbits.special_piece_of (perfbench/worker.py:52,55) and
    # ClassicalPoset.dual, the alias of dual_d (perfbench/sweep.py:50).
    # ROADMAP item 1c, which rewrites those readers, retires all three
    from orbitduality import orbits, poset

    shown = [n for n, v in vars(orbits).items()
             if getattr(v, "__module__", None) == "orbitduality.poset"]
    assert sorted(shown) == ["NilpotentPoset", "bvls_dual", "special_piece_of"]
    assert all(getattr(orbits, n) is getattr(poset, n) for n in shown)
    assert classical_poset("B", 3).dual is classical_poset("B", 3).dual_d


def test_f4_specials(f4_pair, f4_bundle):
    g = f4_pair.g
    assert is_special(g, "0")
    assert is_special(g, "F4(a3)")
    assert not is_special(g, "A1")
    assert not is_special(g, "B2")
    computed = {a for a in g.labels if is_special(g, a)}
    flagged = {o.label for o in f4_bundle.orbits if o.special}
    assert computed == flagged
    assert len(computed) == 11


def test_f4_special_closure(f4_pair):
    g = f4_pair.g
    assert special_closure(g, "B2") == "F4(a3)"
    assert special_closure(g, "0") == "0"
    for a in g.labels:
        if is_special(g, a):
            assert special_closure(g, a) == a
        assert g.d(special_closure(g, a)) == g.d(a)


def test_f4_special_pieces(f4_pair):
    g = f4_pair.g
    piece = set(special_piece_of(g, "F4(a3)"))
    assert piece == {"F4(a3)", "C3(a1)", "B2", "A1+~A2", "~A1+A2"}
    assert special_piece_of(g, "0") == ("0",)
    assert "F4" in special_piece_of(g, "F4")
    pieces = {special_piece_of(g, a) for a in g.labels}
    seen = sorted(a for piece in pieces for a in piece)
    assert seen == sorted(g.labels)


def test_f4_closure_strictly_increases_dimension(f4_pair):
    g = f4_pair.g
    for a in g.labels:
        for b in g.labels:
            if a != b and g.leq(a, b):
                assert g.dim(a) < g.dim(b), (a, b)


def test_non_unique_special_closure_raises():
    # diamond with both middle orbits "special" and a non-special top
    poset = BundlePoset(
        group_id="toy",
        labels=("0", "a", "b", "r"),
        covers=(("0", "a"), ("0", "b"), ("a", "r"), ("b", "r")),
        bar_a={},
        ds={("0", "1"): "r", ("a", "1"): "a", ("b", "1"): "b", ("r", "1"): "a"},
    )
    poset.dual_d = d_table(poset)
    # a, b are d-fixed; 0 and r are not
    assert poset.is_special("a") and poset.is_special("b")
    assert not poset.is_special("0")
    with pytest.raises(NonUniqueCoverError):
        poset.special_closure("0")


def _closure_cycle(f4_doc):
    """The F4 pair with the cover B3 <= F4(a3) added, unvalidated."""
    f4_doc["closure"].append(["B3", "F4(a3)"])
    return data.dual_pair(data.parse_bundle(json.dumps(f4_doc)))


def test_a_closure_cycle_leaves_two_least_special_orbits(f4_doc):
    # the cover B3 <= F4(a3) closes a 2-cycle with F4(a3) <= B3; both are
    # special and above C3(a1), and each is below the other, so both are
    # least.  dual_pair does not validate, so the cycle reaches the search
    with pytest.raises(NonUniqueCoverError) as raised:
        _closure_cycle(f4_doc).g.special_closure("C3(a1)")
    assert str(raised.value) == (
        "orbit C3(a1) in F4 has no unique minimal special orbit above it")


def test_f4_specials_are_worked_out_once(fresh_f4_pair, is_special_calls):
    # the first pass over every piece asks each label once; the second
    # reads the kept specials
    g = fresh_f4_pair.g
    for calls in (16, 0):
        for a in g.labels:
            special_piece_of(g, a)
        assert len(is_special_calls) == calls
        is_special_calls.clear()


def test_a_second_pass_over_every_piece_reads_the_kept_pieces(
    fresh_f4_pair, label_checks, special_closures
):
    # the first pass works out 17 closures a label; the second reads each
    # piece back and checks no label
    g, rounds = fresh_f4_pair.g, []
    for _ in range(2):
        pieces = [g.special_piece(a) for a in g.labels]
        rounds.append((pieces, len(label_checks), len(special_closures)))
        label_checks.clear()
        special_closures.clear()
    (cold, checks, closures), warm = rounds
    assert (checks, closures) == (12408, 16 * 17)
    assert warm == (cold, 0, 0)


def test_rebinding_dual_d_makes_the_kept_pieces_follow():
    # the variant dual's d sends d(6,6,1) back to (6,6,1), which turns
    # special in place of (7,5,1), so pieces change; each answer after the
    # rebinding is a fresh poset's under the same dual
    variant = _variant(B6.dual_d, [(B6.d("(6,6,1)"), "(6,6,1)")])
    g = _paired(_variant(B6), B6.dual_d)
    before = [g.special_piece(a) for a in g.labels]
    after = [_paired(g, variant).special_piece(a) for a in g.labels]
    fresh = _paired(_variant(B6), variant)
    assert after == [fresh.special_piece(a) for a in g.labels] != before
    assert [_paired(g, B6.dual_d).special_piece(a) for a in g.labels] == before


@pytest.mark.parametrize("cycle,label,error,text", [
    (False, "E8", UnknownLabelError, "unknown orbit 'E8' in group F4"),
    (False, ["B2"], UnknownLabelError, "unknown orbit ['B2'] in group F4"),
    (True, "C3(a1)", NonUniqueCoverError,
     "orbit C3(a1) in F4 has no unique minimal special orbit above it"),
    (True, "0", NonUniqueCoverError,
     "orbit ~A1+A2 in F4 has no unique minimal special orbit above it"),
], ids=["unknown", "unhashable", "closure-cycle", "closure-cycle-member"])
def test_a_piece_that_raises_raises_again_on_every_call(
    f4_doc, cycle, label, error, text
):
    # a call that raises keeps nothing, so no later call answers it; the
    # piece of 0 raises at the first label whose closure is not unique
    pair = _closure_cycle(f4_doc) if cycle else data.dual_pair(
        data.parse_bundle(json.dumps(f4_doc)))
    for _ in range(3):
        with pytest.raises(error) as raised:
            pair.g.special_piece(label)
        assert str(raised.value) == text


def test_unpaired_laws_and_pieces_need_the_dual_group_data():
    # before pairing, the laws of d and a piece raise is_special's error,
    # and the piece keeps nothing, so pairing answers it
    poset = data.bundle_poset(data.parse_bundle(data.builtin_bundle_text("f4")))
    for call in (lambda: duality_failures(poset), lambda: poset.special_piece("F4(a3)")):
        for _ in range(2):
            with pytest.raises(MissingTableError) as raised:
                call()
            assert str(raised.value) == "group F4 has no dual-group data attached"
    with pytest.raises(UnknownLabelError):
        poset.special_piece("E8")
    poset.dual_d = d_table(poset)
    assert duality_failures(poset) is None
    assert len(poset.special_piece("F4(a3)")) == 5


@pytest.mark.parametrize("poset", [
    pytest.param(lambda: data.dual_pair(data.load_builtin_bundle("f4")).g, id="F4"),
    *(pytest.param(lambda f=f, r=r: ClassicalPoset(f, r), id=f"{f}{r}")
      for f, r in PIECE_RANKS),
])
def test_cold_and_warm_pieces_agree(poset):
    p = poset()
    cold = [p.special_piece(a) for a in p.labels]
    assert [p.special_piece(a) for a in p.labels] == cold
    assert all(a in piece for a, piece in zip(p.labels, cold))


def test_one_pass_over_fresh_c6_pieces_works_out_1640_closures(special_closures):
    # each piece works out its own closure and all 40 labels': 40 x 41.  The
    # classical sweep asks each piece once on a fresh poset, so keeping pieces
    # saves it nothing; this falls only with the closure table of ROADMAP
    # item 4, after item 1b stops charging memory per operation
    c6 = ClassicalPoset("C", 6)
    for a in c6.labels:
        special_piece_of(c6, a)
    assert len(special_closures) == 40 * 41 == 1640


def test_all_c6_pieces_ask_each_label_once(is_special_calls):
    # a fresh poset, since classical_poset's may already keep its specials
    c6 = ClassicalPoset("C", 6)
    for a in c6.labels:
        special_piece_of(c6, a)
    assert len(is_special_calls) == len(c6.labels) == 40


def test_rebinding_dual_d_works_the_specials_out_again():
    poset = BundlePoset(
        group_id="toy", labels=("0", "a", "r"), covers=(("0", "a"), ("a", "r")),
        bar_a={}, ds={("0", "1"): "r", ("a", "1"): "a", ("r", "1"): "0"},
    )
    poset.dual_d = d_table(poset)
    assert poset.specials() == ("0", "a", "r")
    assert poset.special_piece("a") == ("a",)
    # a dual whose d sends a to r: a is no longer special
    poset.dual_d = NilpotentPoset(
        "toy", dict.fromkeys(poset.labels, ()), {},
        {("0", "1"): "r", ("a", "1"): "r", ("r", "1"): "0"},
    )
    assert poset.specials() == ("0", "r")
    assert poset.special_closure("a") == "r"
    assert poset.special_piece("a") == ("a", "r")


def test_a_specials_call_that_raises_keeps_nothing(f4_doc, is_special_calls):
    # unpaired, each call raises at the first label again; once paired, the
    # next call answers from every label
    f4_doc["dual_group"] = "F4-partner"
    poset = data.bundle_poset(data.parse_bundle(json.dumps(f4_doc)))
    for _ in range(2):
        with pytest.raises(MissingTableError):
            poset.specials()
    assert is_special_calls == ["0", "0"]
    poset.dual_d = d_table(poset)
    assert len(poset.specials()) == 11
    assert len(is_special_calls) == 2 + 16
