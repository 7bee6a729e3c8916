"""Acceptance suite: one test per shipped guarantee, each printing a
pass/fail line with its timing.  Run with ``pytest -s tests/test_acceptance.py``
to see the lines.
"""

import json
import time

import pytest

from conftest import ACCEPTANCE_RANKS, LAW_RANKS
from orbitduality import data
from orbitduality import partitions as pt
from orbitduality.duality import (
    DualPair,
    achar_dual,
    all_bar_classes,
    embed,
    is_special_pair,
    pair_leq,
    sommers_dual,
)
from orbitduality.errors import BundleValidationError
from orbitduality.orbits import classical_poset
from orbitduality.packets import (
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
from orbitduality.poset import duality_failures, order_failures

# wavefront column of the shipped twenty-parameter table
EXPECTED_CUWF = {
    "X1": ("F4", "1"),
    "X2": ("F4(a1)", "(12)"),
    "X3": ("F4(a1)", "1"),
    "X4": ("C3", "1"),
    "X5": ("F4(a3)", "1"),
    "X6": ("F4(a2)", "1"),
    "X7": ("F4(a3)", "(1234)"),
    "X8": ("F4(a3)", "(123)"),
    "X9": ("F4(a3)", "(12)"),
    "X10": ("F4(a1)", "1"),
    "X11": ("F4(a3)", "(12)(34)"),
    "X12": ("B3", "1"),
    "X13": ("F4(a3)", "1"),
    "X14": ("C3", "1"),
    "X15": ("F4(a3)", "(12)"),
    "X16": ("F4(a2)", "1"),
    "X17": ("F4(a3)", "1"),
    "X18": ("F4(a3)", "(12)(34)"),
    "X19": ("F4(a3)", "1"),
    "X20": ("F4(a3)", "1"),
}

ARTHUR = ["X5", "X13", "X17", "X19", "X20"]
WEAK = ["X5", "X7", "X8", "X9", "X11", "X13", "X15", "X17", "X18", "X19", "X20"]
PIECE = {"F4(a3)", "C3(a1)", "B2", "A1+~A2", "~A1+A2"}


def report(num, label, elapsed):
    print(f"PASS criterion {num}: {label} ({elapsed:.3f}s)")


def test_criterion_1_wavefront_table(f4_pair, f4_params):
    start = time.perf_counter()
    mismatches = {
        x.id: cuwf(f4_pair, f4_params, x)
        for x in f4_params
        if cuwf(f4_pair, f4_params, x) != EXPECTED_CUWF[x.id]
    }
    elapsed = time.perf_counter() - start
    assert not mismatches, mismatches
    assert len(EXPECTED_CUWF) == 20
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"
    report(1, "all 20 wavefront invariants match the shipped table", elapsed)


def test_criterion_2_arthur_packet(f4_pair, f4_params):
    start = time.perf_counter()
    got = arthur_packet(f4_pair, f4_params)  # raises if characterizations differ
    by_dual = sorted(
        (x.id for x in f4_params if is_tempered(f4_params, az_dual(f4_params, x))),
        key=natural_key,
    )
    elapsed = time.perf_counter() - start
    assert got == ARTHUR
    assert by_dual == ARTHUR
    report(2, "packet at F4(a3) is {X5,X13,X17,X19,X20}, both routes", elapsed)


def test_criterion_3_weak_packet(f4_pair, f4_params):
    start = time.perf_counter()
    got = weak_packet(f4_pair, f4_params)  # raises if characterizations differ
    piece = set(f4_pair.gd.special_piece(f4_params.ic_orbit))
    by_piece = sorted(
        (x.id for x in f4_params if az_dual(f4_params, x).n_orbit in piece),
        key=natural_key,
    )
    elapsed = time.perf_counter() - start
    assert got == WEAK and len(got) == 11
    assert by_piece == WEAK
    report(3, "weak packet is the 11-element set, both routes", elapsed)


def test_criterion_4_wavefront_equality_and_bound(f4_pair, f4_params):
    start = time.perf_counter()
    d_ic = f4_pair.gd.d(f4_params.ic_orbit)
    assert d_ic == "F4(a3)"
    for pid in arthur_packet(f4_pair, f4_params):
        assert geometric_wf(f4_pair, f4_params, f4_params.get(pid)) == d_ic
    jiang = check_jiang(f4_pair, f4_params)
    assert jiang.passed
    bound = embed(f4_pair, achar_dual(f4_pair.flip(), (f4_params.ic_orbit, "1")))
    for x in f4_params:
        assert pair_leq(f4_pair, bound, embed(f4_pair, cuwf(f4_pair, f4_params, x)))
    elapsed = time.perf_counter() - start
    report(4, "packet wavefronts equal d(ic); lower bound holds for all 20", elapsed)


def _identity_suite(pair: DualPair):
    flip = pair.flip()
    classes = all_bar_classes(pair.g)
    images = set()
    for bc in classes:
        img = embed(pair, bc)
        assert img not in images, f"embed collision at {bc}"
        images.add(img)
        assert sommers_dual(pair, (bc[0], "1")) == pair.g.d(bc[0])
        once = achar_dual(pair, bc)
        assert once[0] == sommers_dual(pair, bc)
        assert achar_dual(pair, achar_dual(flip, once)) == once
        if is_special_pair(pair, bc):
            assert achar_dual(flip, once) == bc
    assert duality_failures(pair.g, pair.gd) is None
    for x in classes:
        ex = embed(pair, x)
        dx = achar_dual(pair, x)
        for y in classes:
            if pair_leq(pair, ex, embed(pair, y)):
                dy = achar_dual(pair, y)
                assert pair_leq(flip, embed(flip, dy), embed(flip, dx))


def test_criterion_5_duality_identities(f4_pair):
    start = time.perf_counter()
    _identity_suite(f4_pair)
    for rank in range(1, 5):
        p = classical_poset("A", rank)
        _identity_suite(DualPair(p, p.dual_d))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.3f}s, budget 5s"
    report(5, "duality identity suite on every loaded group pair", elapsed)


def test_criterion_6_special_pieces(f4_pair, f4_params):
    start = time.perf_counter()
    posets = [f4_pair.g] + [classical_poset(f, r) for f, r in ACCEPTANCE_RANKS]
    for poset in posets:
        pieces = {poset.special_piece(a) for a in poset.labels}
        seen = sorted(a for piece in pieces for a in piece)
        assert seen == sorted(poset.labels), poset.group_id
        for piece in pieces:
            specials = [a for a in piece if poset.is_special(a)]
            assert len(specials) == 1
            assert all(poset.leq(a, specials[0]) for a in piece)
    piece = set(f4_pair.gd.special_piece("F4(a3)"))
    assert piece == PIECE and len(piece) == 5
    partner_orbits = {
        az_dual(f4_params, f4_params.get(pid)).n_orbit
        for pid in weak_packet(f4_pair, f4_params)
    }
    assert partner_orbits == piece
    elapsed = time.perf_counter() - start
    report(6, "special pieces partition every poset; F4(a3) piece has 5", elapsed)


def test_criterion_7_classical_brute_force(f4_pair):
    start = time.perf_counter()
    for family, rank in ACCEPTANCE_RANKS:
        if family == "A":
            continue
        n = {"B": 2 * rank + 1, "C": 2 * rank, "D": 2 * rank}[family]
        valid = pt.enumerate_valid(n, family)
        for p in pt.enumerate_partitions(n):
            c = pt.collapse(p, family)
            below = [q for q in valid if pt.dominates(p, q)]
            best = [q for q in below if all(pt.dominates(q, r) for r in below)]
            assert best == [c], (family, p)
    for n in range(10):
        for p in pt.enumerate_partitions(n):
            assert pt.transpose(pt.transpose(p)) == p
            for q in pt.enumerate_partitions(n):
                assert pt.dominates(p, q) == pt.dominates(
                    pt.transpose(q), pt.transpose(p)
                )
    for family, rank in LAW_RANKS:
        p = classical_poset(family, rank)
        assert order_failures(p) == [], p.group_id
        assert duality_failures(p, p.dual_d) is None, p.group_id
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.3f}s, budget 10s"
    report(7, "classical collapse/transpose vs brute force to rank 4, "
              "poset laws to rank 10", elapsed)


def test_criterion_8_infinitesimal_character_pairs(f4_pair):
    start = time.perf_counter()
    from orbitduality.rootdata import Coweight

    g = f4_pair.gd
    target = "F4(a3)"
    h_t = g.weighted_dynkin(target)
    zero = Coweight.of([0, 0, 0, 0])
    assert check_infl_sum(g, zero, h_t, target)
    assert check_infl_sum(g, h_t, zero, target)
    searched = [
        ("A1", "C3(a1)"),
        ("~A1", "B2"),
        ("A1+~A1", "A1+~A2"),
        ("~A1+A2", "~A1+A2"),
    ]
    for lan, art in searched:
        found = infl_sum_witness(g, art, lan, target)
        assert found is not None, f"no witness for pair ({lan}, {art})"
        h_art, h_lan = found
        assert check_infl_sum(g, h_art, h_lan, target)
    elapsed = time.perf_counter() - start
    report(8, "coweight witnesses found for all five orbit pairs", elapsed)


BREAKERS = [
    ("closure_order", lambda d: d["closure"].append(["F4", "A1"])),
    ("ds_table", lambda d: d["d_s"]["F4(a3)"].pop("(123)")),
    ("d_duality", lambda d: (
        d["d_s"]["A2"].update({"1": "B3"}),
        d["d_s"]["~A2"].update({"1": "C3"}),
    )),
    ("special_flags", lambda d: [
        rec.update(special=False)
        for rec in d["orbits"] if rec["label"] == "F4(a3)"
    ]),
    ("weighted_dynkin", lambda d: d["orbits"][1].update(
        weighted_dynkin=[3, 0, 0, 0]
    )),
    ("az_links", lambda d: [
        p.update(az="X8")
        for p in d["parameter_sets"][0]["parameters"] if p["id"] == "X9"
    ]),
]


def test_criterion_9_validator_completeness(f4_bundle):
    start = time.perf_counter()
    assert data.validate_bundle(f4_bundle).passed
    for name, breaker in BREAKERS:
        doc = json.loads(data.builtin_bundle_text("f4"))
        breaker(doc)
        with pytest.raises(BundleValidationError) as err:
            data.load_bundle(json.dumps(doc))
        failed = {c.name for c in err.value.report.failures()}
        assert name in failed, f"{name} not caught: {failed}"
    elapsed = time.perf_counter() - start
    report(9, "each bundle invariant has a caught failing fixture", elapsed)
