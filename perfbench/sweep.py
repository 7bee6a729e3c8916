"""`classical-sweep`: the full invariant set of B/C/D at ranks 4-6, each
(family, rank) in a fresh worker process, checked against the classical
laws outside the timed span.

An operation is one orbit's invariants (its d and its special piece); a
round is one pass over every (family, rank), build and specials included.
"""

from __future__ import annotations

import json
import resource

from harness import Bench, Result, loop_rounds, median, peak_rss_mb

FAMILIES = ("B", "C", "D")
RANKS = (4, 5, 6)
TINY_RANKS = (4,)
SETUP_REPS = 3

# (orbits, specials, special pieces) per (family, rank), recorded from the
# seed code; C6 has 40 orbits and 26 pieces.
RECORDED = {
    ("B", 4): (13, 10, 10), ("B", 5): (21, 16, 16), ("B", 6): (35, 26, 26),
    ("C", 4): (14, 10, 10), ("C", 5): (24, 16, 16), ("C", 6): (40, 26, 26),
    ("D", 4): (12, 11, 11), ("D", 5): (16, 14, 14), ("D", 6): (31, 27, 27),
}


def worker_argv(bench: Bench, *args: str) -> list[str]:
    return [str(bench.root / "perfbench" / "worker.py"), *args]


def run_worker(bench: Bench, *args: str) -> dict:
    """One fresh worker; its spans are added under the current span."""
    _, proc = bench.run_child(worker_argv(bench, *args))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode}: "
                           f"{proc.stderr.decode()[-500:]}")
    out = json.loads(proc.stdout)
    for name, start, end, calls in out["spans"]:
        bench.tracer.record(name, start, end, calls)
    return out


def check_laws(od, family: str, rank: int, out: dict) -> list[str]:
    """d^3 = d, order reversal, specials = image of d, and the pieces
    partition the orbits with one special each; counts as recorded."""
    poset = od.classical_poset(family, rank)
    dual = poset.dual
    labels, d = out["labels"], out["d"]
    strip = poset.same_image
    problems = []
    if labels != list(poset.labels):
        problems.append("labels differ from the poset's")
    problems += [f"d^3 != d at {a}" for a in labels
                 if not strip(d[dual.d(d[a])], d[a])]
    problems += [
        f"order reversal fails at {a} <= {b}"
        for a in labels for b in labels
        if poset.leq(a, b) and not dual.leq(d[b], d[a])
    ]
    image = {dual.d(b) for b in dual.labels}
    specials = set(out["specials"])
    if {a for a in labels if any(strip(a, x) for x in image)} != specials:
        problems.append("specials differ from the image of d")
    pieces = {tuple(p) for p in out["pieces"].values()}
    members = [a for p in pieces for a in p]
    if sorted(members) != sorted(labels):
        problems.append("pieces do not partition the orbits")
    if any(a not in out["pieces"][a] for a in labels):
        problems.append("an orbit lies outside its own piece")
    if any(len(specials.intersection(p)) != 1 for p in pieces):
        problems.append("a piece without exactly one special orbit")
    counts = (len(labels), len(specials), len(pieces))
    if counts != RECORDED[(family, rank)]:
        problems.append(f"counts {counts} != recorded {RECORDED[(family, rank)]}")
    return problems


class SweepWorkload:
    def __init__(self, bench: Bench, od, ranks=None):
        self.bench = bench
        self.od = od
        self.ranks = ranks or (TINY_RANKS if bench.tiny else RANKS)

    def make_round(self, rng) -> list[tuple]:
        """One pass over every (family, rank), in seeded order."""
        specs = [(f, r) for f in FAMILIES for r in self.ranks]
        rng.shuffle(specs)
        return specs

    def run_op(self, spec, result: Result) -> float:
        """One worker for one (family, rank).  Each orbit is an operation:
        its d and special piece, timed in the worker and scaled by the
        median of the worker's own calibrations.  Returns the worker's
        scaled time in all its public calls, build and specials included."""
        family, rank = spec
        with self.bench.tracer.span("op", new_op=True):
            try:
                out = run_worker(self.bench, "classical", family, str(rank))
            except (RuntimeError, ValueError) as exc:
                result.op(0.0, False, f"{family}{rank}: {exc}")
                return 0.0
        problems = check_laws(self.od, family, rank, out)
        result.calibrated(median(out["cals"]))
        total = result.scale * sum(
            end - start for name, start, end, _ in out["spans"]
            if name in ("orbits.classical_poset", "orbits.specials"))
        for latency in out["orbit_s"].values():
            total += result.op(latency, not problems, f"{family}{rank}: {problems[:3]}")
        return total

    def setup(self, result: Result) -> None:
        """Set-up is a worker started and ready (interpreter plus import)."""
        for _ in range(1 if self.bench.tiny else SETUP_REPS):
            result.calibrate()
            wall, proc = self.bench.run_child(worker_argv(self.bench, "ready"))
            if proc.returncode != 0:
                raise RuntimeError(f"worker set-up failed: {proc.stderr!r}")
            result.setup(wall)


def run(bench: Bench, od) -> Result:
    result = Result()
    work = SweepWorkload(bench, od)
    work.setup(result)
    loop_rounds(bench, work.make_round, work.run_op, result)
    result.peak_rss_mb = peak_rss_mb(resource.RUSAGE_CHILDREN)
    return result
