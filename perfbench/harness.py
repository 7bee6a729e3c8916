"""Run context, per-operation bookkeeping and statistics shared by the workloads."""

from __future__ import annotations

import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import Tracer

CHILD_TIMEOUT_S = 120

# Calibration time on the reference machine (2 vCPUs, Python 3.11), so
# that scaled timings read close to raw ones there.
CAL_REF_S = 3.0e-3
CAL_EVERY_S = 0.1
CAL_WINDOW = 5
TAIL_PERCENTILES = (95, 90, 75, 50)


@dataclass
class Bench:
    root: Path
    seed: int
    seconds: float
    tiny: bool
    tracer: Tracer

    def __post_init__(self):
        # One CPU for this process and every child it starts, so the
        # calibration runs where the measured work runs.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.rng = random.Random(self.seed)
        self.out = self.root / ".perfbench_out"
        self.out.mkdir(exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONIOENCODING"] = "utf-8"
        self.env = env

    def run_child(self, argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        """Run one child process to completion; returns (wall seconds, result)."""
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *argv], capture_output=True, env=self.env,
            cwd=self.root, timeout=CHILD_TIMEOUT_S,
        )
        return time.perf_counter() - start, proc


@dataclass
class Result:
    """Timings of one run, each scaled to the reference speed by the
    calibrations taken just before it (scale 1 until the first one)."""

    latencies: list[float] = field(default_factory=list)
    raw_latencies: list[float] = field(default_factory=list)
    rounds: list[float] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)
    recent: list[float] = field(default_factory=list)
    scale: float = 1.0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0

    def calibrate(self) -> None:
        """Take a calibration; what follows is scaled by the median of the
        last CAL_WINDOW, which tracks drift without one noisy sample
        inflating single operations."""
        self.recent = (self.recent + [calibrate()])[-CAL_WINDOW:]
        self.calibrated(median(self.recent))

    def calibrated(self, seconds: float) -> None:
        """Scale what follows by a calibration that took `seconds`."""
        self.scale = CAL_REF_S / seconds
        self.scales.append(self.scale)

    def op(self, latency: float, ok: bool, what: str) -> float:
        """Record one operation; returns its scaled latency."""
        self.attempted += 1
        self.raw_latencies.append(latency)
        self.latencies.append(latency * self.scale)
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)
        return self.latencies[-1]

    def setup(self, seconds: float) -> None:
        self.setups.append(seconds * self.scale)


class _Order:
    """Dominance order on a tuple of partitions, checked by linear scans."""

    def __init__(self, items):
        self.items = tuple(items)

    def check(self, p):
        if p not in self.items:
            raise KeyError(p)

    def leq(self, p, q):
        self.check(p)
        self.check(q)
        a = b = 0
        for i in range(max(len(p), len(q))):
            a += p[i] if i < len(p) else 0
            b += q[i] if i < len(q) else 0
            if a > b:
                return False
        return True


def _partitions(n, cap):
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _calibration_work(n: int = 9) -> int:
    order = _Order(_partitions(n, n))
    transpose = {
        p: tuple(sum(1 for x in p if x > i) for i in range(p[0])) for p in order.items
    }
    count = 0
    for p in order.items:
        above = [q for q in order.items if order.leq(p, q)]
        count += sum(1 for q in above if order.leq(transpose[q], transpose[p]))
    return count


def calibrate() -> float:
    """Best of three timings of a fixed piece of pure-Python work.

    The host's speed drifts by a fifth and more over minutes, at times
    between two states almost a factor two apart.  This work has the
    shape of the program's hot loops (small method calls, tuple scans,
    partition dominance) but never calls the program, so timings divided
    by it are steadier across runs while still moving with the program's
    own cost.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _calibration_work()
        best = min(best, time.perf_counter() - start)
    return best


def peak_rss_mb(who: int) -> float:
    """ru_maxrss is in KiB on Linux."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest of p95, p90, p75 and p50 with at least ten samples
    beyond it (nearest rank); the minimum when there is none.

    Percentiles above p95 are left out: on the reference host a fixed
    50 ms call varies from 30 to 100 ms within one run, so beyond p95 the
    figure measures the host's bursts rather than the program.
    Returns (value, percentile, sample count).
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        k = math.ceil(p * n / 100) - 1
        if n - 1 - k >= 10:
            return ordered[k], p, n
    return ordered[0], 0.0, n


def median(values) -> float:
    return statistics.median(values)


def loop_rounds(bench: Bench, make_round, run_op, result: Result) -> None:
    """Closed loop with one client: whole rounds until `bench.seconds` of
    scaled busy time have been measured.

    Each round runs every operation kind once, so every run has the same
    mix; a round's time is the sum of what run_op returns, its scaled
    time in the program.  Counting scaled rather than wall time keeps the
    number of rounds, and with it the tail percentile, the same on a host
    whose speed drifts.  Between operations, at most every CAL_EVERY_S,
    the loop takes a calibration.
    """
    calibrated = 0.0
    while sum(result.rounds) < bench.seconds:
        total = 0.0
        for spec in make_round(bench.rng):
            if time.perf_counter() - calibrated >= CAL_EVERY_S:
                result.calibrate()
                calibrated = time.perf_counter()
            total += run_op(spec, result)
        result.rounds.append(total)
