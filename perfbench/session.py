"""`f4-session`: F4 loaded once in this interpreter, then a seeded stream
of library queries, each one public call timed on its own."""

from __future__ import annotations

import resource
import time

import f4
from harness import Bench, Result, loop_rounds, peak_rss_mb

SETUP_REPS = 3


class SessionWorkload:
    def __init__(self, bench: Bench, od):
        self.bench = bench
        self.od = od
        self.doc = f4.load_doc(bench.root)
        self.golden = f4.load_golden("f4_lib.json")
        self.session: f4.Session | None = None

    def setup(self, result: Result) -> None:
        """load_builtin_bundle, dual_pair and parameter_set, several times;
        the last load serves the queries."""
        od = self.od
        for _ in range(1 if self.bench.tiny else SETUP_REPS):
            result.calibrate()
            start = time.perf_counter()
            bundle = od.load_builtin_bundle("f4")
            pair = od.dual_pair(bundle)
            od.parameter_set(bundle, f4.ic_orbits(self.doc)[0])
            result.setup(time.perf_counter() - start)
        self.session = f4.Session(od, bundle, pair)

    def make_round(self, rng) -> list[tuple]:
        """Every query kind once, in seeded order with seeded arguments."""
        kinds = list(f4.LIB_KINDS)
        rng.shuffle(kinds)
        return [(k, rng.choice(f4.lib_arg_space(self.doc, k))) for k in kinds]

    def run_op(self, spec, result: Result) -> float:
        kind, args = spec
        fn, call_args = self.session.prepare(kind, args)
        start = time.perf_counter()
        try:
            answer = self.bench.tracer.call(f4.LIB_SPAN[kind], fn, *call_args)
        except Exception as exc:  # an unexpected raise counts as a failed op
            latency = time.perf_counter() - start
            return result.op(latency, False, f"{kind}{args}: raised {exc!r}")
        latency = time.perf_counter() - start
        ok = f4.encode(kind, answer) == self.golden[kind][f4.lib_key(args)]
        return result.op(latency, ok, f"{kind}{args}: answer differs from golden")


def run(bench: Bench, od) -> Result:
    result = Result()
    work = SessionWorkload(bench, od)
    work.setup(result)
    loop_rounds(bench, work.make_round, work.run_op, result)
    result.peak_rss_mb = peak_rss_mb(resource.RUSAGE_SELF)
    return result
