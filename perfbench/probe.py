"""Per-layer timings for the traced run, taken from outside each layer by
timing calls into its public functions.

Every traced run of every workload takes the same probe, so each traced
run reports every per-layer metric.  Batch timings are the median over a
few repetitions of the mean time per call.
"""

from __future__ import annotations

import json
import time

import corrupt
import f4
from f4cli import CliWorkload
from harness import Bench, median
from sweep import FAMILIES, run_worker

# one fixed invocation per subcommand, text format
CLI_PROBE = {
    "dual": ("F4(a3)",),
    "achar-dual": ("F4(a3)", "(12)"),
    "closure": ("A2", "F4(a3)"),
    "special-piece": ("F4(a3)",),
    "cuwf": ("X7",),
    "packet": ("F4(a3)",),
    "weak-packet": ("F4(a3)",),
    "verify": (),
    "list": (),
}
CORRUPT_PROBE = ("wrong-dim", "A2")
PIECE_RANKS = (4, 5, 6)
BUILD_RANKS = (7, 8, 9, 10)
ENUMERATE_RANKS = (6, 10)


class Probe:
    def __init__(self, bench: Bench, od):
        self.bench = bench
        self.od = od
        self.tracer = bench.tracer
        self.metrics: dict[str, tuple[float, str]] = {}
        self.doc = f4.load_doc(bench.root)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def batch(self, name: str, fn, arg_list, reps: int = 3) -> float:
        """Median over reps of the mean seconds per call of fn(*args)."""
        per_call = []
        for _ in range(reps):
            with self.tracer.span(name, calls=len(arg_list)):
                start = time.perf_counter()
                for args in arg_list:
                    fn(*args)
                per_call.append((time.perf_counter() - start) / len(arg_list))
        return median(per_call)

    # -- cli -----------------------------------------------------------------

    def cli(self) -> None:
        bench = self.bench
        walls = []
        for _ in range(3):
            with self.tracer.span("cli.import"):
                wall, proc = bench.run_child(["-c", "import orbitduality"])
            if proc.returncode != 0:
                raise RuntimeError("bare import failed")
            walls.append(wall)
        self.put("cli.import_s", median(walls), "s")
        work = CliWorkload(bench)
        subs = ("list",) if bench.tiny else tuple(CLI_PROBE)
        specs = [("text", sub, CLI_PROBE[sub]) for sub in subs]
        specs.append(("text", "verify-corrupt", CORRUPT_PROBE))
        for spec in specs:
            argv = work.argv(spec)
            with self.tracer.span(f"cli.{spec[1]}"):
                wall, proc = bench.run_child(argv)
            if work.check(spec, proc) is not None:
                raise RuntimeError(f"probe call {spec} failed")
            self.put(f"cli.wall_s.{spec[1]}", wall, "s")
        work.corrupt_path.unlink(missing_ok=True)

    # -- data ----------------------------------------------------------------

    def data(self) -> None:
        od, data = self.od, self.od.data
        path = str(self.bench.root / f4.BUNDLE_REL)
        reps = 1 if self.bench.tiny else 3
        bundle = data.parse_bundle(path)
        self.put("data.parse_bundle_ms",
                 1e3 * self.batch("data.parse_bundle", data.parse_bundle, [(path,)] * 20), "ms")
        self.put("data.bundle_poset_ms",
                 1e3 * self.batch("data.bundle_poset", data.bundle_poset, [(bundle,)] * 20), "ms")
        self.put("data.dual_pair_ms",
                 1e3 * self.batch("data.dual_pair", data.dual_pair, [(bundle,)] * 20), "ms")
        self.put("data.validate_bundle_s",
                 self.batch("data.validate_bundle", data.validate_bundle, [(bundle,)], reps), "s")
        self.put("data.load_builtin_bundle_s",
                 self.batch("data.load_builtin_bundle", od.load_builtin_bundle, [("f4",)], reps), "s")
        golden = f4.load_golden("f4_corrupt.json")
        broken = [
            data.parse_bundle(json.dumps(corrupt.corrupt(
                self.doc, kind, sorted(golden[kind]["variants"])[0])))
            for kind in corrupt.KINDS
        ]
        self.put("data.validate_bundle_corrupt_ms",
                 1e3 * self.batch("data.validate_bundle", data.validate_bundle,
                                  [(b,) for b in broken], reps), "ms")

    # -- duality, packets, orbits on F4 --------------------------------------

    def f4_queries(self) -> None:
        od = self.od
        bundle = od.load_builtin_bundle("f4")
        pair = od.dual_pair(bundle)
        flip, g = pair.flip(), pair.g
        ps = bundle.parameter_sets[0]
        bcs = [tuple(bc) for bc in f4.bar_classes(self.doc)]
        labels = f4.labels(self.doc)
        pairs = f4.label_pairs(self.doc)
        us = 1e6
        self.put("duality.achar_dual_us.g",
                 us * self.batch("duality.achar_dual", od.achar_dual, [(pair, bc) for bc in bcs]), "us")
        self.put("duality.achar_dual_us.gd",
                 us * self.batch("duality.achar_dual", od.achar_dual, [(flip, bc) for bc in bcs]), "us")
        for name in ("min_special_cover", "embed", "is_special_pair", "sommers_dual"):
            self.put(f"duality.{name}_us",
                     us * self.batch(f"duality.{name}", getattr(od, name),
                                     [(pair, bc) for bc in bcs]), "us")
        for name in ("cuwf", "geometric_wf"):
            self.put(f"packets.{name}_us",
                     us * self.batch(f"packets.{name}", getattr(od, name),
                                     [(pair, ps, x) for x in ps]), "us")
        for name in ("arthur_packet", "weak_packet", "check_jiang"):
            self.put(f"packets.{name}_ms",
                     1e3 * self.batch(f"packets.{name}", getattr(od, name), [(pair, ps)] * 5), "ms")
        wd = g.weighted_dynkin
        target = ps.ic_orbit
        self.put("packets.check_infl_sum_us",
                 us * self.batch("packets.check_infl_sum", od.check_infl_sum,
                                 [(g, wd(a), wd(b), target) for a, b in pairs]), "us")
        witness_pairs = pairs[::17] if self.bench.tiny else pairs
        self.put("packets.infl_sum_witness_us",
                 us * self.batch("packets.infl_sum_witness", od.packets.infl_sum_witness,
                                 [(g, a, b, target) for a, b in witness_pairs], reps=1), "us")
        self.put("orbits.closure_leq_us",
                 us * self.batch("orbits.closure_leq", od.closure_leq,
                                 [(g, a, b) for a, b in pairs]), "us")
        for name in ("bvls_dual", "is_special"):
            self.put(f"orbits.{name}_us",
                     us * self.batch(f"orbits.{name}", getattr(od, name),
                                     [(g, a) for a in labels]), "us")
        self.put("orbits.special_piece_us",
                 us * self.batch("orbits.special_piece_of", od.special_piece_of,
                                 [(g, a) for a in labels]), "us")

    # -- classical families ---------------------------------------------------

    def classical(self) -> None:
        tiny = self.bench.tiny
        piece_ranks = (4,) if tiny else PIECE_RANKS
        for family in FAMILIES:
            for rank in piece_ranks + (() if tiny else BUILD_RANKS):
                args = ["classical", family, str(rank)]
                if rank not in piece_ranks:
                    args.append("--no-pieces")
                with self.tracer.span("op", new_op=True):
                    out = run_worker(self.bench, *args)
                times = dict.fromkeys(("orbits.classical_poset", "orbits.specials",
                                       "orbits.special_piece_of"), 0.0)
                for name, start, end, _ in out["spans"]:
                    times[name] = times.get(name, 0.0) + end - start
                gid = f"{family}{rank}"
                self.put(f"orbits.build_ms.{gid}", 1e3 * times["orbits.classical_poset"], "ms")
                self.put(f"orbits.specials_ms.{gid}", 1e3 * times["orbits.specials"], "ms")
                if rank in piece_ranks:
                    self.put(f"orbits.pieces_ms.{gid}",
                             1e3 * times["orbits.special_piece_of"], "ms")
            for rank in () if tiny else ENUMERATE_RANKS:
                with self.tracer.span("op", new_op=True):
                    out = run_worker(self.bench, "enumerate", family, str(rank))
                (_, start, end, _), = out["spans"]
                self.put(f"partitions.enumerate_valid_ms.{family}{rank}", 1e3 * (end - start), "ms")

    def partitions_and_roots(self) -> None:
        od, pt, rd = self.od, self.od.partitions, self.od.rootdata
        collapses = [
            (p, fam)
            for n, fams in ((12, ("C", "D")), (13, ("B",)))
            for p in pt.enumerate_partitions(n)
            for fam in fams
        ]
        self.put("partitions.collapse_us",
                 1e6 * self.batch("partitions.collapse", pt.collapse, collapses), "us")
        rs = od.root_system("F4", 4)
        g = od.dual_pair(od.load_builtin_bundle("f4")).g
        coweights = [g.weighted_dynkin(a) for a in f4.labels(self.doc)]
        conjugates = rd.coweight_orbit(g.weighted_dynkin("F4(a3)"), rs)
        dominant = rd.dominant_rep(conjugates[0], rs)
        self.put("rootdata.dominant_rep_us",
                 1e6 * self.batch("rootdata.dominant_rep", rd.dominant_rep,
                                  [(w, rs) for w in conjugates]), "us")
        self.put("rootdata.weyl_conjugate_us",
                 1e6 * self.batch("rootdata.weyl_conjugate", rd.weyl_conjugate,
                                  [(w, dominant, rs) for w in conjugates]), "us")
        self.put("rootdata.coweight_orbit_ms",
                 1e3 * self.batch("rootdata.coweight_orbit", rd.coweight_orbit,
                                  [(w, rs) for w in coweights]), "ms")

    def run(self) -> dict[str, tuple[float, str]]:
        self.cli()
        self.data()
        self.f4_queries()
        self.classical()
        self.partitions_and_roots()
        return self.metrics
