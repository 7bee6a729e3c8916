"""`f4-cli`: one CLI process at a time over the shipped F4 bundle.

The child runs the same entry point the `orbitduality` console script
calls, `orbitduality.cli:main`, with `src` on its path.  Every invocation
re-parses and re-validates the bundle.
"""

from __future__ import annotations

import json
import resource
import time

import corrupt
import f4
from harness import Bench, Result, loop_rounds, peak_rss_mb

LAUNCH = "import sys; from orbitduality.cli import main; main()"
TINY_SUBCOMMANDS = ("dual", "closure")
SETUP_REPS = 3


def failed_checks(fmt: str, stdout: str) -> list[str]:
    """Names of the checks a verify report marks as failed."""
    if fmt == "json":
        report = json.loads(stdout)["validation"]
        return [c["name"] for c in report["checks"] if not c["passed"]]
    return [
        line.split()[1].rstrip(":")
        for line in stdout.splitlines()
        if line.startswith("FAIL ") and not line.startswith("FAIL (")
    ]


class CliWorkload:
    def __init__(self, bench: Bench):
        self.bench = bench
        self.doc = f4.load_doc(bench.root)
        self.golden = f4.load_golden("f4_cli.json")
        self.corrupt_golden = f4.load_golden("f4_corrupt.json")
        self.bundle = str(f4.BUNDLE_REL)
        self.corrupt_path = bench.out / f"corrupt-{bench.seed}.json"

    def make_round(self, rng) -> list[tuple]:
        """Every subcommand once, and verify on one corrupted bundle of
        every kind, in seeded order with seeded arguments and format."""
        tiny = self.bench.tiny
        specs = [
            (rng.choice(f4.FORMATS), sub, rng.choice(f4.cli_arg_space(self.doc, sub)))
            for sub in (TINY_SUBCOMMANDS if tiny else f4.CLI_SUBCOMMANDS)
        ]
        for kind in sorted(corrupt.KINDS)[: 1 if tiny else None]:
            variant = rng.choice(sorted(self.corrupt_golden[kind]["variants"]))
            specs.append((rng.choice(f4.FORMATS), "verify-corrupt", (kind, variant)))
        rng.shuffle(specs)
        return specs

    def argv(self, spec) -> list[str]:
        """Child argv for one operation; writes the corrupted bundle first."""
        fmt, sub, args = spec
        if sub != "verify-corrupt":
            return ["-c", LAUNCH, *f4.cli_argv(fmt, sub, args, self.bundle)]
        self.corrupt_path.write_text(json.dumps(corrupt.corrupt(self.doc, *args)))
        rel = str(self.corrupt_path.relative_to(self.bench.root))
        return ["-c", LAUNCH, *f4.cli_argv(fmt, "verify", (), rel)]

    def check(self, spec, proc) -> str | None:
        """None when the output matches the golden answer, else why not."""
        fmt, sub, args = spec
        stdout = proc.stdout.decode("utf-8")
        if sub == "verify-corrupt":
            kind, variant = args
            want = self.corrupt_golden[kind]["variants"][variant][fmt]
            check = corrupt.KINDS[kind]
            if proc.returncode != 2:
                return f"exit {proc.returncode}, expected 2"
            if check not in failed_checks(fmt, stdout):
                return f"report does not name {check} as failed"
        else:
            want = self.golden[f4.cli_key(fmt, sub, args)]
            if proc.returncode != want["exit"]:
                return f"exit {proc.returncode}, expected {want['exit']}"
        if stdout != want["stdout"]:
            return "stdout differs from the golden answer"
        return None

    def run_op(self, spec, result: Result) -> float:
        argv = self.argv(spec)
        wall, proc = self.bench.run_child(argv)
        problem = self.check(spec, proc)
        return result.op(wall, problem is None, f"{spec}: {problem}")

    def setup(self, result: Result) -> None:
        """Set-up is the first CLI process in a checkout: `list`, timed
        from spawn to exit, taken several times."""
        spec = ("text", "list", ())
        for _ in range(1 if self.bench.tiny else SETUP_REPS):
            result.calibrate()
            wall, proc = self.bench.run_child(self.argv(spec))
            if self.check(spec, proc) is not None:
                raise RuntimeError(f"set-up call failed: {proc.stderr!r}")
            result.setup(wall)


def run(bench: Bench) -> Result:
    result = Result()
    work = CliWorkload(bench)
    work.setup(result)
    loop_rounds(bench, work.make_round, work.run_op, result)
    work.corrupt_path.unlink(missing_ok=True)
    result.peak_rss_mb = peak_rss_mb(resource.RUSAGE_CHILDREN)
    return result



def replay(work: CliWorkload, od, specs, result: Result) -> list[dict]:
    """In-process replay of CLI operations through the public path
    parse_bundle -> validate_bundle -> dual_pair -> query, in spans.

    Returns one record per operation: its subcommand and the seconds spent
    in each step, for attributing the process wall time.
    """
    lib = f4.load_golden("f4_lib.json")
    tracer, data = work.bench.tracer, od.data
    records = []
    for spec in specs:
        fmt, sub, args = spec
        path = str(work.bench.root / work.argv(spec)[3])  # after -c LAUNCH --bundle
        start = time.perf_counter()
        with tracer.span("op", new_op=True):
            steps = {}
            bundle = _step(steps, tracer, "data.parse_bundle", data.parse_bundle, path)
            report = _step(steps, tracer, "data.validate_bundle", data.validate_bundle, bundle)
            if sub == "verify-corrupt":
                check = corrupt.KINDS[args[0]]
                problem = None if check in [c.name for c in report.failures()] \
                    else f"{check} not reported failed"
            else:
                pair = _step(steps, tracer, "data.dual_pair", data.dual_pair, bundle)
                q0 = time.perf_counter()
                kind, key, answer = _query(tracer, od, bundle, pair, sub, args)
                steps["query"] = time.perf_counter() - q0
                want = lib[kind][key] if kind else f4.labels(work.doc)
                problem = None if f4.encode(kind, answer) == want else "answer differs"
        result.op(time.perf_counter() - start, problem is None, f"replay {spec}: {problem}")
        records.append({"sub": sub, "args": list(args), **steps})
    work.corrupt_path.unlink(missing_ok=True)
    return records


def _step(steps, tracer, name, fn, *args):
    start = time.perf_counter()
    out = tracer.call(name, fn, *args)
    steps[name.split(".", 1)[1]] = time.perf_counter() - start
    return out


def _query(tracer, od, bundle, pair, sub, args):
    """The library calls behind one subcommand: (golden kind, key, answer)."""
    g, call = pair.g, tracer.call
    if sub == "dual":
        return "bvls_dual", args[0], call("orbits.bvls_dual", od.bvls_dual, g, args[0])
    if sub == "achar-dual":
        return "achar_dual.g", f4.lib_key(args), call(
            "duality.achar_dual", od.achar_dual, pair, tuple(args))
    if sub == "closure":
        return "closure_leq", f4.lib_key(args), call(
            "orbits.closure_leq", od.closure_leq, g, *args)
    if sub == "special-piece":
        return "special_piece_of", args[0], call(
            "orbits.special_piece_of", od.special_piece_of, g, args[0])
    if sub in ("cuwf", "packet", "weak-packet", "verify"):
        by_ic = {ps.ic_orbit: ps for ps in bundle.parameter_sets}
    if sub == "cuwf":
        ps = next(ps for ps in by_ic.values() if args[0] in ps.ids())
        x = ps.get(args[0])
        call("packets.geometric_wf", od.geometric_wf, pair, ps, x)
        return "cuwf", args[0], call("packets.cuwf", od.cuwf, pair, ps, x)
    if sub == "packet":
        ps = by_ic[args[0]]
        members = call("packets.arthur_packet", od.arthur_packet, pair, ps)
        with tracer.span("packets.cuwf", calls=len(members)):
            for pid in members:
                od.cuwf(pair, ps, ps.get(pid))
        return "arthur_packet", args[0], members
    if sub == "weak-packet":
        ps = by_ic[args[0]]
        members = call("packets.weak_packet", od.weak_packet, pair, ps)
        with tracer.span("packets.az_dual", calls=len(members)):
            for pid in members:
                od.az_dual(ps, ps.get(pid))
        return "weak_packet", args[0], members
    if sub == "verify":
        ic, ps = next(iter(by_ic.items()))
        return "check_jiang", ic, call("packets.check_jiang", od.check_jiang, pair, ps)
    if sub == "list":
        with tracer.span("orbits.bar_classes", calls=2 * len(g.labels)):
            for label in g.labels:
                g.bar_classes(label)
                g.dim(label)
        return None, None, list(g.labels)
    raise KeyError(sub)
