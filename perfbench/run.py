"""The repository benchmark: three workloads over orbitduality.

    python3 perfbench/run.py --workload f4-cli --seed 1 --seconds 20 --trace 0

Run from the repository root.  Workloads (see BENCHMARK.json and
perfbench/README.md): `f4-cli`, `f4-session`, `classical-sweep`.

With `--trace 0` the timed loop runs whole rounds until it has measured
`--seconds` of busy time at the reference speed, and the last stdout line
is a JSON object with the end-to-end metrics.  With
`--trace 1` the run instead takes the per-layer probe and a fixed,
seed-determined slice of the workload under tracing, writes the spans to
`.perfbench_out/`, and reports the per-layer metrics.  Every operation is
checked against the golden answers or the classical laws.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

import f4cli
import session
import sweep
from harness import Bench, Result, median, tail
from probe import CORRUPT_PROBE, Probe
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("f4-cli", "f4-session", "classical-sweep")
TRACED_SESSION_ROUNDS = 20
TRACED_SWEEP_RANKS = (4, 5)

# per workload: end-to-end metric -> (its name in the workload's terms, scale, unit)
ALIASES = {
    "f4-cli": {"op_p50_ms": ("cli_p50_s", 1e-3, "s"),
               "op_tail_ms": ("cli_tail_s", 1e-3, "s")},
    "f4-session": {"ops_per_s": ("queries_per_s", 1.0, "1/s"),
                   "op_p50_ms": ("query_p50_ms", 1.0, "ms"),
                   "op_tail_ms": ("query_tail_ms", 1.0, "ms")},
    "classical-sweep": {"round_s": ("sweep_s", 1.0, "s")},
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest inputs, for the smoke test")
    return p.parse_args(argv)


def end_to_end(name: str, result) -> tuple[dict, list[str]]:
    """Timings are scaled to the reference speed (see harness.calibrate)."""
    lat = result.latencies
    tail_v, tail_p, n = tail(lat)
    metrics = {
        "setup_s": (median(result.setups), "s"),
        "op_p50_ms": (1e3 * median(lat), "ms"),
        "op_tail_ms": (1e3 * tail_v, "ms"),
        "ops_per_s": (len(lat) / sum(result.rounds), "1/s"),
        "round_s": (sum(result.rounds) / len(result.rounds), "s"),
        "peak_rss_mb": (result.peak_rss_mb, "MB"),
    }
    lines = [
        f"{len(lat)} operations in {len(result.rounds)} rounds; "
        f"failed_frac {result.failed / result.attempted:.4f} "
        f"({result.failed}/{result.attempted})",
        f"timings scaled to the reference speed by a median factor of "
        f"{median(result.scales):.4f} ({len(result.scales)} calibrations); "
        f"raw op p50 {1e3 * median(result.raw_latencies):.6g} ms",
        f"setup_s median of {len(result.setups)} set-ups",
        f"op_tail_ms is p{tail_p:.1f} of {n} samples",
    ]
    for metric, (alias, scale, unit) in ALIASES[name].items():
        lines.append(f"{alias} = {metrics[metric][0] * scale:.6g} {unit} (from {metric})")
    return metrics, lines


def run_untraced(bench, name: str, od):
    if name == "f4-cli":
        return f4cli.run(bench)
    if name == "f4-session":
        return session.run(bench, od)
    return sweep.run(bench, od)


def traced_slice(bench, name: str, od, result) -> tuple[float, list[dict]]:
    """Run a fixed slice of the workload twice untraced and twice traced,
    interleaved, so that drift in the host's speed falls on both sides.

    Returns the tracing overhead in percent and, for f4-cli, the replay
    records that attribute each call's wall time.
    """
    if name == "f4-cli":
        work = f4cli.CliWorkload(bench)
        specs = work.make_round(random.Random(bench.seed))
        run_once = lambda: f4cli.replay(work, od, specs, result)  # noqa: E731
    elif name == "f4-session":
        work = session.SessionWorkload(bench, od)
        work.setup(result)
        rng = random.Random(bench.seed)
        rounds = 2 if bench.tiny else TRACED_SESSION_ROUNDS
        specs = [s for _ in range(rounds) for s in work.make_round(rng)]
        run_once = lambda: [work.run_op(s, result) for s in specs]  # noqa: E731
    else:
        work = sweep.SweepWorkload(bench, od, (4,) if bench.tiny else TRACED_SWEEP_RANKS)
        specs = work.make_round(random.Random(bench.seed))
        run_once = lambda: [work.run_op(s, result) for s in specs]  # noqa: E731

    tracer, untraced = bench.tracer, Tracer(False)
    elapsed = {tracer: 0.0, untraced: 0.0}
    for bench.tracer in (untraced, tracer, untraced, tracer):
        start = time.perf_counter()
        records = run_once()
        elapsed[bench.tracer] += time.perf_counter() - start
    overhead = 100.0 * (elapsed[tracer] - elapsed[untraced]) / elapsed[untraced]
    return overhead, (records if name == "f4-cli" else [])


def attribution(records: list[dict], layer: dict) -> list[str]:
    """Split each subcommand's process wall time: import, then the steps
    replayed in process, then what remains (interpreter start, argparse,
    output)."""
    lines = ["attribution of cli.wall_s.<sub> (s): import parse validate dual_pair query other"]
    seen = set()
    for rec in records:
        sub = rec["sub"]
        if sub in seen or f"cli.wall_s.{sub}" not in layer:
            continue
        if sub == "verify-corrupt" and rec["args"][0] != CORRUPT_PROBE[0]:
            continue  # the cost depends on which check fails first
        seen.add(sub)
        wall = layer[f"cli.wall_s.{sub}"][0]
        parts = [layer["cli.import_s"][0]] + [
            rec.get(k, 0.0) for k in ("parse_bundle", "validate_bundle", "dual_pair", "query")
        ]
        cells = " ".join(f"{x:.4f}" for x in parts + [wall - sum(parts)])
        lines.append(f"  {sub:15s} wall {wall:.4f} = {cells}")
    return lines


def per_layer(bench, name: str, od, result) -> tuple[dict, list[str]]:
    """The probe, then the traced slice; metrics derived from the spans of
    both, which are also written to .perfbench_out/."""
    metrics = Probe(bench, od).run()
    overhead, records = traced_slice(bench, name, od, result)
    tracer = bench.tracer
    for layer, n in tracer.calls().items():
        metrics[f"{layer}.calls"] = (n, "count")
    for layer, secs in tracer.self_times().items():
        metrics[f"{layer}.self_s"] = (secs, "s")
    metrics["trace.overhead_pct"] = (overhead, "%")
    walls = [v for k, (v, _) in metrics.items() if k.startswith("cli.wall_s.")]
    share = 100.0 * metrics["data.validate_bundle_s"][0] / median(walls)
    metrics["cli.validate_share_pct"] = (share, "%")
    lines = [f"tracing overhead {overhead:.2f}% on the traced slice",
             f"data.validate_bundle_s is {share:.1f}% of the median CLI call"]
    lines += attribution(records, metrics)
    trace_path = bench.out / f"trace-{name}-seed{bench.seed}.json"
    trace_path.write_text(json.dumps({
        "workload": name, "seed": bench.seed, "spans": tracer.to_json(),
        "self_s": tracer.self_times(), "calls": tracer.calls(),
        "overhead_pct": overhead, "attribution": records,
    }))
    lines.append(f"spans written to {trace_path.relative_to(bench.root)}")
    return metrics, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "orbitduality" / "__init__.py").is_file():
        print(f"error: no orbitduality sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import orbitduality as od

    bench = Bench(ROOT, args.seed, args.seconds, args.tiny, Tracer(bool(args.trace)))
    if args.trace:
        result = Result()
        metrics, lines = per_layer(bench, args.workload, od, result)
    else:
        result = run_untraced(bench, args.workload, od)
        metrics, lines = end_to_end(args.workload, result)
    for line in lines + result.failures:
        print(line)
    for metric, (value, unit) in metrics.items():
        print(f"{metric} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
