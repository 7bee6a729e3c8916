"""Regenerate the golden F4 answers the benchmark checks every operation against.

    python3 perfbench/make_golden.py

Run from the repository root.  Writes golden/f4_cli.json (CLI stdout and
exit code, byte for byte, for every subcommand, argument and format),
golden/f4_lib.json (every library query the session workload can draw)
and golden/f4_corrupt.json (the verify output on every corrupted bundle).
Before writing, the answers are cross-checked against the values the paper
tabulates for F4(a3); a disagreement aborts without writing anything.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import corrupt
import f4
from f4cli import failed_checks

ROOT = Path(__file__).resolve().parent.parent

# The paper's table at F4(a3): wavefront column, packet, weak packet and
# the special piece of the infinitesimal-character orbit.
PAPER_CUWF = {
    "X1": ["F4", "1"], "X2": ["F4(a1)", "(12)"], "X3": ["F4(a1)", "1"],
    "X4": ["C3", "1"], "X5": ["F4(a3)", "1"], "X6": ["F4(a2)", "1"],
    "X7": ["F4(a3)", "(1234)"], "X8": ["F4(a3)", "(123)"],
    "X9": ["F4(a3)", "(12)"], "X10": ["F4(a1)", "1"],
    "X11": ["F4(a3)", "(12)(34)"], "X12": ["B3", "1"],
    "X13": ["F4(a3)", "1"], "X14": ["C3", "1"], "X15": ["F4(a3)", "(12)"],
    "X16": ["F4(a2)", "1"], "X17": ["F4(a3)", "1"],
    "X18": ["F4(a3)", "(12)(34)"], "X19": ["F4(a3)", "1"],
    "X20": ["F4(a3)", "1"],
}
PAPER_PACKET = ["X5", "X13", "X17", "X19", "X20"]
PAPER_WEAK = ["X5", "X7", "X8", "X9", "X11", "X13", "X15", "X17", "X18",
              "X19", "X20"]
PAPER_PIECE = {"F4(a3)", "C3(a1)", "B2", "A1+~A2", "~A1+A2"}


def run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue()


def memoize_validation(data):
    """Validate each distinct bundle once while generating; the benchmark
    itself compares against real CLI processes on every run."""
    real = data.validate_bundle
    memo = {}

    def validate(bundle, dual_bundle=None):
        key = (data.serialize_bundle(bundle), dual_bundle is None)
        if key not in memo:
            memo[key] = real(bundle, dual_bundle)
        return memo[key]

    data.validate_bundle = validate


def cli_golden(cli, doc, bundle_path):
    table = {}
    for sub in f4.CLI_SUBCOMMANDS:
        for args in f4.cli_arg_space(doc, sub):
            for fmt in f4.FORMATS:
                code, out = run_cli(cli, f4.cli_argv(fmt, sub, args, bundle_path))
                if code != 0:
                    raise SystemExit(f"{fmt} {sub} {args} exited {code}")
                table[f4.cli_key(fmt, sub, args)] = {"exit": code, "stdout": out}
    return table


def corrupt_golden(cli, doc, workdir):
    table = {}
    for kind, check in corrupt.KINDS.items():
        kept, dropped = {}, []
        for variant in corrupt.variants(doc, kind):
            path = workdir / "corrupt.json"
            path.write_text(json.dumps(corrupt.corrupt(doc, kind, variant)))
            entry = {}
            for fmt in f4.FORMATS:
                code, out = run_cli(cli, f4.cli_argv(fmt, "verify", (), str(path)))
                entry[fmt] = {"exit": code, "stdout": out}
                entry[fmt]["failed"] = failed_checks(fmt, out) if out else []
            if all(
                entry[fmt]["exit"] == 2 and check in entry[fmt]["failed"]
                for fmt in f4.FORMATS
            ):
                kept[variant] = entry
            else:
                dropped.append(variant)
        table[kind] = {"check": check, "variants": kept, "dropped": dropped}
    return table


def lib_golden(od, doc):
    bundle = od.load_builtin_bundle("f4")
    session = f4.Session(od, bundle, od.dual_pair(bundle))
    table = {}
    for kind in f4.LIB_KINDS:
        table[kind] = {}
        for args in f4.lib_arg_space(doc, kind):
            fn, call_args = session.prepare(kind, args)
            table[kind][f4.lib_key(args)] = f4.encode(kind, fn(*call_args))
    return table


def cross_check(lib):
    ic = "F4(a3)"
    problems = []
    if lib["cuwf"] != PAPER_CUWF:
        problems.append("cuwf table differs from the paper")
    if lib["arthur_packet"][ic] != PAPER_PACKET:
        problems.append(f"packet {lib['arthur_packet'][ic]}")
    if lib["weak_packet"][ic] != PAPER_WEAK:
        problems.append(f"weak packet {lib['weak_packet'][ic]}")
    if set(lib["special_piece_of"][ic]) != PAPER_PIECE:
        problems.append(f"special piece {lib['special_piece_of'][ic]}")
    if not lib["check_jiang"][ic]["passed"]:
        problems.append("check_jiang fails at F4(a3)")
    if problems:
        raise SystemExit("golden disagrees with the paper: " + "; ".join(problems))


def main():
    sys.path.insert(0, str(ROOT / "src"))
    import orbitduality as od
    from orbitduality import cli, data

    doc = f4.load_doc(ROOT)
    lib = lib_golden(od, doc)
    cross_check(lib)
    workdir = ROOT / ".perfbench_out"
    workdir.mkdir(exist_ok=True)
    corrupt_table = corrupt_golden(cli, doc, workdir)
    memoize_validation(data)
    cli_table = cli_golden(cli, doc, str(f4.BUNDLE_REL))
    for name, table in (
        ("f4_lib.json", lib),
        ("f4_cli.json", cli_table),
        ("f4_corrupt.json", corrupt_table),
    ):
        path = f4.GOLDEN_DIR / name
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}: {len(table)} entries")
    for kind, entry in corrupt_table.items():
        print(f"{kind}: {len(entry['variants'])} variants, "
              f"dropped {entry['dropped']}")


if __name__ == "__main__":
    main()
