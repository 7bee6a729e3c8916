"""Command-line front end over bundle files.

``COMMANDS`` names each subcommand once, with its help text, positionals
and handler.  ``build_parser`` declares them from it, and ``parse_argv``
reads well-formed argv from it without argparse; ``run`` loads the
bundles, pairs and validates them once, folds each label (every positional
but ``param_id``) through ``normalize_label``, runs the handler and prints.

Exit codes: 0 success, 1 domain errors (unknown labels, missing entries),
2 I/O, schema, or validation failures; only ``verify`` runs on a bundle
that fails validation.  Every call compiles what it imports, so argparse
loads only for argv ``parse_argv`` refuses (it alone writes help, usage
and errors), and ``packets`` only in the handlers that run a packet query.
"""

from __future__ import annotations

import json
import sys
import unicodedata
from types import SimpleNamespace

from . import data
from .duality import achar_dual
from .errors import (
    BundleValidationError,
    OrbitDualityError,
    SchemaError,
    UnknownLabelError,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_DATA = 2


def normalize_label(label: str) -> str:
    """Fold Unicode tildes and compatibility forms to plain ASCII labels."""
    text = unicodedata.normalize("NFKC", label)
    out = []
    for ch in unicodedata.normalize("NFD", text):
        if ch == "̃":  # combining tilde: rewrite X~ as ~X
            if not out:
                raise UnknownLabelError(
                    f"label {label!r} starts with a combining tilde"
                )
            prev = out.pop()
            out.append("~")
            out.append(prev)
        else:
            out.append(ch)
    return "".join(out)


def _dual(bundle, pair, report, orbit):
    image = pair.g.d(orbit)
    return EXIT_OK, [image], {"orbit": orbit, "dual": image}


def _achar_dual(bundle, pair, report, orbit, cls):
    o, c = achar_dual(pair, (orbit, cls))
    payload = {"orbit": orbit, "class": cls, "dual": {"orbit": o, "class": c}}
    return EXIT_OK, [f"({o}, {c})"], payload


def _closure(bundle, pair, report, a, b):
    result = pair.g.leq(a, b)
    return EXIT_OK, ["true" if result else "false"], {"a": a, "b": b, "leq": result}


def _special_piece(bundle, pair, report, orbit):
    piece = list(pair.g.special_piece(orbit))
    return EXIT_OK, piece, {"orbit": orbit, "piece": piece}


def _cuwf(bundle, pair, report, param_id):
    from .packets import cuwf

    for ps in bundle.parameter_sets:
        if param_id in ps.ids():
            o, c = cuwf(pair, ps, ps.get(param_id))
            payload = {"id": param_id, "cuwf": {"orbit": o, "class": c}, "geometric": o}
            return EXIT_OK, [f"cuwf: ({o}, {c})", f"geometric: {o}"], payload
    raise UnknownLabelError(f"unknown parameter id {param_id!r}")


def _packet(bundle, pair, report, ic):
    from .packets import _arthur_packet

    _, _, cuwfs = _arthur_packet(pair, data.parameter_set(bundle, ic))
    lines = [f"{pid}  cuwf=({o}, {c})" for pid, (o, c) in cuwfs]
    members = [{"id": pid, "cuwf": {"orbit": o, "class": c}} for pid, (o, c) in cuwfs]
    return EXIT_OK, lines, {"ic_orbit": ic, "members": members}


def _weak_packet(bundle, pair, report, ic):
    from . import packets

    ps = data.parameter_set(bundle, ic)
    rows = [(pid, ps.get(pid).az_partner, orbit)
            for pid, orbit in packets._weak_packet(pair, ps)]
    lines = [f"{pid}  az={az}  az_orbit={orbit}" for pid, az, orbit in rows]
    members = [{"id": pid, "az": az, "az_orbit": orbit} for pid, az, orbit in rows]
    return EXIT_OK, lines, {"ic_orbit": ic, "members": members}


def _verify(bundle, pair, report):
    """Full invariant suite plus the wavefront checks on parameter sets."""
    ok = report.passed
    lines = [report.to_text()]
    jiang = []
    if ok:
        from .packets import check_jiang  # here: a failing verify never loads it

        for ps in bundle.parameter_sets:
            jr = check_jiang(pair, ps)
            ok = ok and jr.passed
            mark = "ok  " if jr.passed else "FAIL"
            lines.append(
                f"{mark} wavefront equalities and lower bound at {ps.ic_orbit}"
            )
            jiang.append(jr.to_dict())
    else:
        lines.append("skipped wavefront checks: validation failed")
    payload = {"validation": report.to_dict(), "jiang": jiang, "passed": ok}
    return EXIT_OK if ok else EXIT_DATA, lines, payload


def _list(bundle, pair, report):
    g, specials = pair.g, set(pair.g.specials())
    lines = []
    payload = {"group": g.group_id, "orbits": [], "parameters": []}
    for label in g.labels:
        classes = g.bar_classes(label)
        dim = g.dim(label)
        special = label in specials
        lines.append(
            f"{label}  dim={dim if dim is not None else '?'}  "
            f"{'special' if special else 'non-special'}  classes={','.join(classes)}"
        )
        payload["orbits"].append(
            {"label": label, "dim": dim, "special": special, "classes": list(classes)}
        )
    for ps in bundle.parameter_sets:
        for x in sorted(ps, key=lambda x: data.natural_key(x.id)):
            lines.append(f"{x.id}  n_orbit={x.n_orbit}  rho={x.rho}  az={x.az_partner}")
            payload["parameters"].append(
                {
                    "id": x.id,
                    "ic_orbit": ps.ic_orbit,
                    "n_orbit": x.n_orbit,
                    "rho": x.rho,
                    "az": x.az_partner,
                }
            )
    return EXIT_OK, lines, payload


# subcommand -> (help text, positional names, handler), in --help order; a
# handler takes the bundle, the dual pair, the validation report and the
# positionals, and returns (exit code, text lines, JSON payload)
COMMANDS = {
    "dual": ("print the duality image of an orbit", ("orbit",), _dual),
    "achar-dual": (
        "print the refined dual of (orbit, class)", ("orbit", "class"), _achar_dual
    ),
    "closure": ("print whether A <= B in the closure order", ("a", "b"), _closure),
    "special-piece": (
        "print the special piece of an orbit", ("orbit",), _special_piece
    ),
    "cuwf": ("print a parameter's wavefront invariants", ("param_id",), _cuwf),
    "packet": (
        "print the packet at an infinitesimal character", ("ic_orbit",), _packet
    ),
    "weak-packet": ("print the weak packet and witnesses", ("ic_orbit",), _weak_packet),
    "verify": ("run the full invariant suite", (), _verify),
    "list": ("enumerate orbits, classes, and parameters", (), _list),
}


_FORMATS = ("text", "json")
_OPTIONS = {"--bundle": "bundle", "--dual-bundle": "dual_bundle", "--format": "fmt"}


def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="orbitduality",
        description="Nilpotent-orbit duality, wavefront invariants, and packets.",
    )
    parser.add_argument("--bundle", required=True, help="bundle JSON file")
    parser.add_argument(
        "--dual-bundle", help="dual-group bundle (defaults to self-dual)"
    )
    parser.add_argument(
        "--format", choices=_FORMATS, default="text", dest="fmt"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, positionals, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for positional in positionals:
            p.add_argument(positional)
    return parser


def parse_argv(argv):
    """What ``build_parser().parse_args(argv)`` returns, for argv of the form
    ``(--bundle V | --dual-bundle V | --format text|json)* SUB POS...`` with
    ``--bundle`` given and no option abbreviated; None for any other argv,
    and for any value or positional that starts with ``-``."""
    args = {"bundle": None, "dual_bundle": None, "fmt": "text"}
    rest = list(argv)
    while rest[:1] and rest[0] in _OPTIONS:
        if len(rest) < 2 or rest[1][:1] == "-" or (
                rest[0] == "--format" and rest[1] not in _FORMATS):
            return None
        name, value, *rest = rest
        args[_OPTIONS[name]] = value
    if args["bundle"] is None or not rest or rest[0] not in COMMANDS:
        return None
    command, *values = rest
    names = COMMANDS[command][1]
    if len(values) != len(names) or any(v[:1] == "-" for v in values):
        return None
    return SimpleNamespace(**args, command=command, **dict(zip(names, values)))


def _read_bundle(path):
    # parse_bundle would read a path starting with { or [ as JSON text
    with open(path, encoding="utf-8") as fh:
        return data.parse_bundle(fh)


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_argv(argv) or build_parser().parse_args(argv)
    _, positionals, handler = COMMANDS[args.command]

    try:
        dual = args.dual_bundle
        dual_bundle = None if dual is None else _read_bundle(dual)
        bundle = _read_bundle(args.bundle)
        pair, report = data.validated_pair(bundle, dual_bundle)
        if not report.passed and handler is not _verify:
            raise BundleValidationError(report)
    except BundleValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(exc.report.to_text(), file=sys.stderr)
        return EXIT_DATA
    except (OSError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA

    try:
        values = [
            getattr(args, n) if n == "param_id" else normalize_label(getattr(args, n))
            for n in positionals
        ]
        code, lines, payload = handler(bundle, pair, report, *values)
    except (UnknownLabelError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OrbitDualityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA

    if args.fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
