"""Command-line front end over bundle files.

Exit codes: 0 success, 1 domain errors (unknown labels, missing entries),
2 I/O, schema, or validation failures.

Every call compiles what it imports, so ``packets`` is imported only in
the branches that run a packet query.
"""

from __future__ import annotations

import argparse
import json
import sys
import unicodedata

from . import data
from .duality import DualPair, achar_dual
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


def _format_barclass(bc) -> str:
    return f"({bc[0]}, {bc[1]})"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitduality",
        description="Nilpotent-orbit duality, wavefront invariants, and packets.",
    )
    parser.add_argument("--bundle", required=True, help="bundle JSON file")
    parser.add_argument(
        "--dual-bundle", help="dual-group bundle (defaults to self-dual)"
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dual", help="print the duality image of an orbit")
    p.add_argument("orbit")
    p = sub.add_parser("achar-dual", help="print the refined dual of (orbit, class)")
    p.add_argument("orbit")
    p.add_argument("cls", metavar="class")
    p = sub.add_parser("closure", help="print whether A <= B in the closure order")
    p.add_argument("a")
    p.add_argument("b")
    p = sub.add_parser("special-piece", help="print the special piece of an orbit")
    p.add_argument("orbit")
    p = sub.add_parser("cuwf", help="print a parameter's wavefront invariants")
    p.add_argument("param_id")
    p = sub.add_parser("packet", help="print the packet at an infinitesimal character")
    p.add_argument("ic_orbit")
    p = sub.add_parser("weak-packet", help="print the weak packet and witnesses")
    p.add_argument("ic_orbit")
    sub.add_parser("verify", help="run the full invariant suite")
    sub.add_parser("list", help="enumerate orbits, classes, and parameters")
    return parser


def _emit(fmt: str, text_lines: list[str], payload: dict) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        dual_bundle = None
        if args.dual_bundle:
            dual_bundle = data.parse_bundle(args.dual_bundle)
        if args.command == "verify":
            bundle = data.parse_bundle(args.bundle)
            report = data.validate_bundle(bundle, dual_bundle)
        else:
            bundle = data.load_bundle(args.bundle, dual_bundle)
        pair = data.dual_pair(bundle, dual_bundle)
    except BundleValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(exc.report.to_text(), file=sys.stderr)
        return EXIT_DATA
    except (OSError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA

    try:
        if args.command == "verify":
            return _verify(args, bundle, pair, report)
        return _dispatch(args, bundle, pair)
    except (UnknownLabelError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OrbitDualityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def _verify(args, bundle, pair: DualPair, report) -> int:
    """Full invariant suite plus the wavefront checks on parameter sets."""
    ok = report.passed
    jiang_lines = []
    jiang_payload = []
    if ok:
        from .packets import check_jiang  # here: a failing verify never loads it

        for ps in bundle.parameter_sets:
            jr = check_jiang(pair, ps)
            ok = ok and jr.passed
            mark = "ok  " if jr.passed else "FAIL"
            jiang_lines.append(
                f"{mark} wavefront equalities and lower bound at {ps.ic_orbit}"
            )
            jiang_payload.append(jr.to_dict())
    else:
        jiang_lines.append("skipped wavefront checks: validation failed")
    _emit(
        args.fmt,
        [report.to_text()] + jiang_lines,
        {"validation": report.to_dict(), "jiang": jiang_payload, "passed": ok},
    )
    return EXIT_OK if ok else EXIT_DATA


def _dispatch(args, bundle, pair: DualPair) -> int:
    fmt = args.fmt
    g = pair.g

    if args.command == "dual":
        orbit = normalize_label(args.orbit)
        image = g.d(orbit)
        _emit(fmt, [image], {"orbit": orbit, "dual": image})

    elif args.command == "achar-dual":
        orbit = normalize_label(args.orbit)
        cls = normalize_label(args.cls)
        image = achar_dual(pair, (orbit, cls))
        _emit(
            fmt,
            [_format_barclass(image)],
            {
                "orbit": orbit,
                "class": cls,
                "dual": {"orbit": image[0], "class": image[1]},
            },
        )

    elif args.command == "closure":
        a, b = normalize_label(args.a), normalize_label(args.b)
        result = g.leq(a, b)
        _emit(fmt, ["true" if result else "false"], {"a": a, "b": b, "leq": result})

    elif args.command == "special-piece":
        orbit = normalize_label(args.orbit)
        piece = g.special_piece(orbit)
        _emit(fmt, list(piece), {"orbit": orbit, "piece": list(piece)})

    elif args.command == "cuwf":
        wf = _param_wavefront(bundle, pair, args.param_id)
        _emit(
            fmt,
            [f"cuwf: {_format_barclass(wf)}", f"geometric: {wf[0]}"],
            {
                "id": args.param_id,
                "cuwf": {"orbit": wf[0], "class": wf[1]},
                "geometric": wf[0],
            },
        )

    elif args.command == "packet":
        from .packets import _arthur_packet_cuwfs

        ic = normalize_label(args.ic_orbit)
        ps = data.parameter_set(bundle, ic)
        lines = []
        payload = {"ic_orbit": ic, "members": []}
        for pid, wf in _arthur_packet_cuwfs(pair, ps):
            lines.append(f"{pid}  cuwf={_format_barclass(wf)}")
            payload["members"].append(
                {"id": pid, "cuwf": {"orbit": wf[0], "class": wf[1]}}
            )
        _emit(fmt, lines, payload)

    elif args.command == "weak-packet":
        from .packets import az_dual, weak_packet

        ic = normalize_label(args.ic_orbit)
        ps = data.parameter_set(bundle, ic)
        members = weak_packet(pair, ps)
        lines = []
        payload = {"ic_orbit": ic, "members": []}
        for pid in members:
            x = ps.get(pid)
            partner = az_dual(ps, x)
            lines.append(
                f"{pid}  az={partner.id}  az_orbit={partner.n_orbit}"
            )
            payload["members"].append(
                {"id": pid, "az": partner.id, "az_orbit": partner.n_orbit}
            )
        _emit(fmt, lines, payload)

    elif args.command == "list":
        lines = []
        payload = {"group": g.group_id, "orbits": [], "parameters": []}
        for label in g.labels:
            classes = ",".join(g.bar_classes(label))
            dim = g.dim(label)
            special = g.is_special(label)
            lines.append(
                f"{label}  dim={dim if dim is not None else '?'}  "
                f"{'special' if special else 'non-special'}  classes={classes}"
            )
            payload["orbits"].append(
                {
                    "label": label,
                    "dim": dim,
                    "special": special,
                    "classes": list(g.bar_classes(label)),
                }
            )
        for ps in bundle.parameter_sets:
            for x in sorted(ps, key=lambda x: data.natural_key(x.id)):
                lines.append(
                    f"{x.id}  n_orbit={x.n_orbit}  rho={x.rho}  az={x.az_partner}"
                )
                payload["parameters"].append(
                    {
                        "id": x.id,
                        "ic_orbit": ps.ic_orbit,
                        "n_orbit": x.n_orbit,
                        "rho": x.rho,
                        "az": x.az_partner,
                    }
                )
        _emit(fmt, lines, payload)

    return EXIT_OK


def _param_wavefront(bundle, pair, param_id):
    from .packets import cuwf

    for ps in bundle.parameter_sets:
        try:
            x = ps.get(param_id)
        except UnknownLabelError:
            continue
        return cuwf(pair, ps, x)
    raise UnknownLabelError(f"unknown parameter id {param_id!r}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
