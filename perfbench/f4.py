"""The F4 query space shared by the two F4 workloads and the golden table.

Argument spaces come from the bundle document itself, so the set of
queries does not depend on the library under test:  16 orbits, 21 bar
classes, 256 closure pairs, 20 parameters at one infinitesimal character.
"""

from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"
BUNDLE_REL = Path("src/orbitduality/bundles/f4.json")

CLI_SUBCOMMANDS = (
    "dual", "achar-dual", "closure", "special-piece", "cuwf",
    "packet", "weak-packet", "verify", "list",
)
FORMATS = ("text", "json")

LIB_KINDS = (
    "achar_dual.g", "achar_dual.gd", "min_special_cover", "closure_leq",
    "bvls_dual", "special_piece_of", "cuwf", "geometric_wf",
    "arthur_packet", "weak_packet", "check_jiang",
    "check_infl_sum", "infl_sum_witness",
)

# span name (layer.function) of each library query kind
LIB_SPAN = {
    "achar_dual.g": "duality.achar_dual",
    "achar_dual.gd": "duality.achar_dual",
    "min_special_cover": "duality.min_special_cover",
    "closure_leq": "orbits.closure_leq",
    "bvls_dual": "orbits.bvls_dual",
    "special_piece_of": "orbits.special_piece_of",
    "cuwf": "packets.cuwf",
    "geometric_wf": "packets.geometric_wf",
    "arthur_packet": "packets.arthur_packet",
    "weak_packet": "packets.weak_packet",
    "check_jiang": "packets.check_jiang",
    "check_infl_sum": "packets.check_infl_sum",
    "infl_sum_witness": "packets.infl_sum_witness",
}


def load_doc(root: Path) -> dict:
    return json.loads((root / BUNDLE_REL).read_text(encoding="utf-8"))


def labels(doc: dict) -> list[str]:
    return [o["label"] for o in doc["orbits"]]


def bar_classes(doc: dict) -> list[tuple[str, str]]:
    return [
        (o, c) for o in labels(doc) for c in doc["bar_a"].get(o, ["1"])
    ]


def param_ids(doc: dict) -> list[str]:
    return [p["id"] for ps in doc["parameter_sets"] for p in ps["parameters"]]


def ic_orbits(doc: dict) -> list[str]:
    return [ps["ic_orbit"] for ps in doc["parameter_sets"]]


def label_pairs(doc: dict) -> list[tuple[str, str]]:
    return [(a, b) for a in labels(doc) for b in labels(doc)]


def cli_arg_space(doc: dict, sub: str) -> list[tuple[str, ...]]:
    """Every argument tuple the subcommand can be drawn with."""
    if sub in ("dual", "special-piece"):
        return [(o,) for o in labels(doc)]
    if sub == "achar-dual":
        return bar_classes(doc)
    if sub == "closure":
        return label_pairs(doc)
    if sub == "cuwf":
        return [(x,) for x in param_ids(doc)]
    if sub in ("packet", "weak-packet"):
        return [(ic,) for ic in ic_orbits(doc)]
    if sub in ("verify", "list"):
        return [()]
    raise KeyError(sub)


def cli_argv(fmt: str, sub: str, args, bundle: str) -> list[str]:
    return ["--bundle", bundle, "--format", fmt, sub, *args]


def cli_key(fmt: str, sub: str, args) -> str:
    return " ".join([fmt, sub, *args])


def lib_arg_space(doc: dict, kind: str) -> list[tuple[str, ...]]:
    if kind in ("achar_dual.g", "achar_dual.gd", "min_special_cover"):
        return bar_classes(doc)
    if kind in ("closure_leq", "check_infl_sum", "infl_sum_witness"):
        return label_pairs(doc)
    if kind in ("bvls_dual", "special_piece_of"):
        return [(o,) for o in labels(doc)]
    if kind in ("cuwf", "geometric_wf"):
        return [(x,) for x in param_ids(doc)]
    if kind in ("arthur_packet", "weak_packet", "check_jiang"):
        return [(ic,) for ic in ic_orbits(doc)]
    raise KeyError(kind)


def lib_key(args) -> str:
    return "|".join(args)


class Session:
    """One loaded F4 bundle and the callables the library queries run.

    `prepare` resolves labels to library objects outside any timed span;
    the returned call is exactly one public library function.
    """

    def __init__(self, od, bundle, pair):
        self.od = od
        self.bundle = bundle
        self.pair = pair
        self.flip = pair.flip()
        self.ps = {ps.ic_orbit: ps for ps in bundle.parameter_sets}
        self.target = bundle.parameter_sets[0].ic_orbit

    def _param(self, pid):
        for ps in self.bundle.parameter_sets:
            if pid in ps.ids():
                return ps, ps.get(pid)
        raise KeyError(pid)

    def prepare(self, kind: str, args):
        od, pair, g = self.od, self.pair, self.pair.g
        if kind == "achar_dual.g":
            return od.achar_dual, (pair, tuple(args))
        if kind == "achar_dual.gd":
            return od.achar_dual, (self.flip, tuple(args))
        if kind == "min_special_cover":
            return od.min_special_cover, (pair, tuple(args))
        if kind == "closure_leq":
            return od.closure_leq, (g, *args)
        if kind == "bvls_dual":
            return od.bvls_dual, (g, *args)
        if kind == "special_piece_of":
            return od.special_piece_of, (g, *args)
        if kind in ("cuwf", "geometric_wf"):
            ps, x = self._param(args[0])
            return getattr(od, kind), (pair, ps, x)
        if kind in ("arthur_packet", "weak_packet", "check_jiang"):
            return getattr(od, kind), (pair, self.ps[args[0]])
        if kind == "check_infl_sum":
            art, lan = args
            h_art, h_lan = g.weighted_dynkin(art), g.weighted_dynkin(lan)
            return od.check_infl_sum, (g, h_art, h_lan, self.target)
        if kind == "infl_sum_witness":
            return od.packets.infl_sum_witness, (g, *args, self.target)
        raise KeyError(kind)


def encode(kind: str, result):
    """A JSON value that pins a library answer exactly."""
    if kind == "check_jiang":
        return result.to_dict()
    if kind == "infl_sum_witness":
        return None if result is None else [str(h) for h in result]
    if isinstance(result, tuple):
        return list(result)
    return result


def load_golden(name: str) -> dict:
    return json.loads((GOLDEN_DIR / name).read_text(encoding="utf-8"))
