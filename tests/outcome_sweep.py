"""Seeded edits of the shipped F4 bundle and what the library answers on each.

    PYTHONPATH=src python3 tests/outcome_sweep.py

Writes ``tests/outcome_sweep.jsonl``, one JSON object per case with sorted
keys; ``tests/test_outcome_sweep.py`` recomputes every line and compares.
Regenerate the file only with this script, and name every case whose
outcome changed when committing it.

A case is a list of edits to the shipped document, and for a case with a
separate dual bundle, a second list of edits to the partner document.  The
categories:

- ``ds``: one to three ``d_s`` targets replaced by other F4 labels;
- ``closure-reversed``, ``closure-dropped``: every covering pair, once each;
- ``special-flipped``: every orbit's flag;
- ``dim``: every orbit's ``dim`` moved by a seeded non-zero step;
- ``n-orbit``, ``az``: two seeded replacements per parameter;
- ``ic-orbit``: the parameter set's ``ic_orbit`` set to each other label;
- ``dual-ds``: ``ds`` edits of a separate dual bundle, the main bundle's
  ``dual_group`` set to ``"F4-partner"``;
- ``relabelled``: F4 paired with a copy whose labels, all but ``0``, are
  primed.  The pair is taken in both directions, with parameter orbits
  named in the dual group or in the bundle's own group;
- ``dual-special-flipped``, ``dual-dim``, ``dual-n-orbit``, ``dual-az``:
  a seeded sample of that category's edits, applied to a separate dual
  bundle as in ``dual-ds``;
- ``no-dual``: ``dual_group`` ``"F4-partner"`` and no dual bundle;
- ``ic-orbit-unknown``, ``n-orbit-unknown``: a parameter orbit that F4
  lacks, in the self-dual bundle;
- ``ds-permuted``: every permutation of the five non-trivial ``d_s``
  targets, the shipped table first;
- ``suffix-relabelled``: each of the five non-special orbits renamed to
  its special closure's label plus ``I``, then plus ``II``; only a type D
  classical poset reads such a suffix as a twin decoration;
- ``paired-special-flipped``: every orbit's flag flipped in the main
  bundle, paired as in ``dual-ds`` with an unedited dual bundle, so the
  report shows the main bundle's failures and skips.

New categories go after the existing ones, so no case changes its id.

A case's outcome is the ``SchemaError`` text, or else the validation
report.  For a bundle that passes it also holds ``achar_dual`` on
every bar class of ``pair.g`` and, at each parameter set's ``ic_orbit``,
``arthur_packet``, ``weak_packet`` and ``check_jiang``; each is the answer
or ``ErrorType: message``.
"""

from __future__ import annotations

import copy
import functools
import itertools
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUTCOMES = HERE / "outcome_sweep.jsonl"
SEED = 17
DUAL_SAMPLE = 8  # cases per dual-side category


@functools.cache
def _shipped_text() -> str:
    from orbitduality import data

    return data.builtin_bundle_text("f4")


def _shipped() -> dict:
    return json.loads(_shipped_text())


def _prime(label: str) -> str:
    return label if label == "0" else label + "'"


def _relabel(doc: dict, own, targets, params) -> dict:
    """doc with its own labels, its ``d_s`` targets and its parameter
    orbits each passed through the given map."""
    doc = copy.deepcopy(doc)
    for rec in doc["orbits"]:
        rec["label"] = own(rec["label"])
    doc["closure"] = [[own(lo), own(hi)] for lo, hi in doc["closure"]]
    doc["bar_a"] = {own(o): cs for o, cs in doc["bar_a"].items()}
    doc["d_s"] = {
        own(o): {c: targets(t) for c, t in table.items()}
        for o, table in doc["d_s"].items()
    }
    for ps in doc["parameter_sets"]:
        ps["ic_orbit"] = params(ps["ic_orbit"])
        for x in ps["parameters"]:
            x["n_orbit"] = params(x["n_orbit"])
    return doc


def relabelled_pair(dual_labels: bool, flip: bool = False):
    """F4 and a primed copy of it as two distinct dual groups: (main, dual).

    Each bundle's parameter orbits name orbits of its dual group when
    ``dual_labels`` holds, else orbits of its own group.  ``flip`` makes
    the primed copy the main bundle.
    """
    same = str
    plain = _relabel(_shipped(), same, _prime, _prime if dual_labels else same)
    plain["dual_group"] = "F4'"
    primed = _relabel(_shipped(), _prime, same, same if dual_labels else _prime)
    primed["dual_group"] = "F4"
    return (primed, plain) if flip else (plain, primed)


def _apply(doc: dict, edits) -> dict:
    doc = copy.deepcopy(doc)
    for op, path, value in edits:
        target = doc
        for key in path[:-1]:
            target = target[key]
        if op == "del":
            del target[path[-1]]
        else:
            target[path[-1]] = value
    return doc


def _ds_edits(rng, doc: dict) -> list:
    labels = [o["label"] for o in doc["orbits"]]
    entries = [(o, c) for o, table in doc["d_s"].items() for c in table]
    return [
        ["set", ["d_s", o, c], rng.choice([x for x in labels if x != doc["d_s"][o][c]])]
        for o, c in rng.sample(entries, rng.randint(1, 3))
    ]


def cases() -> list[dict]:
    """Every case, in file order: ``id``, ``edits``, and ``dual_edits``
    (None when the bundle is its own dual)."""
    rng = random.Random(SEED)
    doc = _shipped()
    labels = [o["label"] for o in doc["orbits"]]
    params = doc["parameter_sets"][0]["parameters"]
    ids = [x["id"] for x in params]
    out = []

    def add(kind, edits, dual_edits=None):
        out.append({"id": f"{kind}-{len(out):03d}", "edits": edits,
                    "dual_edits": dual_edits})

    for _ in range(100):
        add("ds", _ds_edits(rng, doc))
    for i, (lo, hi) in enumerate(doc["closure"]):
        add("closure-reversed", [["set", ["closure", i], [hi, lo]]])
    for i in range(len(doc["closure"])):
        add("closure-dropped", [["del", ["closure", i], None]])
    for i, rec in enumerate(doc["orbits"]):
        add("special-flipped", [["set", ["orbits", i, "special"], not rec["special"]]])
    for i, rec in enumerate(doc["orbits"]):
        step = rng.choice([-4, -2, -1, 1, 2, 4])
        add("dim", [["set", ["orbits", i, "dim"], rec["dim"] + step]])
    for j, x in enumerate(params):
        for value in rng.sample([a for a in labels if a != x["n_orbit"]], 2):
            add("n-orbit", [["set", ["parameter_sets", 0, "parameters", j, "n_orbit"], value]])
    ic = doc["parameter_sets"][0]["ic_orbit"]
    for value in labels:
        if value != ic:
            add("ic-orbit", [["set", ["parameter_sets", 0, "ic_orbit"], value]])
    for j, x in enumerate(params):
        for value in rng.sample([a for a in ids if a != x["az"]], 2):
            add("az", [["set", ["parameter_sets", 0, "parameters", j, "az"], value]])
    for _ in range(40):
        add("dual-ds", [["set", ["dual_group"], "F4-partner"]], _ds_edits(rng, doc))
    for flip in (False, True):
        for dual_labels in (True, False):
            kind = "relabelled-" + ("primed" if flip else "plain") + (
                "-dual-labels" if dual_labels else "-own-labels")
            add(kind, [["relabel", [], {"flip": flip, "dual_labels": dual_labels}]])
    # appended below: a new category never moves an existing case's id
    partner = [["set", ["dual_group"], "F4-partner"]]
    single = {
        kind: [e for c in out if c["id"].startswith(kind + "-") for e in c["edits"]]
        for kind in ("special-flipped", "dim", "n-orbit", "az")
    }
    for kind, edits in single.items():
        for edit in rng.sample(edits, min(len(edits), DUAL_SAMPLE)):
            add("dual-" + kind, partner, [edit])
    add("no-dual", partner)
    add("ic-orbit-unknown", [["set", ["parameter_sets", 0, "ic_orbit"], "Q9"]])
    add("n-orbit-unknown",
        [["set", ["parameter_sets", 0, "parameters", 0, "n_orbit"], "Q9"]])
    nontrivial = [(o, c) for o, t in doc["d_s"].items() for c in t if c != "1"]
    targets = [doc["d_s"][o][c] for o, c in nontrivial]
    for perm in itertools.permutations(targets):
        add("ds-permuted",
            [["set", ["d_s", o, c], t] for (o, c), t in zip(nontrivial, perm)])
    closures = {"A1": "~A1", "~A1+A2": "F4(a3)", "A1+~A2": "F4(a3)",
                "B2": "F4(a3)", "C3(a1)": "F4(a3)"}
    for label, top in closures.items():
        for suffix in ("I", "II"):
            add("suffix-relabelled",
                [["rename", [], {"label": label, "to": top + suffix}]])
    for i, rec in enumerate(doc["orbits"]):
        add("paired-special-flipped",
            partner + [["set", ["orbits", i, "special"], not rec["special"]]], [])
    return out


def documents(case: dict):
    """The case's (main, dual) documents as JSON text; dual may be None."""
    doc = _shipped()
    if case["edits"] and case["edits"][0][0] == "relabel":
        main, dual = relabelled_pair(**case["edits"][0][2])
        return json.dumps(main), json.dumps(dual)
    if case["edits"] and case["edits"][0][0] == "rename":
        args = case["edits"][0][2]

        def rename(x):
            return args["to"] if x == args["label"] else x

        return json.dumps(_relabel(doc, rename, rename, rename)), None
    main = json.dumps(_apply(doc, case["edits"]))
    if case["dual_edits"] is None:
        return main, None
    return main, json.dumps(_apply(doc, case["dual_edits"]))


def _answer(fn, *args):
    from orbitduality.errors import OrbitDualityError

    try:
        return fn(*args)
    except OrbitDualityError as exc:
        return f"{type(exc).__name__}: {exc}"


def outcome(main: str, dual: str | None) -> dict:
    from orbitduality import data
    from orbitduality.duality import achar_dual, all_bar_classes
    from orbitduality.errors import SchemaError
    from orbitduality.packets import arthur_packet, check_jiang, weak_packet

    try:
        bundle = data.parse_bundle(main)
        dual_bundle = None if dual is None else data.parse_bundle(dual)
        pair, report = data.validated_pair(bundle, dual_bundle)
    except SchemaError as exc:
        return {"schema_error": str(exc)}
    found = {"report": report.to_text()}
    if not report.passed:
        return found
    found["achar_dual"] = {
        f"{o}|{c}": _answer(achar_dual, pair, (o, c))
        for o, c in all_bar_classes(pair.g)
    }
    found["packets"] = {
        ps.ic_orbit: {
            "arthur_packet": _answer(arthur_packet, pair, ps),
            "weak_packet": _answer(weak_packet, pair, ps),
            "check_jiang": _answer(lambda: check_jiang(pair, ps).to_dict()),
        }
        for ps in bundle.parameter_sets
    }
    return found


def line(case: dict) -> str:
    """The case's line in the outcome file, without its newline."""
    record = {**case, "outcome": outcome(*documents(case))}
    return json.dumps(record, sort_keys=True, ensure_ascii=False)


def main() -> int:
    old = {}
    if OUTCOMES.exists():
        for raw in OUTCOMES.read_text(encoding="utf-8").splitlines():
            old[json.loads(raw)["id"]] = raw
    lines = [line(case) for case in cases()]
    text = "".join(x + "\n" for x in lines)
    OUTCOMES.write_text(text, encoding="utf-8")
    print(f"wrote {len(lines)} cases, {len(text.encode())} bytes "
          f"to {OUTCOMES.relative_to(HERE.parent)}")
    for x in lines:
        case_id = json.loads(x)["id"]
        if case_id not in old:
            print(f"added {case_id}")
        elif old[case_id] != x:
            print(f"changed {case_id}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
