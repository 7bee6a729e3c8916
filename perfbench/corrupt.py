"""Seeded corruptions of the shipped F4 bundle document for `verify-corrupt`.

Each kind breaks one invariant and names the validator check that must
report it.  A variant picks where the damage goes (which cover, orbit or
parameter); `make_golden.py` keeps the variants whose verify report names
the kind's check as failed and records their exact output.

Left out until the validator's behaviour on them is decided (ROADMAP open
item 4): a group type the root-data tables do not know (`E9`), and
`dual_group: "F4"` with no dual bundle.  Both validate as PASS today only
because a skipped check is counted as passed.
"""

from __future__ import annotations

import copy

# kind -> the check a verify report must name as failed
KINDS = {
    "reversed-cover": "closure_order",
    "dropped-trivial-class": "bar_classes",
    "wrong-ds-target": "d_duality",
    "flipped-special-flag": "special_flags",
    "wrong-dim": "dynkin_dims",
    "broken-az-link": "az_links",
}


def variants(doc: dict, kind: str) -> list[str]:
    """Every place the kind can be applied to, as stable string keys."""
    labels = [o["label"] for o in doc["orbits"]]
    if kind == "reversed-cover":
        return [str(i) for i in range(len(doc["closure"]))]
    if kind in ("dropped-trivial-class", "wrong-dim"):
        return labels
    if kind == "wrong-ds-target":
        trivial = {o: doc["d_s"][o]["1"] for o in labels}
        return [
            f"{a}|{b}"
            for i, a in enumerate(labels)
            for b in labels[i + 1:]
            if trivial[a] != trivial[b]
        ]
    if kind == "flipped-special-flag":
        return labels
    if kind == "broken-az-link":
        return [
            p["id"] for ps in doc["parameter_sets"] for p in ps["parameters"]
        ]
    raise KeyError(kind)


def corrupt(doc: dict, kind: str, variant: str) -> dict:
    """A deep copy of doc with one invariant broken."""
    out = copy.deepcopy(doc)
    if kind == "reversed-cover":
        lo, hi = out["closure"][int(variant)]
        out["closure"][int(variant)] = [hi, lo]
    elif kind == "dropped-trivial-class":
        classes = out["bar_a"].setdefault(variant, ["1"])
        classes.remove("1")
    elif kind == "wrong-ds-target":
        a, b = variant.split("|")
        ds = out["d_s"]
        ds[a]["1"], ds[b]["1"] = ds[b]["1"], ds[a]["1"]
    elif kind == "flipped-special-flag":
        rec = next(o for o in out["orbits"] if o["label"] == variant)
        rec["special"] = not rec["special"]
    elif kind == "wrong-dim":
        rec = next(o for o in out["orbits"] if o["label"] == variant)
        rec["dim"] += 1
    elif kind == "broken-az-link":
        for ps in out["parameter_sets"]:
            for p in ps["parameters"]:
                if p["id"] == variant:
                    p["az"] = variant + "-missing"
    else:
        raise KeyError(kind)
    return out
