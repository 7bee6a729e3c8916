"""Classical orbit posets, filled from partitions.  Importing this module
compiles the classical code and ``partitions`` at once: a sweep worker
imports it before it times a build, then reads the two ``poset`` names below.
"""

from __future__ import annotations

from functools import lru_cache

from . import partitions as pt
from .errors import MissingTableError, UnknownLabelError
from .poset import NilpotentPoset
from .poset import bvls_dual, special_piece_of  # noqa: F401  for the sweep worker
from .rootdata import root_system


def partition_label(p: pt.Partition, decoration: str = "") -> str:
    return "(" + ",".join(str(x) for x in p) + ")" + decoration


_DUAL_FAMILY = {"A": "A", "B": "C", "C": "B", "D": "D"}


def _family_size(family: str, rank: int) -> int:
    if family == "A":
        return rank + 1
    if family == "B":
        return 2 * rank + 1
    return 2 * rank


def _classical_d(family: str, part: pt.Partition, dec: str) -> str:
    """Transpose, adjust the size for B <-> C, collapse into the dual
    family; the box conventions are pinned by the property suite."""
    p = list(pt.transpose(part))
    if family == "B":
        p[-1] -= 1  # drop the last box
        q = pt.collapse(pt.partition(p), "C")
    elif family == "C":
        p[0] += 1  # grow the first row
        q = pt.collapse(pt.partition(p), "B")
    else:
        q = pt.collapse(pt.partition(p), family)
    decoration = ""
    if _DUAL_FAMILY[family] == "D" and q and all(x % 2 == 0 for x in q):
        decoration = dec or "I"
    return partition_label(q, decoration)


class ClassicalPoset(NilpotentPoset):
    """Orbit poset of a classical group: its tables filled from partitions.

    The closure order is dominance; ``d`` is the transpose collapsed into
    the dual family.

    Type D partitions with all parts even correspond to two orbits; they
    are decorated ``I``/``II``, treated as incomparable to each other, with
    identical closures below, and the duality map carries the decoration
    across.  Specialness ignores the decoration (``_image_key``), matching
    the coarse table data we ship.
    """

    def __init__(self, family: str, rank: int):
        if family not in pt.FAMILIES:
            raise ValueError(f"unknown classical family {family!r}")
        if rank < 1 or (family == "D" and rank < 2):
            raise ValueError(f"bad rank {rank} for family {family}")
        self.family = family
        self.rank = rank
        self.size = _family_size(family, rank)
        self._part = part = {}
        decoration = {}
        for p in pt.enumerate_valid(self.size, family):
            very_even = family == "D" and p and all(x % 2 == 0 for x in p)
            for dec in ("I", "II") if very_even else ("",):
                lab = partition_label(p, dec)
                part[lab] = p
                decoration[lab] = dec
        super().__init__(
            group_id=f"{family}{rank}",
            below={
                b: {a for a in part if pt.dominates(part[b], part[a])
                    and (part[a] != part[b] or decoration[a] == decoration[b])}
                for b in part
            },
            bar_a={},
            ds={(a, "1"): _classical_d(family, part[a], decoration[a])
                for a in part},
            rs=root_system(family, rank),
        )

    def _image_key(self, label: str) -> str:
        return label.rstrip("I")  # the decoration follows the closing ")"

    def partition_of(self, label: str) -> pt.Partition:
        self.check_label(label)
        return self._part[label]

    @property
    def dual(self) -> "ClassicalPoset":
        return classical_poset(_DUAL_FAMILY[self.family], self.rank)

    dual_d = dual

    def sommers(self, label: str, class_label: str) -> str:
        self.check_label(label)
        if self.family != "A":
            raise MissingTableError(
                f"Sommers duality for {self.group_id} needs bundled tables"
            )
        if class_label != "1":
            raise UnknownLabelError(
                f"unknown class {class_label!r} on orbit {label} of {self.group_id}"
            )
        return self.d(label)


@lru_cache(maxsize=None)
def classical_poset(family: str, rank: int) -> ClassicalPoset:
    return ClassicalPoset(family, rank)
