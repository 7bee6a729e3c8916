"""Duality on orbits decorated with canonical-quotient conjugacy classes.

A bar class is a pair ``(orbit label, class label)`` naming a conjugacy
class in the canonical quotient of the orbit's equivariant fundamental
group.  The Sommers map sends bar classes of one group onto the orbits
of its dual group; embedding a bar class as the pair
``(orbit, sommers image)`` and flipping the two coordinates yields the
refined duality, with a detour through the minimal special cover when
the flipped pair is not itself in the image of the dual embedding.

One private ``_DualityTable`` per call tabulates the embedding of its
side, |B| Sommers-table lookups for |B| bar classes on first use, and its
``flip()`` is the table on the flipped pair over the same tabulations,
so a call costs at most 2·|B| lookups, |B| for a self-dual pair (21 on
F4).  Everything else reads the table through its methods: ``pairs``,
``unembed``, ``collision``, ``cover`` and ``dual``.
``achar_dual``, ``min_special_cover``, ``is_special_pair``, the packet
queries and the validator's identities check each build one; nothing is
kept between calls.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    GroupMismatchError,
    InconsistentDataError,
    NonUniqueCoverError,
    UnknownLabelError,
)
from .orbits import NilpotentPoset, _least

BarClass = tuple[str, str]  # (orbit label, class label)
OrbitPair = tuple[str, str]  # (orbit in G, orbit in the dual group)


def normalize_class(class_label: str) -> str:
    return "".join(class_label.split())


@dataclass(frozen=True)
class DualPair:
    """An oriented pair of mutually dual orbit posets."""

    g: NilpotentPoset
    gd: NilpotentPoset

    def flip(self) -> "DualPair":
        return DualPair(self.gd, self.g)

    def check(self, bc: BarClass) -> BarClass:
        try:
            orbit, cls = bc
            cls = normalize_class(cls)
        except (AttributeError, TypeError, ValueError):
            raise UnknownLabelError(f"{bc!r} is not an (orbit, class) pair") from None
        self.g.check_label(orbit)
        if cls not in self.g.bar_classes(orbit):
            raise UnknownLabelError(
                f"orbit {orbit} of {self.g.group_id} has no class {cls!r}"
            )
        return (orbit, cls)


def all_bar_classes(poset: NilpotentPoset) -> tuple[BarClass, ...]:
    return tuple(
        (o, c) for o in poset.labels for c in poset.bar_classes(o)
    )


def sommers_dual(pair: DualPair, bc: BarClass) -> str:
    orbit, cls = pair.check(bc)
    return pair.g.sommers(orbit, cls)


def embed(pair: DualPair, bc: BarClass) -> OrbitPair:
    orbit, cls = pair.check(bc)
    return (orbit, pair.g.sommers(orbit, cls))


def pair_leq(pair: DualPair, p: OrbitPair, q: OrbitPair) -> bool:
    """Product order: first coordinates up, second coordinates down."""
    try:
        return pair.g.leq(p[0], q[0]) and pair.gd.leq(q[1], p[1])
    except UnknownLabelError as exc:
        raise GroupMismatchError(str(exc)) from None


def _flip_pair(p: OrbitPair) -> OrbitPair:
    return (p[1], p[0])


def is_special_pair(pair: DualPair, bc: BarClass) -> bool:
    """Whether the flipped embedded pair lies in the dual embedding image."""
    target = _flip_pair(embed(pair, bc))
    return _DualityTable(pair.flip()).unembed(target) is not None


class _DualityTable:
    """Refined duality on one pair, tabulated for the duration of one call.

    ``_sides`` maps a poset to its tabulation: every bar class's embedded
    pair, in ``all_bar_classes`` order, and each pair's preimages, |B|
    Sommers lookups on first use.  ``flip()`` is a table on the flipped pair
    over the same dict, so a self-dual pair is tabulated once and any other
    pair costs 2·|B| lookups in all.  Each bar class's minimal special cover
    and D are computed once per orientation, on first request; bar classes
    must already have passed ``pair.check``.
    """

    def __init__(self, pair: DualPair, sides: dict | None = None):
        self.pair = pair
        self._sides = {} if sides is None else sides  # poset -> (pairs, hits)
        self._covers: dict[BarClass, BarClass] = {}

    def _side(self, poset: NilpotentPoset) -> tuple[dict, dict]:
        if poset not in self._sides:
            pairs = {
                (o, c): (o, poset.sommers(o, c)) for o, c in all_bar_classes(poset)
            }
            hits: dict[OrbitPair, list[BarClass]] = {}
            for bc, p in pairs.items():
                hits.setdefault(p, []).append(bc)
            self._sides[poset] = pairs, hits
        return self._sides[poset]

    @property
    def pairs(self) -> dict[BarClass, OrbitPair]:
        return self._side(self.pair.g)[0]

    def flip(self) -> "_DualityTable":
        """The table on the flipped pair, sharing this one's tabulations."""
        return _DualityTable(self.pair.flip(), self._sides)

    def unembed(self, target: OrbitPair, poset=None) -> BarClass | None:
        """Inverse of embed on this side, or on ``poset``, None when not hit."""
        poset = self.pair.g if poset is None else poset
        hits = self._side(poset)[1].get(target, ())
        if len(hits) > 1:
            raise InconsistentDataError(
                f"embedding of {poset.group_id} is not injective at {target}"
            )
        return hits[0] if hits else None

    def collision(self) -> tuple[BarClass, BarClass, OrbitPair] | None:
        """The first bar class that lands on an earlier one's pair, that
        earlier one and the pair; None when the embedding is injective.
        Classes are embedded in order, so a collision is reported before a
        later class's missing table entry; a full walk is this side's
        tabulation."""
        g, seen = self.pair.g, {}
        for o, c in all_bar_classes(g):
            p = (o, g.sommers(o, c))
            if p in seen:
                return seen[p], (o, c), p
            seen[p] = (o, c)
        pairs = {bc: p for p, bc in seen.items()}
        self._sides[g] = pairs, {p: [bc] for bc, p in pairs.items()}
        return None

    def cover(self, bc: BarClass) -> BarClass:
        """The unique smallest special bar class above bc."""
        if bc not in self._covers:
            pair, pairs = self.pair, self.pairs
            here = pairs[bc]
            above = [
                other
                for other, p in pairs.items()
                if self.unembed(_flip_pair(p), pair.gd) is not None
                and pair_leq(pair, here, p)
            ]
            minima = _least(above, lambda x, y: pair_leq(pair, pairs[x], pairs[y]))
            if len(minima) != 1:
                raise NonUniqueCoverError(
                    f"bar class {bc} of {pair.g.group_id} has "
                    f"{len(minima)} minimal special covers"
                )
            self._covers[bc] = minima[0]
        return self._covers[bc]

    def dual(self, bc: BarClass) -> BarClass:
        """D(bc): embed the cover, flip, unembed on the dual side."""
        return self.unembed(_flip_pair(self.pairs[self.cover(bc)]), self.pair.gd)


def min_special_cover(pair: DualPair, bc: BarClass) -> BarClass:
    """The unique smallest special bar class above bc in the embedded order."""
    bc = pair.check(bc)
    return _DualityTable(pair).cover(bc)


def achar_dual(pair: DualPair, bc: BarClass) -> BarClass:
    """Refined duality: embed the minimal special cover, flip, unembed."""
    bc = pair.check(bc)
    return _DualityTable(pair).dual(bc)
