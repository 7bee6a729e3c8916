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
``flip()`` is the table on the flipped pair, built once and pointing back,
so both sides cost 2·|B| lookups.  Everything else reads the table through
its methods: ``pairs``, ``unembed``, ``collision``, ``cover`` and ``dual``.
``achar_dual``, ``min_special_cover``, ``is_special_pair``, the packet
queries and the validator's identities check each build one; nothing is
kept between calls.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

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

    ``pairs`` maps every bar class of ``pair.g`` to its embedded pair, in
    ``all_bar_classes`` order, |B| Sommers lookups on first use.  ``flip()``
    is the table on the flipped pair, built once and pointing back here, so
    the two sides cost 2·|B| lookups in all.  Each bar class's minimal
    special cover and D are computed once, on first request; bar classes
    must already have passed ``pair.check``.
    """

    def __init__(self, pair: DualPair):
        self.pair = pair
        self._flip: _DualityTable | None = None
        self._back: weakref.ref | None = None
        self._covers: dict[BarClass, BarClass] = {}

    @cached_property
    def pairs(self) -> dict[BarClass, OrbitPair]:
        g = self.pair.g
        return {(o, c): (o, g.sommers(o, c)) for o, c in all_bar_classes(g)}

    @cached_property
    def _hits(self) -> dict[OrbitPair, list[BarClass]]:
        hits: dict[OrbitPair, list[BarClass]] = {}
        for bc, p in self.pairs.items():
            hits.setdefault(p, []).append(bc)
        return hits

    def flip(self) -> "_DualityTable":
        """The table on the flipped pair, built once.  It points back here
        through a weak reference: a cycle between the two would leave every
        call's tables to the cyclic garbage collector."""
        flip = self._flip or (self._back and self._back())
        if flip is None:
            flip = self._flip = _DualityTable(self.pair.flip())
            flip._back = weakref.ref(self)
        return flip

    def unembed(self, target: OrbitPair) -> BarClass | None:
        """Inverse of embed on this side, None when not hit."""
        hits = self._hits.get(target, ())
        if len(hits) > 1:
            raise InconsistentDataError(
                f"embedding of {self.pair.g.group_id} is not injective at {target}"
            )
        return hits[0] if hits else None

    def collision(self) -> tuple[BarClass, BarClass, OrbitPair] | None:
        """The first bar class that lands on an earlier one's pair, that
        earlier one and the pair; None when the embedding is injective.
        Classes are embedded in order, so a collision is reported before a
        later class's missing table entry; a full walk becomes ``pairs``."""
        g, seen = self.pair.g, {}
        for o, c in all_bar_classes(g):
            p = (o, g.sommers(o, c))
            if p in seen:
                return seen[p], (o, c), p
            seen[p] = (o, c)
        self.pairs = {bc: p for p, bc in seen.items()}
        return None

    def cover(self, bc: BarClass) -> BarClass:
        """The unique smallest special bar class above bc."""
        if bc not in self._covers:
            pair, pairs, flip = self.pair, self.pairs, self.flip()
            here = pairs[bc]
            above = [
                other
                for other, p in pairs.items()
                if flip.unembed(_flip_pair(p)) is not None
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
        """D(bc): embed the cover, flip, unembed."""
        return self.flip().unembed(_flip_pair(self.pairs[self.cover(bc)]))


def min_special_cover(pair: DualPair, bc: BarClass) -> BarClass:
    """The unique smallest special bar class above bc in the embedded order."""
    bc = pair.check(bc)
    return _DualityTable(pair).cover(bc)


def achar_dual(pair: DualPair, bc: BarClass) -> BarClass:
    """Refined duality: embed the minimal special cover, flip, unembed."""
    bc = pair.check(bc)
    return _DualityTable(pair).dual(bc)
