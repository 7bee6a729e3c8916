"""Duality on orbits decorated with canonical-quotient conjugacy classes.

A bar class is a pair ``(orbit label, class label)`` naming a conjugacy
class in the canonical quotient of the orbit's equivariant fundamental
group.  The Sommers map sends bar classes of one group onto the orbits
of its dual group; embedding a bar class as the pair
``(orbit, sommers image)`` and flipping the two coordinates yields the
refined duality, with a detour through the minimal special cover when
the flipped pair is not itself in the image of the dual embedding.

One ``achar_dual`` or ``min_special_cover`` call tabulates the embedding
of each side once, 2·|B| Sommers-table lookups for |B| bar classes, and
answers every specialness, cover and inverse question from those tables;
a packet query asks all its questions of one such table.  The table's
``flip()`` is the table on the flipped pair over the same two embeddings,
so validation checks ``D^3 = D`` and order reversal on both sides for
the same 2·|B| lookups.  Nothing is kept between calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    GroupMismatchError,
    InconsistentDataError,
    NonUniqueCoverError,
    UnknownLabelError,
)
from .orbits import NilpotentPoset

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
        orbit, cls = bc
        cls = normalize_class(cls)
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


class _Embedding:
    """One side's embedding, tabulated for the duration of one call.

    ``pairs`` maps every bar class of ``pair.g`` to its embedded pair, in
    ``all_bar_classes`` order; ``hits`` maps each embedded pair back to
    every bar class that lands on it.  Building it costs |B| Sommers
    lookups; every later question about the side reads these dicts.
    """

    def __init__(self, pair: DualPair):
        self.pair = pair
        self.pairs = {
            (o, c): (o, pair.g.sommers(o, c)) for o, c in all_bar_classes(pair.g)
        }
        self.hits: dict[OrbitPair, list[BarClass]] = {}
        for bc, p in self.pairs.items():
            self.hits.setdefault(p, []).append(bc)


def _unembed(side: _Embedding, target: OrbitPair) -> BarClass | None:
    """Inverse of embed on the table's side, None when not hit."""
    hits = side.hits.get(target, ())
    if len(hits) > 1:
        raise InconsistentDataError(
            f"embedding of {side.pair.g.group_id} is not injective at {target}"
        )
    return hits[0] if hits else None


def is_special_pair(pair: DualPair, bc: BarClass) -> bool:
    """Whether the flipped embedded pair lies in the dual embedding image."""
    target = _flip_pair(embed(pair, bc))
    return _unembed(_Embedding(pair.flip()), target) is not None


class _DualityTable:
    """Refined duality on one pair, tabulated for the duration of one call.

    Holds both sides' embeddings (2·|B| Sommers lookups, the flipped side
    on first use; ``flip()`` shares both) and computes each bar class's
    minimal special cover and D once, on first request.  Bar classes must
    already have passed ``pair.check``.
    """

    def __init__(self, pair: DualPair, side=None, flipped=None):
        self.pair = pair
        self.side = side or _Embedding(pair)
        if flipped is not None:
            self.flipped = flipped
        self._covers: dict[BarClass, BarClass] = {}

    @cached_property
    def flipped(self) -> _Embedding:
        return _Embedding(self.pair.flip())

    def flip(self) -> "_DualityTable":
        return _DualityTable(self.pair.flip(), self.flipped, self.side)

    def cover(self, bc: BarClass) -> BarClass:
        """The unique smallest special bar class above bc."""
        if bc not in self._covers:
            pair, pairs = self.pair, self.side.pairs
            here = pairs[bc]
            above = [
                (other, p)
                for other, p in pairs.items()
                if _unembed(self.flipped, _flip_pair(p)) is not None
                and pair_leq(pair, here, p)
            ]
            minima = [
                m for m, p in above if all(pair_leq(pair, p, q) for _, q in above)
            ]
            if len(minima) != 1:
                raise NonUniqueCoverError(
                    f"bar class {bc} of {pair.g.group_id} has "
                    f"{len(minima)} minimal special covers"
                )
            self._covers[bc] = minima[0]
        return self._covers[bc]

    def dual(self, bc: BarClass) -> BarClass:
        """D(bc): embed the cover, flip, unembed.  A cover is special, so
        its flipped pair has exactly one preimage in the flipped table."""
        target = _flip_pair(self.side.pairs[self.cover(bc)])
        return self.flipped.hits[target][0]


def min_special_cover(pair: DualPair, bc: BarClass) -> BarClass:
    """The unique smallest special bar class above bc in the embedded order."""
    bc = pair.check(bc)
    return _DualityTable(pair).cover(bc)


def achar_dual(pair: DualPair, bc: BarClass) -> BarClass:
    """Refined duality: embed the minimal special cover, flip, unembed."""
    bc = pair.check(bc)
    return _DualityTable(pair).dual(bc)
