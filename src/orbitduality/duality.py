"""Duality on orbits decorated with canonical-quotient conjugacy classes.

A bar class is a pair ``(orbit label, class label)`` naming a conjugacy
class in the canonical quotient of the orbit's equivariant fundamental
group.  The Sommers map sends bar classes of one group onto the orbits
of its dual group; embedding a bar class as the pair
``(orbit, sommers image)`` and flipping the two coordinates yields the
refined duality, with a detour through the minimal special cover when
the flipped pair is not itself in the image of the dual embedding.

One private ``_DualityTable`` per call memoizes what that call needs:
each poset's embedding, |B| Sommers-table lookups for |B| bar classes on
first use, so a call costs at most 2·|B| lookups, |B| for a self-dual pair
(21 on F4), and each minimal special cover.  Every question names its key:
``pairs(poset)``, ``unembed(poset, target)``, ``collision(g)``,
``cover(pair, bc)`` and ``dual(pair, bc)``.  ``achar_dual``,
``min_special_cover``, ``is_special_pair``, the packet queries and the
validator's identities check each build one; nothing is kept between calls.
"""

from __future__ import annotations

from ._record import Record
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


class DualPair(Record):
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
    return _DualityTable().unembed(pair.gd, target) is not None


class _DualityTable:
    """Refined duality, memoized for the duration of one call.

    Each answer is keyed by what it depends on.  A poset's tabulation, every
    bar class's embedded pair in ``all_bar_classes`` order and each pair's
    preimages, is keyed by poset: |B| Sommers lookups on first use.  A bar
    class's minimal special cover is keyed by the oriented pair's two
    posets and the class; a self-dual pair equals its flip, so both
    orientations share one key, while distinct posets keep their own.  Bar
    classes must already have passed ``pair.check``.
    """

    def __init__(self):
        self._sides = {}  # poset -> (pairs, hits)
        self._covers = {}  # (g, gd, bar class) -> cover

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

    def pairs(self, poset: NilpotentPoset) -> dict[BarClass, OrbitPair]:
        return self._side(poset)[0]

    def unembed(self, poset: NilpotentPoset, target: OrbitPair) -> BarClass | None:
        """Inverse of embed on ``poset``, None when not hit."""
        hits = self._side(poset)[1].get(target, ())
        if len(hits) > 1:
            raise InconsistentDataError(
                f"embedding of {poset.group_id} is not injective at {target}"
            )
        return hits[0] if hits else None

    def collision(self, g) -> tuple[BarClass, BarClass, OrbitPair] | None:
        """The first bar class of ``g`` that lands on an earlier one's pair,
        that earlier one and the pair; None when the embedding is injective.
        Classes are embedded in order, so a collision is reported before a
        later class's missing table entry; a full walk is ``g``'s
        tabulation."""
        seen = {}
        for o, c in all_bar_classes(g):
            p = (o, g.sommers(o, c))
            if p in seen:
                return seen[p], (o, c), p
            seen[p] = (o, c)
        pairs = {bc: p for p, bc in seen.items()}
        self._sides[g] = pairs, {p: [bc] for bc, p in pairs.items()}
        return None

    def cover(self, pair: DualPair, bc: BarClass) -> BarClass:
        """The unique smallest special bar class above bc."""
        key = pair.g, pair.gd, bc  # DualPair equality, without its Python hash
        if key not in self._covers:
            pairs = self.pairs(pair.g)
            here = pairs[bc]
            above = [
                other
                for other, p in pairs.items()
                if self.unembed(pair.gd, _flip_pair(p)) is not None
                and pair_leq(pair, here, p)
            ]
            minima = _least(above, lambda x, y: pair_leq(pair, pairs[x], pairs[y]))
            if len(minima) != 1:
                raise NonUniqueCoverError(
                    f"bar class {bc} of {pair.g.group_id} has "
                    f"{len(minima)} minimal special covers"
                )
            self._covers[key] = minima[0]
        return self._covers[key]

    def dual(self, pair: DualPair, bc: BarClass) -> BarClass:
        """D(bc): embed the cover, flip, unembed on the dual side."""
        cover = self.pairs(pair.g)[self.cover(pair, bc)]
        return self.unembed(pair.gd, _flip_pair(cover))


def min_special_cover(pair: DualPair, bc: BarClass) -> BarClass:
    """The unique smallest special bar class above bc in the embedded order."""
    bc = pair.check(bc)
    return _DualityTable().cover(pair, bc)


def achar_dual(pair: DualPair, bc: BarClass) -> BarClass:
    """Refined duality: embed the minimal special cover, flip, unembed."""
    bc = pair.check(bc)
    return _DualityTable().dual(pair, bc)
