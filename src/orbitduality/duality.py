"""Duality on orbits decorated with canonical-quotient conjugacy classes.

A bar class is a pair ``(orbit label, class label)`` naming a conjugacy
class in the canonical quotient of the orbit's equivariant fundamental
group.  The Sommers map sends bar classes of one group onto the orbits
of its dual group; embedding a bar class as the pair
``(orbit, sommers image)`` and flipping the two coordinates yields the
refined duality, with a detour through the minimal special cover when
the flipped pair is not itself in the image of the dual embedding.

Each public call here (``embed``, ``sommers_dual``, ``is_special_pair``,
``achar_dual``, ``min_special_cover``, ``wavefronts`` and
``refined_duality_failures``) reads the pair's table, shared with its flip
and filled on first use: |B| Sommers lookups per poset per pair for |B| bar
classes, so 21 on the self-dual F4, and each special flag, minimal special
cover and D found once.  A poset's first cover search stores its special
bar classes, each with the set of specials above it; a later search filters
that list, reading the order from lower sets with one label check.  Once a
poset is tabulated, ``DualPair.check`` passes a plain tuple that is one of
its bar classes without a label check, so a warm query reads the
tabulation's keys and the stored answer.

``refined_duality_failures`` checks two laws of D on the table: the
embedding is injective and pr1∘D = d_S.  D^3 = D and order reversal hold
by construction, so they are not checked; its docstring says why.
"""

from __future__ import annotations

from ._record import Record
from .errors import (GroupMismatchError, InconsistentDataError,
                     MissingTableError, NonUniqueCoverError, UnknownLabelError)
from .poset import NilpotentPoset

BarClass = tuple[str, str]  # (orbit label, class label)
OrbitPair = tuple[str, str]  # (orbit in G, orbit in the dual group)


def normalize_class(class_label: str) -> str:
    return "".join(class_label.split())


class DualPair(Record):
    """An oriented pair of mutually dual orbit posets.  Its one refined-duality
    table, which ``flip()`` hands on, serves both orientations.

    A constructed pair keeps its flip, made on first use; the flip keeps no
    pair, so no cycle forms, and its own ``flip()`` makes a new pair.
    """

    g: NilpotentPoset
    gd: NilpotentPoset

    def __post_init__(self):
        vars(self).update(_table=_DualityTable(), _flip=None)

    def flip(self) -> "DualPair":
        flipped = vars(self).get("_flip")
        if flipped is None:
            flipped = object.__new__(DualPair)  # no __post_init__: no table to replace
            vars(flipped).update(g=self.gd, gd=self.g, _table=self._table)
            if "_flip" in vars(self):
                vars(self)["_flip"] = flipped
        return flipped

    def check(self, bc: BarClass) -> BarClass:
        """bc with its class label normalized, or UnknownLabelError.

        A plain tuple already among the bar classes of ``g``'s tabulation is
        returned as it is: class labels are stored normalized (``parse_bundle``
        refuses spaces), so the full check would return an equal pair.
        """
        if type(bc) is tuple:
            try:
                if bc in self._table._sides[self.g][0]:
                    return bc
            except (KeyError, TypeError):  # not tabulated yet, or unhashable
                pass
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
    return embed(pair, bc)[1]


def embed(pair: DualPair, bc: BarClass) -> OrbitPair:
    return pair._table.embedded(pair.g, pair.check(bc))


def pair_leq(pair: DualPair, p: OrbitPair, q: OrbitPair) -> bool:
    """Product order: first coordinates up, second coordinates down."""
    try:
        return pair.g.leq(p[0], q[0]) and pair.gd.leq(q[1], p[1])
    except UnknownLabelError as exc:
        raise GroupMismatchError(str(exc)) from None


def is_special_pair(pair: DualPair, bc: BarClass) -> bool:
    """Whether the flipped embedded pair lies in the dual embedding image."""
    return pair._table.unflip(pair, pair.check(bc)) is not None


def _least_special(above, ups, error):
    """The one bar class in above whose up-set in ``ups`` holds all of above.
    Unless there is exactly one, raise NonUniqueCoverError(error(count))."""
    least = [s for s in above if ups[s].issuperset(above)]
    if len(least) != 1:
        raise NonUniqueCoverError(error(len(least)))
    return least[0]


class _DualityTable:
    """Refined duality on both orientations of the ``DualPair`` that keeps
    it; it holds no pair, so no cycle keeps it alive.

    One dict per fact.  A poset's tabulation, every bar class's embedded
    pair in ``all_bar_classes`` order and each pair's preimages, is keyed
    by the poset: one per poset.  So are its special bar classes, in that
    order, each with the set of special bar classes above it, stored by the
    first cover search that decides every flag.  A bar class's special
    flag (what its flipped pair unembeds to, if anything), its minimal
    special cover and its refined dual D are keyed by its poset and the bar
    class, since within a pair the poset fixes its partner; each is stored
    once computed, so a call that raises changes no later answer.  Bar
    classes must already have passed ``pair.check``.
    """

    __slots__ = ("_sides", "_special", "_ups", "_covers", "_duals")

    def __init__(self):
        self._sides = {}  # poset -> (pairs, hits)
        self._special = {}  # (poset, bar class) -> what its flip unembeds to
        self._ups = {}  # poset -> {special bar class: the specials above it}
        self._covers = {}  # (poset, bar class) -> cover
        self._duals = {}  # (poset, bar class) -> D

    def pairs(self, poset: NilpotentPoset) -> dict[BarClass, OrbitPair]:
        """``poset``'s embedded pairs: |B| Sommers lookups on first use."""
        if poset not in self._sides:
            pairs = {(o, c): (o, poset.sommers(o, c))
                     for o, c in all_bar_classes(poset)}
            hits: dict[OrbitPair, list[BarClass]] = {}
            for bc, p in pairs.items():
                hits.setdefault(p, []).append(bc)
            self._sides[poset] = pairs, hits
        return self._sides[poset][0]

    def embedded(self, poset: NilpotentPoset, bc: BarClass) -> OrbitPair:
        """bc's embedded pair: its own Sommers entry if another is missing."""
        try:
            return self.pairs(poset)[bc]
        except MissingTableError:
            return (bc[0], poset.sommers(*bc))

    def unembed(self, poset: NilpotentPoset, target: OrbitPair) -> BarClass | None:
        """Inverse of embed on ``poset``, None when not hit."""
        self.pairs(poset)
        hits = self._sides[poset][1].get(target, ())
        if len(hits) > 1:
            raise InconsistentDataError(
                f"embedding of {poset.group_id} is not injective at {target}"
            )
        return hits[0] if hits else None

    def unflip(self, pair: DualPair, bc: BarClass) -> BarClass | None:
        """The bar class of ``pair.gd`` that bc's flip unembeds to, or None."""
        key = (pair.g, bc)
        if key not in self._special:
            orbit, image = self.embedded(pair.g, bc)
            self._special[key] = self.unembed(pair.gd, (image, orbit))
        return self._special[key]

    def cover(self, pair: DualPair, bc: BarClass) -> BarClass:
        """The unique smallest special bar class of ``pair.g`` above bc.

        Orders are read from lower sets.  Of the labels read, only bc's
        Sommers value may name no dual orbit: one checked ``pair_leq``, at the
        first special class above bc's orbit, checks it, on a poset's first
        search before the later special flags are decided.
        """
        g, key = pair.g, (pair.g, bc)
        if key not in self._covers:
            pairs, gb, db = self.pairs(g), g._below, pair.gd._below
            here, ups = pairs[bc], self._ups.get(g)
            walk = (s for s in pairs if self.unflip(pair, s)) if ups is None else ups
            first = next((s for s in walk if here[0] in gb[pairs[s][0]]), None)
            if first is not None:
                pair_leq(pair, here, pairs[first])  # checks bc's Sommers value
            if ups is None:  # above s: orbit up, Sommers value down
                specials = {s: p for s, p in pairs.items() if self.unflip(pair, s)}
                ups = self._ups[g] = {s: {t for t, (x, y) in specials.items()
                                          if a in gb[x] and y in db[b]}
                                      for s, (a, b) in specials.items()}
            self._covers[key] = _least_special(
                ups[bc] if bc in ups else {s for s in ups if here[0] in gb[pairs[s][0]]
                                           and pairs[s][1] in db[here[1]]},
                ups, lambda count: f"bar class {bc} of {g.group_id} has "
                                   f"{count} minimal special covers",
            )
        return self._covers[key]

    def dual(self, pair: DualPair, bc: BarClass) -> BarClass:
        """D(bc): embed the cover, flip, unembed on the dual side."""
        key = (pair.g, bc)
        if key not in self._duals:
            self._duals[key] = self.unflip(pair, self.cover(pair, bc))
        return self._duals[key]


def min_special_cover(pair: DualPair, bc: BarClass) -> BarClass:
    """The unique smallest special bar class above bc in the embedded order."""
    bc = pair.check(bc)
    return pair._table.cover(pair, bc)


def achar_dual(pair: DualPair, bc: BarClass) -> BarClass:
    """Refined duality: embed the minimal special cover, flip, unembed."""
    bc = pair.check(bc)
    return pair._table.dual(pair, bc)


def wavefronts(pair: DualPair, orbits):
    """Yield ``(orbit, (D(orbit, 1), its embedded pair))`` for each
    dual-side orbit in turn, D taken on ``pair.flip()`` and the pair in
    ``pair.g``, all from the pair's table.

    Each label is checked just before its own lookups, and the orbits are
    read and answered one at a time, so a caller that tests each answer as
    it comes sees errors in the order it asks.
    """
    dual, table = pair.flip(), pair._table
    for orbit in orbits:
        bc = table.dual(dual, dual.check((orbit, "1")))
        yield orbit, (bc, table.pairs(pair.g)[bc])


def refined_duality_failures(pair: DualPair) -> str | None:
    """The first law of D that fails on ``pair``, as a report, or None.

    Checked, in order: the embedding of ``pair.g`` is injective, and
    pr1∘D = d_S.  The injectivity walk reads ``pair.g``'s tabulation; only
    a missing entry sends it to the Sommers table itself, walked in the
    same order, so a collision ahead of that entry is reported first.

    D^3 = D and order reversal hold by construction once every D is
    defined, because both orders are reflexive and transitive.  A special
    bar class is its own minimal cover, so D on the flip sends D(bc) to
    cover(bc), and D(cover(bc)) = D(bc).  And x <= y puts cover(y) among
    the specials above x, so cover(x) <= cover(y), which the flip turns
    into order reversal.
    """
    table, seen = pair._table, {}
    try:
        walk = table.pairs(pair.g).items()
    except MissingTableError:
        walk = ((bc, (bc[0], pair.g.sommers(*bc))) for bc in all_bar_classes(pair.g))
    for bc, p in walk:
        if seen.setdefault(p, bc) != bc:
            return f"embedding collision: {seen[p]} and {bc} both map to {p}"
    embedded = table.pairs(pair.g)
    refined = {bc: table.dual(pair, bc) for bc in embedded}
    for bc, once in refined.items():
        if embedded[bc][1] != once[0]:
            return f"pr1 of the refined dual differs from the Sommers image at {bc}"
    return None
