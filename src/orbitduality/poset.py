"""The bundle path's orbit posets, each keeping its specials and asked pieces
per ``dual_d``; the ``d_table`` a partner hands over as ``dual_d``; the
closure-order law and the laws of ``d``, read through it.  ``data``,
``duality`` and ``packets`` import this module, so a CLI call does not compile
``orbits``' classical posets or ``partitions``, which it never runs.
``orbits`` passes on only ``bvls_dual`` and ``special_piece_of``.
"""

from __future__ import annotations

from .errors import MissingTableError, NonUniqueCoverError, UnknownLabelError
from .rootdata import Coweight, RootSystem


class NilpotentPoset:
    """One orbit poset, read from tables its constructor fills once.

    ``below`` maps each label, in label order, to its lower set in the closure
    order: the labels at or below it, so the order is reflexive and transitive.
    ``bar_a`` maps an orbit to its bar classes (the trivial class ``"1"`` alone
    when absent); ``ds`` is the Sommers table, mapping (orbit label, class
    label) to a dual-group orbit label, and ``d`` is its trivial-class entry.
    ``dual_d`` (None: MissingTableError) is the dual side every law, check and
    ``is_special`` reads; the specials and asked pieces are kept per ``dual_d``.
    Labels compare through ``_image_key``, which ``ClassicalPoset`` coarsens.
    """

    dual_d: NilpotentPoset | None = None

    def __init__(self, group_id, below, bar_a, ds,
                 dims=None, dynkin=None, rs: RootSystem | None = None):
        self.group_id = group_id
        self._below = dict(below)
        self.labels = tuple(self._below)
        self._bar = {o: tuple(cs) for o, cs in bar_a.items()}
        self._ds = dict(ds)
        self._dims = dict(dims or {})
        self._dynkin = dict(dynkin or {})
        self._rs = rs
        self._kept = [None, None, {}]  # the dual_d read, its specials, its pieces

    # -- table lookups -----------------------------------------------------

    def leq(self, a: str, b: str) -> bool:
        self.check_label(a)
        self.check_label(b)
        return a in self._below[b]

    def d(self, label: str) -> str:
        """The trivial-class entry of the Sommers table, read past any
        subclass's ``sommers``."""
        return NilpotentPoset.sommers(self, label, "1")

    def bar_classes(self, label: str) -> tuple[str, ...]:
        self.check_label(label)
        return self._bar.get(label, ("1",))

    def sommers(self, label: str, class_label: str) -> str:
        self.check_label(label)
        try:
            return self._ds[(label, class_label)]
        except KeyError:
            raise MissingTableError(
                f"no duality entry for ({label}, {class_label}) in {self.group_id}"
            ) from None
        except TypeError:  # unhashable, so not a class
            raise UnknownLabelError(
                f"unknown class {class_label!r} on orbit {label} of {self.group_id}"
            ) from None

    def dim(self, label: str) -> int | None:
        self.check_label(label)
        return self._dims.get(label)

    def weighted_dynkin(self, label: str) -> Coweight | None:
        self.check_label(label)
        return self._dynkin.get(label)

    def root_system(self) -> RootSystem | None:
        return self._rs

    # -- shared behaviour --------------------------------------------------

    def check_label(self, label: str) -> None:
        try:
            known = label in self._below
        except TypeError:  # unhashable, so not a label
            known = False
        if not known:
            raise UnknownLabelError(
                f"unknown orbit {label!r} in group {self.group_id}"
            )

    def _image_key(self, label: str) -> str:
        return label

    def same_image(self, a: str, b: str) -> bool:
        return a == b or self._image_key(a) == self._image_key(b)

    def zero(self) -> str:
        below = self._below
        return _least_one(self.labels, lambda a, b: a in below[b], self._no_extreme)

    def regular(self) -> str:
        below, down = self._below, self.labels[::-1]  # labels mostly run upwards
        return _least_one(down, lambda a, b: b in below[a], self._no_extreme)

    def _no_extreme(self, count: int) -> str:
        return f"group {self.group_id} has no unique extreme orbit"

    def is_special(self, label: str) -> bool:
        return self.same_image(self._paired_dual().d(self.d(label)), label)

    def _paired_dual(self) -> NilpotentPoset:
        if self.dual_d is None:
            raise MissingTableError(
                f"group {self.group_id} has no dual-group data attached")
        return self.dual_d

    def _store(self) -> list:
        if self._kept[0] is not self.dual_d:  # rebound: nothing kept holds
            self._kept = [self.dual_d, None, {}]
        return self._kept

    def specials(self) -> tuple[str, ...]:
        kept = self._store()
        if kept[1] is None:
            kept[1] = tuple(a for a in self.labels if self.is_special(a))
        return kept[1]

    def special_closure(self, label: str) -> str:
        """The unique minimal special orbit above label."""
        self.check_label(label)
        return _least_one(
            [s for s in self.specials() if self.leq(label, s)], self.leq,
            lambda count: f"orbit {label} in {self.group_id} has no unique "
                          f"minimal special orbit above it",
        )

    def special_piece(self, label: str) -> tuple[str, ...]:
        """All orbits sharing this orbit's special closure, in label order."""
        try:
            return self._store()[2][label]
        except (KeyError, TypeError):  # not asked yet, or not a label
            pass
        top = self.special_closure(label)  # a call that raises keeps nothing
        return self._kept[2].setdefault(label, tuple(
            b for b in self.labels if self.special_closure(b) == top))


def _least_one(items, leq, error):
    """The one element of items below every element of items.  Unless
    there is exactly one, raise NonUniqueCoverError(error(count))."""
    least = [a for a in items if all(leq(a, b) for b in items)]
    if len(least) != 1:
        raise NonUniqueCoverError(error(len(least)))
    return least[0]


# -- poset laws --------------------------------------------------------------

def order_failures(poset: NilpotentPoset) -> list[tuple[str, str]]:
    """The pairs a < b (as strings) that break antisymmetry."""
    return [(a, b) for a in poset.labels for b in poset.labels
            if a < b and a in poset._below[b] and b in poset._below[a]]


def duality_failures(poset: NilpotentPoset):
    """The first law of ``d`` that fails, as (what fails, where), or None.

    Each reads the dual side through ``poset.dual_d``.  In order: d^3 = d,
    exactly; d reverses the closure order; ``poset.specials()``, stored for
    later readers, are the image of the dual's ``d`` up to ``_image_key``.
    """
    dual = poset._paired_dual()
    d = {a: poset.d(a) for a in poset.labels}  # the column the laws read
    bad = [a for a in poset.labels if poset.d(dual.d(d[a])) != d[a]]
    if bad:
        return "d^3 != d", bad
    # d^3 = d has checked every value of d as a label of dual
    bad = [f"{a} <= {b}" for a in poset.labels for b in poset.labels
           if a in poset._below[b] and d[b] not in dual._below[d[a]]]
    if bad:
        return "order reversal fails", bad
    image = {poset._image_key(dual.d(b)) for b in dual.labels}
    specials = set(poset.specials())
    bad = [a for a in poset.labels if (a in specials) != (poset._image_key(a) in image)]
    if bad:
        return "specials differ from the image of d", bad
    return None


# -- bundle-backed posets ----------------------------------------------------

def transitive_closure(labels, covers) -> dict[str, set[str]]:
    """Reflexive-transitive closure of covering pairs: each label's lower
    set, in label order."""
    below = {a: {a} for a in labels}
    changed = True
    while changed:
        changed = False
        for lo, hi in covers:
            new = below[lo] - below[hi]
            if new:
                below[hi] |= new
                changed = True
    return below


class BundlePoset(NilpotentPoset):
    """Orbit poset loaded from a data bundle: its tables filled from the
    bundle's covering pairs, bar classes and Sommers table.  It holds no
    partner: ``data.dual_pair`` sets ``dual_d`` to the partner's ``d_table``."""

    def __init__(self, group_id, labels, covers, bar_a, ds,
                 dims=None, dynkin=None, rs: RootSystem | None = None):
        super().__init__(group_id, transitive_closure(labels, covers),
                         bar_a, ds, dims, dynkin, rs)


def d_table(poset: NilpotentPoset) -> NilpotentPoset:
    """The ``dual_d`` a partner hands over: group id, labels, lower sets, d."""
    return NilpotentPoset(poset.group_id, poset._below, {},
                          {k: t for k, t in poset._ds.items() if k[1] == "1"})


# -- functional wrappers used by callers that hold a poset handle ------------

def closure_leq(poset: NilpotentPoset, a: str, b: str) -> bool:
    return poset.leq(a, b)


def bvls_dual(poset: NilpotentPoset, label: str) -> str:
    return poset.d(label)


def is_special(poset: NilpotentPoset, label: str) -> bool:
    return poset.is_special(label)


def special_closure(poset: NilpotentPoset, label: str) -> str:
    return poset.special_closure(label)


def special_piece_of(poset: NilpotentPoset, label: str) -> tuple[str, ...]:
    return poset.special_piece(label)
