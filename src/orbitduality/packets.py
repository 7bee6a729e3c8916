"""Parameter sets at a fixed real infinitesimal character, their wavefront
invariants, and the packets cut out by those invariants.

A parameter records the orbit of its nilpotent part in the dual group,
an opaque component-group label, and a link to its dual partner under
the Bernstein-block involution.  Everything here is computed from the
orbit data: temperedness compares orbits, the wavefront invariant is the
refined dual of the partner's orbit at the trivial class, and the two
packet notions are sublevel sets of that invariant and of its coarse
first projection.

One packet query (``arthur_packet``, ``weak_packet`` or ``check_jiang``)
builds one refined-duality table, at most 2·|B| Sommers-table lookups for
|B| bar classes, |B| for a self-dual pair (21 on F4), and reads the bound
and every parameter's invariant from it: each invariant checks its bar
class on ``pair.flip()``, then asks the table for ``dual`` on that pair;
the g-side embedding is ``pairs(pair.g)``.  The table tabulates on first
use, so a bad label is reported before a bad table.  Nothing is kept
between calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .duality import (
    BarClass,
    DualPair,
    _DualityTable,
    achar_dual,
    pair_leq,
)
from .errors import InconsistentDataError, UnknownLabelError
from .orbits import NilpotentPoset
from .rootdata import (
    Coweight,
    coweight_orbit,
    dominant_rep,
    half_sum,
    invariant_form,
    weyl_conjugate,
)


@dataclass(frozen=True)
class Parameter:
    id: str
    n_orbit: str
    rho: str
    iwahori: bool = True
    unitary: bool | None = None
    az_partner: str = ""


@dataclass(frozen=True)
class ParameterSet:
    """Parameters sharing one infinitesimal-character orbit in the dual group."""

    ic_orbit: str
    params: tuple[Parameter, ...]

    def __post_init__(self):
        # an index beside the fields: not a constructor argument, not compared
        object.__setattr__(self, "_by_id", {x.id: x for x in self.params})

    def __iter__(self):
        return iter(self.params)

    def get(self, param_id: str) -> Parameter:
        try:
            return self._by_id[param_id]
        except (KeyError, TypeError):  # TypeError: unhashable, so not an id
            raise UnknownLabelError(f"unknown parameter id {param_id!r}") from None

    def ids(self) -> list[str]:
        return [x.id for x in self.params]


def natural_key(param_id: str):
    """Sort X2 before X13: split runs of digits into integers."""
    key, num = [], ""
    for ch in param_id:
        if ch.isdigit():
            num += ch
        else:
            if num:
                key.append((1, int(num)))
                num = ""
            key.append((0, ch))
    if num:
        key.append((1, int(num)))
    return key


def is_tempered(ps: ParameterSet, x: Parameter) -> bool:
    return x.n_orbit == ps.ic_orbit


def az_dual(ps: ParameterSet, x: Parameter) -> Parameter:
    return ps.get(x.az_partner)


def cuwf(pair: DualPair, ps: ParameterSet, x: Parameter) -> BarClass:
    """Wavefront invariant of x as a bar class on the group side.

    The parameters live on the dual side of ``pair``; the invariant is the
    refined dual of the partner's nilpotent orbit at the trivial class.
    """
    partner = az_dual(ps, x)
    return achar_dual(pair.flip(), (partner.n_orbit, "1"))


def geometric_wf(pair: DualPair, ps: ParameterSet, x: Parameter) -> str:
    """Coarse orbit-valued wavefront invariant: first projection of cuwf."""
    return cuwf(pair, ps, x)[0]


def _wavefront(table: _DualityTable, pair: DualPair, orbit: str) -> BarClass:
    """D(orbit, 1) on ``pair.flip()``, the bar class checked first, so a bad
    label is reported before anything is tabulated."""
    dual = pair.flip()
    return table.dual(dual, dual.check((orbit, "1")))


def _arthur_packet(
    pair: DualPair, ps: ParameterSet, table: _DualityTable
) -> list[str]:
    ic_dual = _wavefront(table, pair, ps.ic_orbit)
    embedded = table.pairs(pair.g)  # tabulated by that call
    bound = embedded[ic_dual]
    by_wavefront = {
        x.id
        for x in ps
        if pair_leq(
            pair, embedded[_wavefront(table, pair, az_dual(ps, x).n_orbit)], bound
        )
    }
    by_tempered_dual = {x.id for x in ps if is_tempered(ps, az_dual(ps, x))}
    if by_wavefront != by_tempered_dual:
        raise InconsistentDataError(
            f"packet characterizations disagree at {ps.ic_orbit}: "
            f"wavefront {sorted(by_wavefront)} vs "
            f"tempered-dual {sorted(by_tempered_dual)}"
        )
    return sorted(by_wavefront, key=natural_key)


def arthur_packet(pair: DualPair, ps: ParameterSet) -> list[str]:
    """Parameters whose wavefront invariant is below the dual of the
    infinitesimal-character orbit; provably the same set as the
    parameters with tempered partners, and checked against it."""
    return _arthur_packet(pair, ps, _DualityTable())


def weak_packet(pair: DualPair, ps: ParameterSet) -> list[str]:
    """Parameters whose coarse wavefront orbit is below d(ic_orbit);
    provably the parameters whose partner orbit lies in the special piece
    of the infinitesimal-character orbit, and checked against it."""
    table = _DualityTable()
    bound = pair.gd.d(ps.ic_orbit)
    by_wavefront = {
        x.id
        for x in ps
        if pair.g.leq(_wavefront(table, pair, az_dual(ps, x).n_orbit)[0], bound)
    }
    piece = set(pair.gd.special_piece(ps.ic_orbit))
    by_piece = {x.id for x in ps if az_dual(ps, x).n_orbit in piece}
    if by_wavefront != by_piece:
        raise InconsistentDataError(
            f"weak packet characterizations disagree at {ps.ic_orbit}: "
            f"wavefront {sorted(by_wavefront)} vs "
            f"special-piece {sorted(by_piece)}"
        )
    return sorted(by_wavefront, key=natural_key)


@dataclass(frozen=True)
class JiangReport:
    """Per-member wavefront equalities and the global lower bound."""

    ic_orbit: str
    dual_orbit: str
    members: tuple[tuple[str, str, bool], ...]  # (id, wavefront orbit, equal)
    lower_bounds: tuple[tuple[str, bool], ...]  # (id, bound holds)

    @property
    def passed(self) -> bool:
        return all(eq for _, _, eq in self.members) and all(
            ok for _, ok in self.lower_bounds
        )

    def to_dict(self) -> dict:
        return {
            "ic_orbit": self.ic_orbit,
            "dual_orbit": self.dual_orbit,
            "members": [
                {"id": i, "wavefront": wf, "equal": eq}
                for i, wf, eq in self.members
            ],
            "lower_bounds": [
                {"id": i, "holds": ok} for i, ok in self.lower_bounds
            ],
            "passed": self.passed,
        }


def check_jiang(pair: DualPair, ps: ParameterSet) -> JiangReport:
    """Every packet member's coarse wavefront orbit equals d(ic_orbit),
    and the refined lower bound holds across the whole parameter set."""
    table = _DualityTable()
    d_ic = pair.gd.d(ps.ic_orbit)
    members = []
    for pid in _arthur_packet(pair, ps, table):
        orbit = _wavefront(table, pair, az_dual(ps, ps.get(pid)).n_orbit)[0]
        members.append((pid, orbit, orbit == d_ic))
    embedded = table.pairs(pair.g)
    bound = embedded[_wavefront(table, pair, ps.ic_orbit)]
    lower = []
    for x in sorted(ps, key=lambda x: natural_key(x.id)):
        wf = embedded[_wavefront(table, pair, az_dual(ps, x).n_orbit)]
        lower.append((x.id, pair_leq(pair, bound, wf)))
    return JiangReport(ps.ic_orbit, d_ic, tuple(members), tuple(lower))


def check_infl_sum(
    poset: NilpotentPoset, h_art: Coweight, h_lan: Coweight, target: str
) -> bool:
    """Whether (h_art + h_lan)/2 is Weyl-conjugate to half the weighted
    Dynkin coweight of the target orbit."""
    rs = poset.root_system()
    if rs is None:
        raise UnknownLabelError(
            f"group {poset.group_id} carries no root system data"
        )
    h_target = poset.weighted_dynkin(target)
    if h_target is None:
        raise UnknownLabelError(
            f"orbit {target} of {poset.group_id} has no weighted Dynkin data"
        )
    lhs = half_sum(h_art, h_lan)
    rhs = half_sum(h_target, Coweight.of([0] * rs.rank))
    return weyl_conjugate(lhs, rhs, rs)


def infl_sum_witness(
    poset: NilpotentPoset, orbit_art: str, orbit_lan: str, target: str
):
    """Search the Weyl orbit of one coweight for a witness pair.

    Returns (h_art, h_lan) with the first coweight fixed dominant, or
    None when no conjugate sums to the target class.  Fixing one side is
    harmless: conjugating the whole sum moves the witness pair inside
    their Weyl orbits.

    The invariant form q of ``invariant_form`` prunes the search: a
    witness w2 needs q(h_art + w2) = q(h_target), an equation linear in
    w2, so only the orbit elements that satisfy it are reduced with
    ``dominant_rep``.  The orbit is walked in the same sorted order
    either way, so the first hit is the one the unpruned search returns.
    """
    rs = poset.root_system()
    h1 = poset.weighted_dynkin(orbit_art)
    h2 = poset.weighted_dynkin(orbit_lan)
    ht = poset.weighted_dynkin(target)
    if rs is None or h1 is None or h2 is None or ht is None:
        raise UnknownLabelError("missing weighted Dynkin data for the search")
    target_dom = dominant_rep(ht, rs)
    orbit = coweight_orbit(h2, rs)
    # the dot products below would silently truncate a short h1
    if len(h1.twice) != rs.rank:
        raise ValueError("coweight dimension mismatch")
    form = invariant_form(rs)
    form_h1 = [sum(map(mul, row, h1.twice)) for row in form]

    def q(h: Coweight) -> int:
        return sum(t * sum(map(mul, row, h.twice)) for t, row in zip(h.twice, form))

    # q(h1 + w2) = q(h1) + 2 B(h1, w2) + q(h2) for every w2 in the orbit,
    # and a witness has q(h1 + w2) = q(ht)
    need = q(ht) - q(h1) - q(h2)
    for w2 in orbit:
        if 2 * sum(map(mul, form_h1, w2.twice)) != need:
            continue
        if dominant_rep(h1 + w2, rs) == target_dom:
            return (h1, w2)
    return None
