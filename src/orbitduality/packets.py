"""Parameter sets at a fixed real infinitesimal character, their wavefront
invariants, and the packets cut out by those invariants.

A parameter records the orbit of its nilpotent part in the dual group,
an opaque component-group label, and a link to its dual partner under
the Bernstein-block involution.  Everything here is computed from the
orbit data: temperedness compares orbits, the wavefront invariant is the
refined dual of the partner's orbit at the trivial class, and the two
packet notions are sublevel sets of that invariant and of its coarse
first projection.  ``Parameter`` and ``ParameterSet`` are defined in
``data``, which parses them, and imported here.

One packet query (``arthur_packet``, ``weak_packet`` or ``check_jiang``)
reads one row per parameter: its partner's orbit, looked up once, and
the answer of ``duality.wavefronts`` there.  The Arthur bound at ic_orbit
comes first, from a call of its own.  Both calls read the pair's table:
|B| Sommers-table lookups per poset per pair for |B| bar classes, in the
pair's lifetime (21 on the self-dual F4).  Each orbit's label is
checked just before its own lookups, in the order the query asks.
"""

from __future__ import annotations

from operator import mul

from ._record import Record
from .data import Parameter, ParameterSet, natural_key
from .duality import BarClass, DualPair, achar_dual, pair_leq, wavefronts
from .errors import InconsistentDataError, UnknownLabelError
from .poset import NilpotentPoset
from .rootdata import (
    Coweight,
    coweight_orbit,
    dominant_rep,
    invariant_form,
    weyl_conjugate,
)


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


def _rows(pair: DualPair, ps: ParameterSet):
    """Yield ``(id, partner orbit, (cuwf, its embedded pair))`` for each
    parameter in set order, the answer read from ``wavefronts``; each
    partner is looked up just before its own wavefront."""
    partners = (az_dual(ps, x).n_orbit for x in ps)
    for x, (orbit, found) in zip(ps, wavefronts(pair, partners)):
        yield x.id, orbit, found


def _arthur_packet(pair: DualPair, ps: ParameterSet):
    """``arthur_packet``'s bound, the rows it read and its members, each
    with its ``cuwf``: the bound at ic_orbit first, then every row."""
    ((_, (_, bound)),) = wavefronts(pair, [ps.ic_orbit])
    # read in full first: pair_leq never fails on answers of D, so no
    # error moves ahead of another
    rows = list(_rows(pair, ps))
    members = sorted(
        ((pid, wf) for pid, _, (wf, p) in rows if pair_leq(pair, p, bound)),
        key=lambda m: natural_key(m[0]),
    )
    by_wavefront = {pid for pid, _ in members}
    by_tempered_dual = {pid for pid, orbit, _ in rows if orbit == ps.ic_orbit}
    if by_wavefront != by_tempered_dual:
        raise InconsistentDataError(
            f"packet characterizations disagree at {ps.ic_orbit}: "
            f"wavefront {sorted(by_wavefront)} vs "
            f"tempered-dual {sorted(by_tempered_dual)}"
        )
    return bound, rows, members


def arthur_packet(pair: DualPair, ps: ParameterSet) -> list[str]:
    """Parameters whose wavefront invariant is below the dual of the
    infinitesimal-character orbit; provably the same set as the
    parameters with tempered partners, and checked against it."""
    _, _, members = _arthur_packet(pair, ps)
    return [pid for pid, _ in members]


def _weak_packet(pair: DualPair, ps: ParameterSet):
    """``weak_packet``'s members as ``(id, partner orbit)``, in id order."""
    bound = pair.gd.d(ps.ic_orbit)
    partner_orbits, members = {}, {}
    # one row at a time: a bound outside g fails at the first leq, before
    # a later parameter's own lookups
    for pid, orbit, ((wf, _), _) in _rows(pair, ps):
        partner_orbits[pid] = orbit
        if pair.g.leq(wf, bound):
            members[pid] = orbit
    piece = set(pair.gd.special_piece(ps.ic_orbit))
    by_piece = {pid for pid, orbit in partner_orbits.items() if orbit in piece}
    if members.keys() != by_piece:
        raise InconsistentDataError(
            f"weak packet characterizations disagree at {ps.ic_orbit}: "
            f"wavefront {sorted(members)} vs "
            f"special-piece {sorted(by_piece)}"
        )
    return sorted(members.items(), key=lambda m: natural_key(m[0]))


def weak_packet(pair: DualPair, ps: ParameterSet) -> list[str]:
    """Parameters whose coarse wavefront orbit is below d(ic_orbit);
    provably the parameters whose partner orbit lies in the special piece
    of the infinitesimal-character orbit, and checked against it."""
    return [pid for pid, _ in _weak_packet(pair, ps)]


class JiangReport(Record):
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
    d_ic = pair.gd.d(ps.ic_orbit)
    bound, rows, members = _arthur_packet(pair, ps)
    equal = tuple((pid, wf[0], wf[0] == d_ic) for pid, wf in members)
    lower = tuple(
        (pid, pair_leq(pair, bound, p))
        for pid, _, (_, p) in sorted(rows, key=lambda row: natural_key(row[0]))
    )
    return JiangReport(ps.ic_orbit, d_ic, equal, lower)


def check_infl_sum(
    poset: NilpotentPoset, h_art: Coweight, h_lan: Coweight, target: str
) -> bool:
    """Whether (h_art + h_lan)/2 is Weyl-conjugate to half the target's
    weighted Dynkin coweight, asked doubled: reflections are linear and
    halving keeps signs, so ``dominant_rep`` commutes with halving."""
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
    return weyl_conjugate(h_art + h_lan, h_target, rs)


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
