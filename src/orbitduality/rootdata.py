"""Cartan matrices, coweights, and Weyl-chamber arithmetic.

Coweights are written in fundamental-coweight coordinates: the i-th
coordinate of a coweight w is the pairing of w with the i-th simple root.
Coordinates are stored doubled (2w) so that half-integral coweights stay
in exact integer arithmetic throughout.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

from ._record import Record

SUPPORTED_TYPES = ("A", "B", "C", "D", "F4", "G2")


class RootSystem(Record):
    """Finite root system of a fixed type, described by its Cartan matrix.

    ``cartan[i][j]`` is the pairing of the j-th simple root with the i-th
    simple coroot.  Simple roots are numbered as in Bourbaki; for F4 the
    double bond sits between nodes 2 and 3 (nodes 1, 2 long).
    """

    label: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]

    @property
    def num_positive_roots(self) -> int:
        return len(positive_roots(self))


def _chain_matrix(n: int) -> list[list[int]]:
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 2
        if i + 1 < n:
            m[i][i + 1] = -1
            m[i + 1][i] = -1
    return m


@lru_cache(maxsize=None)
def root_system(label: str, rank: int | None = None) -> RootSystem:
    """Build the root system of the given type and rank."""
    if label not in SUPPORTED_TYPES:
        raise ValueError(f"unsupported root system type {label!r}")
    if label == "F4":
        if rank not in (None, 4):
            raise ValueError("F4 has rank 4")
        m = _chain_matrix(4)
        m[2][1] = -2  # short coroot against long root
        return RootSystem("F4", 4, tuple(tuple(r) for r in m))
    if label == "G2":
        if rank not in (None, 2):
            raise ValueError("G2 has rank 2")
        return RootSystem("G2", 2, ((2, -3), (-1, 2)))
    if rank is None or rank < 1:
        raise ValueError(f"type {label} needs a rank >= 1")
    if label == "A":
        m = _chain_matrix(rank)
    elif label == "B":
        # last simple root short
        m = _chain_matrix(rank)
        if rank >= 2:
            m[rank - 1][rank - 2] = -2
    elif label == "C":
        m = _chain_matrix(rank)
        if rank >= 2:
            m[rank - 2][rank - 1] = -2
    elif label == "D":
        if rank < 2:
            raise ValueError("type D needs rank >= 2")
        m = _chain_matrix(rank - 1)
        for row in m:
            row.append(0)
        m.append([0] * rank)
        m[rank - 1][rank - 1] = 2
        if rank >= 3:
            # fork: last node attaches to node rank-2
            m[rank - 1][rank - 3] = -1
            m[rank - 3][rank - 1] = -1
            m[rank - 1][rank - 2] = 0
            m[rank - 2][rank - 1] = 0
    return RootSystem(label, rank, tuple(tuple(r) for r in m))


class Coweight(Record, order=True):
    """Element of the rational coweight space, stored as 2w."""

    twice: tuple[int, ...]

    @classmethod
    def of(cls, coords) -> "Coweight":
        """Coweight with integer fundamental-coweight coordinates."""
        return cls(tuple(2 * int(c) for c in coords))

    def __add__(self, other: "Coweight") -> "Coweight":
        if len(self.twice) != len(other.twice):
            raise ValueError("coweight dimension mismatch")
        return Coweight(tuple(a + b for a, b in zip(self.twice, other.twice)))

    def __str__(self) -> str:
        parts = [str(c // 2) if c % 2 == 0 else f"{c}/2" for c in self.twice]
        return "(" + ", ".join(parts) + ")"


def half_sum(a: Coweight, b: Coweight) -> Coweight:
    """The coweight (a + b)/2; a and b must sum to something 2-divisible."""
    if len(a.twice) != len(b.twice):
        raise ValueError("coweight dimension mismatch")
    out = []
    for x, y in zip(a.twice, b.twice):
        if (x + y) % 2:
            raise ValueError("half sum is not half-integral")
        out.append((x + y) // 2)
    return Coweight(tuple(out))


def _check_dim(w: Coweight, rs: RootSystem) -> None:
    if len(w.twice) != rs.rank:
        raise ValueError(
            f"coweight has {len(w.twice)} coordinates, {rs.label} rank is {rs.rank}"
        )


def _reflect(twice: tuple[int, ...], i: int, cartan) -> tuple[int, ...]:
    c = twice[i]
    row = cartan[i]
    return tuple(twice[j] - c * row[j] for j in range(len(twice)))


def dominant_rep(w: Coweight, rs: RootSystem) -> Coweight:
    """The unique dominant element in the Weyl orbit of w.

    Repeatedly reflects at the first negative coordinate.  Each step turns
    exactly one more positive root nonnegative against w, so the loop runs
    at most num_positive_roots times.
    """
    _check_dim(w, rs)
    x = w.twice
    for _ in range(rs.num_positive_roots + 1):
        i = next((k for k, c in enumerate(x) if c < 0), None)
        if i is None:
            return Coweight(x)
        x = _reflect(x, i, rs.cartan)
    raise RuntimeError("dominance loop failed to terminate")  # pragma: no cover


def weyl_conjugate(a: Coweight, b: Coweight, rs: RootSystem) -> bool:
    """True when a and b lie in the same Weyl orbit."""
    return dominant_rep(a, rs) == dominant_rep(b, rs)


def coweight_orbit(w: Coweight, rs: RootSystem) -> list[Coweight]:
    """The full Weyl orbit of w, sorted for determinism."""
    _check_dim(w, rs)
    seen = {w.twice}
    queue = deque([w.twice])
    while queue:
        x = queue.popleft()
        for i in range(rs.rank):
            y = _reflect(x, i, rs.cartan)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return [Coweight(t) for t in sorted(seen)]


@lru_cache(maxsize=None)
def positive_roots(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    """Positive roots in simple-root coordinates, by reflection closure."""
    n = rs.rank
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen = set(simple)
    queue = deque(simple)
    while queue:
        beta = queue.popleft()
        for i in range(n):
            pairing = sum(rs.cartan[i][j] * beta[j] for j in range(n))
            img = list(beta)
            img[i] -= pairing
            img = tuple(img)
            if img not in seen:
                seen.add(img)
                queue.append(img)
    pos = sorted(r for r in seen if all(c >= 0 for c in r))
    return tuple(pos)


@lru_cache(maxsize=None)
def invariant_form(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    """Gram matrix of the Weyl-invariant form q(w) = sum over roots b > 0
    of <b, w>^2, for the doubled coordinates t = 2w: entry [j][k] is
    sum b_j b_k, so t.M.t = 4 q(w).  W permutes the roots up to sign, so
    q is constant on every Weyl orbit.
    """
    roots = positive_roots(rs)
    n = rs.rank
    return tuple(
        tuple(sum(b[j] * b[k] for b in roots) for k in range(n)) for j in range(n)
    )


def root_pairing(root: tuple[int, ...], w: Coweight) -> int:
    """Twice the pairing of a root (simple-root coordinates) with w."""
    return sum(c * t for c, t in zip(root, w.twice))
