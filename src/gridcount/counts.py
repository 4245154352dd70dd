"""Exact counts over the n x n integer grid.

Everything here reduces to one weighted gcd sum,

    f_q(n) = sum over -n < i, j < n with gcd(i, j) = q
             of (n - |i|) (n - |j|),

which counts ordered pairs of grid points whose difference vector has gcd
exactly q.  Consequences:

    segments through exactly p points:  s_p(n) = f_{p-1}(n) / 2
    lines through at least q points:    l_ge_q(n) = (f_{q-1}(n) - f_q(n)) / 2
    lines through exactly q points:     l_q(n) = (f_{q+1} - 2 f_q + f_{q-1}) / 2
    linear threshold functions:         t(n) = f_1(n) + 2

gcd follows math.gcd: gcd(0, k) = |k| and gcd(0, 0) = 0, so the zero
difference never matches any q >= 1.

Every fast count reads the exact weighted totient moments
S_k(m) = sum_{i<=m} i^k phi(i), k = 0, 1, 2, at its few m, from the
totient module's sublinear evaluator.  It works from a pure-Python
presieve of about m^(2/3) entries, at most 46,416 for every accepted n,
so a point query at n = 10^7 never sieves to 10^7 and no count loads
numpy.  A caller that keeps its own sieve gets the same f from
f_from_moments over a totient_moments walk of it.  Only decompose_lemma, the independent
reference the kernel is checked against, reads phi itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ResourceLimitError, as_int
from .totient import Moments, TotientTable, _check_table, _sublinear_moments

#: Largest accepted grid side.  The counts sieve only a presieve, at most
#: 46,416 entries at this n, and scan streams phi to (n - 1) // q in
#: blocks of at most 2^20 entries, holding no table, so the cap bounds
#: scan's time and its list of rows (ROADMAP item 8), and keeps every n
#: inside the range the tests check.  ROADMAP item 9 lifts it.
MAX_GRID_N = 10**7


@dataclass(frozen=True)
class GridQuery:
    """A validated (n, q) request: grid side n, gcd class q, both plain ints >= 1."""

    n: int
    q: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", as_int(self.n, "grid side n", 1))
        object.__setattr__(self, "q", as_int(self.q, "gcd class q", 1))
        if self.n > MAX_GRID_N:
            raise ResourceLimitError(
                f"grid side {self.n} exceeds the supported maximum {MAX_GRID_N}"
            )


@dataclass(frozen=True)
class LemmaDecomposition:
    """Split of f_q(n+1) along n = q*m + t, 0 <= t < q.

    The two partial sums are stored doubled so they stay integral:
    s1_doubled = 2 s1 and s2_doubled = 2 s2, where

        s1 = sum_{i<=m} (qm - qi) (qm + t + 1 - qi/2) phi(i)
        s2 = sum_{i<=m} (qm + t + 1 - qi/2) phi(i)

    and the recombination 8 s1 + 8 (t+1) s2 equals f_q(n+1).
    """

    n: int
    q: int
    m: int
    t: int
    s1_doubled: int
    s2_doubled: int

    def recombined(self) -> int:
        """f_q(n+1) assembled from the two halves."""
        return 4 * self.s1_doubled + 4 * (self.t + 1) * self.s2_doubled


@dataclass(frozen=True)
class CountSet:
    """All counts derived from f at one (n, q).

    ``segments`` is s_{q+1}(n).  The line counts require q >= 2 and are
    None when q == 1 (l_1 would need f_0, which is not defined).
    """

    n: int
    q: int
    f: int
    segments: int
    lines_at_least: int | None
    lines_exactly: int | None


def f_direct(query: GridQuery) -> int:
    """f_q(n) straight from the definition, O(n^2).  Small n only."""
    n, q = query.n, query.q
    total = 0
    for i in range(-(n - 1), n):
        wi = n - abs(i)
        for j in range(-(n - 1), n):
            if math.gcd(i, j) == q:
                total += wi * (n - abs(j))
    return total


def f_from_moments(n: int, q: int, moments: Moments) -> int:
    """f_q(n) = 4 (2n^2 S_0 - 3nq S_1 + q^2 S_2), moments at m = (n-1)//q."""
    # numpy ints would wrap
    n, q = as_int(n, "grid side n", 1), as_int(q, "gcd class q", 1)
    s0, s1, s2 = moments
    return 4 * (2 * n * n * s0 - 3 * n * q * s1 + q * q * s2)


def f_fast(query: GridQuery) -> int:
    """f_q(n) via the totient identity, in exact integer arithmetic.

        f_q(n) = 4 sum_{i=1}^{m} (n - qi) (2n - qi) phi(i),  m = floor((n-1)/q)
               = 4 (2n^2 S_0(m) - 3nq S_1(m) + q^2 S_2(m))

    since (n - qi)(2n - qi) = 2n^2 - 3nq i + q^2 i^2.  The moments come
    from the sublinear evaluator, about O(m^(2/3)), exact for every
    accepted query (m < MAX_GRID_N = 10^7).
    """
    n, q = query.n, query.q
    (moments,) = _sublinear_moments([(n - 1) // q])
    return f_from_moments(n, q, moments)


def _f_at(n: int, qs: tuple[int, ...]) -> list[int]:
    """f_q(n) for each q in qs, from one moment pass over their distinct m."""
    queries = [GridQuery(n, q) for q in qs]
    ms = sorted({(g.n - 1) // g.q for g in queries})
    moments = dict(zip(ms, _sublinear_moments(ms)))
    return [f_from_moments(g.n, g.q, moments[(g.n - 1) // g.q]) for g in queries]


def decompose_lemma(query: GridQuery, table: TotientTable) -> LemmaDecomposition:
    """Split f_q(n+1) into the two weighted totient sums of the remainder form.

    Writes n = q*m + t and accumulates both halves exactly; see
    LemmaDecomposition for the recombination identity.
    """
    n, q = query.n, query.q
    m, t = divmod(n, q)
    _check_table(table, m)
    base = 2 * (q * m + t + 1)
    qm = q * m
    s1d = 0
    s2d = 0
    qi = q
    for p in table.phi[1 : m + 1].tolist():
        w = (base - qi) * p
        s1d += (qm - qi) * w
        s2d += w
        qi += q
    return LemmaDecomposition(n=n, q=q, m=m, t=t, s1_doubled=s1d, s2_doubled=s2d)


def _half_exact(value: int, what: str) -> int:
    half, rem = divmod(value, 2)
    if rem:
        raise ArithmeticError(f"{what} must be even, got {value}")
    return half


def _at_least(n: int, q: int, f_below: int, f_q: int) -> int:
    diff = f_below - f_q
    if diff < 0:
        raise ArithmeticError(f"f_{q - 1}({n}) < f_{q}({n})")
    return _half_exact(diff, "f difference")


def _exactly(n: int, q: int, f_below: int, f_q: int, f_above: int) -> int:
    num = f_above - 2 * f_q + f_below
    if num < 0:
        raise ArithmeticError(f"second difference of f at q={q}, n={n} is negative")
    return _half_exact(num, "second difference of f")


def segments_count(n: int, p: int) -> int:
    """Segments whose endpoints and interior cover exactly p grid points.

    Equals f_{p-1}(n) / 2: each segment is an unordered endpoint pair whose
    difference has gcd p - 1.
    """
    p = as_int(p, "segment size p", 2)
    f = f_fast(GridQuery(n, p - 1))
    return _half_exact(f, f"f_{p - 1}({n})")


def lines_at_least(n: int, q: int) -> int:
    """Lines meeting at least q grid points, q >= 2."""
    q = as_int(q, "line size q", 2)
    return _at_least(n, q, *_f_at(n, (q - 1, q)))


def lines_exactly(n: int, q: int) -> int:
    """Lines meeting exactly q grid points, q >= 2."""
    q = as_int(q, "line size q", 2)
    return _exactly(n, q, *_f_at(n, (q - 1, q, q + 1)))


def threshold_count(n: int) -> int:
    """Linear threshold dichotomies of the n x n grid: f_1(n) + 2.

    The +2 are the two constant classifications, which no separating line
    realizes but the definition admits.
    """
    return f_fast(GridQuery(n, 1)) + 2


def count_set(n: int, q: int) -> CountSet:
    """f, segment, and line counts at one (n, q) from a single moment pass."""
    query = GridQuery(n, q)
    n, q = query.n, query.q
    if q >= 2:
        f_below, f, f_above = _f_at(n, (q - 1, q, q + 1))
        at_least = _at_least(n, q, f_below, f)
        exactly = _exactly(n, q, f_below, f, f_above)
    else:
        f = f_fast(query)
        at_least = None
        exactly = None
    return CountSet(
        n=n,
        q=q,
        f=f,
        segments=_half_exact(f, f"f_{q}({n})"),
        lines_at_least=at_least,
        lines_exactly=exactly,
    )
