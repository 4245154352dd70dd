"""Euler totient sieve, the moment walk over it, a sublinear moment
evaluator, and second-order error terms.

The table produced here, phi(i) for all i up to a limit, is read by one
exact kernel, totient_moments, which returns S_k(m) = sum_{i<=m} i^k phi(i)
for k = 0, 1, 2 at a nondecreasing list of m in one walk.  The counts and
the point queries use _sublinear_moments instead: the same sums at a few
large m from the hyperbola recursion over the quotients m // d, whose
small quotients come from a totient_moments walk of a presieve of about
10 m^(2/3) entries.  The summatory function is Phi(i) = S_0(i), and
sum_{j<=i} Phi(j) equals (i + 1) S_0(i) - S_1(i).  On top of that sit two
error terms used for growth diagnostics,

    e_phi(i) = Phi(i) - 3 i^2 / pi^2
    e_r(i)   = sum_{j<=i} e_phi(j) - 3 i^2 / (2 pi^2)

both reported as floats while all integer parts stay exact.  Every query
sizes its own sieve: the point queries sieve only the presieve, and the
error-term stream sieves to its largest index.  Each sieve is read
through one private walk, exact for every index up to SIEVE_LIMIT, the
one cap on the sieve and on every moment index.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ResourceLimitError

PI_SQUARED = math.pi**2

#: Largest sieve limit, and so the largest index a table walk reads
#: (totient_moments, the error-term stream).  The sublinear evaluator
#: behind the counts and the point queries keeps the same cap on its
#: moment index, though it sieves only to about 10 m^(2/3).
SIEVE_LIMIT = 10**8

# Emitted floats are compared across runs, so the doubled constant is built
# once; Fraction(float) is exact, keeping e_r rounding to a single step.
_TWO_PI_SQUARED = Fraction(2.0 * PI_SQUARED)

# Smallest sieve block, in entries: below it the per-step numpy calls of
# build_totient_table cost more than the strided arithmetic they do.
_SIEVE_BLOCK = 1 << 16

# The walk splits indices as i = b + j with 0 <= j < _ROW.  For i <=
# SIEVE_LIMIT < 2^27, phi(i) < 2^27 and j^2 < 2^22, so each of a row's
# sums of j^k phi(b + j), k <= 2, stays below 2^60 in int64.  Rows with no
# requested m are reduced _ROWS at a time, one matrix product per batch.
_ROW = 1 << 11
_ROWS = 8
_POWERS = np.arange(_ROW, dtype=np.int64)[:, None] ** np.arange(3)

# Smallest presieve of _sublinear_moments; see _presieve_size.
_PRESIEVE_MIN = 1 << 18

Moments = tuple[int, int, int]


def as_int(value: object, what: str) -> int:
    """value as a plain int (numpy integers included); bool and floats raise."""
    if isinstance(value, bool):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return operator.index(value)


@dataclass(frozen=True)
class TotientTable:
    """Sieved totients up to ``limit``.

    ``phi[i]`` holds phi(i) for 1 <= i <= limit (index 0 is unused and 0);
    the array is read-only.  Sums over it come from totient_moments.
    """

    limit: int
    phi: np.ndarray


def _primes_upto(n: int) -> list[int]:
    """The primes <= n, by a plain Eratosthenes sieve of size n + 1."""
    is_prime = np.ones(n + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime).tolist()


def check_sieve_limit(limit: int) -> None:
    """Raise unless build_totient_table may sieve to limit: 1 <= limit <= SIEVE_LIMIT."""
    if limit < 1:
        raise ValueError(f"sieve limit must be >= 1, got {limit}")
    if limit > SIEVE_LIMIT:
        raise ResourceLimitError(f"sieve limit {limit} exceeds budget {SIEVE_LIMIT}")


def build_totient_table(limit: int) -> TotientTable:
    """Sieve phi(1..limit).

    phi is multiplicative, and every i <= limit has at most one prime
    factor above sqrt(limit).  So the sieve lists one step per prime power
    p^k <= limit with p <= sqrt(limit): its multiples are multiplied by
    p - 1 for k = 1 and by p for k >= 2, which leaves phi of the
    sqrt(limit)-smooth part of each i, while a ``smooth`` array collects
    that part itself.  The quotient i // smooth is then 1 or the single
    large prime P, and multiplying by P - 1 finishes phi(i).  Indices are
    walked in blocks of max(2^16, limit / 16) entries, so the strided
    multiplications stay inside one block-sized slice of the table.  The
    peak allocation is the table's 4 bytes per entry plus two int32 block
    temporaries, at most 4 + 1/2 bytes per entry from limit = 2^20 on.
    """
    check_sieve_limit(limit)
    steps = []
    for p in _primes_upto(math.isqrt(limit)):
        power, mult = p, p - 1
        while power <= limit:
            steps.append((power, mult, p))
            power, mult = power * p, p
    steps.sort()

    phi = np.empty(limit + 1, dtype=np.int32)
    phi[0] = 0
    size = max(_SIEVE_BLOCK, limit >> 4)
    smooth_buf = np.empty(min(size, limit), dtype=np.int32)
    # index 0 never takes a step: every p^k divides it, and the product in
    # ``smooth`` would wrap without a warning
    for lo in range(1, limit + 1, size):
        hi = min(lo + size, limit + 1)
        block = phi[lo:hi]
        smooth = smooth_buf[: hi - lo]
        block.fill(1)
        smooth.fill(1)
        for power, mult, p in steps:
            if power >= hi:
                break
            start = -lo % power
            block[start::power] *= mult
            smooth[start::power] *= p
        large = np.arange(lo, hi, dtype=np.int32)
        large //= smooth
        large -= 1
        np.maximum(large, 1, out=large)
        block *= large
        del large

    phi.setflags(write=False)
    return TotientTable(limit=limit, phi=phi)


def _check_moment_index(needed: int) -> None:
    """Raise ResourceLimitError if a moment index is past SIEVE_LIMIT."""
    if needed > SIEVE_LIMIT:
        raise ResourceLimitError(
            f"moment index {needed} exceeds the sieve limit {SIEVE_LIMIT}"
        )


def _check_table(table: TotientTable, needed: int) -> None:
    """Raise unless phi may be read up to index needed, which the walk sums exactly."""
    _check_moment_index(needed)
    if table.limit < needed:
        raise ValueError(
            f"totient table limit {table.limit} too small, need at least {needed}"
        )


def _walk(
    table: TotientTable, ms: Sequence[int]
) -> Iterator[tuple[Sequence[int], int, Moments, list[list[int]]]]:
    """One pass over phi for the nondecreasing ms, one item per row that holds some.

    phi is read in rows i = b + j, 0 <= j < _ROW, whose sums
    A_k = sum_j j^k phi(b + j) are exact in int64.  Each item is (run, b,
    (S_0, S_1, S_2) over i < b, [A_0, A_1, A_2] up to each m of run), and a
    caller folds them as S_0 + A_0, S_1 + b A_0 + A_1 and
    S_2 + b^2 A_0 + 2 b A_1 + A_2.  Rows below the next m are reduced
    _ROWS at a time; the row holding an m is summed cumulatively.  Nothing
    past max(ms) is read, and m = 0 reads nothing.  The caller checks ms
    against the table (_check_table).
    """
    phi = table.phi
    i = bisect_right(ms, 0)
    if i:
        yield ms[:i], 0, (0, 0, 0), [[0] * i] * 3
    s0 = s1 = s2 = 0
    done = 0  # indices below done are folded into s0, s1, s2
    while i < len(ms):
        b = ms[i] - ms[i] % _ROW
        k = bisect_left(ms, b + _ROW, i)
        for lo in range(done, b, _ROW * _ROWS):
            rows = phi[lo : min(lo + _ROW * _ROWS, b)].reshape(-1, _ROW)
            for r, (a0, a1, a2) in zip(range(lo, b, _ROW), (rows @ _POWERS).tolist()):
                s0, s1, s2 = s0 + a0, s1 + r * a0 + a1, s2 + (r * a0 + 2 * a1) * r + a2
        done = b
        row = phi[b : ms[k - 1] + 1]
        prefix = np.cumsum(row * _POWERS[: len(row)].T, axis=1)
        yield ms[i:k], b, (s0, s1, s2), prefix[:, np.subtract(ms[i:k], b)].tolist()
        i = k


def totient_moments(table: TotientTable, ms: Iterable[int]) -> list[Moments]:
    """(S_0(m), S_1(m), S_2(m)) with S_k(m) = sum_{i<=m} i^k phi(i), per m.

    ``ms`` must be nondecreasing; the table is walked once (_walk), and
    every sum is exact.  m > SIEVE_LIMIT raises ResourceLimitError before
    the table is read, whatever the table's own limit.
    """
    ms = _check_ms(ms)
    _check_table(table, ms[-1] if ms else 0)
    return [
        (s0 + a0, s1 + b * a0 + a1, s2 + (b * a0 + 2 * a1) * b + a2)
        for _, b, (s0, s1, s2), prefix in _walk(table, ms)
        for a0, a1, a2 in zip(*prefix)
    ]


def _check_ms(ms: Iterable[int]) -> list[int]:
    """ms as plain ints, which must be >= 0 and nondecreasing."""
    ms = [operator.index(m) for m in ms]  # numpy ints would wrap in the fold
    if any(b < a for a, b in zip(ms, ms[1:])):
        raise ValueError("m values must be nondecreasing")
    if ms and ms[0] < 0:
        raise ValueError(f"m must be >= 0, got {ms[0]}")
    return ms


def _presieve_size(x: int) -> int:
    """The table size y that _sublinear_moments sieves for a largest m of x.

    y = x up to 2^18, then max(2^18, 10 x^(2/3)).  The numpy sieve and walk
    cost a few ns per entry and the Python recursion about 4 x / sqrt(y)
    loop steps, so the best y grows like x^(2/3).  Timed on a 2-core
    x86-64 VM (Python 3.11, three m per call), the best y was about
    10 x^(2/3) from x = 3 10^6 to 10^8 (0.07 s at 10^7 - 10, 0.29 s at
    10^8, against 0.32 s and 5.8 s with y = x), and within 10 % of the
    best over a factor of two either side.  Up to x = 2^18 a full sieve
    costs under 10 ms, so the recursion is not worth its setup there.
    """
    return min(x, max(_PRESIEVE_MIN, 10 * round(x ** (2 / 3))))


def _quotients(m: int) -> set[int]:
    """Every distinct m // d for d >= 1: all u <= isqrt(m) and m // d for d <= isqrt(m)."""
    s = math.isqrt(m)
    return {*range(1, s + 1), *(m // d for d in range(1, s + 1))}


def _moments_from_below(v: int, memo: dict[int, Moments]) -> Moments:
    """(S_0, S_1, S_2) at v from memo, which holds them at every v // e, e >= 2.

    sum_{d | i} phi(d) = i gives sum_{e <= v} e^k S_k(v // e) = P_{k+1}(v),
    with P_j(v) = sum_{i <= v} i^j.  The e <= v // (s + 1), s = isqrt(v), are
    summed one by one; the larger e share a quotient u = v // e <= s and
    are summed as e^k over (v // (u + 1), v // u] in closed form.
    """
    s = math.isqrt(v)
    t0 = t1 = t2 = 0
    for e in range(2, v // (s + 1) + 1):
        a0, a1, a2 = memo[v // e]
        t0 += a0
        t1 += e * a1
        t2 += e * e * a2
    hi, p1_hi, p2_hi = v, v * (v + 1) // 2, v * (v + 1) * (2 * v + 1) // 6
    for u in range(1, s + 1):
        lo = v // (u + 1)
        p1_lo, p2_lo = lo * (lo + 1) // 2, lo * (lo + 1) * (2 * lo + 1) // 6
        a0, a1, a2 = memo[u]
        t0 += (hi - lo) * a0
        t1 += (p1_hi - p1_lo) * a1
        t2 += (p2_hi - p2_lo) * a2
        hi, p1_hi, p2_hi = lo, p1_lo, p2_lo
    p1 = v * (v + 1) // 2
    return p1 - t0, v * (v + 1) * (2 * v + 1) // 6 - t1, p1 * p1 - t2


def _sublinear_moments(ms: Iterable[int], y: int | None = None) -> list[Moments]:
    """(S_0(m), S_1(m), S_2(m)) per m, as totient_moments, without a table to max(ms).

    Every m <= y, and every quotient m // d <= y of a larger m, is read
    from one totient_moments walk of a table sieved to the largest of them,
    at most y.  The quotients above y are then filled in from the smallest
    up by _moments_from_below, whose every argument v // e is again a
    quotient of the same m; one memo serves all ms.  This is the hyperbola
    method of Deleglise and Rivat (Exp. Math. 5, 1996) on the identity
    (i^k phi) * i^k = i^(k+1).  y defaults to _presieve_size(max(ms)); any
    y in 1..max(ms) gives the same sums.  Every sum is a plain Python int,
    so all are exact.
    """
    ms = _check_ms(ms)
    x = ms[-1] if ms else 0
    _check_moment_index(x)
    if y is None:
        y = _presieve_size(x)
    values: set[int] = set()
    for m in ms:
        values.update(_quotients(m) if m > y else (m,))
    small = sorted(v for v in values if 0 < v <= y)
    memo: dict[int, Moments] = {0: (0, 0, 0)}
    if small:
        table = build_totient_table(small[-1])
        memo.update(zip(small, totient_moments(table, small)))
    for v in sorted(v for v in values if v > y):
        memo[v] = _moments_from_below(v, memo)
    return [memo[m] for m in ms]


def _point_moments(i: object) -> tuple[int, Moments]:
    """i as a plain int, which must be >= 1, and its moments from _sublinear_moments."""
    i = as_int(i, "index i")
    if i < 1:
        raise ValueError(f"index i must be >= 1, got {i}")
    (moments,) = _sublinear_moments([i])
    return i, moments


def summatory_phi(i: int) -> int:
    """Phi(i) = sum of phi(j) for j <= i, exact: S_0(i)."""
    return _point_moments(i)[1][0]


def e_phi(i: int) -> float:
    """First error term Phi(i) - 3 i^2 / pi^2."""
    i, (s0, _, _) = _point_moments(i)
    return _e_phi_from_sum(s0, i)


def _e_phi_from_sum(phi_sum: int, i: int) -> float:
    return float(phi_sum) - 3.0 * i * i / PI_SQUARED


def _e_r_from_prefix(second_prefix: int, i: int) -> float:
    # e_r(i) = sum_{j<=i} Phi(j) - (6*sum_{j<=i} j^2 + 3 i^2) / (2 pi^2);
    # everything left of the division is exact, so the only rounding is the
    # final conversion to float.
    sum_sq = i * (i + 1) * (2 * i + 1) // 6
    w = 6 * sum_sq + 3 * i * i
    return float(second_prefix - Fraction(w) / _TWO_PI_SQUARED)


def e_r(i: int) -> float:
    """Second error term: prefix-summed e_phi minus 3 i^2 / (2 pi^2).

    sum_{j<=i} Phi(j) = sum_{k<=i} (i + 1 - k) phi(k) = (i + 1) S_0(i) - S_1(i).
    """
    i, (s0, s1, _) = _point_moments(i)
    return _e_r_from_prefix((i + 1) * s0 - s1, i)


def iter_error_terms(
    m_max: int, every: int = 1
) -> Iterator[tuple[int, int, float, float]]:
    """Rows (m, Phi(m), e_phi(m), e_r(m)) for m = every, 2*every, ... <= m_max.

    The arguments are checked at the call, m_max >= 1, then the sieve
    budget, then every >= 1, before phi is sieved to m_max.  Each row reads
    S_0 and S_1 at m from one walk of that table; the sums are exact and
    the floats come from the point queries' formulas, so every value
    matches e_phi() and e_r() to the last bit.
    """
    m_max = as_int(m_max, "m_max")
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    check_sieve_limit(m_max)
    every = as_int(every, "every")
    if every < 1:
        raise ValueError(f"every must be >= 1, got {every}")
    return _error_term_rows(build_totient_table(m_max), range(every, m_max + 1, every))


def _error_term_rows(
    table: TotientTable, ms: range
) -> Iterator[tuple[int, int, float, float]]:
    # Phi(m) = S_0(m) and sum_{j<=m} Phi(j) = (m + 1) S_0(m) - S_1(m); only
    # the two moments the rows need are folded, as in totient_moments
    for run, b, (s0, s1, _), (c0, c1, _) in _walk(table, ms):
        for m, a0, a1 in zip(run, c0, c1):
            phi_sum = s0 + a0
            second = (m + 1) * phi_sum - s1 - b * a0 - a1
            yield m, phi_sum, _e_phi_from_sum(phi_sum, m), _e_r_from_prefix(second, m)
