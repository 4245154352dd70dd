"""Euler totient sieve, its moment kernel, and second-order error terms.

The table produced here, phi(i) for all i up to a limit, backs every fast
counting routine in the package through one exact kernel, totient_moments,
which returns S_k(m) = sum_{i<=m} i^k phi(i) for k = 0, 1, 2.  The
summatory function is Phi(i) = S_0(i), and sum_{j<=i} Phi(j) equals
(i + 1) S_0(i) - S_1(i).  On top of that sit two error terms used for
growth diagnostics,

    e_phi(i) = Phi(i) - 3 i^2 / pi^2
    e_r(i)   = sum_{j<=i} e_phi(j) - 3 i^2 / (2 pi^2)

both reported as floats while all integer parts stay exact.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .errors import ResourceLimitError

PI_SQUARED = math.pi**2

#: Hard ceiling on sieve size unless GRIDCOUNT_SIEVE_LIMIT overrides it.
DEFAULT_SIEVE_BUDGET = 100_000_000
SIEVE_BUDGET_ENV = "GRIDCOUNT_SIEVE_LIMIT"

# Emitted floats are compared across runs, so the doubled constant is built
# once; Fraction(float) is exact, keeping e_r rounding to a single step.
_TWO_PI_SQUARED = Fraction(2.0 * PI_SQUARED)

# Slice size when walking numpy arrays with Python-int arithmetic.
_CHUNK = 1 << 16

# Smallest sieve block, in entries: below it the per-step numpy calls of
# build_totient_table cost more than the strided arithmetic they do.
_SIEVE_BLOCK = 1 << 16

#: totient_moments is exact for every m below this (see its docstring)
MOMENT_INDEX_LIMIT = 1 << 24

# For i < 2^24, i*phi(i) < 2^48.  Splitting it into 24-bit limbs keeps
# i * limb < 2^48 too, so a block of 2^14 terms sums below 2^62 in int64.
_LIMB_BITS = 24
_LIMB_MASK = (1 << _LIMB_BITS) - 1
_BLOCK = 1 << 14

Moments = tuple[int, int, int]


def as_int(value: object, what: str) -> int:
    """value as a plain int (numpy integers included); bool and floats raise."""
    if isinstance(value, bool):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return operator.index(value)


def sieve_budget() -> int:
    """Current sieve budget: the env override if set, else the default."""
    raw = os.environ.get(SIEVE_BUDGET_ENV)
    if raw is None:
        return DEFAULT_SIEVE_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{SIEVE_BUDGET_ENV} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"{SIEVE_BUDGET_ENV} must be positive, got {value}")
    return value


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
    """Raise unless build_totient_table may sieve to limit: 1 <= limit <= budget."""
    if limit < 1:
        raise ValueError(f"sieve limit must be >= 1, got {limit}")
    cap = sieve_budget()
    if limit > cap:
        raise ResourceLimitError(
            f"sieve limit {limit} exceeds budget {cap}"
            f" (raise it via {SIEVE_BUDGET_ENV})"
        )


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
    multiplications stay inside one block-sized slice of the table.  Below
    2^31 the peak allocation is the table's 4 bytes per entry plus two
    int32 block temporaries, at most 4 + 1/2 bytes per entry from
    limit = 2^20 on.
    """
    check_sieve_limit(limit)
    dtype = np.int64 if limit >= 2**31 else np.int32
    steps = []
    for p in _primes_upto(math.isqrt(limit)):
        power, mult = p, p - 1
        while power <= limit:
            steps.append((power, mult, p))
            power, mult = power * p, p
    steps.sort()

    phi = np.empty(limit + 1, dtype=dtype)
    phi[0] = 0
    size = max(_SIEVE_BLOCK, limit >> 4)
    smooth_buf = np.empty(min(size, limit), dtype=dtype)
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
        large = np.arange(lo, hi, dtype=dtype)
        large //= smooth
        large -= 1
        np.maximum(large, 1, out=large)
        block *= large
        del large

    phi.setflags(write=False)
    return TotientTable(limit=limit, phi=phi)


def _check_table(table: TotientTable, needed: int) -> None:
    if table.limit < needed:
        raise ValueError(
            f"totient table limit {table.limit} too small, need at least {needed}"
        )


def _moment_sums(phi: np.ndarray, lo: int, hi: int) -> Moments:
    """Exact sums of phi(i), i phi(i), i^2 phi(i) over lo <= i < hi <= 2^24."""
    s0 = s1 = s2 = 0
    for start in range(lo, hi, _BLOCK):
        stop = min(start + _BLOCK, hi)
        i = np.arange(start, stop, dtype=np.int64)
        p = phi[start:stop].astype(np.int64)
        ip = i * p
        s0 += int(p.sum())
        s1 += int(ip.sum())
        s2 += (int((i * (ip >> _LIMB_BITS)).sum()) << _LIMB_BITS) + int(
            (i * (ip & _LIMB_MASK)).sum()
        )
    return s0, s1, s2


def totient_moments(table: TotientTable, ms: Iterable[int]) -> list[Moments]:
    """(S_0(m), S_1(m), S_2(m)) with S_k(m) = sum_{i<=m} i^k phi(i), per m.

    ``ms`` must be nondecreasing; the table is walked once, block by block.
    Terms are summed exactly in int64 limbs: for m < 2^24 each of
    phi(i), i phi(i) and i times a 24-bit half of i phi(i) is below 2^48, so
    a block of 2^14 of them stays below 2^62, and block sums are combined
    as Python ints.  m >= MOMENT_INDEX_LIMIT raises ResourceLimitError
    before the table is read.
    """
    ms = list(ms)
    if any(b < a for a, b in zip(ms, ms[1:])):
        raise ValueError("m values must be nondecreasing")
    if ms and ms[0] < 0:
        raise ValueError(f"m must be >= 0, got {ms[0]}")
    top = ms[-1] if ms else 0
    if top >= MOMENT_INDEX_LIMIT:
        raise ResourceLimitError(
            f"moment index {top} exceeds the exact int64 range"
            f" (m < {MOMENT_INDEX_LIMIT})"
        )
    _check_table(table, top)
    out = []
    done = 0
    s0 = s1 = s2 = 0
    for m in ms:
        if m > done:
            d0, d1, d2 = _moment_sums(table.phi, done + 1, m + 1)
            s0, s1, s2 = s0 + d0, s1 + d1, s2 + d2
            done = m
        out.append((s0, s1, s2))
    return out


def _check_index(table: TotientTable, i: object, what: str = "index i") -> int:
    """i as a plain int, which must lie in 1..table.limit."""
    i = as_int(i, what)
    if not 1 <= i <= table.limit:
        raise ValueError(f"index {i} outside table range 1..{table.limit}")
    return i


def summatory_phi(table: TotientTable, i: int) -> int:
    """Phi(i) = sum of phi(j) for j <= i, exact: S_0(i), so i < 2^24."""
    ((s0, _, _),) = totient_moments(table, [_check_index(table, i)])
    return s0


def e_phi(table: TotientTable, i: int) -> float:
    """First error term Phi(i) - 3 i^2 / pi^2, for i < 2^24."""
    i = _check_index(table, i)
    ((s0, _, _),) = totient_moments(table, [i])
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


def e_r(table: TotientTable, i: int) -> float:
    """Second error term: prefix-summed e_phi minus 3 i^2 / (2 pi^2); i < 2^24.

    sum_{j<=i} Phi(j) = sum_{k<=i} (i + 1 - k) phi(k) = (i + 1) S_0(i) - S_1(i).
    """
    i = _check_index(table, i)
    ((s0, s1, _),) = totient_moments(table, [i])
    return _e_r_from_prefix((i + 1) * s0 - s1, i)


def iter_error_terms(
    table: TotientTable, m_max: int, every: int = 1
) -> Iterator[tuple[int, int, float, float]]:
    """Rows (m, Phi(m), e_phi(m), e_r(m)) for m = every, 2*every, ... <= m_max.

    Phi and the running second-order sum are carried exactly, so each e_r
    value matches the standalone e_r() to the last bit.  Unlike the point
    queries, m_max is not bounded by 2^24, only by the table limit.  The
    arguments are checked at the call, before the first row is asked for.
    """
    m_max = _check_index(table, m_max, "m_max")
    return _error_term_rows(table, m_max, check_every(every))


def check_every(every: object) -> int:
    """The row stride of iter_error_terms as an int, or raise unless >= 1."""
    every = as_int(every, "every")
    if every < 1:
        raise ValueError(f"every must be >= 1, got {every}")
    return every


def _error_term_rows(
    table: TotientTable, m_max: int, every: int
) -> Iterator[tuple[int, int, float, float]]:
    phi_sum = 0
    second = 0
    for lo in range(1, m_max + 1, _CHUNK):
        hi = min(lo + _CHUNK, m_max + 1)
        pre = np.cumsum(table.phi[lo:hi], dtype=np.int64)
        pre += phi_sum
        phi_sum = int(pre[-1])
        for off, value in enumerate(pre.tolist()):
            m = lo + off
            second += value
            if m % every == 0:
                yield m, value, _e_phi_from_sum(value, m), _e_r_from_prefix(second, m)
