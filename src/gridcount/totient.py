"""Euler totient sieve, its summatory function, and second-order error terms.

The table produced here backs every fast counting routine in the package:
phi(i) for all i up to a limit, plus prefix sums Phi(i) = sum_{j<=i} phi(j).
On top of that sit two error terms used for growth diagnostics,

    e_phi(i) = Phi(i) - 3 i^2 / pi^2
    e_r(i)   = sum_{j<=i} e_phi(j) - 3 i^2 / (2 pi^2)

both reported as floats while all integer parts stay exact.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterator, Sequence

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
    """Sieved totients up to ``limit`` with exact prefix sums.

    ``phi[i]`` holds phi(i) for 1 <= i <= limit (index 0 is unused and 0);
    ``phi_prefix[i]`` holds Phi(i).  Both arrays are read-only.
    """

    limit: int
    phi: np.ndarray
    phi_prefix: np.ndarray


def _primes_upto(n: int) -> list[int]:
    """The primes <= n, by a plain Eratosthenes sieve of size n + 1."""
    is_prime = np.ones(n + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime).tolist()


def build_totient_table(limit: int) -> TotientTable:
    """Sieve phi(1..limit) and its prefix sums.

    Every i <= limit has at most one prime factor above sqrt(limit), so only
    the primes p <= sqrt(limit) are walked.  Starting from phi = rem = i,
    each such p scales its multiples by (1 - 1/p), exactly as
    ``x -= x // p``, and divides every power p^k <= limit out of ``rem``.
    Whatever is left in ``rem`` above 1 is then that single large prime P,
    applied to all indices at once as ``phi -= phi // P``.  ``rem`` is freed
    before the int64 prefix sums are accumulated in place, so below 2^31
    the peak allocation is the finished table's 12 bytes per entry.
    """
    if limit < 1:
        raise ValueError(f"sieve limit must be >= 1, got {limit}")
    cap = sieve_budget()
    if limit > cap:
        raise ResourceLimitError(
            f"sieve limit {limit} exceeds budget {cap}"
            f" (raise it via {SIEVE_BUDGET_ENV})"
        )

    dtype = np.int64 if limit >= 2**31 else np.int32
    phi = np.arange(limit + 1, dtype=dtype)
    rem = phi.copy()
    for p in _primes_upto(math.isqrt(limit)):
        phi[p::p] -= phi[p::p] // p
        power = p
        while power <= limit:
            rem[power::power] //= p
            power *= p
    # masked rather than dividing by a sentinel such as limit + 1, which
    # would not fit int32 at limit = 2^31 - 1
    large = rem > 1
    np.floor_divide(phi, rem, out=rem, where=large)
    np.subtract(phi, rem, out=phi, where=large)
    del rem, large

    prefix = phi.astype(np.int64)
    np.cumsum(prefix, out=prefix)
    phi.setflags(write=False)
    prefix.setflags(write=False)
    return TotientTable(limit=limit, phi=phi, phi_prefix=prefix)


def _check_index(table: TotientTable, i: int) -> None:
    if not 1 <= i <= table.limit:
        raise ValueError(f"index {i} outside table range 1..{table.limit}")


def summatory_phi(table: TotientTable, i: int) -> int:
    """Phi(i) = sum of phi(j) for j <= i, exact."""
    _check_index(table, i)
    return int(table.phi_prefix[i])


def e_phi(table: TotientTable, i: int) -> float:
    """First error term Phi(i) - 3 i^2 / pi^2."""
    _check_index(table, i)
    return float(table.phi_prefix[i]) - 3.0 * i * i / PI_SQUARED


def _exact_second_prefix(table: TotientTable, i: int) -> int:
    """sum_{j<=i} Phi(j) as an exact Python int.

    Single int64 values fit, but their sum can overflow, so the array is
    reduced in slices small enough that each partial sum stays below 2^62.
    """
    pre = table.phi_prefix
    top = int(pre[i])
    chunk = max(1, (1 << 62) // max(top, 1))
    if chunk >= i:
        return int(pre[1 : i + 1].sum())
    total = 0
    for lo in range(1, i + 1, chunk):
        total += int(pre[lo : min(lo + chunk, i + 1)].sum())
    return total


def _e_r_from_prefix(second_prefix: int, i: int) -> float:
    # e_r(i) = sum_{j<=i} Phi(j) - (6*sum_{j<=i} j^2 + 3 i^2) / (2 pi^2);
    # everything left of the division is exact, so the only rounding is the
    # final conversion to float.
    sum_sq = i * (i + 1) * (2 * i + 1) // 6
    w = 6 * sum_sq + 3 * i * i
    return float(second_prefix - Fraction(w) / _TWO_PI_SQUARED)


def e_r(table: TotientTable, i: int) -> float:
    """Second error term: prefix-summed e_phi minus 3 i^2 / (2 pi^2)."""
    _check_index(table, i)
    return _e_r_from_prefix(_exact_second_prefix(table, i), i)


def iter_error_terms(
    table: TotientTable, m_max: int, every: int = 1
) -> Iterator[tuple[int, int, float, float]]:
    """Yield (m, Phi(m), e_phi(m), e_r(m)) for m = every, 2*every, ... <= m_max.

    The running second-order sum is carried exactly, so each e_r value
    matches the standalone e_r() to the last bit.
    """
    _check_index(table, m_max)
    if every < 1:
        raise ValueError(f"every must be >= 1, got {every}")
    pre = table.phi_prefix
    second = 0
    for lo in range(1, m_max + 1, _CHUNK):
        hi = min(lo + _CHUNK, m_max + 1)
        for off, value in enumerate(pre[lo:hi].tolist()):
            m = lo + off
            second += value
            if m % every == 0:
                yield (
                    m,
                    value,
                    float(value) - 3.0 * m * m / PI_SQUARED,
                    _e_r_from_prefix(second, m),
                )


def check_partial_summation(a: Sequence[float], b: Sequence[float]) -> bool:
    """Verify Abel summation on concrete data.

    Compares sum a_i b_i against A_N b_N - sum_{i<N} A_i (b_{i+1} - b_i)
    with A_i the prefix sums of a.  True when the two sides agree to 1e-12
    relative to the term-magnitude scale of either side; the right side's
    scale uses prefix sums of |a|, since its terms can cancel where the
    left side's are all zero.
    """
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    n = len(a)
    if n == 0:
        raise ValueError("sequences must be nonempty")
    av = [float(x) for x in a]
    bv = [float(x) for x in b]

    lhs = math.fsum(x * y for x, y in zip(av, bv))
    prefix = list(accumulate(av))
    rhs = prefix[-1] * bv[-1] - math.fsum(
        prefix[i] * (bv[i + 1] - bv[i]) for i in range(n - 1)
    )
    abs_prefix = list(accumulate(abs(x) for x in av))
    rhs_scale = abs_prefix[-1] * abs(bv[-1]) + math.fsum(
        abs_prefix[i] * (abs(bv[i + 1]) + abs(bv[i])) for i in range(n - 1)
    )
    scale = max(1.0, math.fsum(abs(x * y) for x, y in zip(av, bv)), rhs_scale)
    return abs(lhs - rhs) <= 1e-12 * scale
