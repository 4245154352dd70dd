"""Euler totient sieve, the moment walk over it, a sublinear moment
evaluator, and second-order error terms.

phi is sieved in consecutive blocks (_sieve_blocks), and one exact walk
over blocks (_walk) yields (m, (S_0(m), S_1(m), S_2(m))), with
S_k(m) = sum_{i<=m} i^k phi(i), for each of a nondecreasing list of m in
one pass.  The walk folds its int64 row sums into Python ints itself, so
every reader takes the moments as they are and none handles a row.  A
caller that keeps phi, the public TotientTable of build_totient_table,
walks it as a single block through totient_moments.  Every other reader
walks the blocks as they are sieved to the largest m it reads (_stream)
and never holds a table: the counts and the point queries use
_sublinear_moments, the same sums at a few large m from the hyperbola
recursion over the quotients m // d, whose small quotients come from a
presieve: up to m = 2^24 a pure-Python one of about m^(2/3) entries
(_pure_stream), above that a walk of about 10 m^(2/3); scan and the
error-term stream walk a sieve to their last row's m.  The summatory
function is Phi(i) = S_0(i), and sum_{j<=i} Phi(j) equals
(i + 1) S_0(i) - S_1(i).
On top of that sit two error terms used for growth diagnostics,

    e_phi(i) = Phi(i) - 3 i^2 / pi^2
    e_r(i)   = sum_{j<=i} e_phi(j) - 3 i^2 / (2 pi^2)

both reported as floats while all integer parts stay exact.  A streamed
sieve holds three block-sized int32 buffers of at most 2^20 entries, so
the error-term stream to 10^8 holds 12 MB of them instead of a 400 MB
table.  The walk is exact for every index up to SIEVE_LIMIT, the one cap
on the sieve and on every moment index.  numpy is imported only inside
the sieve (_sieve_blocks and its _primes_upto) and the walk, so importing
this module does not load it, nor does a point query or count whose
largest m is at most 2^24, which covers every grid query.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress, count
from operator import mul
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import ResourceLimitError, as_int

if TYPE_CHECKING:
    import numpy as np

PI_SQUARED = math.pi**2

#: Largest sieve limit, and so the largest index a table walk reads
#: (totient_moments, the error-term stream).  The sublinear evaluator
#: behind the counts and the point queries keeps the same cap on its
#: moment index, though it sieves only its presieve (_presieve_size).
SIEVE_LIMIT = 10**8

# Emitted floats are compared across runs, so the float 2 pi^2 is taken
# once, as its integer ratio M / D, which is exact; see _e_r_from_prefix.
_TWO_PI_SQUARED_RATIO = (2.0 * PI_SQUARED).as_integer_ratio()

# The walk splits indices as i = b + j with 0 <= j < _ROW.  For i <=
# SIEVE_LIMIT < 2^27, phi(i) < 2^27 and j^2 < 2^22, so each of a row's
# sums of j^k phi(b + j), k <= 2, stays below 2^60 in int64.  Rows with no
# requested m are reduced _ROWS at a time, one product per batch with the
# _ROW x 3 matrix of j^k that each walk builds.  The sieve yields phi in
# blocks of whole batches (_block_size), so no row or batch straddles two
# blocks.
_ROW = 1 << 11
_ROWS = 8

# Largest m whose presieve _sublinear_moments sieves in pure Python, with
# no numpy (_pure_stream); see _presieve_size.
_PURE_PRESIEVE_MAX = 1 << 24

Moments = tuple[int, int, int]
# (lo, hi, phi(lo..hi - 1)) for consecutive ranges from lo = 0; see _walk
Blocks = Iterable[tuple[int, int, Sequence[int]]]


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
    import numpy as np

    is_prime = np.ones(n + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime).tolist()


def check_sieve_limit(limit: int) -> int:
    """limit as a plain int, which build_totient_table may sieve to: 1..SIEVE_LIMIT."""
    limit = as_int(limit, "sieve limit", 1)
    if limit > SIEVE_LIMIT:
        raise ResourceLimitError(f"sieve limit {limit} exceeds budget {SIEVE_LIMIT}")
    return limit


def _block_size(limit: int) -> int:
    """Entries per sieve block for a sieve to limit: limit / 16, rounded up
    to whole batches of _ROW * _ROWS = 2^14 entries, and kept in 2^16..2^20.

    Below 2^16 the per-step numpy calls of the sieve cost more than the
    strided arithmetic they do.  The cap bounds what a stream holds of phi,
    three int32 buffers of one block (12 MB at 2^20), and costs no time:
    the three moments at 100 m up to 10^8, timed in-process on a 2-core
    x86-64 VM (Python 3.11, numpy 2.4, three runs each), took 4.8 to 6.1 s
    with 2^18-entry blocks, 3.4 to 4.4 s with 2^20, 4.8 to 5.2 s with 2^22
    (peak RSS 31, 40 and 76 MB), and 5.3 to 6.0 s at 457 MB from a whole
    table sieved in blocks of limit / 16.
    """
    batch = _ROW * _ROWS
    return batch * min(64, max(4, -(-(limit >> 4) // batch)))


def _sieve_blocks(limit: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """phi(0..limit) in consecutive blocks (lo, hi, phi(lo..hi - 1)), phi(0) = 0.

    phi is multiplicative, and every i <= limit has at most one prime
    factor above sqrt(limit).  So the sieve lists one step per prime power
    p^k <= limit with p <= sqrt(limit): its multiples are multiplied by
    p - 1 for k = 1 and by p for k >= 2, which leaves phi of the
    sqrt(limit)-smooth part of each i, while a ``smooth`` array collects
    that part itself.  The quotient i // smooth is then 1 or the single
    large prime P, and multiplying by P - 1 finishes phi(i).  Each block
    is _block_size(limit) entries (the last may be shorter) and starts at a
    multiple of _ROW * _ROWS, as _walk needs.  One int32 buffer holds every
    block, so a yielded block is overwritten by the next: copy it to keep
    it.  With the ``smooth`` buffer and one temporary, the sieve holds
    three block-sized int32 arrays, whatever the limit.
    """
    import numpy as np

    limit = check_sieve_limit(limit)
    steps = []
    for p in _primes_upto(math.isqrt(limit)):
        power, mult = p, p - 1
        while power <= limit:
            steps.append((power, mult, p))
            power, mult = power * p, p
    steps.sort()

    size = _block_size(limit)
    phi_buf = np.empty(min(size, limit + 1), dtype=np.int32)
    smooth_buf = np.empty_like(phi_buf)
    for lo in range(0, limit + 1, size):
        hi = min(lo + size, limit + 1)
        block = phi_buf[: hi - lo]
        # index 0 never takes a step: every p^k divides it, and the product
        # in ``smooth`` would wrap without a warning
        base = max(lo, 1)
        part, smooth = block[base - lo :], smooth_buf[: hi - base]
        part.fill(1)
        smooth.fill(1)
        for power, mult, p in steps:
            if power >= hi:
                break
            start = -base % power
            part[start::power] *= mult
            smooth[start::power] *= p
        large = np.arange(base, hi, dtype=np.int32)
        large //= smooth
        large -= 1
        np.maximum(large, 1, out=large)
        part *= large
        del large
        block[: base - lo] = 0
        yield lo, hi, block


def build_totient_table(limit: int) -> TotientTable:
    """Sieve phi(1..limit) into one table: the blocks of _sieve_blocks, collected.

    The peak allocation is the table's 4 bytes per entry plus the sieve's
    three int32 block buffers, at most 5 bytes per entry from limit = 10^6
    on (4.77 at 10^7).  Only callers that keep a table need one: the
    counts, the point queries, scan and the error-term stream read the
    blocks as they are sieved.
    """
    import numpy as np

    limit = check_sieve_limit(limit)
    phi = np.empty(limit + 1, dtype=np.int32)
    for lo, hi, block in _sieve_blocks(limit):
        phi[lo:hi] = block
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


def _walk(blocks: Blocks, ms: Sequence[int]) -> Iterator[tuple[int, Moments]]:
    """(m, (S_0(m), S_1(m), S_2(m))) for each of the nondecreasing ms, in order.

    blocks are (lo, hi, phi(lo..hi - 1)) for consecutive ranges from lo = 0,
    each starting at a multiple of _ROW * _ROWS: a whole table is one block,
    and _sieve_blocks yields them as it sieves.  phi is read in rows
    i = b + j, 0 <= j < _ROW, whose sums A_k = sum_j j^k phi(b + j) are
    exact in int64; the walk folds each into the Python-int moments below
    the row as S_0 + A_0, S_1 + b A_0 + A_1 and S_2 + b^2 A_0 + 2 b A_1 + A_2,
    so every yielded sum is exact and no caller sees a row.  Rows below the
    next m are reduced _ROWS at a time; the row holding an m is summed
    cumulatively.  Nothing past max(ms) is read, no block past the one that
    holds it is asked for, and m = 0 reads nothing, nor loads numpy.  The
    caller checks that the blocks reach max(ms) (_check_table).
    """
    i = bisect_right(ms, 0)
    for m in ms[:i]:
        yield m, (0, 0, 0)
    if i == len(ms):
        return
    import numpy as np

    powers = np.arange(_ROW, dtype=np.int64)[:, None] ** np.arange(3)
    batch = _ROW * _ROWS
    s0 = s1 = s2 = 0
    done = 0  # indices below done are folded into s0, s1, s2
    for lo, hi, phi in blocks:
        while True:
            b = ms[i] - ms[i] % _ROW if ms[i] < hi else hi
            for start in range(done, b, batch):
                rows = phi[start - lo : min(start + batch, b) - lo].reshape(-1, _ROW)
                for r, (a0, a1, a2) in zip(range(start, b, _ROW), (rows @ powers).tolist()):
                    s0, s1, s2 = s0 + a0, s1 + r * a0 + a1, s2 + (r * a0 + 2 * a1) * r + a2
            done = b
            if b == hi:
                break
            k = bisect_left(ms, b + _ROW, i)
            row = phi[b - lo : ms[k - 1] + 1 - lo]
            prefix = np.cumsum(row * powers[: len(row)].T, axis=1)
            run = ms[i:k]
            for m, a0, a1, a2 in zip(run, *prefix[:, np.subtract(run, b)].tolist()):
                yield m, (s0 + a0, s1 + b * a0 + a1, s2 + (b * a0 + 2 * a1) * b + a2)
            i = k
            if i == len(ms):
                return
    raise ValueError(f"phi blocks end below m = {ms[i]}")


def _stream(ms: Sequence[int]) -> Iterator[tuple[int, Moments]]:
    """_walk of the blocks of phi sieved to max(ms) as they come: no table is held."""
    return _walk(_sieve_blocks(max(ms[-1], 1)) if ms else (), ms)


def totient_moments(table: TotientTable, ms: Iterable[int]) -> list[Moments]:
    """(S_0(m), S_1(m), S_2(m)) with S_k(m) = sum_{i<=m} i^k phi(i), per m.

    ``ms`` must be nondecreasing; the table is walked once (_walk), as one
    block, and every sum is exact.  m > SIEVE_LIMIT raises
    ResourceLimitError before the table is read, whatever the table's own
    limit.
    """
    ms = _check_ms(ms)
    _check_table(table, ms[-1] if ms else 0)
    return [moments for _, moments in _walk([(0, table.limit + 1, table.phi)], ms)]


def _check_ms(ms: Iterable[int]) -> list[int]:
    """ms as plain ints, which must be >= 0 and nondecreasing."""
    ms = [as_int(m, "m", 0) for m in ms]  # numpy ints would wrap in the fold
    if any(b < a for a, b in zip(ms, ms[1:])):
        raise ValueError("m values must be nondecreasing")
    return ms


def _presieve_size(x: int) -> int:
    """The table size y that _sublinear_moments sieves for a largest m of x.

    y = min(x, x^(2/3)), rounded, up to x = _PURE_PRESIEVE_MAX = 2^24,
    sieved in pure Python (_pure_stream); above, 10 x^(2/3), sieved and
    walked with numpy (_stream).  Either way the recursion costs about
    4 x / sqrt(y) Python loop steps, and the best y was c x^(2/3) with
    c = 1 for the pure sieve (about 0.6 us per entry; c = 0.7 to 1.5 was
    within 15 % of it at 10^7 and 2^24) and c = 10 for numpy (a few ns
    per entry; within 10 % over a factor of two either side from 3 10^6
    to 10^8).  The switch is set by fresh processes, since importing
    numpy costs 60 to 70 ms and 13 MB: timed on a 2-core x86-64 VM
    (Python 3.11, numpy 2.4), from interpreter start to the moments at
    x // 3, x // 2, x - 1 and x, medians of 9 to 15 alternating pairs,
    with each process's peak RSS (VmHWM):

        x         10^5   10^6   10^7  1.2e7  1.5e7   2^24   2e7   10^8
        pure     0.029  0.074  0.151  0.175  0.222  0.192  0.257  0.621 s
        numpy    0.096  0.163  0.160  0.169  0.208  0.180  0.196  0.313 s
        pure      15.6   16.1   19.1   19.6   20.0   20.4   21.1   31.7 MB
        numpy     28.5   29.4   31.3   31.4   31.6   31.8   32.0   37.4 MB

    so the two break even near 1.2 10^7, and up to 2^24, past every grid
    query's m < 10^7, the pure sieve costs at most about 7 % more time and
    holds 11 MB less.  In a process that has loaded numpy already, the
    numpy presieve is faster: 0.07 against 0.15 s at 2^24.
    """
    if x <= _PURE_PRESIEVE_MAX:
        return min(x, round(x ** (2 / 3)))
    return 10 * round(x ** (2 / 3))


def _phi_list(limit: int) -> list[int]:
    """phi(0..limit) as a list of ints, phi(0) = 0, by a pure-Python sieve.

    Each prime p, found as an entry still equal to its index, takes
    phi(k) - phi(k) // p at every multiple k of p, one slice at a time.
    """
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:
            phi[p::p] = [v - v // p for v in phi[p::p]]
    return phi


def _pure_stream(ms: Sequence[int]) -> Iterator[tuple[int, Moments]]:
    """(m, (S_0(m), S_1(m), S_2(m))) for the increasing ms, as _stream gives
    them, from _phi_list(max(ms)) and with no numpy.  The three prefix sums
    run side by side and only those at the ms are kept, so nothing but phi
    is held; an empty ms sieves nothing.
    """
    if not ms:
        return
    phi = _phi_list(ms[-1])
    wanted = bytearray(len(phi))
    for m in ms:
        wanted[m] = 1
    s0 = accumulate(phi)
    s1 = accumulate(map(mul, phi, count()))
    s2 = accumulate(map(mul, map(mul, phi, count()), count()))
    yield from zip(ms, zip(*(compress(s, wanted) for s in (s0, s1, s2))))


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

    Every m <= y, and every quotient 1 < m // d <= y of a larger m, is read
    from one presieve to the largest of them, at most y: a pure-Python one
    (_pure_stream) up to max(ms) = _PURE_PRESIEVE_MAX, which loads no numpy,
    and a walk of blocks above it (_stream); neither holds a table, and
    S_k(1) = phi(1) = 1 is known without one, so y = 1 sieves nothing.
    The quotients above y are then filled in from the smallest up by
    _moments_from_below, whose every argument v // e is again a quotient
    of the same m; one memo serves all ms.  This is the hyperbola method
    of Deleglise and Rivat (Exp. Math. 5, 1996) on the identity
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
    small = sorted(v for v in values if 1 < v <= y)
    memo: dict[int, Moments] = {0: (0, 0, 0), 1: (1, 1, 1)}
    memo.update((_pure_stream if x <= _PURE_PRESIEVE_MAX else _stream)(small))
    for v in sorted(values.difference(memo)):
        memo[v] = _moments_from_below(v, memo)
    return [memo[m] for m in ms]


def _point_moments(i: object) -> tuple[int, Moments]:
    """i as a plain int, which must be >= 1, and its moments from _sublinear_moments."""
    i = as_int(i, "index i", 1)
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
    # e_r(i) = sum_{j<=i} Phi(j) - w / (2 pi^2), w = 6*sum_{j<=i} j^2 + 3 i^2;
    # with 2 pi^2 = M / D that is (sum_{j<=i} Phi(j) M - w D) / M, an int /
    # int division, which is correctly rounded and so the only rounding.
    sum_sq = i * (i + 1) * (2 * i + 1) // 6
    w = 6 * sum_sq + 3 * i * i
    m, d = _TWO_PI_SQUARED_RATIO
    return (second_prefix * m - w * d) / m


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
    budget, then every >= 1, before phi is sieved.  Each row reads S_0 and
    S_1 at m from one walk (_stream) of the blocks as they are sieved to
    the last row's m, not to m_max, so no table is held, nothing past the
    last row is sieved, and an every past m_max yields no row and sieves
    nothing.  The sums are exact and the floats come from the point
    queries' formulas, so every value matches e_phi() and e_r() to the
    last bit.
    """
    m_max = as_int(m_max, "m_max", 1)
    check_sieve_limit(m_max)
    every = as_int(every, "every", 1)
    # Phi(m) = S_0(m) and sum_{j<=m} Phi(j) = (m + 1) S_0(m) - S_1(m)
    return (
        (m, s0, _e_phi_from_sum(s0, m), _e_r_from_prefix((m + 1) * s0 - s1, m))
        for m, (s0, s1, _) in _stream(range(every, m_max + 1, every))
    )
