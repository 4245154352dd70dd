"""Reference values the benchmark checks gridcount's output against.

Nothing here imports gridcount: the census below is the definition of
f_q(n), the totient sieve and moment sums are written out again, and the
residual reference uses stdlib ``decimal`` with pi to 80 digits.  That
independence is what lets a mismatch count as an error of the program.
"""

from __future__ import annotations

import math
from array import array
from decimal import Decimal, localcontext

PI_80 = Decimal(
    "3.14159265358979323846264338327950288419716939937510"
    "582097494459230781640628620899"
)


def f_census(n: int) -> dict[int, int]:
    """f_g(n) for every g >= 1 with f_g(n) > 0, by the definition sum.

    Sums (n - |i|)(n - |j|) over difference vectors (i, j) in the open
    (2n-1)^2 box, bucketed by gcd(i, j).  O(n^2); small grids only.
    """
    f: dict[int, int] = {}
    for i in range(-(n - 1), n):
        wi = n - abs(i)
        for j in range(-(n - 1), n):
            g = math.gcd(i, j)
            if g:
                f[g] = f.get(g, 0) + wi * (n - abs(j))
    return f


def phi_table(limit: int) -> array:
    """phi(0..limit) by the textbook sieve; phi[0] is 0."""
    phi = array("q", range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:
            phi[p::p] = array("q", (x - x // p for x in phi[p::p]))
    return phi


def moments_at(phi: array, ms: list[int]) -> dict[int, tuple[int, int, int]]:
    """(S0, S1, S2) at each m in ``ms``, where S_k(m) = sum_{i<=m} i^k phi(i).

    One sequential pass with exact Python ints; only the requested
    prefixes are kept.
    """
    want = sorted(set(ms))
    out: dict[int, tuple[int, int, int]] = {}
    s0 = s1 = s2 = 0
    i = 0
    for m in want:
        while i < m:
            i += 1
            p = phi[i]
            s0 += p
            s1 += i * p
            s2 += i * i * p
        out[m] = (s0, s1, s2)
    return out


def f_from_moments(n: int, q: int, s: tuple[int, int, int]) -> int:
    """f_q(n) = 4 (2 n^2 S0 - 3 n q S1 + q^2 S2) at m = (n - 1) // q."""
    s0, s1, s2 = s
    return 4 * (2 * n * n * s0 - 3 * n * q * s1 + q * q * s2)


def derived_counts(f_prev: int, f_q: int, f_next: int) -> tuple[int, int, int]:
    """(segments, lines_at_least, lines_exactly) at q from f_{q-1}, f_q, f_{q+1}."""
    return f_q // 2, (f_prev - f_q) // 2, (f_next - 2 * f_q + f_prev) // 2


def main_term_decimal(n: int, q: int) -> Decimal:
    """6 n^4 / (pi^2 q^2) to 80 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 80
        return Decimal(6 * n**4) / (PI_80 * PI_80 * q * q)


def residual_decimal(exact: int, n: int, q: int) -> Decimal:
    """f_q(n) minus its main term, to 80 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 80
        return Decimal(exact) - main_term_decimal(n, q)


def least_squares(xs: list[float], ys: list[float]) -> tuple[float, float]:
    """Slope and intercept of the ordinary least-squares line."""
    k = len(xs)
    mx = math.fsum(xs) / k
    my = math.fsum(ys) / k
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return slope, my - slope * mx
