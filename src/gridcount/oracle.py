"""Brute-force geometric oracles on small grids.

These enumerate actual point pairs, lines, and threshold dichotomies, with
no shared code or formulas with the fast counting paths, so the two can
check each other.  Sizes are capped (n <= 25 for pair enumeration, n <= 4
for thresholds) since costs grow like n^4; ``force`` lifts a cap for
callers who accept the wait.  n and p are checked as the counts check
them: numpy integers pass, and bools and floats raise TypeError.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import combinations

from .errors import ResourceLimitError, as_int

ORACLE_GRID_LIMIT = 25
THRESHOLD_GRID_LIMIT = 4

Point = tuple[int, int]


def _line_key(px: int, py: int, qx: int, qy: int) -> tuple[int, int, int]:
    """(a, b, c) of the line a*x + b*y + c = 0 through (px, py) != (qx, qy).

    The key is in lowest terms with a fixed sign: gcd(|a|, |b|, |c|) = 1,
    and a > 0, or a = 0 and b > 0.  So two point pairs span the same line
    iff their keys are equal.
    """
    a = qy - py
    b = px - qx
    c = -(a * px + b * py)
    g = math.gcd(a, b, c)
    a, b, c = a // g, b // g, c // g
    if a < 0 or (a == 0 and b < 0):
        return -a, -b, -c
    return a, b, c


def _check_grid(
    n: int, cap: int, force: bool, least: int = 2, name: str = "oracle"
) -> int:
    """n as a plain int, checked to be >= least and, unless forced, <= cap."""
    n = as_int(n, "grid side", least)
    if n > cap and not force:
        raise ResourceLimitError(
            f"{name} capped at n <= {cap} (got {n}); pass force to lift"
        )
    return n


def _grid_points(n: int) -> list[Point]:
    return [(x, y) for x in range(n) for y in range(n)]


def _points_on_line(pairs: int) -> int:
    """The p with C(p, 2) == pairs: a line through p points holds that many."""
    p = (1 + math.isqrt(1 + 8 * pairs)) // 2
    if p * (p - 1) // 2 != pairs:
        raise ArithmeticError(f"{pairs} pairs on one line is not C(p, 2) for any p")
    return p


def oracle_line_histogram(n: int, force: bool = False) -> dict[int, int]:
    """How many lines meet the n x n grid in exactly p points, as {p: lines}.

    Every line through >= 2 grid points is enumerated: each unordered point
    pair is counted under its line's key, and a line through p grid points
    collects exactly C(p, 2) pairs, which gives p back.  Keys are sorted,
    and a p that no line meets is absent.
    """
    n = _check_grid(n, ORACLE_GRID_LIMIT, force)
    pairs = Counter(
        _line_key(px, py, qx, qy)
        for (px, py), (qx, qy) in combinations(_grid_points(n), 2)
    )
    counts = Counter(_points_on_line(k) for k in pairs.values())
    return dict(sorted(counts.items()))


@lru_cache(maxsize=None)
def _difference_gcd_census(n: int) -> Counter:
    """Histogram of gcd(|dx|, |dy|) over unordered grid point pairs."""
    gcd = math.gcd
    return Counter(
        gcd(qx - px, qy - py) for (px, py), (qx, qy) in combinations(_grid_points(n), 2)
    )


def oracle_segments(n: int, p: int, force: bool = False) -> int:
    """Segments covering exactly p grid points, counted pair by pair.

    A pair with difference gcd g spans g - 1 interior points, so covering
    p points means g = p - 1.
    """
    n = _check_grid(n, ORACLE_GRID_LIMIT, force)
    p = as_int(p, "segment size p", 2)
    return _difference_gcd_census(n)[p - 1]


def oracle_threshold_count(n: int, force: bool = False) -> int:
    """Linear threshold dichotomies of the n x n grid, counted as bitmasks.

    A dichotomy is the set {(x, y) : a1 x + a2 y > b} for a real normal
    (a1, a2) and threshold b; each becomes a bitmask over the n^2 points,
    and the answer is the number of distinct masks.  Integer normals with
    coordinates in [-2(n - 1), 2(n - 1)] realise them all:

    Call a direction critical when it is perpendicular to the difference of
    two grid points; it is then a multiple of an integer normal with
    coordinates in [-(n - 1), n - 1], and with n >= 2 the critical
    directions include both signs of at least two such normals, so adjacent
    ones are less than pi apart.  Between two adjacent critical directions
    u and v no two points share a projection, so the projection order is
    one fixed strict order on that open arc, and u + v, which has
    coordinates in [-2(n - 1), 2(n - 1)], lies strictly inside it.  A
    non-constant dichotomy realised at a critical direction survives a
    small enough turn of its normal, since once b is moved off every
    projection the finitely many strict inequalities keep a margin.  So
    every one is realised on some open arc, where it is a proper prefix (or
    suffix) of that arc's order, and hence at the arc's u + v.  Prefixes
    under -w are suffixes under w and the range of normals is symmetric, so
    recording, for every normal, each prefix of the projection order that
    ends between two distinct levels, plus the two constant dichotomies,
    finds every dichotomy and nothing else.  For n = 1 there is no normal
    to try, and the two constant dichotomies are all there is.
    """
    n = _check_grid(n, THRESHOLD_GRID_LIMIT, force, 1, "threshold oracle")
    points = _grid_points(n)
    masks = {0, (1 << len(points)) - 1}
    r = 2 * (n - 1)
    for a1 in range(-r, r + 1):
        for a2 in range(-r, r + 1):
            if a1 == 0 and a2 == 0:
                continue
            ranked = sorted((a1 * x + a2 * y, k) for k, (x, y) in enumerate(points))
            prefix = 0
            for (level, k), (next_level, _) in zip(ranked, ranked[1:]):
                prefix |= 1 << k
                if level != next_level:
                    masks.add(prefix)
    return len(masks)
