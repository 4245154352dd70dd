"""Brute-force geometric oracles on small grids.

The segment oracle enumerates actual point pairs, the line oracle walks
every line through two or more grid points from its first point, and the
threshold oracle enumerates dichotomies as bitmasks.  None shares code or
formulas with the fast counting paths, so the two can check each other.
Sizes are capped (n <= 25 for lines and segments, n <= 4 for thresholds):
the pair scan and the line walk both take time growing like n^4, though
each keeps only a small tally, not a key per line or pair; ``force`` lifts
a cap for callers who accept the wait.  n and p are checked as the counts
check them: numpy integers pass, and bools and floats raise TypeError.
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


def oracle_line_histogram(n: int, force: bool = False) -> dict[int, int]:
    """How many lines meet the n x n grid in exactly p points, as {p: lines}.

    Every line through >= 2 grid points is walked once, from its first
    point along its direction.  For each primitive direction d = (dx, dy)
    with 0 <= dx < n, |dy| < n, gcd(dx, dy) = 1, and dx > 0 or d = (0, 1),
    a first point is a grid point p with p - d off the grid and p + d on
    it; the walk steps p, p + d, p + 2d, ... while the point stays on the
    grid and counts one line through the number of points visited.  Keys
    are sorted, and a p that no line meets is absent.

    This finds every such line exactly once.  Two of its grid points differ
    by a vector whose coordinates lie in (-n, n); divided by their gcd, it
    is a primitive direction, and of it and its negation exactly one has
    dx > 0 or is (0, 1).  So each line has exactly one direction walked,
    and no other direction walked lies along it.  The line's lattice
    points are spaced by d, and the square is convex, so its grid points
    form one contiguous run along d of at least two points, which has
    exactly one first point, and the walk from it visits the whole run.
    Conversely, a first point of a walked direction starts the run of the
    line through p and p + d.
    """
    n = _check_grid(n, ORACLE_GRID_LIMIT, force)
    lines: Counter = Counter()
    for dx in range(n):
        for dy in range(1 - n, n):
            if math.gcd(dx, dy) != 1 or (dx == 0 and dy != 1):
                continue
            # the candidates are the points p = (x, y) with p + d on the grid
            ys = range(max(0, -dy), min(n, n - dy))
            for x in range(n - dx):
                for y in ys:
                    if x >= dx and 0 <= y - dy < n:
                        continue  # p - d is on the grid
                    visited = 2
                    px = x + 2 * dx
                    py = y + 2 * dy
                    while px < n and 0 <= py < n:
                        visited += 1
                        px += dx
                        py += dy
                    lines[visited] += 1
    return dict(sorted(lines.items()))


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
