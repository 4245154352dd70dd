"""Brute-force oracles: line keys, histograms, segments, thresholds."""

import ast
import math
from collections import Counter
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcount import (
    ResourceLimitError,
    lines_exactly,
    oracle,
    oracle_line_histogram,
    oracle_segments,
    oracle_threshold_count,
)

coord = st.integers(-50, 50)
point = st.tuples(coord, coord)


def _line_key(px, py, qx, qy):
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


def key(p, q):
    return _line_key(*p, *q)


class TestCanonicalLine:
    """The (a, b, c) key the pair-based reference gathers points under."""

    def test_basic(self):
        assert key((0, 0), (2, 4)) == (2, -1, 0)

    def test_same_point_rejected(self):
        # two equal points span no line, so no key is formed
        with pytest.raises(ArithmeticError):
            key((1, 1), (1, 1))

    def test_validation(self):
        # pairs whose raw coefficients break a rule of the key come out
        # reduced and sign-fixed
        assert key((1, 1), (3, 5)) == (2, -1, -1)  # raw (4, -2, -2): gcd 2
        assert key((0, 2), (1, 0)) == (2, 1, -2)  # raw (-2, -1, 2): a < 0
        assert key((0, 3), (5, 3)) == (0, 1, -3)  # raw (0, -5, 15): a = 0, b < 0

    def test_hashable_key(self):
        assert key((0, 0), (1, 1)) == key((3, 3), (7, 7))
        assert len({key((0, 0), (1, 0)), key((0, 0), (2, 0))}) == 1

    @given(p=point, q=point)
    @settings(max_examples=300)
    def test_order_invariant(self, p, q):
        if p == q:
            return
        assert key(p, q) == key(q, p)

    @given(p=point, d=point, u=st.integers(-9, 9), v=st.integers(-9, 9))
    @settings(max_examples=300)
    def test_collinear_triples_agree(self, p, d, u, v):
        # any two distinct points sampled along one line give the same key
        if d == (0, 0) or u == v or u == 0 or v == 0:
            return
        x = (p[0] + u * d[0], p[1] + u * d[1])
        y = (p[0] + v * d[0], p[1] + v * d[1])
        assert key(p, x) == key(p, y) == key(x, y)

    @given(p=point, q=point)
    @settings(max_examples=300)
    def test_invariants(self, p, q):
        if p == q:
            return
        a, b, c = key(p, q)
        assert (a, b) != (0, 0)
        assert math.gcd(a, b, c) == 1
        assert a > 0 or (a == 0 and b > 0)
        for x, y in (p, q):
            assert a * x + b * y + c == 0

    @given(p=point, q=point)
    @settings(max_examples=300)
    def test_line_key_is_the_validated_line(self, p, q):
        # the key equals the line built another way: the normal of the
        # primitive direction q - p, sign-fixed, which is valid by
        # construction (gcd(a, b) = 1 already, a > 0 or a = 0 < b)
        if p == q:
            return
        dx, dy = q[0] - p[0], q[1] - p[1]
        g = math.gcd(dx, dy)
        a, b = dy // g, -dx // g
        if a < 0 or (a == 0 and b < 0):
            a, b = -a, -b
        c = -(a * p[0] + b * p[1])
        assert math.gcd(a, b) == 1
        assert a > 0 or (a == 0 and b > 0)
        assert key(p, q) == (a, b, c)


def line_histogram_by_point_sets(n):
    """A pair-based line census: the points of every pair gathered per line key."""
    grid = [(x, y) for x in range(n) for y in range(n)]
    points = {}
    for p, q in combinations(grid, 2):
        points.setdefault(key(p, q), set()).update((p, q))
    return dict(sorted(Counter(len(s) for s in points.values()).items()))


class TestLineHistogram:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_point_sets(self, n):
        hist = oracle_line_histogram(n)
        assert hist == line_histogram_by_point_sets(n)
        assert list(hist) == sorted(hist)

    def test_n2(self):
        hist = oracle_line_histogram(2)
        assert hist == {2: 6}

    def test_n3(self):
        hist = oracle_line_histogram(3)
        assert hist == {2: 12, 3: 8}

    def test_n5(self):
        assert oracle_line_histogram(5) == {2: 108, 3: 16, 4: 4, 5: 12}

    PAST_CAP = (26, 30, 40)

    def test_pair_identity(self):
        # a line through p grid points holds C(p, 2) of the point pairs
        for n in (*range(2, 26), *self.PAST_CAP):
            hist = oracle_line_histogram(n, force=True)
            paired = sum(math.comb(p, 2) * c for p, c in hist.items())
            assert paired == math.comb(n * n, 2), n

    @pytest.mark.parametrize("n", PAST_CAP)
    def test_matches_exact_counts_past_the_cap(self, n):
        exact = {p: lines_exactly(n, p) for p in range(2, n + 1)}
        expected = {p: lines for p, lines in exact.items() if lines}
        assert oracle_line_histogram(n, force=True) == expected

    def test_support_bounds(self):
        hist = oracle_line_histogram(7)
        assert min(hist) == 2
        assert max(hist) == 7

    def test_guardrail(self):
        with pytest.raises(ResourceLimitError):
            oracle_line_histogram(26)

    def test_too_small(self):
        with pytest.raises(ValueError):
            oracle_line_histogram(1)


class TestSegments:
    def test_known(self):
        assert oracle_segments(2, 2) == 6
        assert oracle_segments(3, 3) == 8
        assert oracle_segments(3, 5) == 0

    def test_all_pairs_covered(self):
        for n in (2, 3, 6):
            total = sum(oracle_segments(n, p) for p in range(2, n + 1))
            assert total == math.comb(n * n, 2), n

    def test_bad_args(self):
        with pytest.raises(ValueError):
            oracle_segments(1, 2)
        with pytest.raises(ValueError):
            oracle_segments(3, 1)
        with pytest.raises(ResourceLimitError):
            oracle_segments(30, 2)


def threshold_count_by_scan(n):
    """Midpoint thresholds for integer normals with coordinates below n."""
    grid = [(x, y) for x in range(n) for y in range(n)]
    masks = {0, (1 << len(grid)) - 1}
    for a1 in range(-(n - 1), n):
        for a2 in range(-(n - 1), n):
            if a1 == 0 and a2 == 0:
                continue
            levels = sorted({a1 * x + a2 * y for x, y in grid})
            for lo, hi in zip(levels, levels[1:]):
                mask = 0
                for k, (x, y) in enumerate(grid):
                    if 2 * (a1 * x + a2 * y) > lo + hi:
                        mask |= 1 << k
                masks.add(mask)
    return len(masks)


class TestThreshold:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_midpoint_scan(self, n):
        assert oracle_threshold_count(n, force=True) == threshold_count_by_scan(n)

    def test_known(self):
        assert oracle_threshold_count(1) == 2
        assert oracle_threshold_count(2) == 14
        assert oracle_threshold_count(3) == 58
        assert oracle_threshold_count(4) == 174

    def test_guardrail(self):
        with pytest.raises(ResourceLimitError):
            oracle_threshold_count(5)

    def test_force_lifts(self):
        from gridcount import threshold_count

        assert oracle_threshold_count(5, force=True) == threshold_count(5)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            oracle_threshold_count(0)


class TestIntegerBoundary:
    """n and p are checked as the counts check them."""

    CALLS = {
        "lines": lambda v: oracle_line_histogram(v)[3],
        "segments.n": lambda v: oracle_segments(v, 3),
        "segments.p": lambda v: oracle_segments(5, v),
        "threshold": lambda v: oracle_threshold_count(v),
    }

    @pytest.mark.parametrize("bad", [2.5, True, np.float64(3.0), np.True_])
    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_non_integers_raise(self, name, bad):
        with pytest.raises(TypeError):
            self.CALLS[name](bad)

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_numpy_integers(self, name):
        got = self.CALLS[name](np.int64(3))
        assert type(got) is int
        assert got == self.CALLS[name](3)


def test_oracle_imports_no_counting_code():
    # the oracles check the fast path only while they share none of it
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.update(alias.name.split("."))
    fast = {"counts", "totient", "asympt"}
    assert not fast & imported, imported
    assert not fast & set(vars(oracle))
