"""Exact counting: f by both routes, derived counts, lemma decomposition."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcount import (
    MAX_GRID_N,
    GridQuery,
    ResourceLimitError,
    build_totient_table,
    count_set,
    decompose_lemma,
    f_direct,
    f_fast,
    lines_at_least,
    lines_exactly,
    residual,
    scan_residuals,
    segments_count,
    table_limit_for,
    threshold_count,
)


class TestGridQuery:
    def test_valid(self):
        q = GridQuery(3, 2)
        assert (q.n, q.q) == (3, 2)

    def test_invalid(self):
        with pytest.raises(ValueError):
            GridQuery(0, 1)
        with pytest.raises(ValueError):
            GridQuery(3, 0)
        with pytest.raises(ValueError):
            GridQuery(-2, 1)

    def test_too_large(self):
        with pytest.raises(ResourceLimitError):
            GridQuery(MAX_GRID_N + 1, 1)


@pytest.fixture(scope="module")
def table70k():
    return build_totient_table(70_000)


class TestIntegerBoundary:
    """numpy integers give the plain-int answers, as plain ints; the rest raise."""

    N = 70_000  # f_1(N) > 2^63, so int64 arithmetic on n would wrap
    CALLS = {
        "f_fast": lambda n, q, t: f_fast(GridQuery(n, q), t),
        "count_set.f": lambda n, q, t: count_set(n, q, t).f,
        "count_set.lines": lambda n, q, t: count_set(n, q + 1, t).lines_exactly,
        "lines_at_least": lambda n, q, t: lines_at_least(n, q + 1, t),
        "lines_exactly": lambda n, q, t: lines_exactly(n, q + 1, t),
        "segments_count": lambda n, q, t: segments_count(n, q + 1, t),
        "threshold_count": lambda n, q, t: threshold_count(n, t),
        "scan_residuals": lambda n, q, t: scan_residuals(q, [n], t)[0].exact,
    }

    def test_f_past_int64(self, table70k):
        f = f_fast(GridQuery(np.int64(self.N), 1), table70k)
        assert type(f) is int and f == 14596329779609205212

    @pytest.mark.parametrize("np_int", [np.int32, np.int64])
    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_numpy_integers(self, table70k, np_int, name):
        call = self.CALLS[name]
        got = call(np_int(self.N), np_int(1), table70k)
        assert type(got) is int
        assert got == call(self.N, 1, table70k)

    @pytest.mark.parametrize("np_int", [np.int32, np.int64])
    def test_fields_are_plain_ints(self, table70k, np_int):
        n, q = np_int(self.N), np_int(2)
        query = GridQuery(n, q)
        cs = count_set(n, q, table70k)
        (row,) = scan_residuals(q, [n], table70k)
        for v in (query.n, query.q, cs.n, cs.q, row.n, row.q):
            assert type(v) is int
        assert residual(n, q, table70k) == residual(self.N, 2, table70k)

    @pytest.mark.parametrize("bad", [2.5, True, np.float64(3.0), np.True_])
    def test_non_integers_raise(self, table100, bad):
        with pytest.raises(TypeError):
            GridQuery(bad, 1)
        with pytest.raises(TypeError):
            GridQuery(3, bad)
        with pytest.raises(TypeError):
            segments_count(3, bad, table100)
        with pytest.raises(TypeError):
            scan_residuals(1, [bad], table100)


class TestFDirect:
    def test_known_values(self):
        assert f_direct(GridQuery(2, 1)) == 12
        assert f_direct(GridQuery(2, 2)) == 0
        assert f_direct(GridQuery(3, 1)) == 56
        assert f_direct(GridQuery(3, 2)) == 16

    def test_n1_empty(self):
        assert f_direct(GridQuery(1, 1)) == 0

    def test_q_beyond_diameter(self):
        assert f_direct(GridQuery(4, 9)) == 0


class TestFFast:
    def test_known_values(self, table100):
        assert f_fast(GridQuery(2, 1), table100) == 12
        assert f_fast(GridQuery(3, 1), table100) == 56
        assert f_fast(GridQuery(5, 7), table100) == 0

    def test_matches_direct_small(self, table100):
        for n in range(1, 16):
            for q in range(1, 8):
                assert f_fast(GridQuery(n, q), table100) == f_direct(
                    GridQuery(n, q)
                ), (n, q)

    @given(n=st.integers(1, 30), q=st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_matches_direct_property(self, n, q, table100):
        assert f_fast(GridQuery(n, q), table100) == f_direct(GridQuery(n, q))

    def test_always_even(self, table100):
        for n in range(1, 40):
            for q in (1, 2, 3):
                assert f_fast(GridQuery(n, q), table100) % 2 == 0

    def test_monotone_in_n(self, table100):
        prev = 0
        for n in range(2, 60):
            cur = f_fast(GridQuery(n, 1), table100)
            assert cur > prev
            prev = cur

    def test_pair_partition(self, table100):
        # summing f over all gcd classes counts every ordered pair of
        # distinct grid points: n^2 (n^2 - 1)
        for n in range(2, 41):
            total = sum(
                f_fast(GridQuery(n, q), table100) for q in range(1, n)
            )
            assert total == n**2 * (n**2 - 1), n

    def test_table_too_small(self):
        from gridcount import build_totient_table

        t = build_totient_table(5)
        with pytest.raises(ValueError, match="need at least 9"):
            f_fast(GridQuery(10, 1), t)

    def test_minimal_table_suffices(self):
        from gridcount import build_totient_table

        t = build_totient_table(max(1, table_limit_for(10, 3)))
        assert f_fast(GridQuery(10, 3), t) == f_direct(GridQuery(10, 3))


class TestLemmaDecomposition:
    def test_shape(self, table100):
        d = decompose_lemma(GridQuery(2, 1), table100)
        assert (d.m, d.t) == (2, 0)
        assert d.recombined() == f_fast(GridQuery(3, 1), table100) == 56

    def test_remainder_case(self, table100):
        d = decompose_lemma(GridQuery(5, 2), table100)
        assert (d.m, d.t) == (2, 1)
        assert d.recombined() == f_fast(GridQuery(6, 2), table100)

    def test_q_above_n(self, table100):
        d = decompose_lemma(GridQuery(3, 5), table100)
        assert (d.m, d.t) == (0, 3)
        assert d.s1_doubled == 0 and d.s2_doubled == 0
        assert d.recombined() == f_fast(GridQuery(4, 5), table100) == 0

    def test_identity_range(self, table100):
        for n in range(1, 26):
            for q in range(1, 11):
                d = decompose_lemma(GridQuery(n, q), table100)
                assert 0 <= d.t < q
                assert n == q * d.m + d.t
                assert d.recombined() == f_fast(GridQuery(n + 1, q), table100), (n, q)


class TestDerivedCounts:
    def test_segments(self, table100):
        assert segments_count(2, 2, table100) == 6
        assert segments_count(3, 3, table100) == 8
        assert segments_count(2, 3, table100) == 0

    def test_segments_bad_p(self, table100):
        with pytest.raises(ValueError):
            segments_count(3, 1, table100)

    def test_lines_at_least(self, table100):
        assert lines_at_least(3, 2, table100) == 20
        assert lines_at_least(2, 2, table100) == 6
        assert lines_at_least(2, 3, table100) == 0

    def test_lines_exactly(self, table100):
        assert lines_exactly(3, 2, table100) == 12
        assert lines_exactly(3, 3, table100) == 8
        assert lines_exactly(4, 5, table100) == 0

    def test_lines_need_q2(self, table100):
        with pytest.raises(ValueError):
            lines_at_least(3, 1, table100)
        with pytest.raises(ValueError):
            lines_exactly(3, 1, table100)

    def test_at_least_telescopes(self, table100):
        for n in range(2, 21):
            for q in range(2, n + 1):
                total = sum(lines_exactly(n, p, table100) for p in range(q, n + 1))
                assert lines_at_least(n, q, table100) == total, (n, q)
            assert lines_at_least(n, n + 1, table100) == 0

    def test_line_pair_identity(self, table100):
        # every unordered pair of grid points lies on exactly one line
        for n in range(2, 26):
            total = sum(
                math.comb(q, 2) * lines_exactly(n, q, table100)
                for q in range(2, n + 1)
            )
            assert total == math.comb(n * n, 2), n

    def test_threshold(self, table100):
        assert threshold_count(1, table100) == 2
        assert threshold_count(2, table100) == 14
        assert threshold_count(3, table100) == 58

    def test_count_set(self, table100):
        cs = count_set(3, 2, table100)
        assert (cs.f, cs.segments) == (16, 8)
        assert (cs.lines_at_least, cs.lines_exactly) == (20, 12)

    def test_count_set_q1(self, table100):
        cs = count_set(3, 1, table100)
        assert (cs.f, cs.segments) == (56, 28)
        assert cs.lines_at_least is None and cs.lines_exactly is None

    def test_count_set_cross_checks(self, table100):
        for n in (5, 9, 14):
            for q in range(2, 7):
                cs = count_set(n, q, table100)
                assert cs.segments == segments_count(n, q + 1, table100)
                assert cs.lines_exactly == lines_at_least(
                    n, q, table100
                ) - lines_at_least(n, q + 1, table100)


class TestTableLimitFor:
    def test_fq(self):
        assert table_limit_for(10, 3) == 3
        assert table_limit_for(10, 1) == 9
        assert table_limit_for(1, 1) == 0

    def test_lines(self):
        assert table_limit_for(10, 2, lines=True) == 9
        assert table_limit_for(10, 3, lines=True) == 4
        assert table_limit_for(10, 1, lines=False) == 9

    def test_validates_before_sizing(self):
        with pytest.raises(ValueError, match="gcd class q must be >= 1, got 0"):
            table_limit_for(5, 0)
        with pytest.raises(ValueError, match="grid side n must be >= 1"):
            table_limit_for(0, 1, lines=True)
        with pytest.raises(ResourceLimitError, match="supported maximum"):
            table_limit_for(10**11, 1)
