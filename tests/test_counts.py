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
    e_phi,
    e_r,
    f_direct,
    f_fast,
    f_from_moments,
    iter_error_terms,
    lines_at_least,
    lines_exactly,
    main_term_f,
    main_term_lines_eq,
    main_term_lines_ge,
    oracle_line_histogram,
    oracle_segments,
    oracle_threshold_count,
    residual,
    scan_residuals,
    segments_count,
    summatory_phi,
    threshold_count,
    totient_moments,
)
from gridcount.totient import _sublinear_moments


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


class TestIntegerBoundary:
    """numpy integers give the plain-int answers, as plain ints; the rest raise."""

    N = 70_000  # f_1(N) > 2^63, so int64 arithmetic on n would wrap
    CALLS = {
        "f_fast": lambda n, q: f_fast(GridQuery(n, q)),
        "count_set.f": lambda n, q: count_set(n, q).f,
        "count_set.lines": lambda n, q: count_set(n, q + 1).lines_exactly,
        "lines_at_least": lambda n, q: lines_at_least(n, q + 1),
        "lines_exactly": lambda n, q: lines_exactly(n, q + 1),
        "segments_count": lambda n, q: segments_count(n, q + 1),
        "threshold_count": lambda n, q: threshold_count(n),
        "scan_residuals": lambda n, q: scan_residuals(q, [n])[0].exact,
    }

    def test_f_past_int64(self):
        f = f_fast(GridQuery(np.int64(self.N), 1))
        assert type(f) is int and f == 14596329779609205212

    @pytest.mark.parametrize("np_int", [np.int32, np.int64])
    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_numpy_integers(self, np_int, name):
        call = self.CALLS[name]
        got = call(np_int(self.N), np_int(1))
        assert type(got) is int
        assert got == call(self.N, 1)

    @pytest.mark.parametrize("np_int", [np.int32, np.int64])
    def test_fields_are_plain_ints(self, np_int):
        n, q = np_int(self.N), np_int(2)
        query = GridQuery(n, q)
        cs = count_set(n, q)
        (row,) = scan_residuals(q, [n])
        for v in (query.n, query.q, cs.n, cs.q, row.n, row.q):
            assert type(v) is int
        assert residual(n, q) == residual(self.N, 2)

    @pytest.mark.parametrize("bad", [2.5, True, np.float64(3.0), np.True_])
    def test_non_integers_raise(self, bad):
        with pytest.raises(TypeError):
            GridQuery(bad, 1)
        with pytest.raises(TypeError):
            GridQuery(3, bad)
        with pytest.raises(TypeError):
            segments_count(3, bad)
        with pytest.raises(TypeError):
            lines_at_least(3, bad)
        with pytest.raises(TypeError):
            lines_exactly(3, bad)
        with pytest.raises(TypeError):
            scan_residuals(1, [bad])

    def test_f_from_moments_past_int64(self):
        m = self.N - 1
        (moments,) = totient_moments(build_totient_table(m), [m])
        f = f_from_moments(np.int64(self.N), np.int64(1), moments)
        assert type(f) is int and f == f_fast(GridQuery(self.N, 1))
        with pytest.raises(TypeError):
            f_from_moments(True, 1, moments)
        with pytest.raises(TypeError):
            f_from_moments(self.N, True, moments)

    # every library argument with a least value: (call on the value, what, least)
    RANGE_RULE = {
        "GridQuery.n": (lambda v: GridQuery(v, 1), "grid side n", 1),
        "GridQuery.q": (lambda v: GridQuery(1, v), "gcd class q", 1),
        "f_from_moments.n": (
            lambda v: f_from_moments(v, 1, (1, 1, 1)), "grid side n", 1
        ),
        "f_from_moments.q": (
            lambda v: f_from_moments(5, v, (1, 1, 1)), "gcd class q", 1
        ),
        "lines_at_least.q": (lambda v: lines_at_least(5, v), "line size q", 2),
        "lines_exactly.q": (lambda v: lines_exactly(5, v), "line size q", 2),
        "segments_count.p": (lambda v: segments_count(5, v), "segment size p", 2),
        "main_term_f.n": (lambda v: main_term_f(v, 1), "grid side n", 1),
        "main_term_f.q": (lambda v: main_term_f(5, v), "gcd class q", 1),
        "main_term_lines_ge.n": (lambda v: main_term_lines_ge(v, 2), "grid side n", 1),
        "main_term_lines_ge.q": (lambda v: main_term_lines_ge(5, v), "line size q", 2),
        "main_term_lines_eq.n": (lambda v: main_term_lines_eq(v, 2), "grid side n", 1),
        "main_term_lines_eq.q": (lambda v: main_term_lines_eq(5, v), "line size q", 2),
        "scan_residuals.n": (lambda v: scan_residuals(1, [v, 5]), "grid side n", 1),
        "build_totient_table": (build_totient_table, "sieve limit", 1),
        "totient_moments.m": (
            lambda v: totient_moments(build_totient_table(10), [5, v]), "m", 0
        ),
        "_sublinear_moments.m": (lambda v: _sublinear_moments([5, v]), "m", 0),
        "summatory_phi": (summatory_phi, "index i", 1),
        "e_phi": (e_phi, "index i", 1),
        "e_r": (e_r, "index i", 1),
        "iter_error_terms.m_max": (iter_error_terms, "m_max", 1),
        "iter_error_terms.every": (lambda v: iter_error_terms(10, v), "every", 1),
        "oracle_line_histogram": (oracle_line_histogram, "grid side", 2),
        "oracle_segments.n": (lambda v: oracle_segments(v, 2), "grid side", 2),
        "oracle_segments.p": (lambda v: oracle_segments(5, v), "segment size p", 2),
        "oracle_threshold_count": (oracle_threshold_count, "grid side", 1),
    }

    @pytest.mark.parametrize("name", sorted(RANGE_RULE))
    def test_below_least_raises_one_message(self, name):
        call, what, least = self.RANGE_RULE[name]
        with pytest.raises(ValueError) as info:
            call(least - 1)
        assert str(info.value) == f"{what} must be >= {least}, got {least - 1}"


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
    def test_known_values(self):
        assert f_fast(GridQuery(2, 1)) == 12
        assert f_fast(GridQuery(3, 1)) == 56
        assert f_fast(GridQuery(5, 7)) == 0

    def test_matches_direct_small(self):
        for n in range(1, 16):
            for q in range(1, 8):
                assert f_fast(GridQuery(n, q)) == f_direct(
                    GridQuery(n, q)
                ), (n, q)

    @given(n=st.integers(1, 30), q=st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_matches_direct_property(self, n, q):
        assert f_fast(GridQuery(n, q)) == f_direct(GridQuery(n, q))

    def test_always_even(self):
        for n in range(1, 40):
            for q in (1, 2, 3):
                assert f_fast(GridQuery(n, q)) % 2 == 0

    def test_monotone_in_n(self):
        prev = 0
        for n in range(2, 60):
            cur = f_fast(GridQuery(n, 1))
            assert cur > prev
            prev = cur

    def test_pair_partition(self):
        # summing f over all gcd classes counts every ordered pair of
        # distinct grid points: n^2 (n^2 - 1)
        for n in range(2, 41):
            total = sum(
                f_fast(GridQuery(n, q)) for q in range(1, n)
            )
            assert total == n**2 * (n**2 - 1), n


class TestLemmaDecomposition:
    def test_shape(self, table100):
        d = decompose_lemma(GridQuery(2, 1), table100)
        assert (d.m, d.t) == (2, 0)
        assert d.recombined() == f_fast(GridQuery(3, 1)) == 56

    def test_remainder_case(self, table100):
        d = decompose_lemma(GridQuery(5, 2), table100)
        assert (d.m, d.t) == (2, 1)
        assert d.recombined() == f_fast(GridQuery(6, 2))

    def test_q_above_n(self, table100):
        d = decompose_lemma(GridQuery(3, 5), table100)
        assert (d.m, d.t) == (0, 3)
        assert d.s1_doubled == 0 and d.s2_doubled == 0
        assert d.recombined() == f_fast(GridQuery(4, 5)) == 0

    def test_identity_range(self, table100):
        for n in range(1, 26):
            for q in range(1, 11):
                d = decompose_lemma(GridQuery(n, q), table100)
                assert 0 <= d.t < q
                assert n == q * d.m + d.t
                assert d.recombined() == f_fast(GridQuery(n + 1, q)), (n, q)


class TestDerivedCounts:
    def test_segments(self):
        assert segments_count(2, 2) == 6
        assert segments_count(3, 3) == 8
        assert segments_count(2, 3) == 0

    def test_segments_bad_p(self):
        with pytest.raises(ValueError):
            segments_count(3, 1)

    def test_lines_at_least(self):
        assert lines_at_least(3, 2) == 20
        assert lines_at_least(2, 2) == 6
        assert lines_at_least(2, 3) == 0

    def test_lines_exactly(self):
        assert lines_exactly(3, 2) == 12
        assert lines_exactly(3, 3) == 8
        assert lines_exactly(4, 5) == 0

    def test_lines_need_q2(self):
        with pytest.raises(ValueError):
            lines_at_least(3, 1)
        with pytest.raises(ValueError):
            lines_exactly(3, 1)

    def test_at_least_telescopes(self):
        for n in range(2, 21):
            for q in range(2, n + 1):
                total = sum(lines_exactly(n, p) for p in range(q, n + 1))
                assert lines_at_least(n, q) == total, (n, q)
            assert lines_at_least(n, n + 1) == 0

    def test_line_pair_identity(self):
        # every unordered pair of grid points lies on exactly one line
        for n in range(2, 26):
            total = sum(
                math.comb(q, 2) * lines_exactly(n, q)
                for q in range(2, n + 1)
            )
            assert total == math.comb(n * n, 2), n

    def test_threshold(self):
        assert threshold_count(1) == 2
        assert threshold_count(2) == 14
        assert threshold_count(3) == 58

    def test_count_set(self):
        cs = count_set(3, 2)
        assert (cs.f, cs.segments) == (16, 8)
        assert (cs.lines_at_least, cs.lines_exactly) == (20, 12)

    def test_count_set_q1(self):
        cs = count_set(3, 1)
        assert (cs.f, cs.segments) == (56, 28)
        assert cs.lines_at_least is None and cs.lines_exactly is None

    def test_count_set_cross_checks(self):
        for n in (5, 9, 14):
            for q in range(2, 7):
                cs = count_set(n, q)
                assert cs.segments == segments_count(n, q + 1)
                assert cs.lines_exactly == lines_at_least(n, q) - lines_at_least(
                    n, q + 1
                )

