"""Totient table, summatory function, error terms, partial summation."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridcount import (
    PI_SQUARED,
    ResourceLimitError,
    build_totient_table,
    check_partial_summation,
    e_phi,
    e_r,
    iter_error_terms,
    summatory_phi,
)


def phi_by_definition(k: int) -> int:
    return sum(1 for j in range(1, k + 1) if math.gcd(j, k) == 1)


def reference_table(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """phi(0..limit) and its prefix sums by the plain per-prime sieve.

    Walks every p <= limit in Python, so it is slow but shares no code or
    method with build_totient_table.
    """
    phi = np.arange(limit + 1, dtype=np.int32)
    is_comp = np.zeros(limit + 1, dtype=bool)
    for p in range(2, limit + 1):
        if is_comp[p]:
            continue
        phi[p::p] -= phi[p::p] // p
        if p * p <= limit:
            is_comp[p * p :: p] = True
    return phi, np.cumsum(phi, dtype=np.int64)


class TestSieveCrossCheck:
    """build_totient_table against the per-prime reference sieve."""

    def test_every_limit_to_2000(self):
        # covers p^2 and p^2 +- 1 for every p <= 43 and, at every limit,
        # indices whose largest prime factor exceeds sqrt(limit)
        ref_phi, ref_prefix = reference_table(2000)
        for limit in range(1, 2001):
            t = build_totient_table(limit)
            assert t.limit == limit
            assert np.array_equal(t.phi, ref_phi[: limit + 1]), limit
            assert np.array_equal(t.phi_prefix, ref_prefix[: limit + 1]), limit

    def test_full_array_at_one_million(self):
        ref_phi, ref_prefix = reference_table(10**6)
        t = build_totient_table(10**6)
        assert np.array_equal(t.phi, ref_phi)
        assert np.array_equal(t.phi_prefix, ref_prefix)

    @pytest.mark.parametrize("limit", [1, 2, 4, 1000, 10**5])
    def test_layout(self, limit):
        t = build_totient_table(limit)
        assert t.phi.dtype == np.int32 and t.phi_prefix.dtype == np.int64
        assert t.phi.shape == t.phi_prefix.shape == (limit + 1,)
        for arr in (t.phi, t.phi_prefix):
            assert not arr.flags.writeable
            assert arr.flags.c_contiguous

    def test_peak_memory_is_the_table(self):
        # the finished table is 4 + 8 = 12 bytes per entry; the sieve may
        # not hold a second full-size int64 array on top of it
        limit = 10**6
        tracemalloc.start()
        try:
            t = build_totient_table(limit)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert t.limit == limit
        assert peak <= 13 * (limit + 1), peak / (limit + 1)


class TestSieve:
    def test_limit_one(self):
        t = build_totient_table(1)
        assert t.limit == 1
        assert int(t.phi[1]) == 1
        assert int(t.phi_prefix[1]) == 1

    def test_small_values(self, table100):
        assert int(table100.phi[7]) == 6
        assert int(table100.phi[12]) == 4
        assert int(table100.phi[1]) == 1

    def test_matches_definition(self, table100):
        for k in range(1, 101):
            assert int(table100.phi[k]) == phi_by_definition(k), k

    def test_prime_values(self, table100):
        for p in (2, 3, 5, 7, 11, 13, 97):
            assert int(table100.phi[p]) == p - 1

    def test_divisor_sum_identity(self, table100):
        # sum of phi(d) over divisors d of k equals k
        for k in range(1, 101):
            total = sum(int(table100.phi[d]) for d in range(1, k + 1) if k % d == 0)
            assert total == k

    def test_prefix_consistent(self, table100):
        diffs = np.diff(table100.phi_prefix)
        assert np.array_equal(diffs, table100.phi[1:])
        assert int(table100.phi_prefix[0]) == 0

    def test_prefix_strictly_increasing(self, table100):
        assert np.all(np.diff(table100.phi_prefix) > 0)

    def test_arrays_read_only(self, table100):
        with pytest.raises(ValueError):
            table100.phi[3] = 0
        with pytest.raises(ValueError):
            table100.phi_prefix[3] = 0

    def test_bad_limit(self):
        with pytest.raises(ValueError):
            build_totient_table(0)
        with pytest.raises(ValueError):
            build_totient_table(-5)

    def test_budget_env_override(self, monkeypatch):
        monkeypatch.setenv("GRIDCOUNT_SIEVE_LIMIT", "50")
        with pytest.raises(ResourceLimitError):
            build_totient_table(51)
        t = build_totient_table(50)
        assert t.limit == 50

    def test_budget_env_invalid(self, monkeypatch):
        monkeypatch.setenv("GRIDCOUNT_SIEVE_LIMIT", "lots")
        with pytest.raises(ValueError):
            build_totient_table(10)


class TestSummatory:
    def test_values(self, table100):
        assert summatory_phi(table100, 1) == 1
        assert summatory_phi(table100, 4) == 6
        assert summatory_phi(table100, 10) == 32

    def test_range_check(self, table100):
        with pytest.raises(ValueError):
            summatory_phi(table100, 0)
        with pytest.raises(ValueError):
            summatory_phi(table100, 101)


class TestErrorTerms:
    def test_e_phi_values(self, table100):
        assert e_phi(table100, 1) == pytest.approx(1 - 3 / PI_SQUARED, rel=1e-14)
        assert e_phi(table100, 4) == pytest.approx(6 - 48 / PI_SQUARED, rel=1e-14)
        assert e_phi(table100, 10) == pytest.approx(32 - 300 / PI_SQUARED, rel=1e-14)

    def test_e_r_values(self, table100):
        assert e_r(table100, 1) == pytest.approx(1 - 4.5 / PI_SQUARED, rel=1e-12)
        # sum of Phi(1) + Phi(2) is 3, and the subtracted term is 21 / pi^2
        assert e_r(table100, 2) == pytest.approx(3 - 21 / PI_SQUARED, rel=1e-12)
        assert e_r(table100, 5) == pytest.approx(23 - 202.5 / PI_SQUARED, rel=1e-12)

    def test_e_r_single_rounding(self, table10k):
        # reference value with the whole correction kept rational
        two_pi2 = Fraction(2.0 * PI_SQUARED)
        for i in (3, 17, 100, 999, 10**4):
            s = sum(summatory_phi(table10k, j) for j in range(1, i + 1))
            w = 6 * (i * (i + 1) * (2 * i + 1) // 6) + 3 * i * i
            expected = float(Fraction(s) - Fraction(w) / two_pi2)
            assert e_r(table10k, i) == expected

    def test_e_r_agrees_with_float_path(self, table10k):
        # naive accumulation of e_phi floats stays within 1e-6 of the exact path
        acc = 0.0
        for i in range(1, 501):
            acc += e_phi(table10k, i)
            naive = acc - 3.0 * i * i / (2.0 * PI_SQUARED)
            assert abs(e_r(table10k, i) - naive) <= 1e-6, i

    def test_envelope_small(self, table10k):
        # |e_phi(m)| <= 10 m log(m + 2), loose version of the growth bound
        pre = table10k.phi_prefix
        for m in range(1, 10**4 + 1):
            bound = 10.0 * m * math.log(m + 2)
            assert abs(float(pre[m]) - 3.0 * m * m / PI_SQUARED) <= bound, m

    def test_range_checks(self, table100):
        for fn in (e_phi, e_r):
            with pytest.raises(ValueError):
                fn(table100, 0)
            with pytest.raises(ValueError):
                fn(table100, 101)


class TestIterErrorTerms:
    def test_matches_pointwise(self, table100):
        rows = list(iter_error_terms(table100, 20))
        assert [r[0] for r in rows] == list(range(1, 21))
        for m, phi_sum, ep, er in rows:
            assert phi_sum == summatory_phi(table100, m)
            assert ep == e_phi(table100, m)
            assert er == e_r(table100, m)

    def test_every(self, table100):
        rows = list(iter_error_terms(table100, 50, every=10))
        assert [r[0] for r in rows] == [10, 20, 30, 40, 50]

    def test_bad_args(self, table100):
        with pytest.raises(ValueError):
            list(iter_error_terms(table100, 0))
        with pytest.raises(ValueError):
            list(iter_error_terms(table100, 200))
        with pytest.raises(ValueError):
            list(iter_error_terms(table100, 10, every=0))


class TestPartialSummation:
    def test_single_term(self):
        assert check_partial_summation([1.0], [5.0])

    def test_constant_b(self):
        assert check_partial_summation([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])

    def test_totient_weighted_squares(self, table100):
        a = [float(table100.phi[i]) for i in range(1, 11)]
        b = [float(i * i) for i in range(1, 11)]
        assert check_partial_summation(a, b)

    def test_thousand_random_sequences(self):
        rng = random.Random(20260819)
        for _ in range(1000):
            n = rng.randint(1, 64)
            a = [rng.uniform(-10, 10) for _ in range(n)]
            b = [rng.uniform(-10, 10) for _ in range(n)]
            assert check_partial_summation(a, b)

    @given(
        st.lists(
            st.tuples(
                st.floats(-100, 100, allow_nan=False),
                st.floats(-100, 100, allow_nan=False),
            ),
            min_size=1,
            max_size=64,
        )
    )
    @example([(92.0, 0.0), (0.0, 49.19171764007629), (0.0, -40.17744843210911)])
    @settings(max_examples=200)
    def test_property(self, pairs):
        a = [p[0] for p in pairs]
        b = [p[1] for p in pairs]
        assert check_partial_summation(a, b)

    def test_bad_input(self):
        with pytest.raises(ValueError):
            check_partial_summation([], [])
        with pytest.raises(ValueError):
            check_partial_summation([1.0], [1.0, 2.0])
