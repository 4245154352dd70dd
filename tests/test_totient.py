"""Totient table, summatory function, error terms."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcount import totient
from gridcount import (
    PI_SQUARED,
    SIEVE_LIMIT,
    ResourceLimitError,
    build_totient_table,
    e_phi,
    e_r,
    iter_error_terms,
    summatory_phi,
    totient_moments,
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


def reference_moments(phi: np.ndarray) -> list[tuple[int, int, int]]:
    """(S_0, S_1, S_2) at every m <= len(phi) - 1, as Python-int prefix sums."""
    moments = [(0, 0, 0)]
    for i, v in enumerate(phi.tolist()[1:], start=1):
        s0, s1, s2 = moments[-1]
        moments.append((s0 + v, s1 + i * v, s2 + i * i * v))
    return moments


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
            assert totient_moments(t, [limit])[0][0] == ref_prefix[limit], limit

    def test_pure_sieve_every_limit_to_2000(self):
        # the presieve of every point query up to m = 2^24, and its moments
        ref_phi, _ = reference_table(2000)
        ref = ref_phi.tolist()
        for limit in range(2001):
            assert totient._phi_list(limit) == ref[: limit + 1], limit
        # the reference sieve shares the pure sieve's per-prime update, so
        # check it by the gcd count too
        assert ref[:301] == [0] + [phi_by_definition(k) for k in range(1, 301)]
        ref_moments = reference_moments(ref_phi)
        ms = [2, 3, 4, 5, 30, 31, 32, 1024, 1999, 2000]
        assert list(totient._pure_stream(ms)) == [(m, ref_moments[m]) for m in ms]
        assert list(totient._pure_stream([])) == []

    @pytest.mark.parametrize("row, rows", [(7, 4), (64, 1)], ids=["7", "64"])
    def test_small_blocks(self, monkeypatch, row, rows):
        # shrink the chain of sizes to rows of 7 or 64 entries and batches
        # of 28 or 64: blocks are then 4 to 64 batches instead of 2^16 to
        # 2^20 entries, so every limit here is split into many blocks, prime
        # powers straddle block edges, and the walk crosses them
        monkeypatch.setattr(totient, "_ROW", row)
        monkeypatch.setattr(totient, "_ROWS", rows)
        ref_phi, _ = reference_table(2000)
        ref_moments = reference_moments(ref_phi)
        for limit in range(1, 2001):
            sieved = np.zeros(limit + 1, dtype=np.int32)
            edges = [0]

            def collect(blocks):
                # what build_totient_table keeps, taken from the walk's own blocks
                for lo, hi, block in blocks:
                    assert lo == edges[-1] and lo % (row * rows) == 0, (limit, lo)
                    sieved[lo:hi] = block
                    edges.append(hi)
                    yield lo, hi, block

            ms = [0, limit // 3, limit // 2, limit - 1, limit]
            walked = list(totient._walk(collect(totient._sieve_blocks(limit)), ms))
            assert edges[-1] == limit + 1, limit
            assert np.array_equal(sieved, ref_phi[: limit + 1]), limit
            assert walked == [(m, ref_moments[m]) for m in ms], limit

    @pytest.mark.parametrize("blocks", [1, 2])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_block_edges(self, blocks, offset):
        # 2^16 entries, the block of every sieve up to 2^20
        limit = blocks * totient._block_size(1) + offset
        ref_phi, ref_prefix = reference_table(limit)
        t = build_totient_table(limit)
        assert np.array_equal(t.phi, ref_phi)
        assert np.array_equal(np.cumsum(t.phi, dtype=np.int64), ref_prefix)
        ms = [limit - 1, limit]
        assert [s0 for _, (s0, _, _) in totient._stream(ms)] == ref_prefix[ms].tolist()

    def test_full_array_at_one_million(self):
        ref_phi, ref_prefix = reference_table(10**6)
        t = build_totient_table(10**6)
        assert np.array_equal(t.phi, ref_phi)
        assert np.array_equal(np.cumsum(t.phi, dtype=np.int64), ref_prefix)
        assert summatory_phi(10**6) == ref_prefix[-1]

    @pytest.mark.parametrize("limit", [1, 2, 4, 1000, 10**5])
    def test_layout(self, limit):
        t = build_totient_table(limit)
        assert [f.name for f in dataclasses.fields(t)] == ["limit", "phi"]
        assert t.phi.dtype == np.int32
        assert t.phi.shape == (limit + 1,)
        assert not t.phi.flags.writeable
        assert t.phi.flags.c_contiguous

    def test_peak_memory_is_the_table(self):
        # the finished table is 4 bytes per entry; the sieve may add only
        # block-sized buffers (three int32 blocks of about limit / 16 entries)
        limit = 10**6
        tracemalloc.start()
        try:
            t = build_totient_table(limit)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert t.limit == limit
        assert peak <= 5 * (limit + 1), peak / (limit + 1)


class TestSieve:
    def test_limit_one(self):
        t = build_totient_table(1)
        assert t.limit == 1
        assert int(t.phi[1]) == 1
        assert summatory_phi(1) == 1

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
        pre = [0] + [summatory_phi(i) for i in range(1, 101)]
        assert np.array_equal(np.diff(pre), table100.phi[1:])

    def test_prefix_strictly_increasing(self):
        pre = [summatory_phi(i) for i in range(1, 101)]
        assert np.all(np.diff(pre) > 0)

    def test_arrays_read_only(self, table100):
        with pytest.raises(ValueError):
            table100.phi[3] = 0

    def test_bad_limit(self):
        with pytest.raises(ValueError):
            build_totient_table(0)
        with pytest.raises(ValueError):
            build_totient_table(-5)

    def test_limit_is_a_plain_int(self):
        t = build_totient_table(np.int64(10))
        assert type(t.limit) is int and t.limit == 10
        for bad in (True, 10.0):
            with pytest.raises(TypeError):
                build_totient_table(bad)

    def test_limit_raises_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=f"exceeds budget {SIEVE_LIMIT}$"):
                build_totient_table(SIEVE_LIMIT + 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak


class TestSummatory:
    def test_values(self):
        assert summatory_phi(1) == 1
        assert summatory_phi(4) == 6
        assert summatory_phi(10) == 32

    def test_range_check(self):
        with pytest.raises(ValueError, match="index i must be >= 1, got 0"):
            summatory_phi(0)


class TestErrorTerms:
    def test_e_phi_values(self):
        assert e_phi(1) == pytest.approx(1 - 3 / PI_SQUARED, rel=1e-14)
        assert e_phi(4) == pytest.approx(6 - 48 / PI_SQUARED, rel=1e-14)
        assert e_phi(10) == pytest.approx(32 - 300 / PI_SQUARED, rel=1e-14)

    def test_e_r_values(self):
        assert e_r(1) == pytest.approx(1 - 4.5 / PI_SQUARED, rel=1e-12)
        # sum of Phi(1) + Phi(2) is 3, and the subtracted term is 21 / pi^2
        assert e_r(2) == pytest.approx(3 - 21 / PI_SQUARED, rel=1e-12)
        assert e_r(5) == pytest.approx(23 - 202.5 / PI_SQUARED, rel=1e-12)

    @staticmethod
    def e_r_by_fraction(second: int, i: int) -> float:
        """e_r from sum_{j<=i} Phi(j), with the whole correction kept rational."""
        w = 6 * (i * (i + 1) * (2 * i + 1) // 6) + 3 * i * i
        return float(Fraction(second) - Fraction(w) / Fraction(2.0 * PI_SQUARED))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_e_r_single_rounding(self, data):
        i = data.draw(st.integers(1, 10**8), label="i")
        second = data.draw(st.integers(0, i**3), label="second")
        assert totient._e_r_from_prefix(second, i) == self.e_r_by_fraction(second, i)

    def test_e_r_exact_points(self, table10k):
        # Phi(j) is a plain cumsum of the sieve, no moment walk
        big_phi = np.cumsum(table10k.phi, dtype=np.int64).tolist()
        for i in (3, 17, 100, 999, 10**4):
            assert e_r(i) == self.e_r_by_fraction(sum(big_phi[1 : i + 1]), i)

    def test_e_r_at_the_sieve_limit(self):
        # Phi(10^8) = 3039635516365908 is OEIS A064018; the prefix sum of
        # Phi is pinned from the moment recursion, which the tests above
        # check against the sieve at smaller i
        i = 10**8
        assert summatory_phi(i) == 3039635516365908
        assert e_r(i) == self.e_r_by_fraction(101321186681952744908295, i)

    def test_e_r_agrees_with_float_path(self):
        # naive accumulation of e_phi floats stays within 1e-6 of the exact path
        acc = 0.0
        for i, _, ep, er in iter_error_terms(500):
            acc += ep
            naive = acc - 3.0 * i * i / (2.0 * PI_SQUARED)
            assert abs(er - naive) <= 1e-6, i

    def test_envelope_small(self, table10k):
        # |e_phi(m)| <= 10 m log(m + 2), loose version of the growth bound
        pre = np.cumsum(table10k.phi, dtype=np.int64)
        for m in range(1, 10**4 + 1):
            bound = 10.0 * m * math.log(m + 2)
            assert abs(float(pre[m]) - 3.0 * m * m / PI_SQUARED) <= bound, m

    def test_range_checks(self):
        for fn in (e_phi, e_r):
            with pytest.raises(ValueError, match="index i must be >= 1, got 0"):
                fn(0)


class TestIterErrorTerms:
    def test_matches_pointwise(self):
        rows = list(iter_error_terms(20))
        assert [r[0] for r in rows] == list(range(1, 21))
        for m, phi_sum, ep, er in rows:
            assert phi_sum == summatory_phi(m)
            assert ep == e_phi(m)
            assert er == e_r(m)

    def test_every(self):
        rows = list(iter_error_terms(50, every=10))
        assert [r[0] for r in rows] == [10, 20, 30, 40, 50]

    def test_sieves_to_the_last_row(self, monkeypatch):
        # to the last row's m, not to m_max; with no row it never sieves
        limits = []
        sieve = totient._sieve_blocks

        def record(limit):
            limits.append(limit)
            return sieve(limit)

        monkeypatch.setattr(totient, "_sieve_blocks", record)
        assert [r[0] for r in iter_error_terms(100, every=30)] == [30, 60, 90]
        assert limits == [90]
        limits.clear()
        assert list(iter_error_terms(10, every=20)) == []
        assert limits == []

    def test_bad_args(self):
        with pytest.raises(ValueError, match="m_max must be >= 1, got 0"):
            list(iter_error_terms(0))
        with pytest.raises(ValueError, match="every must be >= 1, got 0"):
            list(iter_error_terms(10, every=0))

    @pytest.mark.parametrize(
        "m_max, every, exc",
        [
            (0, 1, ValueError),
            (SIEVE_LIMIT + 1, 1, ResourceLimitError),
            (10, 0, ValueError),
            (10, True, TypeError),
        ],
    )
    def test_bad_args_raise_at_the_call(self, m_max, every, exc):
        with pytest.raises(exc):
            iter_error_terms(m_max, every=every)


def reference_error_term_rows(table, m_max, every):
    """The cumsum-and-carry stream iter_error_terms used before the moment walk."""
    chunk = 1 << 16
    phi_sum = 0
    second = 0
    for lo in range(1, m_max + 1, chunk):
        hi = min(lo + chunk, m_max + 1)
        pre = np.cumsum(table.phi[lo:hi], dtype=np.int64)
        pre += phi_sum
        phi_sum = int(pre[-1])
        for off, value in enumerate(pre.tolist()):
            m = lo + off
            second += value
            if m % every == 0:
                yield (
                    m,
                    value,
                    totient._e_phi_from_sum(value, m),
                    totient._e_r_from_prefix(second, m),
                )


class TestStreamAgainstReference:
    @pytest.fixture(scope="class")
    def table(self):
        return build_totient_table(2**16 + 1)

    @pytest.mark.parametrize("every", [1, 7, 2**11 - 1, 2**11 + 1, 2**14 - 1, 2**14 + 1])
    def test_rows_equal(self, table, every):
        reference = list(reference_error_term_rows(table, 2**16 + 1, every))
        for m_max in (2**16 - 1, 2**16, 2**16 + 1):
            rows = list(iter_error_terms(m_max, every))
            assert rows == [r for r in reference if r[0] <= m_max], (m_max, every)

    def test_point_queries_past_2_to_the_24(self, monkeypatch):
        i = 2**24 + 5
        t = build_totient_table(i)
        with monkeypatch.context() as patch:
            # the stream walks this table, as one block, instead of sieving
            # phi a second time
            patch.setattr(totient, "_sieve_blocks", lambda limit: [(0, t.limit + 1, t.phi)])
            ((m, phi_sum, ep, er),) = iter_error_terms(i, every=i)
        assert m == i
        assert phi_sum == int(t.phi.sum(dtype=np.int64))
        assert summatory_phi(i) == phi_sum
        assert e_phi(i) == ep
        assert e_r(i) == er

    @pytest.mark.parametrize("i", [2**18, 2**18 + 1, 4_244_361, 4_244_362])
    def test_point_queries_equal_the_stream_row(self, i):
        # either side of the presieve rule's old switches: a sieve to i up
        # to 2^18, then a presieve of 2^18 up to 4,244,361
        ((m, phi_sum, ep, er),) = iter_error_terms(i, every=i)
        assert m == i
        assert summatory_phi(i) == phi_sum
        assert e_phi(i) == ep
        assert e_r(i) == er


class TestIntegerArguments:
    @pytest.mark.parametrize("fn", [summatory_phi, e_phi, e_r])
    def test_numpy_index_is_a_plain_int(self, fn):
        for i in (1, 17, 100):
            plain = fn(i)
            value = fn(np.int64(i))
            assert value == plain and type(value) is type(plain)

    def test_numpy_index_past_int64_cubes(self):
        # i (i + 1) (2i + 1) wraps int64 from i ~ 1.66e6
        value = e_r(np.int64(3_000_000))
        assert value == e_r(3_000_000) and type(value) is float

    def test_numpy_stream_arguments(self):
        rows = list(iter_error_terms(np.int64(50), every=np.int32(7)))
        assert rows == list(iter_error_terms(50, every=7))
        assert all(type(r[0]) is int for r in rows)

    @pytest.mark.parametrize("fn", [summatory_phi, e_phi, e_r])
    def test_bool_and_float_raise(self, fn):
        with pytest.raises(TypeError, match="must be an integer"):
            fn(True)
        with pytest.raises(TypeError):
            fn(2.0)

    def test_stream_bool_and_float_raise(self):
        with pytest.raises(TypeError, match="must be an integer"):
            list(iter_error_terms(10, every=True))
        with pytest.raises(TypeError):
            list(iter_error_terms(10.0))
