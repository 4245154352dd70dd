"""The exact moment kernel behind every fast count: totient_moments."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcount import (
    CountSet,
    GridQuery,
    ResourceLimitError,
    TotientTable,
    build_totient_table,
    count_set,
    e_phi,
    e_r,
    f_direct,
    f_fast,
    f_from_moments,
    summatory_phi,
    totient_moments,
)
from gridcount.counts import MOMENT_INDEX_LIMIT, _at_least, _exactly, _half_exact

BLOCK = 1 << 14


def naive_moments(phi, m):
    values = phi[: m + 1].tolist()
    return tuple(sum(i**k * values[i] for i in range(1, m + 1)) for k in range(3))


class ExplodingPhi:
    def __getitem__(self, key):
        raise LookupError("table read")


@given(n=st.integers(1, 60), q=st.integers(1, 15))
@settings(max_examples=150, deadline=None)
def test_kernel_matches_direct(n, q, table100):
    (moments,) = totient_moments(table100, [(n - 1) // q])
    assert f_from_moments(n, q, moments) == f_direct(GridQuery(n, q))


@given(n=st.integers(1, 5000), q=st.integers(2, 50))
@settings(max_examples=100, deadline=None)
def test_count_set_matches_separate_f(n, q, table10k):
    f_below, f, f_above = (f_fast(GridQuery(n, k), table10k) for k in (q - 1, q, q + 1))
    assert count_set(n, q, table10k) == CountSet(
        n=n,
        q=q,
        f=f,
        segments=f // 2,
        lines_at_least=(f_below - f) // 2,
        lines_exactly=(f_above - 2 * f + f_below) // 2,
    )


@pytest.mark.parametrize("m", [1, BLOCK - 1, BLOCK, BLOCK + 1])
def test_block_edges_with_table_limit_equal_to_m(m):
    table = build_totient_table(m)
    assert table.limit == m
    assert totient_moments(table, [m]) == [naive_moments(table.phi, m)]


@pytest.mark.parametrize("q", [1, 2, 3])
def test_f_fast_matches_term_loop_over_many_blocks(q):
    # The per-term Python-int loop f_fast replaced, kept as the reference.
    n = 50_000
    table = build_totient_table((n - 1) // q)
    phi = table.phi.tolist()
    loop = 4 * sum(
        (n - q * i) * (2 * n - q * i) * phi[i] for i in range(1, (n - 1) // q + 1)
    )
    assert f_fast(GridQuery(n, q), table) == loop


def test_many_targets_across_block_edges():
    table = build_totient_table(BLOCK + 1)
    ms = [0, 0, 1, BLOCK - 1, BLOCK, BLOCK, BLOCK + 1]
    assert totient_moments(table, ms) == [naive_moments(table.phi, m) for m in ms]


def test_m_zero_reads_nothing():
    table = TotientTable(limit=1, phi=ExplodingPhi())
    assert totient_moments(table, [0, 0]) == [(0, 0, 0), (0, 0, 0)]
    assert totient_moments(table, []) == []


def test_exact_at_the_index_limit():
    # phi(i) <= i - 1 is all the limb bound assumes; the extreme i - 1 at
    # every index up to 2^24 - 1 must still sum without int64 overflow.
    m = MOMENT_INDEX_LIMIT - 1
    phi = np.arange(-1, m, dtype=np.int32)
    phi[0] = 0
    table = TotientTable(limit=m, phi=phi)
    s1 = m * (m + 1) // 2
    s2 = m * (m + 1) * (2 * m + 1) // 6
    s3 = s1 * s1
    assert totient_moments(table, [m]) == [(s1 - m, s2 - s1, s3 - s2)]


def test_index_guard_raises_before_reading_the_table():
    table = TotientTable(limit=2 * MOMENT_INDEX_LIMIT, phi=ExplodingPhi())
    with pytest.raises(ResourceLimitError, match="exact int64 range"):
        totient_moments(table, [1, MOMENT_INDEX_LIMIT])
    with pytest.raises(LookupError):
        totient_moments(table, [MOMENT_INDEX_LIMIT - 1])


@pytest.mark.parametrize("fn", [summatory_phi, e_phi, e_r])
def test_point_queries_raise_at_the_index_limit_before_reading(fn):
    table = TotientTable(limit=2 * MOMENT_INDEX_LIMIT, phi=ExplodingPhi())
    with pytest.raises(ResourceLimitError, match="exact int64 range"):
        fn(table, MOMENT_INDEX_LIMIT)
    with pytest.raises(LookupError):
        fn(table, MOMENT_INDEX_LIMIT - 1)


def test_validation(table100):
    with pytest.raises(ValueError, match="nondecreasing"):
        totient_moments(table100, [5, 4])
    with pytest.raises(ValueError, match=">= 0"):
        totient_moments(table100, [-1, 3])
    with pytest.raises(ValueError, match="need at least 101"):
        totient_moments(table100, [3, 101])


def test_invariant_checks_raise():
    # Real f values always satisfy these; the checks must survive python -O.
    with pytest.raises(ArithmeticError, match="must be even"):
        _half_exact(7, "f")
    with pytest.raises(ArithmeticError):
        _at_least(5, 2, 10, 12)
    with pytest.raises(ArithmeticError):
        _exactly(5, 2, 10, 12, 4)
