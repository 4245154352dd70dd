"""The exact moment kernel behind every fast count: totient_moments, and the
sublinear evaluator the counts use, which gives the same sums without a
table to max(m)."""

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcount import (
    SIEVE_LIMIT,
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
    iter_error_terms,
    scan_residuals,
    summatory_phi,
    threshold_count,
    totient_moments,
)
from gridcount import totient
from gridcount.cli import main
from gridcount.counts import _at_least, _exactly, _half_exact
from gridcount.totient import (
    _block_size,
    _presieve_size,
    _sieve_blocks,
    _stream,
    _sublinear_moments,
    _walk,
)

ROW = 1 << 11
BLOCK = 1 << 14
EDGES = [0, 1, ROW - 1, ROW, ROW + 1, BLOCK - 1, BLOCK, BLOCK + 1]


def naive_moments(phi, m):
    values = phi[: m + 1].tolist()
    return tuple(sum(i**k * values[i] for i in range(1, m + 1)) for k in range(3))


def watch_sieves(monkeypatch, refuse=False):
    """Make both sieves, numpy's _sieve_blocks and the pure-Python _phi_list,
    append each limit they are asked for to the returned list, then sieve,
    or raise RuntimeError instead if refuse."""
    limits = []
    for name in ("_sieve_blocks", "_phi_list"):

        def watched(limit, sieve=getattr(totient, name)):
            limits.append(limit)
            if refuse:
                raise RuntimeError(f"sieved to {limit}")
            return sieve(limit)

        monkeypatch.setattr(totient, name, watched)
    return limits


class ExplodingPhi:
    def __getitem__(self, key):
        raise LookupError("table read")


class WorstCasePhi:
    """Slices of phi(i) = i - 1, the largest phi(i) can be, built on demand."""

    def __getitem__(self, key):
        values = np.arange(key.start - 1, key.stop - 1, dtype=np.int32)
        if key.start == 0:
            values[0] = 0
        return values


@pytest.fixture(scope="module")
def edge_table():
    table = build_totient_table(BLOCK + 1)
    phi = table.phi.tolist()
    prefix = [(0, 0, 0)]
    for i in range(1, BLOCK + 2):
        s0, s1, s2 = prefix[-1]
        prefix.append((s0 + phi[i], s1 + i * phi[i], s2 + i * i * phi[i]))
    return table, prefix


@given(n=st.integers(1, 60), q=st.integers(1, 15))
@settings(max_examples=150, deadline=None)
def test_kernel_matches_direct(n, q, table100):
    (moments,) = totient_moments(table100, [(n - 1) // q])
    assert f_from_moments(n, q, moments) == f_direct(GridQuery(n, q))


@given(n=st.integers(1, 5000), q=st.integers(2, 50))
@settings(max_examples=100, deadline=None)
def test_count_set_matches_separate_f(n, q):
    f_below, f, f_above = (f_fast(GridQuery(n, k)) for k in (q - 1, q, q + 1))
    assert count_set(n, q) == CountSet(
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
    assert f_fast(GridQuery(n, q)) == loop


def test_many_targets_across_block_edges():
    table = build_totient_table(BLOCK + 1)
    ms = [0, 0, 1, BLOCK - 1, BLOCK, BLOCK, BLOCK + 1]
    assert totient_moments(table, ms) == [naive_moments(table.phi, m) for m in ms]


@given(
    ms=st.lists(
        st.one_of(st.sampled_from(EDGES), st.integers(0, BLOCK + 1)), max_size=12
    ).map(sorted)
)
@settings(max_examples=200, deadline=None)
def test_random_targets_match_naive_sums(ms, edge_table):
    # repeats, m = 0 and the row and batch edges 2^11 +- 1, 2^14 +- 1
    table, prefix = edge_table
    assert totient_moments(table, ms) == [prefix[m] for m in ms]


def test_numpy_targets_are_summed_as_plain_ints():
    table = build_totient_table(3 * BLOCK)
    ms = [5, ROW + 3, 3 * BLOCK]
    moments = totient_moments(table, [np.int64(m) for m in ms])
    assert moments == [naive_moments(table.phi, m) for m in ms]
    assert all(type(s) is int for row in moments for s in row)


def test_m_zero_reads_nothing():
    table = TotientTable(limit=1, phi=ExplodingPhi())
    assert totient_moments(table, [0, 0]) == [(0, 0, 0), (0, 0, 0)]
    assert totient_moments(table, []) == []


def test_walk_bound_argument():
    # phi(i) < 2^27 for i <= SIEVE_LIMIT is what keeps a row's int64 sums exact
    assert SIEVE_LIMIT < 2**27


def test_exact_at_the_index_limit():
    # phi(i) <= i - 1 is all the row bound assumes; the extreme i - 1 at
    # every index up to SIEVE_LIMIT must still sum without int64 overflow.
    m = SIEVE_LIMIT
    table = TotientTable(limit=m, phi=WorstCasePhi())
    s1 = m * (m + 1) // 2
    s2 = m * (m + 1) * (2 * m + 1) // 6
    s3 = s1 * s1
    assert totient_moments(table, [m]) == [(s1 - m, s2 - s1, s3 - s2)]


def test_index_guard_raises_before_reading_the_table():
    table = TotientTable(limit=2 * SIEVE_LIMIT, phi=ExplodingPhi())
    with pytest.raises(ResourceLimitError, match="exceeds the sieve limit"):
        totient_moments(table, [1, SIEVE_LIMIT + 1])
    with pytest.raises(LookupError):
        totient_moments(table, [SIEVE_LIMIT])


@pytest.mark.parametrize("fn", [summatory_phi, e_phi, e_r])
def test_point_queries_raise_at_the_index_limit_before_reading(fn, monkeypatch):
    limits = watch_sieves(monkeypatch, refuse=True)
    with pytest.raises(ResourceLimitError, match="exceeds the sieve limit"):
        fn(SIEVE_LIMIT + 1)
    assert limits == []
    # at the cap itself the sieve asked for is the presieve, not a table to i
    with pytest.raises(RuntimeError, match="sieved to"):
        fn(SIEVE_LIMIT)
    assert len(limits) == 1 and limits[0] <= _presieve_size(SIEVE_LIMIT)


def test_error_term_stream_raises_at_the_index_limit_before_reading(monkeypatch):
    def refuse(limit):
        raise RuntimeError(f"sieved to {limit}")

    monkeypatch.setattr(totient, "_sieve_blocks", refuse)
    with pytest.raises(ResourceLimitError, match=f"exceeds budget {SIEVE_LIMIT}$"):
        iter_error_terms(SIEVE_LIMIT + 1)
    with pytest.raises(RuntimeError, match=f"sieved to {SIEVE_LIMIT}$"):
        iter_error_terms(SIEVE_LIMIT, every=SIEVE_LIMIT)


def test_validation(table100):
    with pytest.raises(ValueError, match="nondecreasing"):
        totient_moments(table100, [5, 4])
    with pytest.raises(ValueError, match=">= 0"):
        totient_moments(table100, [-1, 3])
    with pytest.raises(ValueError, match="need at least 101"):
        totient_moments(table100, [3, 101])
    for ms in ([True], [3, np.True_]):
        with pytest.raises(TypeError):
            totient_moments(table100, ms)
        with pytest.raises(TypeError):
            _sublinear_moments(ms)


def test_invariant_checks_raise():
    # Real f values always satisfy these; the checks must survive python -O.
    with pytest.raises(ArithmeticError, match="must be even"):
        _half_exact(7, "f")
    with pytest.raises(ArithmeticError):
        _at_least(5, 2, 10, 12)
    with pytest.raises(ArithmeticError):
        _exactly(5, 2, 10, 12, 4)


# The presieve rule: y = min(x, x^(2/3)) up to PURE_PRESIEVE_MAX, sieved in
# pure Python, then 10 x^(2/3), sieved with numpy.  The fixed points sit
# at the rule's old switches (a sieve to x up to 2^18, then a presieve of
# 2^18 up to PRESIEVE_KNEE) and at the top of the grid.
PURE_PRESIEVE_MAX = 1 << 24
PRESIEVE_KNEE = 4_244_361
SUBLINEAR_XS = [1 << 18, (1 << 18) + 1, PRESIEVE_KNEE, PRESIEVE_KNEE + 1, 10**7 - 1]


@pytest.fixture(scope="module")
def table_2e5():
    return build_totient_table(2 * 10**5)


@pytest.fixture(scope="module")
def table_1e7():
    return build_totient_table(10**7 - 1)


@st.composite
def ms_and_presieve(draw):
    ms = sorted(draw(st.lists(st.integers(0, 2 * 10**5), min_size=1, max_size=6)))
    return ms, draw(st.integers(1, max(ms[-1], 1)))


@given(case=ms_and_presieve())
@settings(max_examples=150, deadline=None)
def test_sublinear_matches_the_walk_for_any_presieve(case, table_2e5):
    # max(ms) <= 2^24, so the presieve, of any size, is the pure-Python one
    ms, y = case
    assert _sublinear_moments(ms, y) == totient_moments(table_2e5, ms)


@given(ms=st.lists(st.integers(0, 2 * 10**5), min_size=1, max_size=6).map(sorted))
@settings(max_examples=100, deadline=None)
def test_recursion_alone_needs_no_sieve(ms, table_2e5):
    # y = 1: every quotient above 1 comes from the recursion, none from a sieve
    with pytest.MonkeyPatch.context() as mp:
        watch_sieves(mp, refuse=True)
        got = _sublinear_moments(ms, 1)
    assert got == totient_moments(table_2e5, ms)


def test_presieve_rule_breakpoints():
    assert [_presieve_size(x) for x in (0, 1, 2, 8, 24, 1000)] == [0, 1, 2, 4, 8, 100]
    assert _presieve_size(10**7 - 1) == 46_416
    assert _presieve_size(PURE_PRESIEVE_MAX) == 1 << 16
    assert _presieve_size(PURE_PRESIEVE_MAX + 1) == 10 << 16
    assert _presieve_size(SIEVE_LIMIT) == 2_154_430


@pytest.mark.parametrize("x", SUBLINEAR_XS)
def test_sublinear_matches_the_walk_at_fixed_points(x, table_1e7):
    # one call also serves the quotients count_set asks for with x
    ms = [x // 3, x // 2, x - 1, x]
    assert _sublinear_moments(ms) == totient_moments(table_1e7, ms)


@pytest.mark.parametrize(
    "n", [2, 3, 10, 25, 1000, 1025, 1026, 2**16 + 1, PRESIEVE_KNEE + 2, 10**7]
)
def test_counts_agree_with_and_without_a_table(n, table_1e7):
    # the table-free counts against f from a walk of a full table
    def walked(q):
        (moments,) = totient_moments(table_1e7, [(n - 1) // q])
        return f_from_moments(n, q, moments)

    assert f_fast(GridQuery(n, 1)) == walked(1)
    assert threshold_count(n) == walked(1) + 2
    for q in (1, 2, 3, 7):
        cs = count_set(n, q)
        assert cs.f == walked(q) and cs.segments == walked(q) // 2
        if q >= 2:
            f_below, f, f_above = walked(q - 1), walked(q), walked(q + 1)
            assert cs.lines_at_least == (f_below - f) // 2
            assert cs.lines_exactly == (f_above - 2 * f + f_below) // 2


def test_sublinear_raises_past_the_index_limit_before_sieving(monkeypatch):
    watch_sieves(monkeypatch, refuse=True)
    with pytest.raises(ResourceLimitError, match="exceeds the sieve limit"):
        _sublinear_moments([5, SIEVE_LIMIT + 1])
    with pytest.raises(ValueError, match="nondecreasing"):
        _sublinear_moments([5, 4])
    with pytest.raises(ValueError, match=">= 0"):
        _sublinear_moments([-1])


@pytest.mark.parametrize(
    "args", [("fq", "--n", "9999991", "--q", "1"), ("counts", "--n", "9876543", "--q", "2")]
)
def test_point_queries_sieve_no_more_than_the_presieve(monkeypatch, args):
    limits = watch_sieves(monkeypatch)
    r = CliRunner().invoke(main, [*args, "--format", "csv"])
    assert r.exit_code == 0
    assert limits and max(limits) <= _presieve_size(int(args[2]) - 1)


# The stream: phi sieved in blocks of whole 2^14-entry batches and walked
# as it comes, against the walk of one whole table.  Up to 16 * 2^16 the
# blocks are 2^16 entries; from 16 * (2^16 + 1) they grow by a batch per
# 2^18 of limit, and from 16 * 2^20 they stay at 2^20.
BLOCK_MIN, BLOCK_MAX = 1 << 16, 1 << 20
STREAM_LIMITS = [
    *(k * BLOCK + d for k in (1, 4, 5, 8) for d in (-1, 0, 1)),
    *(16 * BLOCK_MIN + d for d in (-1, 0, 1, 16)),
]


def test_block_size_rule():
    assert _block_size(1) == _block_size(16 * BLOCK_MIN + 15) == BLOCK_MIN
    assert _block_size(16 * BLOCK_MIN + 16) == BLOCK_MIN + BLOCK
    assert _block_size(10**7) == 39 * BLOCK  # 10^7 / 16 = 625,000 rounded up
    assert _block_size(16 * BLOCK_MAX - 1) == _block_size(16 * BLOCK_MAX + 1) == BLOCK_MAX
    assert _block_size(SIEVE_LIMIT) == BLOCK_MAX
    for limit in STREAM_LIMITS:
        # the blocks tile 0..limit, each on a batch edge
        edges = [(lo, hi) for lo, hi, _ in _sieve_blocks(limit)]
        assert (edges[0][0], edges[-1][1]) == (0, limit + 1)
        assert [hi for _, hi in edges[:-1]] == [lo for lo, _ in edges[1:]]
        assert all(lo % BLOCK == 0 and hi - lo <= _block_size(limit) for lo, hi in edges)


@pytest.fixture(scope="module")
def stream_table():
    return build_totient_table(max(STREAM_LIMITS))


@st.composite
def streamed_case(draw):
    limit = draw(st.sampled_from(STREAM_LIMITS))
    near_edge = st.sampled_from([ROW, BLOCK, BLOCK_MIN]).flatmap(
        lambda unit: st.builds(
            lambda k, d: unit * k + d, st.integers(0, limit // unit), st.integers(-1, 1)
        )
    )
    ms = draw(st.lists(st.one_of(near_edge, st.integers(0, limit), st.just(limit)),
                       min_size=1, max_size=8))
    return limit, sorted(min(max(m, 0), limit) for m in ms)


@given(case=streamed_case())
@settings(max_examples=60, deadline=None)
def test_stream_matches_the_table_walk(case, stream_table):
    # ms on row, batch and block edges, with limits on either side of them
    limit, ms = case
    walked = _walk(_sieve_blocks(limit), ms)
    assert list(walked) == list(zip(ms, totient_moments(stream_table, ms)))


@pytest.mark.parametrize("limit", [16 * BLOCK_MAX - 1, 16 * BLOCK_MAX + 1])
def test_stream_at_the_block_cap(limit):
    # 16 blocks of 2^20, the last full or followed by a block of two
    # entries, against the recursion with and without the last m.  Its
    # largest m is then 2^24 - 1 or 2^24 - 2, and 2^24 + 1 or 2^24, either
    # side of PURE_PRESIEVE_MAX = 2^24 = 16 * 2^20: the presieve is the
    # pure-Python one of 2^16 entries, except numpy's of 10 2^16 past it.
    ms = [limit - BLOCK_MAX - 1, limit - BLOCK_MAX, limit - 1, limit]
    streamed = list(_stream(ms))
    assert streamed == list(zip(ms, _sublinear_moments(ms)))
    assert streamed[:3] == list(zip(ms[:3], _sublinear_moments(ms[:3])))


def test_streamed_readers_build_no_table(monkeypatch):
    # the error-term stream and scan sieve in blocks, and the point queries
    # sieve their presieve; none collects a table, in-process or through the CLI
    def refuse(limit):
        raise RuntimeError(f"built a table to {limit}")

    monkeypatch.setattr(totient, "build_totient_table", refuse)
    limits = watch_sieves(monkeypatch)
    m = 2 * BLOCK_MIN + 5
    calls = [
        lambda: list(iter_error_terms(m, every=ROW + 1)),
        lambda: scan_residuals(2, range(3, 3 * BLOCK_MIN, 997)),
        lambda: (summatory_phi(m), e_phi(m), e_r(m)),
        lambda: f_fast(GridQuery(10**7, 1)),
        lambda: count_set(9876543, 2),
        lambda: threshold_count(10**6),
    ]
    for call in calls:
        limits.clear()
        call()
        assert limits, call
    argvs = [
        ["errterms", "--m-max", str(m), "--every", "4099"],
        ["scan", "--q", "1", "--n-start", "2", "--n-end", str(m), "--step", "4099"],
        ["fq", "--n", "9999991", "--q", "1"],
        ["counts", "--n", "9876543", "--q", "2"],
        ["threshold", "--n", "1000000"],
    ]
    for argv in argvs:
        limits.clear()
        r = CliRunner().invoke(main, [*argv, "--format", "csv"])
        assert r.exit_code == 0, (argv, r.output)
        assert limits, argv
