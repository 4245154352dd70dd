"""Acceptance gate: nine criteria, one test per criterion.

Each test prints a [PASS]/[FAIL] line with its measured numbers; pytest -v
shows one PASSED/FAILED line per criterion.  Stated runtime budgets are
asserted with perf_counter, generously below their limits on commodity
hardware.
"""

import math
import time

import numpy as np
from click.testing import CliRunner

from gridcount import (
    GridQuery,
    PI_SQUARED,
    build_totient_table,
    decompose_lemma,
    e_phi,
    f_direct,
    f_fast,
    fit_log_exponent,
    iter_error_terms,
    lines_at_least,
    lines_exactly,
    oracle_line_histogram,
    oracle_segments,
    oracle_threshold_count,
    scan_residuals,
    segments_count,
    threshold_count,
)
from gridcount.cli import main as cli_main


def report(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_formula_equivalence():
    t0 = time.perf_counter()
    bad = [
        (n, q)
        for n in range(1, 61)
        for q in range(1, 13)
        if f_fast(GridQuery(n, q)) != f_direct(GridQuery(n, q))
    ]
    dt = time.perf_counter() - t0
    report(
        1,
        not bad and dt < 10.0,
        f"f_fast = f_direct on all 720 cases (n<=60, q<=12) in {dt:.2f}s"
        + (f"; mismatches {bad[:5]}" if bad else ""),
    )


def test_criterion_2_segments_vs_oracle():
    t0 = time.perf_counter()
    bad = [
        (n, p)
        for n in range(2, 26)
        for p in range(2, n + 1)
        if segments_count(n, p) != oracle_segments(n, p)
    ]
    dt = time.perf_counter() - t0
    report(
        2,
        not bad and dt < 30.0,
        f"segment counts match the pair oracle for 2<=n<=25 in {dt:.2f}s"
        + (f"; mismatches {bad[:5]}" if bad else ""),
    )


def test_criterion_3_lines_vs_oracle():
    t0 = time.perf_counter()
    bad = []
    for n in range(2, 26):
        hist = oracle_line_histogram(n)
        for q in range(2, n + 1):
            if lines_exactly(n, q) != hist.get(q, 0):
                bad.append(("exactly", n, q))
            if lines_at_least(n, q) != sum(
                c for p, c in hist.items() if p >= q
            ):
                bad.append(("at_least", n, q))
        paired = sum(math.comb(p, 2) * c for p, c in hist.items())
        if paired != math.comb(n * n, 2):
            bad.append(("pairs", n))
    dt = time.perf_counter() - t0
    report(
        3,
        not bad and dt < 60.0,
        f"line counts match the histogram oracle for 2<=n<=25 in {dt:.2f}s"
        + (f"; mismatches {bad[:5]}" if bad else ""),
    )


def test_criterion_4_fixed_values():
    checks = {
        "f_1(2)": (f_fast(GridQuery(2, 1)), 12),
        "f_1(3)": (f_fast(GridQuery(3, 1)), 56),
        "f_2(3)": (f_fast(GridQuery(3, 2)), 16),
        "s_2(3)": (segments_count(3, 2), 28),
        "l_ge2(3)": (lines_at_least(3, 2), 20),
        "l_2(3)": (lines_exactly(3, 2), 12),
        "l_3(3)": (lines_exactly(3, 3), 8),
        "t(2)": (threshold_count(2), 14),
        "t(3)": (threshold_count(3), 58),
    }
    # the sort-sweep oracle is proved complete, so its check runs past the
    # CLI cap of THRESHOLD_GRID_LIMIT
    for n in range(1, 13):
        checks[f"oracle_t({n})"] = (
            oracle_threshold_count(n, force=True),
            f_fast(GridQuery(n, 1)) + 2,
        )
    bad = {k: v for k, v in checks.items() if v[0] != v[1]}
    report(
        4,
        not bad,
        "all fixed regression values and oracle threshold counts (n <= 12) agree"
        + (f"; wrong: {bad}" if bad else ""),
    )


def test_criterion_5_lemma_identity(table100):
    bad = [
        (n, q)
        for n in range(1, 51)
        for q in range(1, 11)
        if decompose_lemma(GridQuery(n, q), table100).recombined()
        != f_fast(GridQuery(n + 1, q))
    ]
    report(
        5,
        not bad,
        "lemma split recombines to f_fast(n+1, q) for n<=50, q<=10"
        + (f"; mismatches {bad[:5]}" if bad else ""),
    )


def test_criterion_6_decay_and_slope():
    t0 = time.perf_counter()
    ratios = {}
    for q in (1, 2, 3):
        small = scan_residuals(q, [100])[0].normalized
        large = scan_residuals(q, [10**4])[0].normalized
        ratios[q] = large / small
    rows = scan_residuals(1, [2**k for k in range(7, 14)])
    slope = fit_log_exponent(rows).slope
    dt = time.perf_counter() - t0
    ok = all(r < 0.1 for r in ratios.values()) and slope < 3.0 and dt < 30.0
    report(
        6,
        ok,
        f"normalized residual decays (ratios {ratios[1]:.2e}, {ratios[2]:.2e},"
        f" {ratios[3]:.2e} all < 0.1) and log-log slope {slope:.3f} < 3.0"
        f" in {dt:.2f}s",
    )


def test_criterion_7_error_term_sanity():
    table1m = build_totient_table(10**6)
    m = np.arange(1, 10**6 + 1, dtype=np.float64)
    pre = np.cumsum(table1m.phi[1:], dtype=np.int64)
    e = pre.astype(np.float64) - 3.0 * m * m / PI_SQUARED
    envelope_ok = bool(np.all(np.abs(e) <= 10.0 * m * np.log(m + 2)))
    worst = float(np.max(np.abs(e) / (10.0 * m * np.log(m + 2))))

    acc = 0.0
    max_diff = 0.0
    for i, (_, _, ep, er_exact) in enumerate(
        iter_error_terms(10**4), start=1
    ):
        acc += ep
        naive = acc - 3.0 * i * i / (2.0 * PI_SQUARED)
        max_diff = max(max_diff, abs(er_exact - naive))
    agree_ok = max_diff <= 1e-6
    report(
        7,
        envelope_ok and agree_ok,
        f"|E_Phi(m)| within 10 m log(m+2) up to 1e6 (worst ratio {worst:.3f})"
        f" and e_r paths agree to {max_diff:.2e} <= 1e-6 up to 1e4",
    )


def test_criterion_8_performance():
    t0 = time.perf_counter()
    build_totient_table(10**7)
    sieve_dt = time.perf_counter() - t0

    t0 = time.perf_counter()
    f6 = f_fast(GridQuery(10**6, 1))
    fast_dt = time.perf_counter() - t0

    f5 = f_fast(GridQuery(10**5, 1))
    wide_ok = f5 > 2**63
    ok = sieve_dt <= 5.0 and fast_dt <= 1.0 and wide_ok and f6 > f5
    report(
        8,
        ok,
        f"sieve to 1e7 in {sieve_dt:.2f}s (<=5s), f_fast(1e6,1) in"
        f" {fast_dt:.3f}s (<=1s), f(1e5) = {f5:.3e} > 2^63",
    )


def test_criterion_9_determinism(direct_scan_rows):
    args = [
        "scan", "--q", "1", "--n-start", "2", "--n-end", "128",
        "--geometric", "--format", "csv",
    ]
    runner = CliRunner()
    outs = [runner.invoke(cli_main, args).stdout for _ in range(3)]
    runs_identical = outs[0] == outs[1] == outs[2] and outs[0]

    ns = list(range(1, 61))
    # ScanRow equality is exact, floats included: stronger than the csv digits
    mismatched = [q for q in (1, 2, 3) if scan_residuals(q, ns) != direct_scan_rows(q, ns)]
    report(
        9,
        bool(runs_identical) and not mismatched,
        "scan csv byte-identical across 3 runs; scan rows equal to rows built"
        " from f_direct for n<=60, q in 1..3"
        + (f"; mismatched q {mismatched}" if mismatched else ""),
    )
