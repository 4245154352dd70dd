"""Main terms, residual scans, and the log-log exponent fit."""

import math

import numpy as np
import pytest

from gridcount import (
    PI_SQUARED,
    GridQuery,
    ScanRow,
    f_fast,
    fit_log_exponent,
    main_term_f,
    main_term_lines_eq,
    main_term_lines_ge,
    main_term_segments,
    residual,
    rh_report,
    scan_residuals,
)
from gridcount.cli import render_scan


class TestMainTerms:
    def test_f(self):
        assert main_term_f(10, 1) == pytest.approx(60000 / PI_SQUARED, rel=1e-15)
        assert main_term_f(10, 1) == pytest.approx(6079.271, abs=5e-4)
        assert main_term_f(10, 2) == pytest.approx(1519.818, abs=5e-4)

    def test_segments_is_half(self):
        for n in (3, 10, 47):
            for q in (1, 2, 5):
                assert main_term_segments(n, q) == main_term_f(n, q) / 2

    def test_lines_ge(self):
        assert main_term_lines_ge(10, 2) == pytest.approx(
            3e4 / PI_SQUARED * (1 - 1 / 4), rel=1e-15
        )
        assert main_term_lines_ge(10, 2) == pytest.approx(2279.727, abs=5e-4)
        assert main_term_lines_ge(10, 3) == pytest.approx(422.172, abs=5e-4)

    def test_lines_eq(self):
        assert main_term_lines_eq(10, 2) == pytest.approx(
            3e4 / PI_SQUARED * (1 / 9 - 2 / 4 + 1), rel=1e-15
        )
        assert main_term_lines_eq(10, 2) == pytest.approx(1857.555, abs=5e-4)

    def test_eq_is_ge_difference(self):
        for n in (5, 12, 100):
            for q in range(2, 21):
                assert main_term_lines_eq(n, q) == pytest.approx(
                    main_term_lines_ge(n, q) - main_term_lines_ge(n, q + 1),
                    rel=1e-12,
                )

    def test_bad_args(self):
        with pytest.raises(ValueError):
            main_term_f(0, 1)
        with pytest.raises(ValueError):
            main_term_f(3, 0)
        with pytest.raises(ValueError):
            main_term_lines_ge(10, 1)
        with pytest.raises(ValueError):
            main_term_lines_eq(10, 1)

    MAIN_TERMS = [main_term_f, main_term_segments, main_term_lines_ge, main_term_lines_eq]

    @pytest.mark.parametrize("np_int", [np.int32, np.int64])
    @pytest.mark.parametrize("fn", MAIN_TERMS, ids=lambda fn: fn.__name__)
    def test_numpy_integers(self, fn, np_int):
        # n^4 = 2.4e19 exceeds int64 (and int32), so it must be taken in Python ints
        n = 70_000
        assert fn(np_int(n), np_int(2)) == fn(n, 2)

    @pytest.mark.parametrize("bad", [2.5, True, np.float64(3.0), np.True_])
    @pytest.mark.parametrize("fn", MAIN_TERMS, ids=lambda fn: fn.__name__)
    def test_non_integers_raise(self, fn, bad):
        with pytest.raises(TypeError):
            fn(bad, 2)
        with pytest.raises(TypeError):
            fn(10, bad)


class TestResidual:
    def test_known(self, table100):
        assert residual(2, 1, table100) == pytest.approx(
            12 - 96 / PI_SQUARED, rel=1e-14
        )
        assert residual(3, 2, table100) == pytest.approx(
            16 - 486 / (4 * PI_SQUARED), rel=1e-14
        )
        # f is 0 here, so the residual is minus the main term
        assert residual(5, 7, table100) == pytest.approx(
            -3750 / (49 * PI_SQUARED), rel=1e-14
        )

    def test_exact_recovery(self, table100):
        for n in (2, 7, 30, 99):
            for q in (1, 2, 3):
                back = residual(n, q, table100) + main_term_f(n, q)
                exact = f_fast(GridQuery(n, q), table100)
                assert back == pytest.approx(exact, rel=1e-12)


class TestScan:
    def test_rows(self, table100):
        rows = scan_residuals(1, [2, 3, 4], table100)
        assert [r.n for r in rows] == [2, 3, 4]
        assert rows[0].exact == 12
        assert rows[0].q == 1
        assert rows[0].residual == pytest.approx(12 - 96 / PI_SQUARED, rel=1e-14)
        assert rows[0].normalized == pytest.approx(
            abs(rows[0].residual) / 16, rel=1e-14
        )

    def test_validation(self, table100):
        with pytest.raises(ValueError):
            scan_residuals(1, [], table100)
        with pytest.raises(ValueError):
            scan_residuals(1, [3, 3], table100)
        with pytest.raises(ValueError):
            scan_residuals(1, [5, 2], table100)
        with pytest.raises(ValueError):
            scan_residuals(1, [0, 2], table100)
        with pytest.raises(ValueError, match="too small"):
            scan_residuals(1, [2, 500], table100)

    def test_csv_matches_direct_rows(self, table100, direct_scan_csv):
        ns = list(range(2, 100, 3))
        for q in (1, 2, 3):
            csv = render_scan("csv", scan_residuals(q, ns, table100))
            assert csv == direct_scan_csv(q, ns), q


def power_rows(exponent, coeff=1.0, ns=(10, 20, 40, 80, 160, 320)):
    return [
        ScanRow(
            n=n,
            q=1,
            exact=0,
            main=0.0,
            residual=coeff * float(n) ** exponent,
            normalized=0.0,
        )
        for n in ns
    ]


class TestFit:
    def test_recovers_exponent(self):
        fit = fit_log_exponent(power_rows(2.0))
        assert fit.slope == pytest.approx(2.0, abs=1e-9)
        assert fit.intercept == pytest.approx(0.0, abs=1e-9)
        assert fit.points_used == 6
        assert fit.n_range == (10, 320)

    def test_recovers_exponent_with_coeff(self):
        fit = fit_log_exponent(power_rows(2.5, coeff=5.0))
        assert fit.slope == pytest.approx(2.5, abs=1e-9)
        assert fit.intercept == pytest.approx(math.log(5.0), abs=1e-9)

    def test_negative_residuals_ok(self):
        fit = fit_log_exponent(power_rows(3.0, coeff=-2.0))
        assert fit.slope == pytest.approx(3.0, abs=1e-9)

    def test_small_residuals_dropped(self):
        rows = power_rows(2.0) + [
            ScanRow(n=500, q=1, exact=0, main=0.0, residual=0.0, normalized=0.0),
            ScanRow(n=600, q=1, exact=0, main=0.0, residual=0.5, normalized=0.0),
        ]
        fit = fit_log_exponent(rows)
        assert fit.points_used == 6
        assert fit.n_range == (10, 320)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_log_exponent(power_rows(2.0, ns=(10, 20, 40)))
        with pytest.raises(ValueError):
            fit_log_exponent(
                [ScanRow(n=10, q=1, exact=0, main=0.0, residual=0.0, normalized=0.0)]
                * 6
            )


class TestRhReport:
    def test_below(self):
        rep = rh_report(fit_log_exponent(power_rows(2.1)))
        assert rep.classification == "below-rh"
        assert "2.1" in rep.message

    def test_between(self):
        rep = rh_report(fit_log_exponent(power_rows(2.7)))
        assert rep.classification == "between"

    def test_above(self):
        rep = rh_report(fit_log_exponent(power_rows(3.2)))
        assert rep.classification == "above-unconditional"

    def test_reference_exponents(self):
        rep = rh_report(fit_log_exponent(power_rows(2.7)))
        assert rep.rh_exponent == 2.5
        assert rep.unconditional_exponent == 3.0
        assert "heuristic" in rep.note
