"""Main terms, residual scans, and the log-log exponent fit."""

import math
from fractions import Fraction

import numpy as np
import pytest

from gridcount import (
    PI_SQUARED,
    GridQuery,
    ResourceLimitError,
    ScanRow,
    f_fast,
    fit_log_exponent,
    main_term_f,
    main_term_lines_eq,
    main_term_lines_ge,
    residual,
    rh_report,
    scan_residuals,
)


class TestMainTerms:
    def test_f(self):
        assert main_term_f(10, 1) == pytest.approx(60000 / PI_SQUARED, rel=1e-15)
        assert main_term_f(10, 1) == pytest.approx(6079.271, abs=5e-4)
        assert main_term_f(10, 2) == pytest.approx(1519.818, abs=5e-4)

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

    @pytest.mark.parametrize("q", [2, 10**4, 10**8, 10**9, 10**16, 10**17])
    @pytest.mark.parametrize("n", [10, 10**6])
    def test_lines_exact_bracket(self, n, q):
        # the float difference of the bracket cancels long before q overflows
        scale = Fraction(3 * n**4) / Fraction(PI_SQUARED)
        ge = Fraction(1, (q - 1) ** 2) - Fraction(1, q**2)
        eq = Fraction(1, (q + 1) ** 2) - 2 * Fraction(1, q**2) + Fraction(1, (q - 1) ** 2)
        assert main_term_lines_ge(n, q) == pytest.approx(float(scale * ge), rel=1e-14)
        assert main_term_lines_eq(n, q) == pytest.approx(float(scale * eq), rel=1e-14)

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

    @pytest.mark.parametrize("n", [-5, 0])
    @pytest.mark.parametrize(
        "fn", [main_term_lines_ge, main_term_lines_eq], ids=lambda fn: fn.__name__
    )
    def test_lines_need_positive_n(self, fn, n):
        with pytest.raises(ValueError):
            fn(n, 3)

    MAIN_TERMS = [main_term_f, main_term_lines_ge, main_term_lines_eq]

    @pytest.mark.parametrize("np_int", [np.int32, np.int64])
    @pytest.mark.parametrize("fn", MAIN_TERMS, ids=lambda fn: fn.__name__)
    def test_numpy_integers(self, fn, np_int):
        # n^4 = 2.4e19 exceeds int64 (and int32), so it must be taken in Python ints
        n = 70_000
        assert fn(np_int(n), np_int(2)) == fn(n, 2)

    @pytest.mark.parametrize("n", [10**77, 10**80], ids=["inf", "no-float"])
    @pytest.mark.parametrize("fn", MAIN_TERMS, ids=lambda fn: fn.__name__)
    def test_float_overflow_raises(self, fn, n):
        # 6.0 * n^4 is inf at n = 10^77; n^4 has no float at all at 10^80
        with pytest.raises(ResourceLimitError, match="exceeds the float range"):
            fn(n, 2)

    @pytest.mark.parametrize(
        "n, q",
        [(10**76, 10**200), (10, 10**200), (10, 10**400)],
        ids=["tiny", "inf-divisor", "no-float"],
    )
    @pytest.mark.parametrize("fn", MAIN_TERMS, ids=lambda fn: fn.__name__)
    def test_huge_q_raises(self, fn, n, q):
        # each true value is positive, far below the smallest float or with
        # a power of q that has none; 0.0 and OverflowError were returned
        with pytest.raises(ResourceLimitError, match=f"^main term at q = {q} exceeds"):
            fn(n, q)

    def test_overflowing_n_is_named_before_q(self):
        with pytest.raises(ResourceLimitError, match="^main term at grid side"):
            main_term_f(10**80, 10**400)

    @pytest.mark.parametrize("bad", [2.5, True, np.float64(3.0), np.True_])
    @pytest.mark.parametrize("fn", MAIN_TERMS, ids=lambda fn: fn.__name__)
    def test_non_integers_raise(self, fn, bad):
        with pytest.raises(TypeError):
            fn(bad, 2)
        with pytest.raises(TypeError):
            fn(10, bad)


class TestResidual:
    def test_known(self):
        assert residual(2, 1) == pytest.approx(
            12 - 96 / PI_SQUARED, rel=1e-14
        )
        assert residual(3, 2) == pytest.approx(
            16 - 486 / (4 * PI_SQUARED), rel=1e-14
        )
        # f is 0 here, so the residual is minus the main term
        assert residual(5, 7) == pytest.approx(
            -3750 / (49 * PI_SQUARED), rel=1e-14
        )

    def test_exact_recovery(self):
        for n in (2, 7, 30, 99):
            for q in (1, 2, 3):
                back = residual(n, q) + main_term_f(n, q)
                exact = f_fast(GridQuery(n, q))
                assert back == pytest.approx(exact, rel=1e-12)


class TestScan:
    def test_rows(self):
        rows = scan_residuals(1, [2, 3, 4])
        assert [r.n for r in rows] == [2, 3, 4]
        assert rows[0].exact == 12
        assert rows[0].q == 1
        assert rows[0].residual == pytest.approx(12 - 96 / PI_SQUARED, rel=1e-14)
        assert rows[0].normalized == pytest.approx(
            abs(rows[0].residual) / 16, rel=1e-14
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            scan_residuals(1, [])
        with pytest.raises(ValueError):
            scan_residuals(1, [3, 3])
        with pytest.raises(ValueError):
            scan_residuals(1, [5, 2])
        with pytest.raises(ValueError):
            scan_residuals(1, [0, 2])

    def test_csv_matches_direct_rows(self, direct_scan_rows):
        # equal ScanRows, floats included, print equal csv rows
        ns = list(range(2, 100, 3))
        for q in (1, 2, 3):
            assert scan_residuals(q, ns) == direct_scan_rows(q, ns), q


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
