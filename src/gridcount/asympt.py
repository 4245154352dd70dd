"""Asymptotic main terms and residual growth diagnostics.

Each exact count carries a leading term of order n^4; subtracting it leaves
a residual whose growth exponent is the interesting quantity.  Unconditional
bounds put that exponent at 3 (up to logs); the Riemann hypothesis would
push it down to 5/2 + epsilon.  scan_residuals tabulates residuals over a
range of n, fit_log_exponent fits the observed exponent by least squares in
log-log space, and rh_report places the fit against the two reference
exponents.  None of this proves anything in either direction; it is a
diagnostic for finite data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .counts import GridQuery, as_int, f_fast, f_from_moments, totient_moments
from .totient import PI_SQUARED, TotientTable

RH_EXPONENT = 2.5
UNCONDITIONAL_EXPONENT = 3.0

#: residuals below this magnitude carry no exponent information
MIN_FIT_RESIDUAL = 1.0
MIN_FIT_POINTS = 4


@dataclass(frozen=True)
class ScanRow:
    """One scan point: exact count, main term, and their difference."""

    n: int
    q: int
    exact: int
    main: float
    residual: float
    normalized: float


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares slope of log |residual| against log n."""

    slope: float
    intercept: float
    points_used: int
    n_range: tuple[int, int]


@dataclass(frozen=True)
class RhReport:
    """A fitted exponent placed against the 5/2 and 3 reference lines."""

    slope: float
    rh_exponent: float
    unconditional_exponent: float
    classification: str
    message: str
    note: str


def main_term_f(n: int, q: int) -> float:
    """Leading term of f_q(n): 6 n^4 / (pi^2 q^2)."""
    n, q = as_int(n, "grid side n"), as_int(q, "gcd class q")
    if n < 1 or q < 1:
        raise ValueError(f"need n >= 1 and q >= 1, got n={n}, q={q}")
    return 6.0 * n**4 / (PI_SQUARED * q * q)


def main_term_segments(n: int, q: int) -> float:
    """Leading term of s_{q+1}(n): 3 n^4 / (pi^2 q^2)."""
    return main_term_f(n, q) / 2.0


def main_term_lines_ge(n: int, q: int) -> float:
    """Leading term of the at-least-q line count, q >= 2."""
    n, q = as_int(n, "grid side n"), as_int(q, "line size q")
    if q < 2:
        raise ValueError(f"line counts need q >= 2, got {q}")
    return 3.0 * n**4 / PI_SQUARED * (1.0 / (q - 1) ** 2 - 1.0 / q**2)


def main_term_lines_eq(n: int, q: int) -> float:
    """Leading term of the exactly-q line count, q >= 2."""
    n, q = as_int(n, "grid side n"), as_int(q, "line size q")
    if q < 2:
        raise ValueError(f"line counts need q >= 2, got {q}")
    bracket = 1.0 / (q + 1) ** 2 - 2.0 / q**2 + 1.0 / (q - 1) ** 2
    return 3.0 * n**4 / PI_SQUARED * bracket


def residual(n: int, q: int, table: TotientTable) -> float:
    """f_q(n) minus its main term, as a float."""
    query = GridQuery(n, q)
    return f_fast(query, table) - main_term_f(query.n, query.q)


def scan_residuals(
    q: int,
    n_values: Iterable[int],
    table: TotientTable,
) -> list[ScanRow]:
    """Residual rows for each n in an increasing sequence.

    ``normalized`` is |residual| / n^4, handy for eyeballing decay against
    the main-term order.  Row order follows n_values, and all exact counts
    come from one forward pass of totient_moments.
    """
    ns = [as_int(n, "grid side n") for n in n_values]
    if not ns:
        raise ValueError("n_values must be nonempty")
    if ns[0] < 1:
        raise ValueError(f"grid sides must be >= 1, got {ns[0]}")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_values must be strictly increasing")
    q = GridQuery(ns[-1], q).q  # validates q and the largest n
    rows = []
    for n, moments in zip(ns, totient_moments(table, [(n - 1) // q for n in ns])):
        exact = f_from_moments(n, q, moments)
        main = main_term_f(n, q)
        res = exact - main
        rows.append(
            ScanRow(
                n=n,
                q=q,
                exact=exact,
                main=main,
                residual=res,
                normalized=abs(res) / float(n) ** 4.0,
            )
        )
    return rows


def fit_log_exponent(rows: Sequence[ScanRow]) -> SlopeFit:
    """Fit log |residual| = slope * log n + intercept by least squares.

    Rows with |residual| < 1 are dropped: they are dominated by float
    cancellation and would poison the log.  Fewer than 4 usable rows is an
    error rather than a meaningless fit.
    """
    usable = [r for r in rows if abs(r.residual) >= MIN_FIT_RESIDUAL]
    if len(usable) < MIN_FIT_POINTS:
        raise ValueError(
            f"need at least {MIN_FIT_POINTS} rows with |residual| >="
            f" {MIN_FIT_RESIDUAL}, got {len(usable)}"
        )
    xs = np.log([r.n for r in usable])
    ys = np.log([abs(r.residual) for r in usable])
    slope, intercept = np.polyfit(xs, ys, 1)
    ns = [r.n for r in usable]
    return SlopeFit(
        slope=float(slope),
        intercept=float(intercept),
        points_used=len(usable),
        n_range=(min(ns), max(ns)),
    )


def rh_report(fit: SlopeFit) -> RhReport:
    """Classify a fitted exponent against the 5/2 and 3 reference lines."""
    s = fit.slope
    lo, hi = fit.n_range
    where = f"over n in [{lo}, {hi}] ({fit.points_used} points)"
    if s < RH_EXPONENT:
        cls = "below-rh"
        msg = (
            f"fitted exponent {s:.4f} {where} sits below the"
            f" RH-conditional reference {RH_EXPONENT}"
        )
    elif s < UNCONDITIONAL_EXPONENT:
        cls = "between"
        msg = (
            f"fitted exponent {s:.4f} {where} sits between the RH-conditional"
            f" {RH_EXPONENT} and the unconditional {UNCONDITIONAL_EXPONENT}"
        )
    else:
        cls = "above-unconditional"
        msg = (
            f"fitted exponent {s:.4f} {where} is at or above the unconditional"
            f" reference {UNCONDITIONAL_EXPONENT}; check the computation"
        )
    return RhReport(
        slope=s,
        rh_exponent=RH_EXPONENT,
        unconditional_exponent=UNCONDITIONAL_EXPONENT,
        classification=cls,
        message=msg,
        note=(
            "heuristic readout of a finite scan; not evidence for or"
            " against the Riemann hypothesis"
        ),
    )
