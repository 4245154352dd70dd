"""Command-line front end.

Every subcommand emits rows in one of three formats: an aligned table for
reading, headerless csv for piping, and json-lines for structured
consumers.  Numbers are rendered identically across runs (ints in full,
floats via repr-stable %.15g), so csv output is byte-reproducible.  The
process exits 0 on success, 1 on domain errors (bad values, exceeded
budgets) with a one-line ``error: <kind>: <detail>`` on stderr, and 2 on
malformed invocations.
"""

from __future__ import annotations

import functools
import json
import sys
from typing import Any, Callable, Iterable, Sequence

import click

from . import asympt, counts, oracle, totient
from .errors import ResourceLimitError, as_int


def format_value(v: Any) -> str:
    """One value as text: ints in full decimal, floats as %.15g, None empty."""
    if v is None:
        return ""
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return format(v, ".15g")
    return str(v)


def json_line(columns: Sequence[str], values: Sequence[Any]) -> str:
    """One json object per row, keys in column order, floats as emitted in csv."""
    parts = []
    for col, v in zip(columns, values):
        if v is None:
            text = "null"
        elif isinstance(v, (int, float)):
            text = format_value(v)
        else:
            text = json.dumps(v)
        parts.append(f'"{col}": {text}')
    return "{" + ", ".join(parts) + "}"


def table_lines(columns: Sequence[str], rows: Sequence[Sequence[Any]]) -> list[str]:
    cells = [[format_value(v) for v in row] for row in rows]
    widths = [
        max(len(col), *(len(r[k]) for r in cells)) if cells else len(col)
        for k, col in enumerate(columns)
    ]
    out = ["  ".join(col.rjust(w) for col, w in zip(columns, widths))]
    for r in cells:
        out.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    return out


def emit(
    fmt: str, columns: Sequence[str], rows: Iterable[Sequence[Any]], block: str = ""
) -> None:
    """Print rows: a table as one aligned block, csv and json-lines row by row.

    ``block`` names a csv section, printed first as a '# block' marker line.
    """
    if fmt == "table":
        click.echo("\n".join(table_lines(columns, list(rows))))
        return
    if block and fmt == "csv":
        click.echo(f"# {block}")
    for row in rows:
        if fmt == "csv":
            click.echo(",".join(format_value(v) for v in row))
        else:
            click.echo(json_line(columns, row))


def emit_value(
    fmt: str, columns: Sequence[str], row: Sequence[Any], block: str = "", label: str = ""
) -> None:
    """One row whose last cell is the answer; in table format that cell alone."""
    if fmt == "table":
        click.echo(label + format_value(row[-1]))
    else:
        emit(fmt, columns, [row], block)


SCAN_COLUMNS = ("n", "q", "exact", "main", "residual", "normalized")
FIT_COLUMNS = (
    "slope", "intercept", "points_used", "n_lo", "n_hi", "classification",
    "message", "note",
)


def domain_errors(f: Callable) -> Callable:
    """Map domain failures to exit 1 with a machine-parsable stderr line."""

    @functools.wraps(f)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        try:
            return f(*args, **kwargs)
        except ResourceLimitError as exc:
            click.echo(f"error: resource-limit: {exc}", err=True)
            sys.exit(1)
        except ValueError as exc:
            click.echo(f"error: invalid-argument: {exc}", err=True)
            sys.exit(1)

    return wrapper


common_options = click.option(
    "--format",
    "fmt",
    type=click.Choice(["table", "csv", "json-lines"]),
    default="table",
    show_default=True,
    help="output format",
)


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
def main() -> None:
    """Exact and asymptotic counts of segments and lines in an n x n grid."""


@main.command("fq")
@click.option("--n", type=int, required=True, help="grid side")
@click.option("--q", type=int, required=True, help="gcd class")
@common_options
@domain_errors
def fq_cmd(n: int, q: int, fmt: str) -> None:
    """The weighted pair count f_q(n)."""
    f = counts.f_fast(counts.GridQuery(n, q))
    emit_value(fmt, ("n", "q", "f"), (n, q, f))


@main.command("counts")
@click.option("--n", type=int, required=True, help="grid side")
@click.option("--q", type=int, required=True, help="gcd class")
@common_options
@domain_errors
def counts_cmd(n: int, q: int, fmt: str) -> None:
    """f plus the derived segment and line counts at one (n, q).

    Line counts need q >= 2 and are empty/null at q = 1.
    """
    cs = counts.count_set(n, q)
    columns = ("n", "q", "f", "segments", "lines_at_least", "lines_exactly")
    row = (cs.n, cs.q, cs.f, cs.segments, cs.lines_at_least, cs.lines_exactly)
    emit(fmt, columns, [row])


@main.command("scan")
@click.option("--q", type=int, required=True, help="gcd class")
@click.option("--n-start", type=int, required=True, help="first grid side")
@click.option("--n-end", type=int, required=True, help="last grid side (inclusive)")
@click.option("--step", type=int, default=None, help="arithmetic step (default 1)")
@click.option(
    "--geometric", is_flag=True, help="double n each row instead of stepping"
)
@click.option("--fit", is_flag=True, help="append a log-log slope fit")
@common_options
@domain_errors
def scan_cmd(
    q: int,
    n_start: int,
    n_end: int,
    step: int | None,
    geometric: bool,
    fit: bool,
    fmt: str,
) -> None:
    """Residuals f_q(n) - 6 n^4 / (pi^2 q^2) over a range of n."""
    if geometric and step is not None:
        raise click.UsageError("--geometric and --step are mutually exclusive")
    as_int(n_start, "--n-start", 1)
    if n_start > n_end:
        raise ValueError(f"empty scan: --n-start {n_start} > --n-end {n_end}")
    if geometric:
        ns = []
        n = n_start
        while n <= n_end:
            ns.append(n)
            n *= 2
    else:
        if step is not None:
            as_int(step, "--step", 1)
        ns = range(n_start, n_end + 1, step or 1)
    # the largest n and q are checked before any list of n is built
    counts.GridQuery(ns[-1], q)
    rows = asympt.scan_residuals(q, ns)
    cells = ((r.n, r.q, r.exact, r.main, r.residual, r.normalized) for r in rows)
    emit(fmt, SCAN_COLUMNS, cells)
    if fit:
        slope_fit = asympt.fit_log_exponent(rows)
        report = asympt.rh_report(slope_fit)
        if fmt == "table":
            click.echo("")
            click.echo(f"fit: slope {format_value(slope_fit.slope)}")
            click.echo(f"     intercept {format_value(slope_fit.intercept)}")
            click.echo(f"     {report.message}")
            click.echo(f"     note: {report.note}")
        else:
            lo, hi = slope_fit.n_range
            row = (
                slope_fit.slope,
                slope_fit.intercept,
                slope_fit.points_used,
                lo,
                hi,
                report.classification,
                report.message,
                report.note,
            )
            # the csv fit schema ends at the classification; json adds the text
            width = 6 if fmt == "csv" else len(FIT_COLUMNS)
            emit(fmt, FIT_COLUMNS[:width], [row[:width]], "fit")


@main.command("oracle")
@click.option("--n", type=int, required=True, help="grid side (capped small)")
@click.option(
    "--threshold",
    "with_threshold",
    is_flag=True,
    help="also run the threshold-dichotomy oracle (capped at n <= 4)",
)
@click.option(
    "--force", is_flag=True, help="lift the small-grid caps on the oracles"
)
@common_options
@domain_errors
def oracle_cmd(n: int, with_threshold: bool, force: bool, fmt: str) -> None:
    """Brute-force line histogram and segment census for a small grid.

    In csv the blocks are separated by '# lines', '# segments', and
    '# threshold' marker lines.
    """
    hist = oracle.oracle_line_histogram(n, force=force)
    line_rows = [(n, p, c) for p, c in hist.items()]
    seg_rows = [(n, p, oracle.oracle_segments(n, p, force=force)) for p in range(2, n + 1)]
    thr = oracle.oracle_threshold_count(n, force=force) if with_threshold else None

    if fmt == "table":
        click.echo("lines through exactly p grid points")
    emit(fmt, ("n", "p", "lines"), line_rows, "lines")
    if fmt == "table":
        click.echo("\nsegments covering exactly p grid points")
    emit(fmt, ("n", "p", "segments"), seg_rows, "segments")
    if thr is not None:
        emit_value(fmt, ("n", "t"), (n, thr), "threshold", "\nthreshold dichotomies: ")


@main.command("errterms")
@click.option("--m-max", type=int, required=True, help="largest index")
@click.option("--every", type=int, default=1, show_default=True, help="emit every k-th row")
@common_options
@domain_errors
def errterms_cmd(m_max: int, every: int, fmt: str) -> None:
    """Summatory totient Phi(m) with both error terms, streamed."""
    as_int(m_max, "--m-max", 1)
    rows = totient.iter_error_terms(m_max, every)
    emit(fmt, ("m", "phi_sum", "e_phi", "e_r"), rows)


@main.command("threshold")
@click.option("--n", type=int, required=True, help="grid side")
@common_options
@domain_errors
def threshold_cmd(n: int, fmt: str) -> None:
    """Linear threshold dichotomies of the n x n grid: f_1(n) + 2."""
    t = counts.threshold_count(n)
    emit_value(fmt, ("n", "t"), (n, t))


if __name__ == "__main__":
    main()
