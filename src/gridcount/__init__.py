"""Exact and asymptotic counting of segments and lines in square integer grids.

The package is organized around one exact quantity, the weighted gcd-class
pair count f_q(n), computed either by definition (f_direct) or through a
totient identity (f_fast), which reads three weighted totient moments from
a sublinear recursion over a small presieve.  A caller that keeps its own
totient table gets the same f from f_from_moments over a totient_moments
walk of it.  The totient error terms (summatory_phi, e_phi, e_r and the
iter_error_terms stream) likewise size their own sieve from the index
they are asked for, and read it in blocks as it is sieved.  Segment counts, line counts, and the number of
linear threshold dichotomies all derive from f by exact integer
arithmetic.
Independent brute-force oracles cover small grids, and the asympt module
compares exact values against their n^4 main terms.  Counts, main terms
and oracles all take plain or numpy integers; anything else raises
TypeError.

Every module is imported eagerly, but numpy is imported only by the
totient sieve, the moment walk and the residual fit, when they run: the
oracles, the counts and importing the package never load it, since the
counts' presieve is sieved in pure Python.
"""

from .asympt import (
    RH_EXPONENT,
    UNCONDITIONAL_EXPONENT,
    RhReport,
    ScanRow,
    SlopeFit,
    fit_log_exponent,
    main_term_f,
    main_term_lines_eq,
    main_term_lines_ge,
    residual,
    rh_report,
    scan_residuals,
)
from .counts import (
    MAX_GRID_N,
    CountSet,
    GridQuery,
    LemmaDecomposition,
    count_set,
    decompose_lemma,
    f_direct,
    f_fast,
    f_from_moments,
    lines_at_least,
    lines_exactly,
    segments_count,
    threshold_count,
)
from .errors import ResourceLimitError
from .oracle import (
    ORACLE_GRID_LIMIT,
    THRESHOLD_GRID_LIMIT,
    oracle_line_histogram,
    oracle_segments,
    oracle_threshold_count,
)
from .totient import (
    PI_SQUARED,
    SIEVE_LIMIT,
    TotientTable,
    build_totient_table,
    e_phi,
    e_r,
    iter_error_terms,
    summatory_phi,
    totient_moments,
)

__version__ = "0.1.0"

__all__ = [
    "CountSet",
    "GridQuery",
    "LemmaDecomposition",
    "MAX_GRID_N",
    "ORACLE_GRID_LIMIT",
    "PI_SQUARED",
    "RH_EXPONENT",
    "ResourceLimitError",
    "RhReport",
    "SIEVE_LIMIT",
    "ScanRow",
    "SlopeFit",
    "THRESHOLD_GRID_LIMIT",
    "TotientTable",
    "UNCONDITIONAL_EXPONENT",
    "build_totient_table",
    "count_set",
    "decompose_lemma",
    "e_phi",
    "e_r",
    "f_direct",
    "f_fast",
    "f_from_moments",
    "fit_log_exponent",
    "iter_error_terms",
    "lines_at_least",
    "lines_exactly",
    "main_term_f",
    "main_term_lines_eq",
    "main_term_lines_ge",
    "oracle_line_histogram",
    "oracle_segments",
    "oracle_threshold_count",
    "residual",
    "rh_report",
    "scan_residuals",
    "segments_count",
    "summatory_phi",
    "threshold_count",
    "totient_moments",
]
