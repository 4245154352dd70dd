"""What importing gridcount loads: numpy only when a numpy sieve, walk or fit
runs, so never for a grid point query, never fractions or decimal, and every
module the benchmark's span tracer patches, with its attributes; and what it
exports.

Each load check runs in a fresh interpreter, since this one has numpy
loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gridcount

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(gridcount.__file__).resolve().parent.parent


def fresh(code: str) -> str:
    """stdout of code run by a new interpreter that imports this gridcount."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    r = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return r.stdout


def loads_numpy(argv: list[str]) -> bool:
    """Whether running the CLI on argv in a fresh interpreter imports numpy."""
    code = (
        "import sys\n"
        "from gridcount.cli import main\n"
        "try:\n"
        f"    main({argv!r})\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
        "print('numpy' in sys.modules)\n"
    )
    return fresh(code).splitlines()[-1] == "True"


def test_import_leaves_numpy_out():
    code = "import sys, gridcount, gridcount.cli; print('numpy' in sys.modules)"
    assert fresh(code) == "False\n"


def test_cli_import_leaves_exact_rationals_out():
    # e_r rounds once through an int / int division, so no float needs
    # fractions or decimal
    code = (
        "import sys, gridcount.cli\n"
        "print(sorted({'fractions', 'decimal'} & set(sys.modules)))\n"
    )
    assert fresh(code) == "[]\n"


@pytest.mark.parametrize(
    "argv, numpy",
    [
        (["oracle", "--n", "4", "--threshold"], False),
        # every grid query's presieve, m < 10^7 <= 2^24, is sieved in pure Python
        (["fq", "--n", "10", "--q", "1"], False),
        (["counts", "--n", "25", "--q", "7"], False),
        (["threshold", "--n", "4"], False),
        (["fq", "--n", "1026", "--q", "1"], False),  # m = 1025
        (["fq", "--n", "10000000", "--q", "1"], False),
    ],
)
def test_numpy_loaded_only_by_commands_that_sieve(argv, numpy):
    assert loads_numpy(argv) is numpy


def test_point_query_past_2_to_the_24_sieves_with_numpy():
    code = (
        "import sys, gridcount\n"
        "for i in (2**24, 2**24 + 1):\n"
        "    gridcount.summatory_phi(i)\n"
        "    print('numpy' in sys.modules)\n"
    )
    assert fresh(code) == "False\nTrue\n"


def test_cli_import_loads_every_traced_module():
    # perfbench/traced_cli.py patches attributes of modules already in
    # sys.modules once gridcount.cli is imported; a module loaded lazily
    # later would silently lose its spans.
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
        "import traced_cli\n"
        "import gridcount.cli\n"
        "patched = [(mod, attr) for mod, attr, *_ in traced_cli.SPANNED + traced_cli.STREAMED]\n"
        "print(json.dumps([[mod, attr, hasattr(sys.modules.get('gridcount.' + mod), attr)]\n"
        "                  for mod, attr in patched]))\n"
    )
    found = json.loads(fresh(code))
    assert {mod for mod, _, _ in found} == {"totient", "counts", "asympt", "oracle"}
    assert [(mod, attr) for mod, attr, present in found if not present] == []


REMOVED = ("CanonicalLine", "canonical_line", "LineHistogram", "main_term_segments")


def test_public_surface():
    # every export resolves, once, and the names only tests read stay gone
    assert [name for name in gridcount.__all__ if not hasattr(gridcount, name)] == []
    assert len(set(gridcount.__all__)) == len(gridcount.__all__)
    assert [name for name in REMOVED if hasattr(gridcount, name)] == []
