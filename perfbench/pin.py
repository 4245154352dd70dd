"""Regenerate pinned.json, the large-n reference values of point_large.

    python3 perfbench/pin.py

Picks PIN_COUNT grid sides near the 10^7 cap and computes f_1, f_2 and f_3
at each twice: from this directory's own totient sieve and moment sums, and
from gridcount's ``decompose_lemma``, whose remainder-form loop shares no
code with ``f_fast``.  A value is written only when both agree.  Takes a
few minutes and about 250 MB.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
PINS = HERE / "pinned.json"
N_RANGE = (9_800_000, 10_000_000)
PIN_COUNT = 16
QS = (1, 2, 3)


def main() -> int:
    ns = sorted(random.Random("point_large-pins").sample(range(N_RANGE[0], N_RANGE[1] + 1), PIN_COUNT))
    phi = reference.phi_table(max(ns))
    moments = reference.moments_at(phi, [(n - 1) // q for n in ns for q in QS])
    del phi
    ours = {n: {q: reference.f_from_moments(n, q, moments[(n - 1) // q]) for q in QS} for n in ns}

    sys.path.insert(0, str(HERE.parent / "src"))
    import gridcount

    table = gridcount.build_totient_table(max(ns))
    for n in ns:
        for q in QS:
            lemma = gridcount.decompose_lemma(gridcount.GridQuery(n - 1, q), table).recombined()
            if lemma != ours[n][q]:
                print(f"mismatch at n={n} q={q}: lemma {lemma}, moments {ours[n][q]}", file=sys.stderr)
                return 1
    data = {
        "n_range": list(N_RANGE),
        "f": {str(n): {str(q): ours[n][q] for q in QS} for n in ns},
    }
    PINS.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {len(ns)} pins to {PINS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
