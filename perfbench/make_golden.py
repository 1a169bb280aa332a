"""Record the flat-pairs goldens: the fixture data, and for each benchmarked
fixture pair its per-degree spectra and comparison/tau verdicts at the
workload's cutoff.  Refuses to write a golden that misses the acceptance
anchors.

    python3 perfbench/make_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from curvspec import flat  # noqa: E402

import workloads as wl  # noqa: E402


def main() -> int:
    table = flat.fixtures()
    names = [g for pair, _, _ in wl.FLAT_CLASSES for g in pair]
    golden = {
        "fixtures": {
            name: {
                "lattice": [[str(x) for x in row] for row in table[name].lattice.basis],
                "cosets": [
                    {"rotation": [[str(x) for x in row] for row in b], "translation": [str(x) for x in t]}
                    for b, t in table[name].cosets
                ],
            }
            for name in names
        },
        "pairs": [
            {
                "groups": list(pair),
                "cutoff": str(cutoff),
                "verdicts": wl.flat_verdicts(table[pair[0]], table[pair[1]], cutoff),
                "spectra": {name: wl.flat_spectra(table[name], cutoff) for name in pair},
            }
            for pair, cutoff, _ in wl.FLAT_CLASSES
        ],
    }
    problems = wl.golden_anchor_problems(golden)
    if problems:
        print(f"not written, anchors fail: {problems}", file=sys.stderr)
        return 1
    with open(wl.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {wl.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
