"""Compare benchmark records of a base commit and a change.

Usage:
    python3 perfbench/compare.py --base A1.json A2.json ... --change B1.json ...

The records are the files ``run.py`` writes to ``perfbench/out/``.  All
of them must come from the same workload, run length, trace setting and
Jacobi backend: the compiled kernel is roughly ten times the numpy
fallback, so a comparison across backends would measure the build, not
the change, and is refused.  Prints each metric's median and quartiles
per side and the ratio of the medians.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(base: list[dict], change: list[dict]) -> list[str]:
    """Report lines; raises ValueError when the records are not comparable."""
    records = base + change
    for key in ("workload", "seconds", "trace"):
        if len({rec[key] for rec in records}) != 1:
            raise ValueError(f"records differ in {key}")
    backends = {rec["provenance"]["backend"] for rec in records}
    if len(backends) != 1:
        raise ValueError(f"records come from different backends {sorted(backends)}")
    lines = [f"workload {records[0]['workload']}  backend {backends.pop()}  "
             f"runs {len(base)} base, {len(change)} change"]
    for name, meta in base[0]["metrics"].items():
        sides = [_quartiles([rec["metrics"][name]["value"] for rec in side])
                 for side in (base, change)]
        ratio = sides[1][1] / sides[0][1] if sides[0][1] else float("nan")
        lines.append(
            f"  {name:<36} base {sides[0][1]:.6g} [{sides[0][0]:.4g}, "
            f"{sides[0][2]:.4g}]  change {sides[1][1]:.6g} [{sides[1][0]:.4g}, "
            f"{sides[1][2]:.4g}] {meta['unit']}  change/base {ratio:.4f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    sides = []
    for paths in (args.base, args.change):
        side = []
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                side.append(json.load(handle))
        sides.append(side)
    try:
        lines = compare(*sides)
    except ValueError as exc:
        sys.stderr.write(f"refusing to compare: {exc}\n")
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
