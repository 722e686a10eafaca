"""Compare two benchmark result files written by run.py.

    python3 bench/compare.py BEFORE.jsonl AFTER.jsonl

Prints one row per workload.  For each end-to-end metric in BENCHMARK.json
it shows, over that side's untraced runs (one per seed), the median with
the first and third quartiles in brackets, then the change of the median.
A change past the metric's bound in the worse direction is marked
``WORSE``, in the better direction ``better``.  ``wall_s`` is shown too
but has no bound (see run.py).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
SHOWN = SPEC["end_to_end"] + [{"name": "wall_s", "better": "lower", "bound": None}]


def load(path: str) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values of the untraced runs in the file."""
    out: Dict[str, Dict[str, List[float]]] = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record["trace"]:
            continue
        metrics = out.setdefault(record["workload"], {})
        for name, value in record["end_to_end"].items():
            metrics.setdefault(name, []).append(value)
    return out


def summary(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def cell(before: List[float], after: List[float], spec: Dict) -> str:
    (m0, a0, b0), (m1, a1, b1) = summary(before), summary(after)
    change = (m1 - m0) / m0 if m0 else 0.0
    worse = change if spec["better"] == "lower" else -change
    bound = spec["bound"]
    mark = "" if bound is None else " WORSE" if worse > bound else " better" if worse < -bound else ""
    return (f"{spec['name']} {m0:.4g} [{a0:.4g}, {b0:.4g}] -> "
            f"{m1:.4g} [{a1:.4g}, {b1:.4g}] {change:+.1%}{mark}")


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    before, after = load(argv[0]), load(argv[1])
    for workload in SPEC["workloads"]:
        name = workload["name"]
        if name not in before or name not in after:
            print(f"{name}: missing from {'before' if name not in before else 'after'}")
            continue
        n0 = len(before[name]["wall_s"])
        n1 = len(after[name]["wall_s"])
        cells = [cell(before[name][m["name"]], after[name][m["name"]], m)
                 for m in SHOWN]
        print(f"{name} ({n0} vs {n1} runs): " + " | ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
