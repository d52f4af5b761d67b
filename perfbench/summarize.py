#!/usr/bin/env python3
"""Median and quartiles of every metric over the runs in ``.perfbench/results``.

    python3 perfbench/summarize.py > summary.json

Each benchmark run leaves ``<workload>-seed<N>-trace<T>.json`` there; this
groups them by workload and trace mode and notes the machine it runs on.
"""

import json
import os
import platform
import statistics
import sys
from collections import defaultdict
from pathlib import Path

RESULTS = Path(__file__).resolve().parent.parent / ".perfbench" / "results"


def main() -> int:
    runs: dict[str, dict[str, list]] = defaultdict(lambda: defaultdict(list))
    units: dict[str, str] = {}
    for path in sorted(RESULTS.glob("*.json")):
        workload, trace = path.stem.rpartition("-seed")[0], path.stem[-1]
        for name, metric in json.loads(path.read_text()).items():
            runs[f"{workload} trace={trace}"][name].append(metric["value"])
            units[name] = metric["unit"]
    summary: dict = {"machine": {"nproc": os.cpu_count(), "python": platform.python_version()}}
    for group, metrics in sorted(runs.items()):
        summary[group] = {}
        for name, values in metrics.items():
            quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            summary[group][name] = {
                "median": statistics.median(values), "q1": quartiles[0], "q3": quartiles[2],
                "unit": units[name], "runs": len(values),
            }
    json.dump(summary, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
