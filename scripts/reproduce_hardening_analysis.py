#!/usr/bin/env python3
"""Rebuild the three-level hardening assessment series and verify it.

Feeds the recorded per-tool scores for the baseline / partial / full
hardening levels through the aggregation pipeline, prints the rendered
markdown report, and checks the headline numbers: composites 58.34,
64.80, 68.17, a +16.8% composite gain, and the vulnerability scanner
dominating the baseline-to-full improvement with a 71.7% share.

Exits nonzero if any headline number fails to reproduce.
"""

import sys
from datetime import datetime, timezone

from auditscore.analysis import decompose_delta
from auditscore.model import NormalizedScore, ToolKind, WeightProfile
from auditscore.render import render_report_markdown
from auditscore.scoring import aggregate
from auditscore.store import HistoryRecord

RECORDED_LEVELS = {
    "baseline": [59, 67.4, 83.4, 82.4, 57.8, 0],
    "partial": [61, 69.8, 77.7, 78.0, 58.6, 47],
    "full": [66, 77.3, 75.0, 77.7, 67.1, 47],
}
EXPECTED_COMPOSITES = {"baseline": 58.34, "partial": 64.80, "full": 68.17}
TIMESTAMP = datetime(2025, 10, 2, 14, 30, 0, tzinfo=timezone.utc)


def main() -> int:
    profile = WeightProfile()
    assessments = []
    for label, values in RECORDED_LEVELS.items():
        scores = {
            tool: NormalizedScore(tool, float(value))
            for tool, value in zip(ToolKind, values)
        }
        assessments.append(aggregate(scores, profile, label, TIMESTAMP))

    records = [HistoryRecord(a, host_label="study-node") for a in assessments]
    print("\n".join(render_report_markdown(records)))

    decomposition = decompose_delta(assessments[0], assessments[-1])

    failures = []
    for assessment in assessments:
        expected = EXPECTED_COMPOSITES[assessment.label]
        if abs(assessment.composite - expected) > 0.01:
            failures.append(
                f"{assessment.label}: composite {assessment.composite:.4f} != {expected}"
            )
    gain = (assessments[-1].composite - assessments[0].composite) / assessments[0].composite
    if abs(gain * 100 - 16.8) > 0.1:
        failures.append(f"composite gain {gain * 100:.2f}% != 16.8%")
    if decomposition.dominant_tool is not ToolKind.VULN_SCAN:
        failures.append(f"dominant driver {decomposition.dominant_tool.value} != vuln_scan")
    if abs(decomposition.dominant_share * 100 - 71.7) > 0.1:
        failures.append(f"dominant share {decomposition.dominant_share * 100:.2f}% != 71.7%")

    if failures:
        for failure in failures:
            print(f"MISMATCH: {failure}", file=sys.stderr)
        return 1
    print("all headline numbers reproduced")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
