"""The paper's scoring formulas, written out again for checking outputs.

The benchmark computes every expected score from its own seeded raw
metrics with these functions and never asks the program under test for
an expected value, so a broken parser or normalizer shows up as a failed
operation instead of as a fast one.
"""

from __future__ import annotations

import math

# Tool order and default weights of the composite (multi-domain tools
# 0.20, single-domain tools 0.15).
TOOLS = ("lynis", "openscap_standard", "aide", "tripwire", "openscap_cis", "vuln_scan")
TOOL_WEIGHTS = {
    "lynis": 0.20,
    "openscap_standard": 0.15,
    "aide": 0.15,
    "tripwire": 0.15,
    "openscap_cis": 0.20,
    "vuln_scan": 0.15,
}
SEVERITY_WEIGHTS = {"critical": 15.0, "high": 8.0, "medium": 4.0, "low": 1.0}
PORT_PENALTY = 3.0
CONFIRMED_PENALTY = 10.0
FIREWALL_DISCOUNT = 10.0
FIREWALL_FILTERED_THRESHOLD = 100


def severity_of(cvss: float) -> str:
    if cvss >= 9.0:
        return "critical"
    if cvss >= 7.0:
        return "high"
    if cvss >= 4.0:
        return "medium"
    return "low"


def scap_score(passed: int, failed: int) -> float:
    return 100.0 * passed / (passed + failed)


def aide_score(added: int, removed: int, changed: int) -> float:
    total = added + removed + changed
    return 100.0 if total == 0 else max(0.0, 100.0 - 10.0 * math.log10(total))


def tripwire_score(objects: int, violations: int) -> float:
    return 100.0 * (objects - violations) / objects


def vuln_score(
    open_ports: int, filtered_ports: int, severities: list[str], confirmed: int
) -> float:
    """``severities`` lists the unconfirmed findings; confirmed ones carry
    only the flat confirmed penalty."""
    penalty = sum(SEVERITY_WEIGHTS[s] for s in severities)
    penalty += PORT_PENALTY * open_ports + CONFIRMED_PENALTY * confirmed
    if filtered_ports >= FIREWALL_FILTERED_THRESHOLD:
        penalty = max(0.0, penalty - FIREWALL_DISCOUNT)
    return min(100.0, max(0.0, 100.0 - penalty))


def contributions(scores: dict[str, float]) -> dict[str, float]:
    return {tool: TOOL_WEIGHTS[tool] * scores[tool] for tool in TOOLS}


def composite(scores: dict[str, float]) -> float:
    return sum(contributions(scores).values())


def decomposition(before: dict[str, float], after: dict[str, float]) -> tuple[float, str]:
    """Total weighted delta and the dominant tool (ties: earlier tool)."""
    deltas = {tool: TOOL_WEIGHTS[tool] * (after[tool] - before[tool]) for tool in TOOLS}
    dominant = TOOLS[0]
    for tool in TOOLS:
        if abs(deltas[tool]) > abs(deltas[dominant]):
            dominant = tool
    return sum(deltas.values()), dominant
