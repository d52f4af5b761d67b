"""Presentation of assessments, comparisons and trend reports.

All rendering is deterministic: identical inputs yield byte-identical
output, and timestamps appear only when explicitly requested. Scores are
shown to two decimals and percentages to one; stored values keep full
precision.
"""

from __future__ import annotations

import json
from typing import Sequence

from .analysis import TrendTable, decompose_delta, rank_contributions, trend_series
from .model import (
    TOOL_KINDS,
    CompositeAssessment,
    DeltaDecomposition,
    NormalizedScore,
    RawToolReport,
)
from .scoring import TOOLS
from .store import HistoryRecord, record_to_json


# The characters at which ``str.splitlines`` ends a line. One in a label,
# host, path or report field would split a line of output, so the writers
# here return raw lines and each format has one rule, applied to each whole
# line: the CLI applies the text rule, the Markdown report the Markdown rule.
_LINE_BREAKS = "\r\n\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_MARKDOWN_LINE = str.maketrans(dict.fromkeys(_LINE_BREAKS, "<br>"))
_TEXT_LINE = str.maketrans({c: repr(c)[1:-1] for c in _LINE_BREAKS})  # as \n, \x0b, \u2028


def _markdown_line(text: str) -> str:
    """``text`` on one Markdown line, each line break written ``<br>``."""
    return text.replace("\r\n", "\n").translate(_MARKDOWN_LINE)


def text_line(text: str) -> str:
    """``text`` on one line of text output, each line break backslash-escaped."""
    return text.translate(_TEXT_LINE)


def raw_summary(raw: RawToolReport | None) -> str:
    if raw is None:
        return "(score supplied directly)"
    return TOOLS[raw.tool].summary(raw)


def change_cell(first: float, last: float) -> str:
    """Relative percent for upward moves from a base that shows as nonzero, else points."""
    delta = last - first
    if round(first, 2) > 0 and delta > 0:
        return f"+{delta / first * 100.0:.1f}%"
    return f"{delta:+.1f} pts"


def format_assessment_text(
    assessment: CompositeAssessment, host_label: str | None = None
) -> list[str]:
    lines = [f"label: {assessment.label}"]
    if host_label:
        lines.append(f"host: {host_label}")
    lines.append(
        f"{'tool':<20} {'score':>8} {'weight':>7} {'contribution':>13}  raw"
    )
    for tool in TOOL_KINDS:
        score = assessment.scores[tool]
        lines.append(
            f"{tool.value:<20} {score.value:>8.2f} "
            f"{assessment.weights.tool_weights[tool]:>7.2f} "
            f"{assessment.contributions[tool]:>13.2f}  {raw_summary(score.raw)}"
        )
    lines.append(f"composite: {assessment.composite:.2f}")
    return lines


def format_parse_text(score: NormalizedScore, source: str) -> list[str]:
    lines = [f"tool: {score.tool.value}", f"source: {source}"]
    return lines + [*TOOLS[score.tool].details(score.raw), f"score: {score.value:.2f}"]


def _share_text(share: float | None) -> str:
    return "-" if share is None else f"{share * 100.0:.1f}%"


def format_compare_text(decomposition: DeltaDecomposition) -> list[str]:
    heading = f"delta decomposition: {decomposition.from_label} -> {decomposition.to_label}"
    lines = [heading, f"{'rank':<5} {'tool':<20} {'weighted delta':>14} {'share':>8}"]
    for position, (tool, delta, share) in enumerate(rank_contributions(decomposition), start=1):
        lines.append(f"{position:<5} {tool.value:<20} {delta:>+14.2f} {_share_text(share):>8}")
    lines.append(f"total delta: {decomposition.total_delta:+.2f}")
    if decomposition.dominant_share is None:
        lines.append("dominant: none (total delta is zero)")
    else:
        lines.append(
            f"dominant: {decomposition.dominant_tool.value} "
            f"{decomposition.per_tool_delta[decomposition.dominant_tool]:+.2f} "
            f"({decomposition.dominant_share * 100.0:.1f}%)"
        )
    return lines


def compare_to_dict(decomposition: DeltaDecomposition) -> dict:
    """The decomposition as JSON; with a zero total no tool dominates, as in text."""
    dominant_share = decomposition.dominant_share
    return {
        "from": decomposition.from_label,
        "to": decomposition.to_label,
        "per_tool_delta": {
            tool.value: decomposition.per_tool_delta[tool] for tool in TOOL_KINDS
        },
        "total_delta": decomposition.total_delta,
        "dominant_tool": None if dominant_share is None else decomposition.dominant_tool.value,
        "dominant_share": dominant_share,
        "ranked": [
            {"tool": tool.value, "delta": delta, "share": share}
            for tool, delta, share in rank_contributions(decomposition)
        ],
    }


def _score_matrix(records: Sequence[HistoryRecord]) -> list[list[str]]:
    """Header, one row per tool, and the composite row last; plain cells."""
    assessments = [record.assessment for record in records]
    multi = len(assessments) > 1
    header = ["Tool"] + [a.label for a in assessments] + (["Change"] if multi else [])
    series = [
        (TOOLS[tool].display_name, [a.scores[tool].value for a in assessments])
        for tool in TOOL_KINDS
    ]
    series.append(("Composite", [a.composite for a in assessments]))
    rows = [header]
    for name, values in series:
        change = [change_cell(values[0], values[-1])] if multi else []
        rows.append([name] + [f"{v:.2f}" for v in values] + change)
    return rows


def _markdown_table(rows: list[list[str]]) -> list[str]:
    """A GFM table; no ``|`` in a cell splits a cell."""
    cells = [[cell.replace("|", "\\|") for cell in row] for row in rows]
    header, *body = cells
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("| " + " | ".join([":--"] + ["--:"] * (len(header) - 1)) + " |")
    for row in body:
        lines.append("| " + " | ".join(row) + " |")
    return lines


def _text_table(rows: list[list[str]]) -> list[str]:
    # Escaped before the widths are taken, so that they count the printed characters.
    rows = [[text_line(cell) for cell in row] for row in rows]
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [row[0].ljust(widths[0])] + [
            cell.rjust(widths[i]) for i, cell in enumerate(row[1:], start=1)
        ]
        lines.append("  ".join(cells).rstrip())
    return lines


def _analysis(
    records: Sequence[HistoryRecord],
) -> tuple[TrendTable | None, DeltaDecomposition | None]:
    """Trends and the first-to-last decomposition; both ``None`` below two records."""
    if len(records) < 2:
        return None, None
    assessments = [record.assessment for record in records]
    return trend_series(assessments), decompose_delta(assessments[0], assessments[-1])


def _timestamp_lines(records: Sequence[HistoryRecord], bullet: str) -> list[str]:
    """One raw line per record with its timestamp and host, then a blank line."""
    return [
        f"{bullet}{record.assessment.label}: {record.assessment.timestamp.isoformat()} "
        f"(host {record.host_label})"
        for record in records
    ] + [""]


def render_report_markdown(
    records: Sequence[HistoryRecord], with_timestamps: bool = False
) -> list[str]:
    trends, decomposition = _analysis(records)
    sections = ["# Security posture report", ""]
    if with_timestamps:
        sections += _timestamp_lines(records, "- ")
    *rows, composite_row = _score_matrix(records)
    scores_table = _markdown_table([*rows, [f"**{cell}**" for cell in composite_row]])
    sections += ["## Scores", "", *scores_table, ""]
    if trends is not None:
        trend_rows = [["Tool", "Direction"]]
        for tool in TOOL_KINDS:
            trend_rows.append([TOOLS[tool].display_name, trends.directions[tool].value])
        trend_rows.append(["**Composite**", trends.composite_direction.value])
        sections += ["## Trends", "", *_markdown_table(trend_rows), ""]
    if decomposition is not None:
        driver_rows = [["Rank", "Tool", "Weighted delta", "Share"]]
        for position, (tool, delta, share) in enumerate(rank_contributions(decomposition), start=1):
            name = TOOLS[tool].display_name
            driver_rows.append([str(position), name, f"{delta:+.2f}", _share_text(share)])
        heading = f"## Change drivers: {decomposition.from_label} to {decomposition.to_label}"
        sections += [heading, "", *_markdown_table(driver_rows), ""]
        if decomposition.dominant_share is None:
            sections.append("No dominant driver: the composite did not change.")
        else:
            sections.append(
                f"Total delta {decomposition.total_delta:+.2f}; dominant driver "
                f"{TOOLS[decomposition.dominant_tool].display_name} "
                f"({decomposition.per_tool_delta[decomposition.dominant_tool]:+.2f}, "
                f"{decomposition.dominant_share * 100.0:.1f}% of total)."
            )
        sections.append("")
    return [_markdown_line(line) for line in sections]


def render_report_text(
    records: Sequence[HistoryRecord], with_timestamps: bool = False
) -> list[str]:
    trends, decomposition = _analysis(records)
    sections = ["security posture report", ""]
    if with_timestamps:
        sections += _timestamp_lines(records, "")
    sections += _text_table(_score_matrix(records))
    if trends is not None:
        sections.append("")
        sections.append("trends:")
        for tool in TOOL_KINDS:
            sections.append(f"  {tool.value:<20} {trends.directions[tool].value}")
        sections.append(f"  {'composite':<20} {trends.composite_direction.value}")
    if decomposition is not None:
        sections.append("")
        sections += format_compare_text(decomposition)
    sections.append("")
    return sections


def render_report_json(records: Sequence[HistoryRecord]) -> str:
    trends, decomposition = _analysis(records)
    document = {
        "labels": [record.assessment.label for record in records],
        "records": [json.loads(record_to_json(record)) for record in records],
        "trends": None
        if trends is None
        else {
            "per_tool": {
                tool.value: list(trends.per_tool[tool]) for tool in TOOL_KINDS
            },
            "directions": {
                tool.value: trends.directions[tool].value for tool in TOOL_KINDS
            },
            "composite": list(trends.composite),
            "composite_direction": trends.composite_direction.value,
        },
        "decomposition": None if decomposition is None else compare_to_dict(decomposition),
    }
    return json.dumps(document, indent=2, sort_keys=False)
