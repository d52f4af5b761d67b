"""Comparison of assessments across hardening levels.

Hardening moves tool scores in opposite directions (compliance scores
rise while file integrity scores fall as legitimate changes accumulate),
so a composite delta is only interpretable through its per-tool weighted
decomposition and per-tool trend directions.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

from .errors import AnalysisError
from .model import (
    TOOL_KINDS,
    WEIGHT_SUM_TOLERANCE,
    CompositeAssessment,
    DeltaDecomposition,
    Frozen,
    ToolKind,
)

# Scores are conventionally reported to one decimal; endpoint moves
# inside this band are noise, not a trend.
FLAT_TOLERANCE = 0.05


class Trend(Enum):
    UP = "up"
    DOWN = "down"
    FLAT = "flat"


class TrendTable(Frozen):
    """Per-tool score sequences with endpoint direction classification."""

    __slots__ = ("per_tool", "directions", "composite", "composite_direction")

    def __init__(
        self,
        per_tool: dict[ToolKind, tuple[float, ...]],
        directions: dict[ToolKind, Trend],
        composite: tuple[float, ...],
        composite_direction: Trend,
    ):
        self._init(per_tool, directions, composite, composite_direction)


def _require_same_weights(reference: CompositeAssessment, other: CompositeAssessment) -> None:
    """Raise unless both carry the same six tool weights within tolerance."""
    weights, others = reference.weights.tool_weights, other.weights.tool_weights
    if any(abs(weights[tool] - others[tool]) > WEIGHT_SUM_TOLERANCE for tool in TOOL_KINDS):
        raise AnalysisError(
            "WEIGHT_MISMATCH",
            f"assessments {reference.label!r} and {other.label!r} use different "
            "tool weights; deltas would not decompose",
        )


def decompose_delta(
    from_assessment: CompositeAssessment, to_assessment: CompositeAssessment
) -> DeltaDecomposition:
    """Per-tool weighted score change between two assessments."""
    _require_same_weights(from_assessment, to_assessment)
    weights = to_assessment.weights.tool_weights
    per_tool = {
        tool: weights[tool]
        * (to_assessment.scores[tool].value - from_assessment.scores[tool].value)
        for tool in TOOL_KINDS
    }
    return DeltaDecomposition(from_assessment.label, to_assessment.label, per_tool)


def _direction(first: float, last: float) -> Trend:
    if abs(last - first) <= FLAT_TOLERANCE:
        return Trend.FLAT
    return Trend.UP if last > first else Trend.DOWN


def trend_series(assessments: Sequence[CompositeAssessment]) -> TrendTable:
    """Ordered per-tool score sequences with endpoint trend directions.

    Directions compare last against first: with a handful of hardening
    levels an endpoint rule reads the same way the change column of a
    results table does, and appending a copy of the current last
    assessment never changes a classification.
    """
    if len(assessments) < 2:
        raise AnalysisError(
            "TOO_FEW_ASSESSMENTS", f"need at least 2 assessments, got {len(assessments)}"
        )
    first = assessments[0]
    for other in assessments[1:]:
        _require_same_weights(first, other)
    per_tool = {
        tool: tuple(a.scores[tool].value for a in assessments) for tool in TOOL_KINDS
    }
    directions = {
        tool: _direction(series[0], series[-1]) for tool, series in per_tool.items()
    }
    composite = tuple(a.composite for a in assessments)
    return TrendTable(
        per_tool=per_tool,
        directions=directions,
        composite=composite,
        composite_direction=_direction(composite[0], composite[-1]),
    )


def rank_contributions(
    decomposition: DeltaDecomposition,
) -> list[tuple[ToolKind, float, float | None]]:
    """Deltas sorted by descending signed value, ties in canonical order.

    Shares are fractions of the total delta, or ``None`` when the total
    is zero within ``COMPOSITE_TOLERANCE``.
    """
    deltas = decomposition.per_tool_delta
    ordered = sorted(TOOL_KINDS, key=lambda tool: -deltas[tool])
    return [(tool, deltas[tool], decomposition.share(tool)) for tool in ordered]
