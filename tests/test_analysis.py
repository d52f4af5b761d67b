import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from auditscore.analysis import (
    Trend,
    decompose_delta,
    rank_contributions,
    trend_series,
)
from auditscore.errors import AnalysisError
from auditscore.model import ToolKind, WeightProfile
from auditscore.scoring import aggregate

from .strategies import (
    FIXED_TIMESTAMP,
    score_values,
    six_scores,
    weight_profiles,
)

THREE_LEVELS = {
    "baseline": [59, 67.4, 83.4, 82.4, 57.8, 0],
    "partial": [61, 69.8, 77.7, 78.0, 58.6, 47],
    "full": [66, 77.3, 75.0, 77.7, 67.1, 47],
}


def _assessment(label, values, profile=None):
    return aggregate(
        six_scores(values), profile or WeightProfile(), label, FIXED_TIMESTAMP
    )


@pytest.fixture
def three_levels():
    return [_assessment(label, values) for label, values in THREE_LEVELS.items()]


# ---------------------------------------------------------------------------
# Delta decomposition
# ---------------------------------------------------------------------------


def test_baseline_to_full_decomposition_golden(three_levels):
    baseline, _, full = three_levels
    decomposition = decompose_delta(baseline, full)
    expected = {
        ToolKind.VULN_SCAN: 7.05,
        ToolKind.OPENSCAP_CIS: 1.86,
        ToolKind.OPENSCAP_STANDARD: 1.485,
        ToolKind.LYNIS: 1.40,
        ToolKind.TRIPWIRE: -0.705,
        ToolKind.AIDE: -1.26,
    }
    for tool, value in expected.items():
        assert decomposition.per_tool_delta[tool] == pytest.approx(value, abs=1e-9)
    assert decomposition.total_delta == pytest.approx(9.83, abs=1e-9)
    assert decomposition.dominant_tool is ToolKind.VULN_SCAN
    assert decomposition.dominant_share == pytest.approx(0.717, abs=0.001)


def test_decomposition_total_matches_composite_difference(three_levels):
    baseline, _, full = three_levels
    decomposition = decompose_delta(baseline, full)
    assert decomposition.total_delta == pytest.approx(
        full.composite - baseline.composite, abs=1e-9
    )


def test_self_comparison_has_no_dominant_share(three_levels):
    baseline = three_levels[0]
    decomposition = decompose_delta(baseline, baseline)
    assert decomposition.total_delta == 0.0
    assert all(delta == 0.0 for delta in decomposition.per_tool_delta.values())
    assert decomposition.dominant_share is None
    assert decomposition.dominant_tool is ToolKind.LYNIS  # declaration-order tie break


# Per-tool deltas that cancel to a rounding residue: +20 and -20 plus a
# subnormal (1.5e-322) or a 1e-12-sized remainder. Composites are only
# defined to 1e-9, so the total counts as zero and no share is computed.
_NEAR_ZERO_PAIRS = {
    "subnormal": ([0, 50, 50, 50, 100, 0], [100, 50, 50, 50, 0, 1e-321]),
    "residue-1e-12": ([0, 50, 50, 50, 100, 0], [100, 50, 50, 50, 0, 1e-11]),
}


@pytest.mark.parametrize("before, after", _NEAR_ZERO_PAIRS.values(), ids=_NEAR_ZERO_PAIRS)
def test_near_zero_total_has_no_dominant_share(before, after):
    decomposition = decompose_delta(_assessment("before", before), _assessment("after", after))
    assert 0.0 < abs(decomposition.total_delta) <= 1e-9
    assert decomposition.dominant_tool is ToolKind.LYNIS
    assert decomposition.dominant_share is None


@pytest.mark.parametrize("before, after", _NEAR_ZERO_PAIRS.values(), ids=_NEAR_ZERO_PAIRS)
def test_near_zero_total_ranks_without_shares(before, after):
    ranked = rank_contributions(
        decompose_delta(_assessment("before", before), _assessment("after", after))
    )
    assert [tool for tool, _, _ in ranked][0] is ToolKind.LYNIS
    assert all(share is None for _, _, share in ranked)


def test_single_tool_change_is_linear():
    before = _assessment("before", [50] * 6)
    values = [50] * 6
    values[list(ToolKind).index(ToolKind.AIDE)] = 60
    after = _assessment("after", values)
    decomposition = decompose_delta(before, after)
    assert decomposition.per_tool_delta[ToolKind.AIDE] == pytest.approx(1.5, abs=1e-9)
    assert decomposition.total_delta == pytest.approx(1.5, abs=1e-9)
    assert decomposition.dominant_share == pytest.approx(1.0, abs=1e-9)


def test_mismatched_weights_rejected():
    uniform = WeightProfile(tool_weights={tool: 1.0 / 6.0 for tool in ToolKind})
    a = _assessment("a", [50] * 6)
    b = _assessment("b", [60] * 6, profile=uniform)
    with pytest.raises(AnalysisError) as excinfo:
        decompose_delta(a, b)
    assert excinfo.value.code == "WEIGHT_MISMATCH"


@given(
    profile=weight_profiles(),
    first=st.lists(score_values, min_size=6, max_size=6),
    second=st.lists(score_values, min_size=6, max_size=6),
)
@settings(max_examples=200)
def test_decomposition_completeness_property(profile, first, second):
    a = aggregate(six_scores(first), profile, "a", FIXED_TIMESTAMP)
    b = aggregate(six_scores(second), profile, "b", FIXED_TIMESTAMP)
    decomposition = decompose_delta(a, b)
    assert decomposition.total_delta == pytest.approx(
        b.composite - a.composite, abs=1e-9
    )


@given(
    profile=weight_profiles(),
    first=st.lists(score_values, min_size=6, max_size=6),
    second=st.lists(score_values, min_size=6, max_size=6),
)
@settings(max_examples=100)
def test_decomposition_antisymmetry(profile, first, second):
    a = aggregate(six_scores(first), profile, "a", FIXED_TIMESTAMP)
    b = aggregate(six_scores(second), profile, "b", FIXED_TIMESTAMP)
    forward = decompose_delta(a, b)
    backward = decompose_delta(b, a)
    for tool in ToolKind:
        assert forward.per_tool_delta[tool] == pytest.approx(
            -backward.per_tool_delta[tool], abs=1e-12
        )


# ---------------------------------------------------------------------------
# Trend series
# ---------------------------------------------------------------------------


def test_three_level_trend_directions(three_levels):
    trends = trend_series(three_levels)
    assert trends.directions[ToolKind.LYNIS] is Trend.UP
    assert trends.directions[ToolKind.OPENSCAP_STANDARD] is Trend.UP
    assert trends.directions[ToolKind.OPENSCAP_CIS] is Trend.UP
    assert trends.directions[ToolKind.VULN_SCAN] is Trend.UP
    assert trends.directions[ToolKind.AIDE] is Trend.DOWN
    assert trends.directions[ToolKind.TRIPWIRE] is Trend.DOWN
    assert trends.composite_direction is Trend.UP


def test_identical_assessments_are_flat():
    a = _assessment("a", [50] * 6)
    b = _assessment("b", [50] * 6)
    trends = trend_series([a, b])
    assert all(direction is Trend.FLAT for direction in trends.directions.values())
    assert trends.composite_direction is Trend.FLAT


def test_direction_uses_endpoints_not_interior():
    series = [
        _assessment("one", [50] * 6),
        _assessment("two", [60] * 6),
        _assessment("three", [55] * 6),
    ]
    trends = trend_series(series)
    assert trends.directions[ToolKind.LYNIS] is Trend.UP


def test_flat_band_is_tight():
    a = _assessment("a", [50.0] * 6)
    b = _assessment("b", [50.05] * 6)
    c = _assessment("c", [50.06] * 6)
    assert trend_series([a, b]).directions[ToolKind.LYNIS] is Trend.FLAT
    assert trend_series([a, c]).directions[ToolKind.LYNIS] is Trend.UP


def test_too_few_assessments():
    with pytest.raises(AnalysisError) as excinfo:
        trend_series([_assessment("only", [50] * 6)])
    assert excinfo.value.code == "TOO_FEW_ASSESSMENTS"


@given(
    profile=weight_profiles(),
    rows=st.lists(st.lists(score_values, min_size=6, max_size=6), min_size=2, max_size=5),
)
@settings(max_examples=100)
def test_appending_a_copy_of_the_last_assessment_keeps_directions(profile, rows):
    series = [
        aggregate(six_scores(values), profile, f"l{i}", FIXED_TIMESTAMP)
        for i, values in enumerate(rows)
    ]
    extended = series + [
        aggregate(six_scores(rows[-1]), profile, "copy", FIXED_TIMESTAMP)
    ]
    assert trend_series(series).directions == trend_series(extended).directions


# ---------------------------------------------------------------------------
# Contribution ranking
# ---------------------------------------------------------------------------


def test_ranking_orders_by_descending_signed_delta(three_levels):
    baseline, _, full = three_levels
    ranked = rank_contributions(decompose_delta(baseline, full))
    assert [tool for tool, _, _ in ranked] == [
        ToolKind.VULN_SCAN,
        ToolKind.OPENSCAP_CIS,
        ToolKind.OPENSCAP_STANDARD,
        ToolKind.LYNIS,
        ToolKind.TRIPWIRE,
        ToolKind.AIDE,
    ]
    shares = dict((tool, share) for tool, _, share in ranked)
    assert shares[ToolKind.VULN_SCAN] == pytest.approx(0.717, abs=0.001)


def test_all_zero_ranking_keeps_declaration_order(three_levels):
    baseline = three_levels[0]
    ranked = rank_contributions(decompose_delta(baseline, baseline))
    assert [tool for tool, _, _ in ranked] == list(ToolKind)
    assert all(share is None for _, _, share in ranked)


def test_exact_ties_keep_declaration_order():
    before = _assessment("before", [50, 50, 50, 50, 50, 50])
    # +10 on two tools with equal weight 0.15: identical +1.5 deltas.
    after = _assessment("after", [50, 60, 60, 50, 50, 50])
    ranked = rank_contributions(decompose_delta(before, after))
    assert [tool for tool, _, _ in ranked[:2]] == [
        ToolKind.OPENSCAP_STANDARD,
        ToolKind.AIDE,
    ]
