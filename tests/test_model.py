import pytest
from hypothesis import given

from auditscore.errors import ValidationError
from auditscore.model import (
    AideReport,
    LynisReport,
    NormalizedScore,
    Severity,
    ToolKind,
    TripwireReport,
    VulnFinding,
    VulnReport,
    WeightProfile,
    assessment_from_dict,
    assessment_to_dict,
    validate_weights,
)
from auditscore.scoring import aggregate

from .strategies import FIXED_TIMESTAMP, score_values, six_scores, weight_profiles

import hypothesis.strategies as st


def test_default_profile_is_accepted():
    profile = WeightProfile()
    assert validate_weights(profile) is profile


def test_default_tool_weights_match_expected_assignment():
    weights = WeightProfile().tool_weights
    assert weights[ToolKind.LYNIS] == pytest.approx(0.20)
    assert weights[ToolKind.OPENSCAP_STANDARD] == pytest.approx(0.15)
    assert weights[ToolKind.AIDE] == pytest.approx(0.15)
    assert weights[ToolKind.TRIPWIRE] == pytest.approx(0.15)
    assert weights[ToolKind.OPENSCAP_CIS] == pytest.approx(0.20)
    assert weights[ToolKind.VULN_SCAN] == pytest.approx(0.15)
    assert sum(weights.values()) == pytest.approx(1.0, abs=1e-9)


def test_uniform_weights_accepted():
    profile = WeightProfile(tool_weights={tool: 1.0 / 6.0 for tool in ToolKind})
    validate_weights(profile)


def test_inflated_weight_rejected_with_sum_error():
    weights = dict(WeightProfile().tool_weights)
    weights[ToolKind.LYNIS] = 0.25
    with pytest.raises(ValidationError) as excinfo:
        validate_weights(WeightProfile(tool_weights=weights))
    assert excinfo.value.code == "WEIGHT_SUM_INVALID"
    assert "1.05" in str(excinfo.value)


def test_negative_weight_rejected_naming_entry():
    weights = dict(WeightProfile().tool_weights)
    weights[ToolKind.AIDE] = -0.15
    weights[ToolKind.LYNIS] = 0.50
    with pytest.raises(ValidationError) as excinfo:
        validate_weights(WeightProfile(tool_weights=weights))
    assert excinfo.value.code == "WEIGHT_NEGATIVE"
    assert "aide" in str(excinfo.value)


def test_missing_tool_rejected_naming_entry():
    weights = dict(WeightProfile().tool_weights)
    del weights[ToolKind.VULN_SCAN]
    with pytest.raises(ValidationError) as excinfo:
        validate_weights(WeightProfile(tool_weights=weights))
    assert excinfo.value.code == "TOOL_MISSING"
    assert "vuln_scan" in str(excinfo.value)


def test_negative_penalty_rejected():
    with pytest.raises(ValidationError) as excinfo:
        validate_weights(WeightProfile(port_penalty=-1.0))
    assert excinfo.value.code == "WEIGHT_NEGATIVE"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("where", ["tool", "severity", "penalty"])
def test_non_finite_weight_rejected_naming_entry(bad, where):
    tool_weights = dict(WeightProfile().tool_weights)
    severity_weights = dict(WeightProfile().severity_weights)
    penalty = 10.0
    if where == "tool":
        tool_weights[ToolKind.LYNIS] = bad
    elif where == "severity":
        severity_weights[Severity.HIGH] = bad
    else:
        penalty = bad
    with pytest.raises(ValidationError) as excinfo:
        WeightProfile(
            tool_weights=tool_weights, severity_weights=severity_weights, confirmed_penalty=penalty
        )
    assert excinfo.value.code == "WEIGHT_NOT_FINITE"
    assert {"tool": "lynis", "severity": "high", "penalty": "confirmed_penalty"}[where] in str(
        excinfo.value
    )


def test_validation_is_order_independent():
    forward = {tool: WeightProfile().tool_weights[tool] for tool in ToolKind}
    backward = {tool: forward[tool] for tool in reversed(list(ToolKind))}
    validate_weights(WeightProfile(tool_weights=forward))
    validate_weights(WeightProfile(tool_weights=backward))


def test_raw_report_invariants():
    with pytest.raises(ValidationError):
        LynisReport(101)
    with pytest.raises(ValidationError):
        LynisReport(-1)
    with pytest.raises(ValidationError):
        AideReport(-1, 0, 0)
    with pytest.raises(ValidationError) as excinfo:
        TripwireReport(objects_scanned=100, violations=200)
    assert excinfo.value.code == "VIOLATIONS_EXCEED_OBJECTS"
    assert AideReport(11, 0, 35).total_changes == 46


def test_finding_severity_must_match_cvss_band():
    VulnFinding("CVE-2024-0001", Severity.CRITICAL, cvss=9.8)
    with pytest.raises(ValidationError) as excinfo:
        VulnFinding("CVE-2024-0001", Severity.LOW, cvss=9.8)
    assert excinfo.value.code == "SEVERITY_MISMATCH"


def test_confirmed_count_cannot_exceed_flagged_findings():
    finding = VulnFinding("CVE-2024-0001", Severity.LOW, confirmed=False)
    with pytest.raises(ValidationError):
        VulnReport(0, 0, False, (finding,), confirmed_count=1)


def test_normalized_score_range_enforced():
    with pytest.raises(ValidationError):
        NormalizedScore(ToolKind.LYNIS, 100.5)
    with pytest.raises(ValidationError):
        NormalizedScore(ToolKind.LYNIS, -0.5)


@given(profile=weight_profiles(), values=st.lists(score_values, min_size=6, max_size=6))
def test_composite_stays_in_range_for_any_accepted_profile(profile, values):
    assessment = aggregate(six_scores(values), profile, "x", timestamp=FIXED_TIMESTAMP)
    assert 0.0 <= assessment.composite <= 100.0
    total = sum(assessment.contributions[tool] for tool in ToolKind)
    assert assessment.composite == pytest.approx(total, abs=1e-9)


def test_assessment_dict_round_trip():
    assessment = aggregate(
        six_scores([59, 67.4, 83.4, 82.4, 57.8, 0]),
        WeightProfile(),
        "baseline",
        timestamp=FIXED_TIMESTAMP,
    )
    assert assessment_from_dict(assessment_to_dict(assessment)) == assessment
