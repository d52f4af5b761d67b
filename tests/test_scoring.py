from decimal import Decimal, getcontext
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from auditscore.errors import ScoringError
from auditscore.model import (
    AideReport,
    LynisReport,
    NormalizedScore,
    ScapProfile,
    ScapReport,
    Severity,
    ToolKind,
    TripwireReport,
    VulnFinding,
    VulnReport,
    WeightProfile,
    classify_severity,
)
from auditscore.scoring import (
    aggregate,
    normalize_aide,
    normalize_lynis,
    normalize_scap,
    normalize_tripwire,
    normalize_vuln,
)

from .strategies import (
    FIXED_TIMESTAMP,
    aide_reports,
    edge_weight_profiles,
    score_values,
    six_scores,
    tripwire_reports,
    vuln_reports,
    weight_profiles,
)


def reference_aide_score(total_changes: int) -> float:
    """Independent high-precision log scoring via Decimal natural logs."""
    if total_changes == 0:
        return 100.0
    getcontext().prec = 50
    log10 = Decimal(total_changes).ln() / Decimal(10).ln()
    return float(max(Decimal(0), Decimal(100) - Decimal(10) * log10))


# ---------------------------------------------------------------------------
# Direct pass-through
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("index,expected", [(59, 59.0), (66, 66.0), (0, 0.0), (100, 100.0)])
def test_lynis_is_identity(index, expected):
    score = normalize_lynis(LynisReport(index))
    assert score.tool is ToolKind.LYNIS
    assert score.value == expected


# ---------------------------------------------------------------------------
# SCAP pass fraction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "passed,failed,expected",
    [(29, 14, 67.44), (137, 100, 57.81), (1, 0, 100.0), (0, 7, 0.0)],
)
def test_scap_pass_percentage(passed, failed, expected):
    score = normalize_scap(ScapReport(ScapProfile.STANDARD, passed, failed))
    assert score.value == pytest.approx(expected, abs=0.005)
    oracle = Fraction(100) * Fraction(passed, passed + failed)
    assert score.value == pytest.approx(float(oracle), abs=1e-9)


def test_scap_profile_selects_tool_identity():
    assert normalize_scap(ScapReport(ScapProfile.STANDARD, 1, 1)).tool is ToolKind.OPENSCAP_STANDARD
    assert normalize_scap(ScapReport(ScapProfile.CIS, 1, 1)).tool is ToolKind.OPENSCAP_CIS


def test_scap_empty_result_is_an_error():
    with pytest.raises(ScoringError) as excinfo:
        normalize_scap(ScapReport(ScapProfile.CIS, 0, 0))
    assert excinfo.value.code == "EMPTY_RESULT"


@given(
    passed=st.integers(0, 1000),
    extra=st.integers(1, 1000),
    failed=st.integers(0, 1000),
)
def test_scap_monotone_in_pass_count(passed, extra, failed):
    if passed + failed == 0:
        failed = 1
    low = normalize_scap(ScapReport(ScapProfile.CIS, passed, failed)).value
    high = normalize_scap(ScapReport(ScapProfile.CIS, passed + extra, failed)).value
    assert high >= low


# ---------------------------------------------------------------------------
# Logarithmic change scoring
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "added,removed,changed,expected,tolerance",
    [
        (11, 0, 35, 83.4, 0.05),
        (6, 0, 165, 77.7, 0.05),
        (129, 0, 188, 75.0, 0.05),
        (0, 0, 0, 100.0, 0.0),
        (1, 0, 0, 100.0, 0.0),
        (10**10, 0, 0, 0.0, 0.0),
    ],
)
def test_aide_log_scoring(added, removed, changed, expected, tolerance):
    score = normalize_aide(AideReport(added, removed, changed))
    assert score.value == pytest.approx(expected, abs=max(tolerance, 1e-12))


def test_aide_matches_reference_logarithm_over_range():
    for total in range(1, 1001):
        value = normalize_aide(AideReport(total, 0, 0)).value
        assert value == pytest.approx(reference_aide_score(total), abs=1e-9)


@given(aide_reports, st.integers(1, 10**6))
def test_aide_non_increasing_in_changes(report, extra):
    more = AideReport(report.added + extra, report.removed, report.changed)
    assert normalize_aide(more).value <= normalize_aide(report).value


# ---------------------------------------------------------------------------
# Object-scan integrity scoring
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "objects,violations,expected",
    [(76000, 13459, 82.29), (100, 0, 100.0), (100, 100, 0.0)],
)
def test_tripwire_clean_fraction(objects, violations, expected):
    score = normalize_tripwire(TripwireReport(objects, violations))
    assert score.value == pytest.approx(expected, abs=0.005)
    oracle = Fraction(100) * Fraction(objects - violations, objects)
    assert score.value == pytest.approx(float(oracle), abs=1e-9)


def test_tripwire_empty_database_is_an_error():
    with pytest.raises(ScoringError) as excinfo:
        normalize_tripwire(TripwireReport(0, 0))
    assert excinfo.value.code == "EMPTY_DATABASE"


@given(tripwire_reports(), st.integers(1, 1000))
def test_tripwire_non_increasing_in_violations(report, extra):
    capped = min(report.objects_scanned, report.violations + extra)
    worse = TripwireReport(report.objects_scanned, capped)
    assert normalize_tripwire(worse).value <= normalize_tripwire(report).value


# ---------------------------------------------------------------------------
# Severity classification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "cvss,expected",
    [
        (9.8, Severity.CRITICAL),
        (9.0, Severity.CRITICAL),
        (10.0, Severity.CRITICAL),
        (8.9, Severity.HIGH),
        (7.0, Severity.HIGH),
        (6.9, Severity.MEDIUM),
        (4.0, Severity.MEDIUM),
        (3.9, Severity.LOW),
        (0.0, Severity.LOW),
    ],
)
def test_severity_bands(cvss, expected):
    assert classify_severity(cvss) is expected


@pytest.mark.parametrize("cvss", [-0.1, 10.1, float("nan")])
def test_severity_out_of_range(cvss):
    with pytest.raises(ScoringError) as excinfo:
        classify_severity(cvss)
    assert excinfo.value.code == "CVSS_OUT_OF_RANGE"


# ---------------------------------------------------------------------------
# Vulnerability penalty model
# ---------------------------------------------------------------------------


def _finding(severity: Severity, confirmed: bool = False, ident: str = "CVE-2024-1000") -> VulnFinding:
    return VulnFinding(ident, severity, confirmed=confirmed)


def test_vuln_zero_penalty_scores_perfect():
    report = VulnReport(0, 0, False)
    assert normalize_vuln(report, WeightProfile()).value == 100.0


def test_vuln_baseline_penalty_stack_hits_floor():
    # 2*3 (ports) + 4*10 (confirmed) + 2*15 (critical) + 3*8 (high) = 100
    findings = (
        _finding(Severity.CRITICAL, ident="CVE-2024-0001"),
        _finding(Severity.CRITICAL, ident="CVE-2024-0002"),
        _finding(Severity.HIGH, ident="CVE-2024-0003"),
        _finding(Severity.HIGH, ident="CVE-2024-0004"),
        _finding(Severity.HIGH, ident="CVE-2024-0005"),
        _finding(Severity.LOW, confirmed=True, ident="c1"),
        _finding(Severity.LOW, confirmed=True, ident="c2"),
        _finding(Severity.LOW, confirmed=True, ident="c3"),
        _finding(Severity.LOW, confirmed=True, ident="c4"),
    )
    report = VulnReport(2, 0, False, findings, confirmed_count=4)
    expected_penalty = 2 * 3 + 4 * 10 + 2 * 15 + 3 * 8
    assert expected_penalty == 100
    assert normalize_vuln(report, WeightProfile()).value == 0.0


def test_vuln_firewall_discount_floors_at_zero_penalty():
    report = VulnReport(1, 65534, True)
    # raw penalty 3, discount 10: effective max(0, -7) = 0
    assert normalize_vuln(report, WeightProfile()).value == 100.0


def test_vuln_confirmed_findings_not_double_counted():
    confirmed_critical = _finding(Severity.CRITICAL, confirmed=True)
    report = VulnReport(0, 0, False, (confirmed_critical,), confirmed_count=1)
    # Only the flat confirmed penalty applies, not the critical weight.
    assert normalize_vuln(report, WeightProfile()).value == 90.0


def test_vuln_severity_weights_apply_per_band():
    findings = (
        _finding(Severity.CRITICAL, ident="CVE-2024-0001"),
        _finding(Severity.HIGH, ident="CVE-2024-0002"),
        _finding(Severity.MEDIUM, ident="CVE-2024-0003"),
        _finding(Severity.LOW, ident="CVE-2024-0004"),
    )
    report = VulnReport(0, 0, False, findings)
    assert normalize_vuln(report, WeightProfile()).value == 100.0 - (15 + 8 + 4 + 1)


@given(vuln_reports(), st.integers(1, 10))
def test_vuln_non_increasing_in_open_ports(report, extra):
    worse = VulnReport(
        report.open_ports + extra,
        report.filtered_ports,
        report.firewall_active,
        report.findings,
        report.confirmed_count,
    )
    profile = WeightProfile()
    assert normalize_vuln(worse, profile).value <= normalize_vuln(report, profile).value


@given(vuln_reports())
def test_vuln_non_increasing_in_extra_findings(report):
    extra = VulnFinding("CVE-1999-99999", Severity.CRITICAL, confirmed=False)
    worse = VulnReport(
        report.open_ports,
        report.filtered_ports,
        report.firewall_active,
        report.findings + (extra,),
        report.confirmed_count,
    )
    profile = WeightProfile()
    assert normalize_vuln(worse, profile).value <= normalize_vuln(report, profile).value


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


THREE_LEVEL_SCORES = {
    "baseline": [59, 67.4, 83.4, 82.4, 57.8, 0],
    "partial": [61, 69.8, 77.7, 78.0, 58.6, 47],
    "full": [66, 77.3, 75.0, 77.7, 67.1, 47],
}
THREE_LEVEL_COMPOSITES = {"baseline": 58.34, "partial": 64.80, "full": 68.17}


@pytest.mark.parametrize("label", list(THREE_LEVEL_SCORES))
def test_aggregate_golden_levels(label):
    assessment = aggregate(
        six_scores(THREE_LEVEL_SCORES[label]), WeightProfile(), label, FIXED_TIMESTAMP
    )
    assert assessment.composite == pytest.approx(THREE_LEVEL_COMPOSITES[label], abs=0.01)


def test_aggregate_all_perfect_scores():
    assessment = aggregate(six_scores([100] * 6), WeightProfile(), "perfect", FIXED_TIMESTAMP)
    assert assessment.composite == pytest.approx(100.0, abs=1e-9)


def test_aggregate_missing_tool_names_absentee():
    scores = six_scores([50] * 6)
    del scores[ToolKind.VULN_SCAN]
    with pytest.raises(ScoringError) as excinfo:
        aggregate(scores, WeightProfile(), "x", FIXED_TIMESTAMP)
    assert excinfo.value.code == "TOOL_MISSING"
    assert "vuln_scan" in str(excinfo.value)


def test_aggregate_contributions_are_weighted_scores():
    assessment = aggregate(
        six_scores(THREE_LEVEL_SCORES["baseline"]), WeightProfile(), "baseline", FIXED_TIMESTAMP
    )
    assert assessment.contributions[ToolKind.LYNIS] == pytest.approx(11.8)
    assert assessment.contributions[ToolKind.OPENSCAP_CIS] == pytest.approx(11.56)


@given(
    profile=weight_profiles(),
    values=st.lists(score_values, min_size=6, max_size=6),
    tool=st.sampled_from(ToolKind),
    delta=st.floats(-50.0, 50.0, allow_nan=False),
)
@settings(max_examples=200)
def test_aggregate_linearity_per_tool(profile, values, tool, delta):
    index = list(ToolKind).index(tool)
    if not 0.0 <= values[index] + delta <= 100.0:
        delta = -values[index] / 2
    shifted = list(values)
    shifted[index] = values[index] + delta
    base = aggregate(six_scores(values), profile, "a", FIXED_TIMESTAMP)
    moved = aggregate(six_scores(shifted), profile, "b", FIXED_TIMESTAMP)
    expected = profile.tool_weights[tool] * delta
    assert moved.composite - base.composite == pytest.approx(expected, abs=1e-9)


@given(
    profile=edge_weight_profiles(),
    values=st.lists(st.just(100.0) | score_values, min_size=6, max_size=6),
)
@settings(max_examples=300)
def test_aggregate_accepts_every_valid_weight_sum(profile, values):
    """A profile that passes validation scores any six scores: at a weight sum
    of 1 + WEIGHT_SUM_TOLERANCE, six scores of 100 sum to just over 100."""
    assessment = aggregate(six_scores(values), profile, "edge", FIXED_TIMESTAMP)
    assert 0.0 <= assessment.composite <= 100.0
