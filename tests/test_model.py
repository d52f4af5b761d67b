import copy
import inspect
import pickle
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given

from auditscore.analysis import Trend, TrendTable
from auditscore.config import AppConfig, Manifest, ManifestEntry
from auditscore.errors import ValidationError
from auditscore.model import (
    DEFAULT_SEVERITY_WEIGHTS,
    DEFAULT_TOOL_WEIGHTS,
    MAX_COUNT,
    AideReport,
    CompositeAssessment,
    DeltaDecomposition,
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
    assessment_from_dict,
    assessment_to_dict,
    raw_report_from_dict,
)
from auditscore.parsers import ParseDiagnostics
from auditscore.runner import InvocationResult, ScanOutcome, ToolInvocation
from auditscore.scoring import ToolSpec, aggregate, normalize_report
from auditscore.store import HistoryLoad, HistoryRecord

from .strategies import FIXED_TIMESTAMP, score_values, six_scores, weight_profiles

import hypothesis.strategies as st


def test_default_profile_is_accepted():
    WeightProfile()


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
    WeightProfile(tool_weights={tool: 1.0 / 6.0 for tool in ToolKind})


def test_inflated_weight_rejected_with_sum_error():
    weights = dict(WeightProfile().tool_weights)
    weights[ToolKind.LYNIS] = 0.25
    with pytest.raises(ValidationError) as excinfo:
        WeightProfile(tool_weights=weights)
    assert excinfo.value.code == "WEIGHT_SUM_INVALID"
    assert "1.05" in str(excinfo.value)


def test_negative_weight_rejected_naming_entry():
    weights = dict(WeightProfile().tool_weights)
    weights[ToolKind.AIDE] = -0.15
    weights[ToolKind.LYNIS] = 0.50
    with pytest.raises(ValidationError) as excinfo:
        WeightProfile(tool_weights=weights)
    assert excinfo.value.code == "WEIGHT_NEGATIVE"
    assert "aide" in str(excinfo.value)


def test_missing_tool_rejected_naming_entry():
    weights = dict(WeightProfile().tool_weights)
    del weights[ToolKind.VULN_SCAN]
    with pytest.raises(ValidationError) as excinfo:
        WeightProfile(tool_weights=weights)
    assert excinfo.value.code == "TOOL_MISSING"
    assert "vuln_scan" in str(excinfo.value)


def test_negative_penalty_rejected():
    with pytest.raises(ValidationError) as excinfo:
        WeightProfile(port_penalty=-1.0)
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
    WeightProfile(tool_weights=forward)
    WeightProfile(tool_weights=backward)


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


# Each count field of a raw report: a report holding ``n`` there.
_COUNTS = {
    "pass_count": lambda n: ScapReport(ScapProfile.CIS, n, 1),
    "fail_count": lambda n: ScapReport(ScapProfile.STANDARD, 1, n),
    "added": lambda n: AideReport(n, 0, 0),
    "removed": lambda n: AideReport(0, n, 0),
    "changed": lambda n: AideReport(0, 0, n),
    "objects_scanned": lambda n: TripwireReport(n, 1),
    "violations": lambda n: TripwireReport(MAX_COUNT, n),
    "open_ports": lambda n: VulnReport(n, 0, False),
    "filtered_ports": lambda n: VulnReport(0, n, True),
    # At the bound it fails the flagged-findings check instead.
    "confirmed_count": lambda n: VulnReport(0, 0, False, confirmed_count=n),
}


@pytest.mark.parametrize("name", sorted(_COUNTS))
def test_every_count_is_bounded(name):
    if name != "confirmed_count":
        score = normalize_report(_COUNTS[name](MAX_COUNT))
        assert 0.0 <= score.value <= 100.0
    # Past float range, normalization would raise OverflowError.
    for count in (MAX_COUNT + 1, 10**400):
        with pytest.raises(ValidationError) as excinfo:
            _COUNTS[name](count)
        assert excinfo.value.code == "VALUE_OUT_OF_RANGE"
        assert str(excinfo.value) == f"{name} exceeds {MAX_COUNT}"


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


def _contract_cases():
    """(type, arguments of a sample, its parameters, frozen, hashable sample).

    Parameters are ``name`` for a required one and ``(name, default)`` for
    one with a default, in constructor order. The arguments give every
    parameter, positionally; the required ones alone build the object that
    shows the defaults.
    """
    finding = VulnFinding("CVE-2024-0001", Severity.HIGH, True, 7.5, 22, "ssh")
    assessment = aggregate(six_scores([59, 67.4, 83.4, 82.4, 57.8, 0]), WeightProfile(), "a",
                           timestamp=FIXED_TIMESTAMP)
    deltas = {tool: 0.5 for tool in ToolKind}
    return [
        (LynisReport, (80,), ["hardening_index"], True, True),
        (ScapReport, (ScapProfile.CIS, 3, 1), ["profile", "pass_count", "fail_count"], True,
         True),
        (AideReport, (1, 2, 3), ["added", "removed", "changed"], True, True),
        (TripwireReport, (10, 1), ["objects_scanned", "violations"], True, True),
        (VulnFinding, ("CVE-2024-0001", Severity.HIGH, True, 7.5, 22, "ssh"),
         ["identifier", "severity", ("confirmed", False), ("cvss", None), ("port", None),
          ("description", "")], True, True),
        (VulnReport, (3, 0, False, (finding,), 1),
         ["open_ports", "filtered_ports", "firewall_active", ("findings", ()),
          ("confirmed_count", 0)], True, True),
        (WeightProfile, (DEFAULT_TOOL_WEIGHTS, DEFAULT_SEVERITY_WEIGHTS, 1.0, 2.0, 3.0),
         [("tool_weights", DEFAULT_TOOL_WEIGHTS), ("severity_weights", DEFAULT_SEVERITY_WEIGHTS),
          ("port_penalty", 3.0), ("confirmed_penalty", 10.0), ("firewall_discount", 10.0)],
         True, False),
        (NormalizedScore, (ToolKind.LYNIS, 80.0, LynisReport(80)),
         ["tool", "value", ("raw", None)], True, True),
        (CompositeAssessment,
         (assessment.label, assessment.timestamp, assessment.scores, assessment.weights,
          assessment.composite, assessment.contributions),
         ["label", "timestamp", "scores", "weights", "composite", "contributions"], True, False),
        (DeltaDecomposition, ("a", "b", deltas), ["from_label", "to_label", "per_tool_delta"],
         True, False),
        (AppConfig, (WeightProfile(), Path("h.jsonl"), {}, {}, {}),
         ["weights", "history_path", "checks", "inits", "substitutions"], True, False),
        (ManifestEntry, (Path("r.txt"), 50.0, True),
         [("path", None), ("score", None), ("firewall", None)], True, True),
        (Manifest, ("l", "h", {}), ["label", "host", "entries"], True, False),
        (HistoryRecord, (assessment, "node-1"), ["assessment", "host_label"], True, False),
        (HistoryLoad, ([], 2), [("records", []), ("skipped", 0)], False, False),
        (ToolInvocation, (ToolKind.AIDE, "aide --check", Path("o.txt"), 60.0, frozenset({0, 1})),
         ["tool", "command_template", "output_path", ("timeout", 3600.0),
          ("exit_code_policy", frozenset({0}))], True, True),
        (InvocationResult, (Path("o.txt"), 0), ["report_path", "exit_code"], True, True),
        (ScanOutcome, ({ToolKind.AIDE: Path("o.txt")}, {}),
         [("reports", {}), ("failures", {})], False, False),
        (ToolSpec, ("X", len, "x {output}", "x.txt", len, str, list, frozenset({0}), "x", "db"),
         ["display_name", "parse", "command", "output_name", "normalize", "summary", "details",
          "exit_codes", ("init_command", None), ("database", None)], True, True),
        (TrendTable, ({}, {}, (1.0, 2.0), Trend.UP),
         ["per_tool", "directions", "composite", "composite_direction"], True, False),
        (ParseDiagnostics, (["w"], ["t"], {"notchecked": 1}),
         [("warnings", []), ("trace", []), ("excluded_results", {})], False, False),
    ]


@pytest.mark.parametrize(
    "cls, args, parameters, frozen, hashable",
    [pytest.param(*case, id=case[0].__name__) for case in _contract_cases()],
)
def test_value_types_keep_their_contract(cls, args, parameters, frozen, hashable):
    names = [p if isinstance(p, str) else p[0] for p in parameters]
    defaults = dict(p for p in parameters if not isinstance(p, str))
    signature = inspect.signature(cls).parameters.values()
    assert [p.name for p in signature] == names
    assert {p.name for p in signature if p.default is not p.empty} == set(defaults)
    shown = cls(*args[: len(names) - len(defaults)])
    assert {name: getattr(shown, name) for name in defaults} == defaults

    value, same = cls(*args), cls(*args)
    assert value == same and not value != same
    assert value.__eq__(object()) is NotImplemented
    assert [getattr(value, name) for name in names] == list(args)  # fields set in slot order
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value
    assert repr(value) == (
        f"{cls.__name__}(" + ", ".join(f"{name}={getattr(value, name)!r}" for name in names) + ")"
    )
    if frozen:
        for name in names:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert cls.__hash__ is not None
        if hashable:
            assert hash(value) == hash(same)
        else:  # a field holds a dict or mapping
            with pytest.raises(TypeError):
                hash(value)
    else:
        for name in names:
            setattr(value, name, getattr(same, name))
        assert value == same
        assert cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(value)


def test_missing_severity_rejected_naming_entry():
    severity_weights = dict(DEFAULT_SEVERITY_WEIGHTS)
    del severity_weights[Severity.MEDIUM]
    with pytest.raises(ValidationError) as excinfo:
        WeightProfile(severity_weights=severity_weights)
    assert (excinfo.value.code, str(excinfo.value)) == (
        "SEVERITY_MISSING",
        "severity_weights has no entry for medium",
    )


def _without(mapping, tool):
    return {key: value for key, value in mapping.items() if key is not tool}


def _lynis_only(value):
    return {tool: value if tool is ToolKind.LYNIS else 0.0 for tool in ToolKind}


@pytest.mark.parametrize(
    "change, code, message",
    [
        (
            lambda f: dict(scores=_without(f["scores"], ToolKind.AIDE)),
            "TOOL_MISSING",
            "no score for: aide",
        ),
        (
            lambda f: dict(scores={**f["scores"], ToolKind.AIDE: f["scores"][ToolKind.LYNIS]}),
            "TOOL_MISMATCH",
            "scores[aide] carries a lynis score",
        ),
        (
            lambda f: dict(contributions=_without(f["contributions"], ToolKind.VULN_SCAN)),
            "TOOL_MISSING",
            "no contribution for: vuln_scan",
        ),
        (
            lambda f: dict(composite=101.0, contributions=_lynis_only(101.0)),
            "VALUE_OUT_OF_RANGE",
            "composite must be in [0, 100], got 101.0",
        ),
        (
            lambda f: dict(composite=-1.0, contributions=_lynis_only(-1.0)),
            "VALUE_OUT_OF_RANGE",
            "composite must be in [0, 100], got -1.0",
        ),
        # Stored numbers are checked, never coerced: true sums as 1.
        (
            lambda f: dict(
                composite=True, contributions={**_lynis_only(False), ToolKind.LYNIS: True}
            ),
            "VALUE_WRONG_TYPE",
            "composite must be a number, got True",
        ),
        (
            lambda f: dict(composite=Decimal("50"), contributions=_lynis_only(Decimal("50"))),
            "VALUE_WRONG_TYPE",
            "composite must be a number, got Decimal('50')",
        ),
        (
            lambda f: dict(contributions={**f["contributions"], ToolKind.AIDE: "7.5"}),
            "VALUE_WRONG_TYPE",
            "contributions[aide] must be a number, got '7.5'",
        ),
        (
            lambda f: dict(weights={"a": 1}),
            "VALUE_WRONG_TYPE",
            "weights must be a WeightProfile, got {'a': 1}",
        ),
        # The sum still matches, but the Lynis contribution is not 0.20 * 50.
        (
            lambda f: dict(
                composite=f["composite"] + 5,
                contributions={**f["contributions"], ToolKind.LYNIS: 15.0},
            ),
            "COMPOSITE_MISMATCH",
            "contributions[lynis] 15.0 != weight * score 10.0",
        ),
        # Two contributions moved apart by the same amount: the sum still matches.
        (
            lambda f: dict(
                contributions={
                    **f["contributions"], ToolKind.AIDE: 8.5, ToolKind.TRIPWIRE: 6.5
                },
            ),
            "COMPOSITE_MISMATCH",
            "contributions[aide] 8.5 != weight * score 7.5",
        ),
    ],
    ids=["score-missing", "score-of-another-tool", "contribution-missing", "above-100", "below-0",
         "bool-composite", "decimal-composite", "string-contribution", "weights-not-a-profile",
         "contribution-not-weight-times-score", "contributions-moved-apart"],
)
def test_composite_assessment_rejects_an_incomplete_or_impossible_record(change, code, message):
    assessment = aggregate(six_scores([50.0] * 6), WeightProfile(), "x", FIXED_TIMESTAMP)
    fields = {
        name: getattr(assessment, name)
        for name in ("label", "timestamp", "scores", "weights", "composite", "contributions")
    }
    fields.update(change(fields))
    with pytest.raises(ValidationError) as excinfo:
        CompositeAssessment(**fields)
    assert (excinfo.value.code, str(excinfo.value)) == (code, message)


@pytest.mark.parametrize("kind", ["bogus", 7, None], ids=["string", "int", "none"])
def test_raw_report_of_unknown_kind_rejected(kind):
    with pytest.raises(ValidationError) as excinfo:
        raw_report_from_dict({"kind": kind, "hardening_index": 50})
    assert (excinfo.value.code, str(excinfo.value)) == (
        "UNKNOWN_REPORT_KIND",
        f"unknown raw report kind {kind!r}",
    )
