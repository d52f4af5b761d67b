"""The stored-form table against a frozen copy of the codecs it replaced.

The oracle below is ``model``'s serialization as it was before one table of
stored forms took it over: the hand-written ``finding``, ``score``,
``profile`` and ``assessment`` encode/decode pairs, and the raw report table
and lookups they read, kept verbatim. It is the reference for the bytes a
history line holds: every record the store writes must be the oracle's
line, and decode to what the oracle decodes. Where the two read rules
differ, on a record that lacks a key, the oracle is not asked
(``tests/test_store.py`` holds that rule).
"""

from __future__ import annotations

import json
from datetime import datetime
from typing import Mapping

import hypothesis.strategies as st
from hypothesis import given

from auditscore import store
from auditscore.errors import ValidationError
from auditscore.model import (
    PENALTY_FIELDS,
    SEVERITIES,
    TOOL_KINDS,
    AideReport,
    CompositeAssessment,
    LynisReport,
    NormalizedScore,
    RawToolReport,
    ScapProfile,
    ScapReport,
    TripwireReport,
    VulnFinding,
    VulnReport,
    WeightProfile,
)
from auditscore.store import SCHEMA_VERSION, HistoryRecord, record_to_json

from .strategies import assessments, edge_weight_profiles, full_assessments

_TOOLS_BY_VALUE = {tool.value: tool for tool in TOOL_KINDS}
_SEVERITIES_BY_VALUE = {severity.value: severity for severity in SEVERITIES}
_PROFILES_BY_VALUE = {profile.value: profile for profile in ScapProfile}


def finding_to_dict(finding: VulnFinding) -> dict:
    return {
        "identifier": finding.identifier,
        "severity": finding.severity.value,
        "confirmed": finding.confirmed,
        "cvss": finding.cvss,
        "port": finding.port,
        "description": finding.description,
    }


def finding_from_dict(data: Mapping) -> VulnFinding:
    return VulnFinding(
        identifier=data["identifier"],
        severity=_SEVERITIES_BY_VALUE[data["severity"]],
        confirmed=data["confirmed"],
        cvss=data.get("cvss"),
        port=data.get("port"),
        description=data.get("description", ""),
    )


_PROFILE_CODEC = (lambda profile: profile.value, _PROFILES_BY_VALUE.__getitem__)
_FINDINGS_CODEC = (
    lambda findings: [finding_to_dict(f) for f in findings],
    lambda findings: tuple([finding_from_dict(f) for f in findings]),
)
_RAW_FORMS = {
    LynisReport: ("lynis", (("hardening_index", None),)),
    ScapReport: ("scap", (("profile", _PROFILE_CODEC), ("pass_count", None), ("fail_count", None))),
    AideReport: ("aide", (("added", None), ("removed", None), ("changed", None))),
    TripwireReport: ("tripwire", (("objects_scanned", None), ("violations", None))),
    VulnReport: (
        "vuln",
        (
            ("open_ports", None),
            ("filtered_ports", None),
            ("firewall_active", None),
            ("confirmed_count", None),
            ("findings", _FINDINGS_CODEC),
        ),
    ),
}
_RAW_TYPES = {kind: (cls, fields) for cls, (kind, fields) in _RAW_FORMS.items()}


def raw_report_to_dict(report: RawToolReport) -> dict:
    kind, fields = _RAW_FORMS[type(report)]
    data = {"kind": kind}
    for key, codec in fields:
        value = getattr(report, key)
        data[key] = value if codec is None else codec[0](value)
    return data


def raw_report_from_dict(data: Mapping) -> RawToolReport:
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in _RAW_TYPES:
        raise ValidationError("UNKNOWN_REPORT_KIND", f"unknown raw report kind {kind!r}")
    cls, fields = _RAW_TYPES[kind]
    return cls(
        **{key: data[key] if codec is None else codec[1](data[key]) for key, codec in fields}
    )


def score_to_dict(score: NormalizedScore) -> dict:
    return {
        "tool": score.tool.value,
        "value": score.value,
        "raw": None if score.raw is None else raw_report_to_dict(score.raw),
    }


def score_from_dict(data: Mapping) -> NormalizedScore:
    raw = data.get("raw")
    return NormalizedScore(
        tool=_TOOLS_BY_VALUE[data["tool"]],
        value=data["value"],
        raw=None if raw is None else raw_report_from_dict(raw),
    )


def profile_to_dict(profile: WeightProfile) -> dict:
    return {
        "tool_weights": {tool.value: profile.tool_weights[tool] for tool in TOOL_KINDS},
        "severity_weights": {
            sev.value: profile.severity_weights[sev] for sev in SEVERITIES
        },
        **{name: getattr(profile, name) for name in PENALTY_FIELDS},
    }


def profile_from_dict(data: Mapping) -> WeightProfile:
    """Decode a stored profile; one that :class:`WeightProfile` rejects raises."""
    return WeightProfile(
        {_TOOLS_BY_VALUE[name]: value for name, value in data["tool_weights"].items()},
        {_SEVERITIES_BY_VALUE[name]: value for name, value in data["severity_weights"].items()},
        *(data[name] for name in PENALTY_FIELDS),
    )


def assessment_to_dict(assessment: CompositeAssessment) -> dict:
    return {
        "label": assessment.label,
        "timestamp": assessment.timestamp.isoformat(),
        "composite": assessment.composite,
        "scores": {
            tool.value: score_to_dict(assessment.scores[tool]) for tool in TOOL_KINDS
        },
        "contributions": {
            tool.value: assessment.contributions[tool] for tool in TOOL_KINDS
        },
        "weights": profile_to_dict(assessment.weights),
    }


def assessment_from_dict(data: Mapping) -> CompositeAssessment:
    return CompositeAssessment(
        label=data["label"],
        timestamp=datetime.fromisoformat(data["timestamp"]),
        scores={
            _TOOLS_BY_VALUE[name]: score_from_dict(entry) for name, entry in data["scores"].items()
        },
        weights=profile_from_dict(data["weights"]),
        composite=data["composite"],
        contributions={
            _TOOLS_BY_VALUE[name]: value for name, value in data["contributions"].items()
        },
    )


# End of the frozen copy.


def _decoded(line: str) -> HistoryRecord:
    payload = json.loads(line)
    return store._record_from_payload(payload, store._line_keys(payload))


# Scores with raw reports of every kind (findings with and without CVSS and
# port), literal scores with none, and profiles at the edges of the weight sum.
_ASSESSMENTS = st.one_of(
    full_assessments(),
    assessments(),
    edge_weight_profiles().flatmap(lambda profile: assessments(profile=profile)),
)


@given(assessment=_ASSESSMENTS, host=st.text(max_size=8))
def test_written_line_is_the_hand_written_codecs_line(assessment, host):
    record = HistoryRecord(assessment, host)
    line = record_to_json(record)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "host_label": host,
        "assessment": assessment_to_dict(assessment),
    }
    assert line == json.dumps(payload, separators=(",", ":"))
    decoded = _decoded(line)
    assert decoded == HistoryRecord(assessment_from_dict(payload["assessment"]), host)
    assert decoded == record


def test_golden_history_lines_round_trip_byte_identically(data_dir):
    for line in (data_dir / "history-v1.jsonl").read_text(encoding="utf-8").splitlines():
        record = _decoded(line)
        assert record.assessment == assessment_from_dict(json.loads(line)["assessment"])
        assert record_to_json(record) == line
