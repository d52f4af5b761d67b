"""Domain types for multi-tool security posture scoring.

Six scanner families feed the composite: a system auditor that reports its
own 0-100 hardening index, two SCAP profile evaluations, two file
integrity checkers, and a network vulnerability scan. Each scan is reduced
to a small raw-metrics record, normalized to a 0-100 score, and combined
into a weighted composite assessment.

All types are immutable after construction and safe to share across
threads. Serialization helpers at the bottom of the module round-trip
every type through plain JSON-compatible dicts at full float precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum
from types import MappingProxyType
from typing import Callable, Mapping, Union

from .errors import ScoringError, ValidationError

# Absolute tolerance for the weight sum. Weights come from decimal config
# files, so exact float equality is too strict; anything beyond this is a
# real configuration error.
WEIGHT_SUM_TOLERANCE = 1e-9
# Absolute tolerance for composite/contribution equality. Six weights that
# sum to 1 + WEIGHT_SUM_TOLERANCE put scores of 100 at 100 * (1 + 1e-9),
# which ``aggregate`` clamps to 100; the float sums add a few ulps more.
COMPOSITE_TOLERANCE = 100 * WEIGHT_SUM_TOLERANCE + 1e-12
# The largest count a report may hold. No real scan comes near it, and a
# larger one would overflow the float arithmetic of normalization.
MAX_COUNT = 10**18


class ToolKind(Enum):
    """The six supported scanners, in canonical (tie-breaking) order."""

    LYNIS = "lynis"
    OPENSCAP_STANDARD = "openscap_standard"
    AIDE = "aide"
    TRIPWIRE = "tripwire"
    OPENSCAP_CIS = "openscap_cis"
    VULN_SCAN = "vuln_scan"


class ScapProfile(Enum):
    STANDARD = "standard"
    CIS = "cis"

    @property
    def tool(self) -> ToolKind:
        return ToolKind(f"openscap_{self.value}")


class Severity(Enum):
    CRITICAL = "critical"
    HIGH = "high"
    MEDIUM = "medium"
    LOW = "low"


# Canonical orders as tuples: iterating an Enum class costs about 15x more
# than a tuple, and validation and encoding loop over them per record.
_TOOL_KINDS = tuple(ToolKind)
_SEVERITIES = tuple(Severity)


def classify_severity(cvss: float) -> Severity:
    """Map a CVSS 0-10 value onto the standard v3 rating bands."""
    if not 0.0 <= cvss <= 10.0:
        raise ScoringError("CVSS_OUT_OF_RANGE", f"cvss must be in [0.0, 10.0], got {cvss}")
    if cvss >= 9.0:
        return Severity.CRITICAL
    if cvss >= 7.0:
        return Severity.HIGH
    if cvss >= 4.0:
        return Severity.MEDIUM
    return Severity.LOW


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_KIND_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}


def _require_kind(name: str, value: object, kind: type) -> None:
    """Raise unless ``value`` is exactly a ``kind`` (for ``float``, any number).

    A stored field may be any JSON value, and none is coerced: ``bool("no")``
    is true, and ``true`` would pass for the number 1.
    """
    if _is_number(value) if kind is float else type(value) is kind:
        return
    code = "VALUE_NOT_INTEGER" if kind is int else "VALUE_WRONG_TYPE"
    raise ValidationError(code, f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")


def _require_count(name: str, value: int) -> None:
    _require_kind(name, value, int)
    if value < 0:
        raise ValidationError("VALUE_OUT_OF_RANGE", f"{name} must be non-negative, got {value}")
    if value > MAX_COUNT:
        raise ValidationError("VALUE_OUT_OF_RANGE", f"{name} exceeds {MAX_COUNT}")


@dataclass(frozen=True)
class LynisReport:
    """Raw metrics from a system audit: the tool's own 0-100 index."""

    hardening_index: int
    tool = ToolKind.LYNIS  # a class attribute, not a field: whose report this is

    def __post_init__(self):
        _require_kind("hardening_index", self.hardening_index, int)
        if not 0 <= self.hardening_index <= 100:
            raise ValidationError(
                "VALUE_OUT_OF_RANGE",
                f"hardening_index must be in [0, 100], got {self.hardening_index}",
            )


@dataclass(frozen=True)
class ScapReport:
    """Raw pass/fail rule counts from one SCAP profile evaluation."""

    profile: ScapProfile
    pass_count: int
    fail_count: int

    @property
    def tool(self) -> ToolKind:
        return self.profile.tool

    def __post_init__(self):
        _require_count("pass_count", self.pass_count)
        _require_count("fail_count", self.fail_count)


@dataclass(frozen=True)
class AideReport:
    """File integrity change counts from a summary-style check report."""

    added: int
    removed: int
    changed: int
    tool = ToolKind.AIDE

    def __post_init__(self):
        _require_count("added", self.added)
        _require_count("removed", self.removed)
        _require_count("changed", self.changed)

    @property
    def total_changes(self) -> int:
        return self.added + self.removed + self.changed


@dataclass(frozen=True)
class TripwireReport:
    """File integrity object/violation counts from an object-scan report."""

    objects_scanned: int
    violations: int
    tool = ToolKind.TRIPWIRE

    def __post_init__(self):
        _require_count("objects_scanned", self.objects_scanned)
        _require_count("violations", self.violations)
        if self.violations > self.objects_scanned:
            raise ValidationError(
                "VIOLATIONS_EXCEED_OBJECTS",
                f"violations ({self.violations}) exceed objects scanned ({self.objects_scanned})",
            )


@dataclass(frozen=True)
class VulnFinding:
    """One vulnerability finding from the network scan.

    When a CVSS value is present the severity must be the band that
    :func:`classify_severity` assigns to it; findings
    are stored self-describing so scoring never re-derives severities.
    """

    identifier: str
    severity: Severity
    confirmed: bool = False
    cvss: float | None = None
    port: int | None = None
    description: str = ""

    def __post_init__(self):
        _require_kind("identifier", self.identifier, str)
        _require_kind("confirmed", self.confirmed, bool)
        _require_kind("description", self.description, str)
        if self.cvss is not None:
            _require_kind("cvss", self.cvss, float)
            expected = classify_severity(self.cvss)
            if expected is not self.severity:
                raise ValidationError(
                    "SEVERITY_MISMATCH",
                    f"finding {self.identifier}: cvss {self.cvss} maps to "
                    f"{expected.value}, not {self.severity.value}",
                )
        if self.port is not None:
            _require_kind("port", self.port, int)
            if not 1 <= self.port <= 65535:
                raise ValidationError(
                    "VALUE_OUT_OF_RANGE", f"port must be in [1, 65535], got {self.port}"
                )


@dataclass(frozen=True)
class VulnReport:
    """Raw metrics from a network vulnerability scan."""

    open_ports: int
    filtered_ports: int
    firewall_active: bool
    findings: tuple[VulnFinding, ...] = ()
    confirmed_count: int = 0
    tool = ToolKind.VULN_SCAN

    def __post_init__(self):
        object.__setattr__(self, "findings", tuple(self.findings))
        _require_kind("firewall_active", self.firewall_active, bool)
        _require_count("open_ports", self.open_ports)
        _require_count("filtered_ports", self.filtered_ports)
        _require_count("confirmed_count", self.confirmed_count)
        flagged = sum(1 for f in self.findings if f.confirmed)
        if self.confirmed_count > flagged:
            raise ValidationError(
                "VALUE_OUT_OF_RANGE",
                f"confirmed_count ({self.confirmed_count}) exceeds findings "
                f"flagged confirmed ({flagged})",
            )


RawToolReport = Union[LynisReport, ScapReport, AideReport, TripwireReport, VulnReport]


DEFAULT_TOOL_WEIGHTS: Mapping[ToolKind, float] = {
    ToolKind.LYNIS: 0.20,
    ToolKind.OPENSCAP_STANDARD: 0.15,
    ToolKind.AIDE: 0.15,
    ToolKind.TRIPWIRE: 0.15,
    ToolKind.OPENSCAP_CIS: 0.20,
    ToolKind.VULN_SCAN: 0.15,
}

DEFAULT_SEVERITY_WEIGHTS: Mapping[Severity, float] = {
    Severity.CRITICAL: 15.0,
    Severity.HIGH: 8.0,
    Severity.MEDIUM: 4.0,
    Severity.LOW: 1.0,
}


PENALTY_FIELDS = ("port_penalty", "confirmed_penalty", "firewall_discount")


@dataclass(frozen=True)
class WeightProfile:
    """Per-tool weights plus the penalty constants of the vulnerability model.

    Multi-domain tools carry 0.20, single-domain tools 0.15 by default;
    the six tool weights must sum to 1.0. Construction copies both maps
    into read-only views and runs :func:`validate_weights`, so a profile
    that exists is valid and stays so.
    """

    tool_weights: Mapping[ToolKind, float] = field(default_factory=DEFAULT_TOOL_WEIGHTS.copy)
    severity_weights: Mapping[Severity, float] = field(
        default_factory=DEFAULT_SEVERITY_WEIGHTS.copy
    )
    port_penalty: float = 3.0
    confirmed_penalty: float = 10.0
    firewall_discount: float = 10.0

    def __post_init__(self):
        object.__setattr__(self, "tool_weights", MappingProxyType(dict(self.tool_weights)))
        object.__setattr__(self, "severity_weights", MappingProxyType(dict(self.severity_weights)))
        validate_weights(self)


def _require_weight(value: float, name: str, key: Enum | None = None) -> None:
    if _is_number(value) and value >= 0 and math.isfinite(value):
        return
    if key is not None:
        name = f"{name}[{key.value}]"
    _require_kind(name, value, float)
    if not math.isfinite(value):
        raise ValidationError("WEIGHT_NOT_FINITE", f"{name} is not finite ({value})")
    raise ValidationError("WEIGHT_NEGATIVE", f"{name} is negative ({value})")


def validate_weights(profile: WeightProfile) -> WeightProfile:
    """Check a weight profile, as every one is when built, and return it unchanged.

    Raises :class:`ValidationError` naming the offending entry with code
    ``TOOL_MISSING``, ``SEVERITY_MISSING``, ``VALUE_WRONG_TYPE`` (not a
    number, a bool included), ``WEIGHT_NOT_FINITE`` (NaN or infinite),
    ``WEIGHT_NEGATIVE`` or ``WEIGHT_SUM_INVALID``. Validation
    iterates tools in canonical order, so the outcome is independent of
    map insertion order.
    """
    for tool in _TOOL_KINDS:
        if tool not in profile.tool_weights:
            raise ValidationError("TOOL_MISSING", f"tool_weights has no entry for {tool.value}")
    for tool in _TOOL_KINDS:
        _require_weight(profile.tool_weights[tool], "tool_weights", tool)
    for severity in _SEVERITIES:
        if severity not in profile.severity_weights:
            raise ValidationError(
                "SEVERITY_MISSING", f"severity_weights has no entry for {severity.value}"
            )
        _require_weight(profile.severity_weights[severity], "severity_weights", severity)
    for name in PENALTY_FIELDS:
        _require_weight(getattr(profile, name), name)
    total = sum(profile.tool_weights[tool] for tool in _TOOL_KINDS)
    if abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
        raise ValidationError(
            "WEIGHT_SUM_INVALID", f"tool weights sum to {total:.9f}, expected 1.0"
        )
    return profile


@dataclass(frozen=True)
class NormalizedScore:
    """A tool identity plus its 0-100 score and the raw metrics behind it.

    ``raw`` is ``None`` for scores supplied out-of-band (manifest entries
    that carry a literal score instead of a report file); otherwise it is
    a report of ``tool``.
    """

    tool: ToolKind
    value: float
    raw: RawToolReport | None = None

    def __post_init__(self):
        _require_kind("score value", self.value, float)
        if not 0.0 <= self.value <= 100.0:
            raise ValidationError(
                "VALUE_OUT_OF_RANGE",
                f"{self.tool.value} score must be in [0, 100], got {self.value}",
            )
        if self.raw is not None and self.raw.tool is not self.tool:
            raise ValidationError(
                "TOOL_MISMATCH",
                f"{self.tool.value} score carries a {self.raw.tool.value} report",
            )


@dataclass(frozen=True)
class CompositeAssessment:
    """A timestamped composite record: six scores, weights, contributions.

    The composite is stored redundantly with the per-tool contributions
    for audit-trail readability; construction enforces that they agree.
    """

    label: str
    timestamp: datetime
    scores: Mapping[ToolKind, NormalizedScore]
    weights: WeightProfile
    composite: float
    contributions: Mapping[ToolKind, float]

    def __post_init__(self):
        missing = [tool.value for tool in _TOOL_KINDS if tool not in self.scores]
        if missing:
            raise ValidationError("TOOL_MISSING", "no score for: " + ", ".join(missing))
        for tool, score in self.scores.items():
            if score.tool is not tool:
                raise ValidationError(
                    "TOOL_MISMATCH",
                    f"scores[{tool.value}] carries a {score.tool.value} score",
                )
        absent = [tool.value for tool in _TOOL_KINDS if tool not in self.contributions]
        if absent:
            raise ValidationError("TOOL_MISSING", "no contribution for: " + ", ".join(absent))
        total = sum(self.contributions[tool] for tool in _TOOL_KINDS)
        if not abs(self.composite - total) <= COMPOSITE_TOLERANCE:  # NaN when inf meets -inf
            raise ValidationError(
                "COMPOSITE_MISMATCH",
                f"composite {self.composite!r} != sum of contributions {total!r}",
            )
        if not 0.0 <= self.composite <= 100.0:
            raise ValidationError(
                "VALUE_OUT_OF_RANGE", f"composite must be in [0, 100], got {self.composite}"
            )


@dataclass(frozen=True)
class DeltaDecomposition:
    """Per-tool weighted score change between two assessments.

    The total, the dominant tool (largest absolute delta, ties broken by
    canonical tool order) and its share all follow from the per-tool deltas.
    """

    from_label: str
    to_label: str
    per_tool_delta: Mapping[ToolKind, float]

    @property
    def total_delta(self) -> float:
        return sum(self.per_tool_delta[tool] for tool in _TOOL_KINDS)

    @property
    def dominant_tool(self) -> ToolKind:
        return max(_TOOL_KINDS, key=lambda tool: abs(self.per_tool_delta[tool]))

    @property
    def dominant_share(self) -> float | None:
        return self.share(self.dominant_tool)

    def share(self, tool: ToolKind) -> float | None:
        """``tool``'s fraction of the total delta, or ``None`` when the total is zero.

        Composites are only defined to within ``COMPOSITE_TOLERANCE`` (about
        1e-7 points, the clamp a weight sum at the edge of its tolerance can
        need), so a total inside it is zero: dividing by the rounding residue
        left when per-tool deltas cancel would print shares of 10^14 % or
        ``inf%``.
        """
        total = self.total_delta
        return None if abs(total) <= COMPOSITE_TOLERANCE else self.per_tool_delta[tool] / total


# ---------------------------------------------------------------------------
# Serialization (plain dicts, JSON-compatible, full float precision)
# ---------------------------------------------------------------------------


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
        severity=Severity(data["severity"]),
        confirmed=data["confirmed"],
        cvss=data.get("cvss"),
        port=data.get("port"),
        description=data.get("description", ""),
    )


# How each raw report type is stored: its ``kind`` tag and its keys in
# stored order, which for a vuln record is not the field order. Keyed by
# type, since one type can serve several tools (``ScapReport``).
_RAW_KINDS = {
    LynisReport: ("lynis", ("hardening_index",)),
    ScapReport: ("scap", ("profile", "pass_count", "fail_count")),
    AideReport: ("aide", ("added", "removed", "changed")),
    TripwireReport: ("tripwire", ("objects_scanned", "violations")),
    VulnReport: (
        "vuln",
        ("open_ports", "filtered_ports", "firewall_active", "confirmed_count", "findings"),
    ),
}
_RAW_TYPES = {kind: (cls, keys) for cls, (kind, keys) in _RAW_KINDS.items()}
# (encode, decode) for the fields that are not plain JSON values.
_FIELD_CODECS: Mapping[str, tuple[Callable, Callable]] = {
    "profile": (lambda profile: profile.value, ScapProfile),
    "findings": (
        lambda findings: [finding_to_dict(f) for f in findings],
        lambda findings: tuple(finding_from_dict(f) for f in findings),
    ),
}


def raw_report_to_dict(report: RawToolReport) -> dict:
    kind, keys = _RAW_KINDS[type(report)]
    data = {"kind": kind}
    for key in keys:
        value = getattr(report, key)
        data[key] = _FIELD_CODECS[key][0](value) if key in _FIELD_CODECS else value
    return data


def raw_report_from_dict(data: Mapping) -> RawToolReport:
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in _RAW_TYPES:
        raise ValidationError("UNKNOWN_REPORT_KIND", f"unknown raw report kind {kind!r}")
    cls, keys = _RAW_TYPES[kind]
    return cls(
        **{
            key: _FIELD_CODECS[key][1](data[key]) if key in _FIELD_CODECS else data[key]
            for key in keys
        }
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
        tool=ToolKind(data["tool"]),
        value=data["value"],
        raw=None if raw is None else raw_report_from_dict(raw),
    )


def profile_to_dict(profile: WeightProfile) -> dict:
    return {
        "tool_weights": {tool.value: profile.tool_weights[tool] for tool in _TOOL_KINDS},
        "severity_weights": {
            sev.value: profile.severity_weights[sev] for sev in _SEVERITIES
        },
        "port_penalty": profile.port_penalty,
        "confirmed_penalty": profile.confirmed_penalty,
        "firewall_discount": profile.firewall_discount,
    }


def profile_from_dict(data: Mapping) -> WeightProfile:
    """Decode a stored profile; one that fails :func:`validate_weights` raises."""
    return WeightProfile(
        tool_weights={ToolKind(name): value for name, value in data["tool_weights"].items()},
        severity_weights={
            Severity(name): value for name, value in data["severity_weights"].items()
        },
        port_penalty=data["port_penalty"],
        confirmed_penalty=data["confirmed_penalty"],
        firewall_discount=data["firewall_discount"],
    )


def assessment_to_dict(assessment: CompositeAssessment) -> dict:
    return {
        "label": assessment.label,
        "timestamp": assessment.timestamp.isoformat(),
        "composite": assessment.composite,
        "scores": {
            tool.value: score_to_dict(assessment.scores[tool]) for tool in _TOOL_KINDS
        },
        "contributions": {
            tool.value: assessment.contributions[tool] for tool in _TOOL_KINDS
        },
        "weights": profile_to_dict(assessment.weights),
    }


def assessment_label(data: Mapping) -> str:
    """The label of a stored assessment, checked without decoding the rest."""
    label = data["label"]
    if not isinstance(label, str):
        raise ValidationError("LABEL_INVALID", f"label must be a string, got {label!r}")
    return label


def assessment_from_dict(data: Mapping) -> CompositeAssessment:
    return CompositeAssessment(
        label=assessment_label(data),
        timestamp=datetime.fromisoformat(data["timestamp"]),
        scores={
            ToolKind(name): score_from_dict(entry) for name, entry in data["scores"].items()
        },
        weights=profile_from_dict(data["weights"]),
        composite=data["composite"],
        contributions={
            ToolKind(name): value for name, value in data["contributions"].items()
        },
    )
