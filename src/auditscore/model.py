"""Domain types for multi-tool security posture scoring.

Six scanner families feed the composite: a system auditor that reports its
own 0-100 hardening index, two SCAP profile evaluations, two file
integrity checkers, and a network vulnerability scan. Each scan is reduced
to a small raw-metrics record, normalized to a 0-100 score, and combined
into a weighted composite assessment.

The types are plain classes over ``__slots__`` (:class:`Frozen`): each
constructor checks its arguments and hands the field values, in slot
order, to :meth:`Frozen._init`, the one place a field is set. An instance
is read-only, so it is safe to share across threads, and it pickles and
copies by calling its constructor again. At the bottom of the module, one
table of stored forms, read and written by one encode/decode pair,
round-trips every stored type through plain JSON-compatible dicts at full
float precision.
"""

from __future__ import annotations

import math
from datetime import datetime
from enum import Enum
from functools import partial
from operator import attrgetter
from types import MappingProxyType
from typing import Mapping, Union

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
        return _SCAP_TOOLS[self]


class Severity(Enum):
    CRITICAL = "critical"
    HIGH = "high"
    MEDIUM = "medium"
    LOW = "low"


_SCAP_TOOLS = {
    ScapProfile.STANDARD: ToolKind.OPENSCAP_STANDARD,
    ScapProfile.CIS: ToolKind.OPENSCAP_CIS,
}

# Canonical orders as tuples: iterating an Enum class costs about 15x more
# than a tuple, and validation, encoding and rendering loop over them per
# record.
TOOL_KINDS = tuple(ToolKind)
SEVERITIES = tuple(Severity)


class Value:
    """Base of the value types: equality, ``repr`` and :meth:`replace` over
    the fields named in ``__slots__``, in constructor order.

    A subclass lists its fields in ``__slots__`` and sets them in its own
    ``__init__``, which checks them. Its instances are mutable and
    unhashable; those of :class:`Frozen` are neither.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # ``copy`` and ``pickle`` rebuild through ``__init__``: they would
        # otherwise set the slots one by one, which :class:`Frozen` refuses.
        return self.__class__, self._values()

    def replace(self, **changes):
        """A copy with ``changes`` applied, built and checked as a new instance is."""
        return self.__class__(**{name: getattr(self, name) for name in self.__slots__} | changes)


class Frozen(Value):
    """A read-only, hashable :class:`Value`. Its ``__init__`` checks the
    arguments, then sets every field at once through :meth:`_init`; any
    later assignment or deletion raises ``AttributeError``."""

    __slots__ = ()

    def _init(self, *values) -> None:
        """Set the fields to ``values``, given in ``__slots__`` order."""
        set_field = object.__setattr__  # past ``__setattr__``, which refuses
        for name, value in zip(self.__slots__, values):
            set_field(self, name, value)

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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


def _require_label(label: object) -> str:
    if not isinstance(label, str):
        raise ValidationError("LABEL_INVALID", f"label must be a string, got {label!r}")
    return label


class LynisReport(Frozen):
    """Raw metrics from a system audit: the tool's own 0-100 index."""

    __slots__ = ("hardening_index",)
    tool = ToolKind.LYNIS  # a class attribute, not a field: whose report this is

    def __init__(self, hardening_index: int):
        _require_kind("hardening_index", hardening_index, int)
        if not 0 <= hardening_index <= 100:
            raise ValidationError(
                "VALUE_OUT_OF_RANGE",
                f"hardening_index must be in [0, 100], got {hardening_index}",
            )
        self._init(hardening_index)


class ScapReport(Frozen):
    """Raw pass/fail rule counts from one SCAP profile evaluation."""

    __slots__ = ("profile", "pass_count", "fail_count")

    def __init__(self, profile: ScapProfile, pass_count: int, fail_count: int):
        _require_count("pass_count", pass_count)
        _require_count("fail_count", fail_count)
        self._init(profile, pass_count, fail_count)

    @property
    def tool(self) -> ToolKind:
        return self.profile.tool


class AideReport(Frozen):
    """File integrity change counts from a summary-style check report."""

    __slots__ = ("added", "removed", "changed")
    tool = ToolKind.AIDE

    def __init__(self, added: int, removed: int, changed: int):
        _require_count("added", added)
        _require_count("removed", removed)
        _require_count("changed", changed)
        self._init(added, removed, changed)

    @property
    def total_changes(self) -> int:
        return self.added + self.removed + self.changed


class TripwireReport(Frozen):
    """File integrity object/violation counts from an object-scan report."""

    __slots__ = ("objects_scanned", "violations")
    tool = ToolKind.TRIPWIRE

    def __init__(self, objects_scanned: int, violations: int):
        _require_count("objects_scanned", objects_scanned)
        _require_count("violations", violations)
        if violations > objects_scanned:
            raise ValidationError(
                "VIOLATIONS_EXCEED_OBJECTS",
                f"violations ({violations}) exceed objects scanned ({objects_scanned})",
            )
        self._init(objects_scanned, violations)


class VulnFinding(Frozen):
    """One vulnerability finding from the network scan.

    When a CVSS value is present the severity must be the band that
    :func:`classify_severity` assigns to it; findings
    are stored self-describing so scoring never re-derives severities.
    """

    __slots__ = ("identifier", "severity", "confirmed", "cvss", "port", "description")

    def __init__(
        self,
        identifier: str,
        severity: Severity,
        confirmed: bool = False,
        cvss: float | None = None,
        port: int | None = None,
        description: str = "",
    ):
        _require_kind("identifier", identifier, str)
        _require_kind("confirmed", confirmed, bool)
        _require_kind("description", description, str)
        if cvss is not None:
            _require_kind("cvss", cvss, float)
            expected = classify_severity(cvss)
            if expected is not severity:
                raise ValidationError(
                    "SEVERITY_MISMATCH",
                    f"finding {identifier}: cvss {cvss} maps to "
                    f"{expected.value}, not {severity.value}",
                )
        if port is not None:
            _require_kind("port", port, int)
            if not 1 <= port <= 65535:
                raise ValidationError(
                    "VALUE_OUT_OF_RANGE", f"port must be in [1, 65535], got {port}"
                )
        self._init(identifier, severity, confirmed, cvss, port, description)


class VulnReport(Frozen):
    """Raw metrics from a network vulnerability scan."""

    __slots__ = ("open_ports", "filtered_ports", "firewall_active", "findings", "confirmed_count")
    tool = ToolKind.VULN_SCAN

    def __init__(
        self,
        open_ports: int,
        filtered_ports: int,
        firewall_active: bool,
        findings: tuple[VulnFinding, ...] = (),
        confirmed_count: int = 0,
    ):
        findings = tuple(findings)
        _require_kind("firewall_active", firewall_active, bool)
        _require_count("open_ports", open_ports)
        _require_count("filtered_ports", filtered_ports)
        _require_count("confirmed_count", confirmed_count)
        flagged = sum(1 for f in findings if f.confirmed)
        if confirmed_count > flagged:
            raise ValidationError(
                "VALUE_OUT_OF_RANGE",
                f"confirmed_count ({confirmed_count}) exceeds findings "
                f"flagged confirmed ({flagged})",
            )
        self._init(open_ports, filtered_ports, firewall_active, findings, confirmed_count)


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


class WeightProfile(Frozen):
    """Per-tool weights plus the penalty constants of the vulnerability model.

    Multi-domain tools carry 0.20, single-domain tools 0.15 by default;
    the six tool weights must sum to 1.0. Construction copies both maps,
    checks the copies and keeps them as read-only views, so a profile that
    exists is valid and stays so. A failed check raises
    :class:`ValidationError` naming the offending entry with code
    ``TOOL_MISSING``, ``SEVERITY_MISSING``, ``VALUE_WRONG_TYPE`` (not a
    number, a bool included), ``WEIGHT_NOT_FINITE`` (NaN or infinite),
    ``WEIGHT_NEGATIVE`` or ``WEIGHT_SUM_INVALID``. Tools are checked in
    canonical order, so the outcome is independent of map insertion order.
    """

    __slots__ = ("tool_weights", "severity_weights", *PENALTY_FIELDS)

    def __init__(
        self,
        tool_weights: Mapping[ToolKind, float] = DEFAULT_TOOL_WEIGHTS,
        severity_weights: Mapping[Severity, float] = DEFAULT_SEVERITY_WEIGHTS,
        port_penalty: float = 3.0,
        confirmed_penalty: float = 10.0,
        firewall_discount: float = 10.0,
    ):
        tool_weights, severity_weights = dict(tool_weights), dict(severity_weights)
        penalties = (port_penalty, confirmed_penalty, firewall_discount)
        for tool in TOOL_KINDS:
            if tool not in tool_weights:
                raise ValidationError("TOOL_MISSING", f"tool_weights has no entry for {tool.value}")
        for tool in TOOL_KINDS:
            _require_weight(tool_weights[tool], "tool_weights", tool)
        for severity in SEVERITIES:
            if severity not in severity_weights:
                raise ValidationError(
                    "SEVERITY_MISSING", f"severity_weights has no entry for {severity.value}"
                )
            _require_weight(severity_weights[severity], "severity_weights", severity)
        for name, value in zip(PENALTY_FIELDS, penalties):
            _require_weight(value, name)
        total = sum(tool_weights[tool] for tool in TOOL_KINDS)
        if abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
            raise ValidationError(
                "WEIGHT_SUM_INVALID", f"tool weights sum to {total:.9f}, expected 1.0"
            )
        self._init(MappingProxyType(tool_weights), MappingProxyType(severity_weights), *penalties)

    def __reduce__(self):
        # A mapping proxy cannot be pickled: rebuild from plain dict copies,
        # which ``__init__`` copies and checks again.
        tool_weights, severity_weights, *penalties = self._values()
        return self.__class__, (dict(tool_weights), dict(severity_weights), *penalties)


def _require_weight(value: float, name: str, key: Enum | None = None) -> None:
    if _is_number(value) and value >= 0 and math.isfinite(value):
        return
    if key is not None:
        name = f"{name}[{key.value}]"
    _require_kind(name, value, float)
    if not math.isfinite(value):
        raise ValidationError("WEIGHT_NOT_FINITE", f"{name} is not finite ({value})")
    raise ValidationError("WEIGHT_NEGATIVE", f"{name} is negative ({value})")


class NormalizedScore(Frozen):
    """A tool identity plus its 0-100 score and the raw metrics behind it.

    ``raw`` is ``None`` for scores supplied out-of-band (manifest entries
    that carry a literal score instead of a report file); otherwise it is
    a report of ``tool``.
    """

    __slots__ = ("tool", "value", "raw")

    def __init__(self, tool: ToolKind, value: float, raw: RawToolReport | None = None):
        _require_kind("score value", value, float)
        if not 0.0 <= value <= 100.0:
            raise ValidationError(
                "VALUE_OUT_OF_RANGE", f"{tool.value} score must be in [0, 100], got {value}"
            )
        if raw is not None and raw.tool is not tool:
            raise ValidationError(
                "TOOL_MISMATCH", f"{tool.value} score carries a {raw.tool.value} report"
            )
        self._init(tool, value, raw)


class CompositeAssessment(Frozen):
    """A timestamped composite record: six scores, weights, contributions.

    The composite is stored redundantly with the per-tool contributions
    for audit-trail readability; construction enforces that they agree, and
    that each contribution is its tool's weight times its score.
    """

    __slots__ = ("label", "timestamp", "scores", "weights", "composite", "contributions")

    def __init__(
        self,
        label: str,
        timestamp: datetime,
        scores: Mapping[ToolKind, NormalizedScore],
        weights: WeightProfile,
        composite: float,
        contributions: Mapping[ToolKind, float],
    ):
        _require_label(label)
        if not isinstance(timestamp, datetime):
            raise ValidationError(
                "VALUE_WRONG_TYPE", f"timestamp must be a datetime, got {timestamp!r}"
            )
        missing = [tool.value for tool in TOOL_KINDS if tool not in scores]
        if missing:
            raise ValidationError("TOOL_MISSING", "no score for: " + ", ".join(missing))
        for tool, score in scores.items():
            if score.tool is not tool:
                raise ValidationError(
                    "TOOL_MISMATCH", f"scores[{tool.value}] carries a {score.tool.value} score"
                )
        absent = [tool.value for tool in TOOL_KINDS if tool not in contributions]
        if absent:
            raise ValidationError("TOOL_MISSING", "no contribution for: " + ", ".join(absent))
        # Checked before they are summed; a float, the usual case, calls nothing.
        if type(composite) is not float:
            _require_kind("composite", composite, float)
        for tool in TOOL_KINDS:
            value = contributions[tool]
            if type(value) is not float and not _is_number(value):
                _require_kind(f"contributions[{tool.value}]", value, float)
        total = sum(contributions[tool] for tool in TOOL_KINDS)
        if not abs(composite - total) <= COMPOSITE_TOLERANCE:  # NaN when inf meets -inf
            raise ValidationError(
                "COMPOSITE_MISMATCH", f"composite {composite!r} != sum of contributions {total!r}"
            )
        if not 0.0 <= composite <= 100.0:
            raise ValidationError(
                "VALUE_OUT_OF_RANGE", f"composite must be in [0, 100], got {composite}"
            )
        if not isinstance(weights, WeightProfile):
            raise ValidationError(
                "VALUE_WRONG_TYPE", f"weights must be a WeightProfile, got {weights!r}"
            )
        tool_weights = weights.tool_weights
        for tool in TOOL_KINDS:
            product = tool_weights[tool] * scores[tool].value
            if not abs(contributions[tool] - product) <= COMPOSITE_TOLERANCE:
                raise ValidationError(
                    "COMPOSITE_MISMATCH",
                    f"contributions[{tool.value}] {contributions[tool]!r} != "
                    f"weight * score {product!r}",
                )
        self._init(label, timestamp, scores, weights, composite, contributions)


class DeltaDecomposition(Frozen):
    """Per-tool weighted score change between two assessments.

    The total, the dominant tool (largest absolute delta, ties broken by
    canonical tool order) and its share all follow from the per-tool deltas.
    """

    __slots__ = ("from_label", "to_label", "per_tool_delta")

    def __init__(self, from_label: str, to_label: str, per_tool_delta: Mapping[ToolKind, float]):
        self._init(from_label, to_label, per_tool_delta)

    @property
    def total_delta(self) -> float:
        return sum(self.per_tool_delta[tool] for tool in TOOL_KINDS)

    @property
    def dominant_tool(self) -> ToolKind:
        return max(TOOL_KINDS, key=lambda tool: abs(self.per_tool_delta[tool]))

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
# Stored forms (plain dicts, JSON-compatible, full float precision)
# ---------------------------------------------------------------------------


def _to_dict(value) -> dict:
    """The stored form of ``value``, a value of any type in ``_FORMS``."""
    kind, fields = _FORMS[type(value)]
    data = {} if kind is None else {"kind": kind}
    for key, codec in fields:
        if codec is None:
            data[key] = getattr(value, key)
        else:
            data[key] = codec[0](getattr(value, key))
    return data


def _from_dict(cls: type, data: Mapping):
    """The ``cls`` stored as ``data``: a key that the form of ``cls`` writes
    and ``data`` lacks raises ``KeyError``, and the constructor checks the rest."""
    fields = {}
    for key, codec in _FORMS[cls][1]:
        fields[key] = data[key] if codec is None else codec[1](data[key])
    return cls(**fields)


raw_report_to_dict = assessment_to_dict = _to_dict


def raw_report_from_dict(data: Mapping) -> RawToolReport:
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in _RAW_TYPES:
        raise ValidationError("UNKNOWN_REPORT_KIND", f"unknown raw report kind {kind!r}")
    return _from_dict(_RAW_TYPES[kind], data)


def assessment_from_dict(data: Mapping) -> CompositeAssessment:
    return _from_dict(CompositeAssessment, data)


def assessment_label(data: Mapping) -> str:
    """The label of a stored assessment, checked without decoding the rest."""
    return _require_label(data["label"])


def _enum_codec(members) -> tuple:
    """The ``(encode, decode)`` pair of an enum member, stored as its value."""
    return attrgetter("value"), {member.value: member for member in members}.__getitem__


def _map_codec(members, codec: tuple | None = None) -> tuple:
    """The pair of a map keyed by ``members``, stored under their values in
    ``members`` order; ``codec`` is that of each value, None for a plain one."""
    by_value = {member.value: member for member in members}
    if codec is None:
        return (lambda mapping: {key.value: mapping[key] for key in members},
                lambda data: {by_value[name]: value for name, value in data.items()})
    encode, decode = codec
    return (lambda mapping: {key.value: encode(mapping[key]) for key in members},
            lambda data: {by_value[name]: decode(value) for name, value in data.items()})


_FINDINGS_CODEC = (lambda findings: [_to_dict(finding) for finding in findings],
                   lambda data: tuple([_from_dict(VulnFinding, entry) for entry in data]))
_RAW_CODEC = (lambda raw: None if raw is None else _to_dict(raw),
              lambda data: None if data is None else raw_report_from_dict(data))

# How each stored type is stored: its ``kind`` tag (a raw report's, which
# tells the raw report types apart, else None), then its field table, one
# ``(key, codec)`` per field in stored order (for a vuln record and an
# assessment not the constructor's). A field is stored under its own name;
# ``codec`` is the ``(encode, decode)`` pair of a value that is not a plain
# JSON value, else None. A read requires every key its form writes. Keyed
# by type, since one type can serve several tools (``ScapReport``).
_FORMS = {
    VulnFinding: (None, (("identifier", None), ("severity", _enum_codec(SEVERITIES)),
                         ("confirmed", None), ("cvss", None), ("port", None),
                         ("description", None))),
    LynisReport: ("lynis", (("hardening_index", None),)),
    ScapReport: ("scap", (("profile", _enum_codec(ScapProfile)), ("pass_count", None),
                          ("fail_count", None))),
    AideReport: ("aide", (("added", None), ("removed", None), ("changed", None))),
    TripwireReport: ("tripwire", (("objects_scanned", None), ("violations", None))),
    VulnReport: ("vuln", (("open_ports", None), ("filtered_ports", None),
                          ("firewall_active", None), ("confirmed_count", None),
                          ("findings", _FINDINGS_CODEC))),
    NormalizedScore: (None, (("tool", _enum_codec(TOOL_KINDS)), ("value", None),
                             ("raw", _RAW_CODEC))),
    WeightProfile: (None, (("tool_weights", _map_codec(TOOL_KINDS)),
                           ("severity_weights", _map_codec(SEVERITIES)),
                           *[(name, None) for name in PENALTY_FIELDS])),
    CompositeAssessment: (None, (
        ("label", None),
        ("timestamp", (datetime.isoformat, datetime.fromisoformat)),
        ("composite", None),
        ("scores", _map_codec(TOOL_KINDS, (_to_dict, partial(_from_dict, NormalizedScore)))),
        ("contributions", _map_codec(TOOL_KINDS)),
        ("weights", (_to_dict, partial(_from_dict, WeightProfile))),
    )),
}
_RAW_TYPES = {kind: cls for cls, (kind, _) in _FORMS.items() if kind is not None}
