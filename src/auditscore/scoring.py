"""Normalization formulas and weighted aggregation.

Each scanner's raw metrics map onto a common 0-100 scale:

* system audit: the report's own hardening index, taken as-is
* SCAP profiles: 100 * passed / (passed + failed)
* change-count file integrity: 100 - 10 * log10(total changes), floored
  at 0; a clean system scores 100 (the formula already yields 100 at one
  change, so the extension is continuous)
* object-scan file integrity: 100 * (objects - violations) / objects
* vulnerability scan: 100 minus severity-weighted finding counts, a flat
  per-open-port penalty and a per-confirmed-finding penalty; an active
  firewall discounts the total penalty, which never drops below zero

The composite is the convex combination of the six scores under a weight
profile, valid once built. Intermediate arithmetic stays in full double
precision; rounding for display happens only in the reporting layer.

:data:`TOOLS` holds every per-tool fact: a seventh scanner is one new
``TOOLS`` entry plus its parser and normalizer and, for a new raw report
type, one row of ``model``'s stored-form table.
"""

from __future__ import annotations

import math
from collections import Counter
from datetime import datetime, timezone
from typing import Any, Callable, Mapping

from .errors import ScoringError
from .model import (
    SEVERITIES,
    TOOL_KINDS,
    AideReport,
    CompositeAssessment,
    Frozen,
    LynisReport,
    NormalizedScore,
    RawToolReport,
    ScapProfile,
    ScapReport,
    ToolKind,
    TripwireReport,
    VulnReport,
    WeightProfile,
)
from .parsers import (
    ParseDiagnostics,
    parse_aide,
    parse_lynis,
    parse_nmap,
    parse_tripwire,
    parse_xccdf,
)


def normalize_lynis(report: LynisReport) -> NormalizedScore:
    """The hardening index is already a 0-100 score; pass it through."""
    return NormalizedScore(report.tool, float(report.hardening_index), report)


def normalize_scap(report: ScapReport) -> NormalizedScore:
    """Percentage of evaluated rules that pass.

    A report with zero evaluated rules has no defined score and raises
    ``EMPTY_RESULT``; silently scoring it 0 or 100 would corrupt
    composites, so the caller must exclude it or supply an override.
    """
    evaluated = report.pass_count + report.fail_count
    if evaluated == 0:
        raise ScoringError(
            "EMPTY_RESULT", f"{report.profile.value} report has no pass or fail results"
        )
    value = 100.0 * report.pass_count / evaluated
    return NormalizedScore(report.tool, value, report)


def normalize_aide(report: AideReport) -> NormalizedScore:
    """Logarithmic change scoring: stays sensitive across hundreds of changes."""
    total = report.total_changes
    if total == 0:
        value = 100.0
    else:
        value = max(0.0, 100.0 - 10.0 * math.log10(total))
    return NormalizedScore(report.tool, value, report)


def normalize_tripwire(report: TripwireReport) -> NormalizedScore:
    """Fraction of scanned objects without violations, scaled to 0-100."""
    if report.objects_scanned == 0:
        raise ScoringError("EMPTY_DATABASE", "tripwire report scanned zero objects")
    value = 100.0 * (report.objects_scanned - report.violations) / report.objects_scanned
    return NormalizedScore(report.tool, value, report)


def vuln_penalty(report: VulnReport, profile: WeightProfile) -> float:
    """Total penalty before the firewall discount.

    Confirmed findings carry only the flat confirmed penalty; counting
    their severities as well would penalize them twice, since the
    severity term and the confirmed term are separate additive penalties.
    """
    severity_counts = Counter(f.severity for f in report.findings if not f.confirmed)
    penalty = sum(
        profile.severity_weights[severity] * severity_counts[severity]
        for severity in SEVERITIES
    )
    penalty += profile.port_penalty * report.open_ports
    penalty += profile.confirmed_penalty * report.confirmed_count
    return penalty


def normalize_vuln(report: VulnReport, profile: WeightProfile) -> NormalizedScore:
    """Penalty-based vulnerability score under the supplied profile.

    An active firewall reduces the total penalty by the profile's
    discount; the penalty is floored at zero first, so a firewall can
    never push a score above 100.
    """
    raw_penalty = vuln_penalty(report, profile)
    if report.firewall_active:
        effective = max(0.0, raw_penalty - profile.firewall_discount)
    else:
        effective = raw_penalty
    value = min(100.0, max(0.0, 100.0 - effective))
    return NormalizedScore(report.tool, value, report)


class ToolSpec(Frozen):
    """One scanner: how it is parsed, scored, shown and run by default.

    Table entries call parsers and normalizers through their module-global
    names at call time, so rebinding a name (a tracer's wrapper, a test's
    stub) reaches every caller.
    """

    __slots__ = (
        "display_name",
        "parse",
        "command",
        "output_name",
        "normalize",
        "fields",
        "exit_codes",
        "init_command",
        "database",
    )

    def __init__(
        self,
        display_name: str,
        # (report text, source path, firewall override, trace) -> raw report;
        # trace notes are built only when asked for.
        parse: Callable[[str, str, bool | None, bool], tuple[RawToolReport, ParseDiagnostics]],
        command: str,
        output_name: str,
        normalize: Callable[[Any, WeightProfile], NormalizedScore],
        # Raw metrics as (name, value): ``parse``'s body, a score table's ``raw`` column.
        fields: Callable[[Any], list[tuple[str, object]]],
        exit_codes: frozenset[int],
        init_command: str | None = None,
        # Integrity database path; ``{hostname}`` is substituted.
        database: str | None = None,
    ):
        self._init(
            display_name, parse, command, output_name, normalize, fields, exit_codes, init_command,
            database
        )


# File integrity checkers return a bitmask of change classes (1 added,
# 2 removed, 4 changed); the SCAP evaluator returns 2 when any rule
# fails; the system auditor may return 78 when it has warnings to show.
# The two SCAP profiles share a report type, and so how it is scored,
# shown and judged.
_SCAP = dict(
    normalize=lambda raw, profile: normalize_scap(raw),
    fields=lambda raw: [
        ("profile", raw.profile.value), ("pass", raw.pass_count), ("fail", raw.fail_count)
    ],
    exit_codes=frozenset({0, 2}),
)
TOOLS: Mapping[ToolKind, ToolSpec] = {
    ToolKind.LYNIS: ToolSpec(
        "Lynis",
        lambda text, source, firewall, trace: parse_lynis(text, source, trace=trace),
        "lynis audit system --quiet --report-file {output}",
        "lynis-report.dat",
        lambda raw, profile: normalize_lynis(raw),
        lambda raw: [("hardening_index", raw.hardening_index)],
        frozenset({0, 78}),
    ),
    ToolKind.OPENSCAP_STANDARD: ToolSpec(
        "OpenSCAP Standard",
        lambda text, source, firewall, trace: parse_xccdf(
            text, ScapProfile.STANDARD, source, trace=trace
        ),
        "oscap xccdf eval --profile xccdf_org.ssgproject.content_profile_standard "
        "--results {output} {datastream}",
        "openscap-standard.xml",
        **_SCAP,
    ),
    ToolKind.AIDE: ToolSpec(
        "AIDE",
        lambda text, source, firewall, trace: parse_aide(text, source, trace=trace),
        "aide --check",
        "aide-check.txt",
        lambda raw, profile: normalize_aide(raw),
        lambda raw: [
            ("added", raw.added),
            ("removed", raw.removed),
            ("changed", raw.changed),
            ("total_changes", raw.total_changes),
        ],
        frozenset(range(8)),
        init_command="aide --init",
        database="/var/lib/aide/aide.db",
    ),
    ToolKind.TRIPWIRE: ToolSpec(
        "Tripwire",
        lambda text, source, firewall, trace: parse_tripwire(text, source, trace=trace),
        "tripwire --check",
        "tripwire-check.txt",
        lambda raw, profile: normalize_tripwire(raw),
        lambda raw: [("objects_scanned", raw.objects_scanned), ("violations", raw.violations)],
        frozenset(range(8)),
        init_command="tripwire --init",
        database="/var/lib/tripwire/{hostname}.twd",
    ),
    ToolKind.OPENSCAP_CIS: ToolSpec(
        "OpenSCAP CIS",
        lambda text, source, firewall, trace: parse_xccdf(
            text, ScapProfile.CIS, source, trace=trace
        ),
        "oscap xccdf eval --profile xccdf_org.ssgproject.content_profile_cis_level1_server "
        "--results {output} {datastream}",
        "openscap-cis.xml",
        **_SCAP,
    ),
    ToolKind.VULN_SCAN: ToolSpec(
        "Vulnerability",
        lambda text, source, firewall, trace: parse_nmap(text, source, firewall, trace=trace),
        "nmap -sV --script vuln -oX {output} {target}",
        "nmap-scan.xml",
        lambda raw, profile: normalize_vuln(raw, profile),
        lambda raw: [
            ("open_ports", raw.open_ports),
            ("filtered_ports", raw.filtered_ports),
            ("firewall_active", "yes" if raw.firewall_active else "no"),
            ("findings", len(raw.findings)),
            ("confirmed", raw.confirmed_count),
        ],
        frozenset({0}),
    ),
}


def normalize_report(
    report: RawToolReport, profile: WeightProfile | None = None
) -> NormalizedScore:
    """Normalize a raw report of any type (profile only matters for vuln)."""
    spec = TOOLS[report.tool]
    return spec.normalize(report, profile if profile is not None else WeightProfile())


def aggregate(
    scores: Mapping[ToolKind, NormalizedScore],
    profile: WeightProfile,
    label: str,
    timestamp: datetime | None = None,
) -> CompositeAssessment:
    """Combine six normalized scores into a composite assessment.

    Raises ``TOOL_MISSING`` naming every absent tool. The stored
    composite equals the sum of the per-tool weighted contributions.
    """
    missing = [tool.value for tool in TOOL_KINDS if tool not in scores]
    if missing:
        raise ScoringError("TOOL_MISSING", "no score for: " + ", ".join(missing))
    contributions = {
        tool: profile.tool_weights[tool] * scores[tool].value for tool in TOOL_KINDS
    }
    composite = min(100.0, max(0.0, sum(contributions.values())))
    return CompositeAssessment(
        label=label,
        timestamp=timestamp if timestamp is not None else datetime.now(timezone.utc),
        scores={tool: scores[tool] for tool in TOOL_KINDS},
        weights=profile,
        composite=composite,
        contributions=contributions,
    )
