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

:data:`TOOLS` (per tool) and :data:`RAW_SPECS` (per raw report type) hold
every per-tool fact: a seventh scanner is one new ``TOOLS`` entry plus its
parser and normalizer.
"""

from __future__ import annotations

import math
from collections import Counter
from datetime import datetime, timezone
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from .errors import ScoringError
from .model import (
    AideReport,
    CompositeAssessment,
    LynisReport,
    NormalizedScore,
    RawToolReport,
    ScapProfile,
    ScapReport,
    Severity,
    ToolKind,
    TripwireReport,
    VulnReport,
    WeightProfile,
    classify_severity,  # re-exported: severity bands are part of the scoring API
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
    return NormalizedScore(ToolKind.LYNIS, float(report.hardening_index), report)


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
    return NormalizedScore(report.profile.tool, value, report)


def normalize_aide(report: AideReport) -> NormalizedScore:
    """Logarithmic change scoring: stays sensitive across hundreds of changes."""
    total = report.total_changes
    if total == 0:
        value = 100.0
    else:
        value = max(0.0, 100.0 - 10.0 * math.log10(total))
    return NormalizedScore(ToolKind.AIDE, value, report)


def normalize_tripwire(report: TripwireReport) -> NormalizedScore:
    """Fraction of scanned objects without violations, scaled to 0-100."""
    if report.objects_scanned == 0:
        raise ScoringError("EMPTY_DATABASE", "tripwire report scanned zero objects")
    value = 100.0 * (report.objects_scanned - report.violations) / report.objects_scanned
    return NormalizedScore(ToolKind.TRIPWIRE, value, report)


def vuln_penalty(report: VulnReport, profile: WeightProfile) -> float:
    """Total penalty before the firewall discount.

    Confirmed findings carry only the flat confirmed penalty; counting
    their severities as well would penalize them twice, since the
    severity term and the confirmed term are separate additive penalties.
    """
    severity_counts = Counter(f.severity for f in report.findings if not f.confirmed)
    penalty = sum(
        profile.severity_weights[severity] * severity_counts[severity]
        for severity in Severity
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
    return NormalizedScore(ToolKind.VULN_SCAN, value, report)


@dataclass(frozen=True)
class ToolSpec:
    """One scanner: how it is shown, parsed and run by default.

    Table entries call parsers and normalizers through their module-global
    names at call time, so rebinding a name (a tracer's wrapper, a test's
    stub) reaches every caller.
    """

    display_name: str
    # (report text, source path, firewall override) -> raw report
    parse: Callable[[str, str, bool | None], tuple[RawToolReport, ParseDiagnostics]]
    command: str
    exit_codes: frozenset[int]
    output_name: str
    init_command: str | None = None
    # Integrity database path; ``{hostname}`` is substituted.
    database: str | None = None


# File integrity checkers return a bitmask of change classes (1 added,
# 2 removed, 4 changed); the SCAP evaluator returns 2 when any rule
# fails; the system auditor may return 78 when it has warnings to show.
TOOLS: Mapping[ToolKind, ToolSpec] = {
    ToolKind.LYNIS: ToolSpec(
        "Lynis",
        lambda text, source, firewall: parse_lynis(text, source),
        "lynis audit system --quiet --report-file {output}",
        frozenset({0, 78}),
        "lynis-report.dat",
    ),
    ToolKind.OPENSCAP_STANDARD: ToolSpec(
        "OpenSCAP Standard",
        lambda text, source, firewall: parse_xccdf(text, ScapProfile.STANDARD, source),
        "oscap xccdf eval --profile xccdf_org.ssgproject.content_profile_standard "
        "--results {output} {datastream}",
        frozenset({0, 2}),
        "openscap-standard.xml",
    ),
    ToolKind.AIDE: ToolSpec(
        "AIDE",
        lambda text, source, firewall: parse_aide(text, source),
        "aide --check",
        frozenset(range(8)),
        "aide-check.txt",
        init_command="aide --init",
        database="/var/lib/aide/aide.db",
    ),
    ToolKind.TRIPWIRE: ToolSpec(
        "Tripwire",
        lambda text, source, firewall: parse_tripwire(text, source),
        "tripwire --check",
        frozenset(range(8)),
        "tripwire-check.txt",
        init_command="tripwire --init",
        database="/var/lib/tripwire/{hostname}.twd",
    ),
    ToolKind.OPENSCAP_CIS: ToolSpec(
        "OpenSCAP CIS",
        lambda text, source, firewall: parse_xccdf(text, ScapProfile.CIS, source),
        "oscap xccdf eval --profile xccdf_org.ssgproject.content_profile_cis_level1_server "
        "--results {output} {datastream}",
        frozenset({0, 2}),
        "openscap-cis.xml",
    ),
    ToolKind.VULN_SCAN: ToolSpec(
        "Vulnerability",
        lambda text, source, firewall: parse_nmap(text, source, firewall),
        "nmap -sV --script vuln -oX {output} {target}",
        frozenset({0}),
        "nmap-scan.xml",
    ),
}


@dataclass(frozen=True)
class RawSpec:
    """One raw report type: its normalizer and its two text forms."""

    normalize: Callable[[Any, WeightProfile], NormalizedScore]
    summary: Callable[[Any], str]  # one line of a score table
    details: Callable[[Any], list[str]]  # the body of ``parse`` text output


RAW_SPECS: Mapping[type, RawSpec] = {
    LynisReport: RawSpec(
        lambda raw, profile: normalize_lynis(raw),
        lambda raw: f"hardening_index={raw.hardening_index}",
        lambda raw: [f"hardening_index: {raw.hardening_index}"],
    ),
    ScapReport: RawSpec(
        lambda raw, profile: normalize_scap(raw),
        lambda raw: f"pass={raw.pass_count} fail={raw.fail_count}",
        lambda raw: [
            f"profile: {raw.profile.value}",
            f"pass: {raw.pass_count}",
            f"fail: {raw.fail_count}",
        ],
    ),
    AideReport: RawSpec(
        lambda raw, profile: normalize_aide(raw),
        lambda raw: (
            f"added={raw.added} removed={raw.removed} changed={raw.changed} "
            f"total={raw.total_changes}"
        ),
        lambda raw: [
            f"added: {raw.added}",
            f"removed: {raw.removed}",
            f"changed: {raw.changed}",
            f"total_changes: {raw.total_changes}",
        ],
    ),
    TripwireReport: RawSpec(
        lambda raw, profile: normalize_tripwire(raw),
        lambda raw: f"objects={raw.objects_scanned} violations={raw.violations}",
        lambda raw: [f"objects_scanned: {raw.objects_scanned}", f"violations: {raw.violations}"],
    ),
    VulnReport: RawSpec(
        lambda raw, profile: normalize_vuln(raw, profile),
        lambda raw: (
            f"open={raw.open_ports} filtered={raw.filtered_ports} "
            f"confirmed={raw.confirmed_count} findings={len(raw.findings)} "
            f"firewall={'yes' if raw.firewall_active else 'no'}"
        ),
        lambda raw: [
            f"open_ports: {raw.open_ports}",
            f"filtered_ports: {raw.filtered_ports}",
            f"firewall_active: {'yes' if raw.firewall_active else 'no'}",
            f"findings: {len(raw.findings)}",
            f"confirmed: {raw.confirmed_count}",
        ],
    ),
}


def normalize_report(
    report: RawToolReport, profile: WeightProfile | None = None
) -> NormalizedScore:
    """Normalize a raw report of any type (profile only matters for vuln)."""
    spec = RAW_SPECS[type(report)]
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
    missing = [tool.value for tool in ToolKind if tool not in scores]
    if missing:
        raise ScoringError("TOOL_MISSING", "no score for: " + ", ".join(missing))
    contributions = {
        tool: profile.tool_weights[tool] * scores[tool].value for tool in ToolKind
    }
    composite = min(100.0, max(0.0, sum(contributions.values())))
    return CompositeAssessment(
        label=label,
        timestamp=timestamp if timestamp is not None else datetime.now(timezone.utc),
        scores={tool: scores[tool] for tool in ToolKind},
        weights=profile,
        composite=composite,
        contributions=contributions,
    )
