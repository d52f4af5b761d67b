"""Shared hypothesis strategies for raw reports, profiles and assessments."""

from __future__ import annotations

import math
from datetime import datetime, timezone

import hypothesis.strategies as st

from auditscore.model import (
    WEIGHT_SUM_TOLERANCE,
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
from auditscore.reportgen import assigned_port_ids
from auditscore.scoring import aggregate, normalize_report

FIXED_TIMESTAMP = datetime(2025, 10, 2, 14, 30, 0, tzinfo=timezone.utc)

lynis_reports = st.builds(LynisReport, hardening_index=st.integers(0, 100))


def scap_reports(profile: ScapProfile | None = None):
    profile_st = st.sampled_from(ScapProfile) if profile is None else st.just(profile)
    return st.builds(
        ScapReport,
        profile=profile_st,
        pass_count=st.integers(0, 5000),
        fail_count=st.integers(0, 5000),
    ).filter(lambda r: r.pass_count + r.fail_count > 0)


aide_reports = st.builds(
    AideReport,
    added=st.integers(0, 10**6),
    removed=st.integers(0, 10**6),
    changed=st.integers(0, 10**6),
)


@st.composite
def tripwire_reports(draw):
    objects = draw(st.integers(1, 10**7))
    violations = draw(st.integers(0, objects))
    return TripwireReport(objects, violations)


_cve_identifiers = st.builds(
    lambda year, number: f"CVE-{year}-{number}",
    st.integers(1999, 2026),
    st.integers(1000, 999999),
)
_script_identifiers = st.builds(
    lambda service, check: f"{service}-{check}",
    st.sampled_from(["http", "ssl", "smb", "ftp", "dns"]),
    st.sampled_from(["vuln-check", "weak-cipher", "anon-login", "enum-shares", "csrf"]),
)
# Lowercase letters only: never collides with state markers, severity
# keywords, or CVE tokens inside generated script output.
_descriptions = st.text(alphabet="abcdefghijklmnopqrstuvwxyz ", max_size=40).map(
    lambda s: " ".join(s.split())
)


@st.composite
def vuln_findings(draw, port_pool: tuple[int, ...]):
    confirmed = draw(st.booleans())
    # The parser only extracts findings that carry a CVE token or a
    # confirmed-state marker, so unconfirmed findings must be CVE-shaped.
    cve_shaped = True if not confirmed else draw(st.booleans())
    identifier = draw(_cve_identifiers if cve_shaped else _script_identifiers)
    cvss = draw(st.none() | st.integers(0, 100).map(lambda n: n / 10.0))
    if cvss is not None:
        severity = classify_severity(cvss)
    else:
        severity = draw(st.sampled_from(Severity))
    port = draw(st.none() | st.sampled_from(port_pool)) if port_pool else None
    return VulnFinding(
        identifier=identifier,
        severity=severity,
        confirmed=confirmed,
        cvss=cvss,
        port=port,
        description=draw(_descriptions),
    )


@st.composite
def vuln_reports(draw):
    open_ports = draw(st.integers(0, 5))
    port_pool = assigned_port_ids(open_ports)
    findings = draw(
        st.lists(vuln_findings(port_pool), max_size=6, unique_by=lambda f: f.identifier)
    )
    filtered = draw(st.sampled_from([0, 1, 5, 99, 100, 200, 65534]))
    firewall = draw(st.booleans())
    return VulnReport(
        open_ports=open_ports,
        filtered_ports=filtered,
        firewall_active=firewall,
        findings=tuple(findings),
        confirmed_count=sum(1 for f in findings if f.confirmed),
    )


raw_reports = st.one_of(
    lynis_reports, scap_reports(), aide_reports, tripwire_reports(), vuln_reports()
)

score_values = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


@st.composite
def weight_profiles(draw):
    shares = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=10.0, allow_nan=False, allow_infinity=False),
            min_size=6,
            max_size=6,
        )
    )
    total = sum(shares)
    return WeightProfile(
        tool_weights={tool: share / total for tool, share in zip(ToolKind, shares)}
    )


@st.composite
def edge_weight_profiles(draw):
    """Profiles whose tool weights sum anywhere within ``WEIGHT_SUM_TOLERANCE``
    of 1, both edges included; ``weight_profiles`` sums to 1 up to rounding."""
    weights = dict(draw(weight_profiles()).tool_weights)
    offset = draw(st.sampled_from([-1.0, 1.0]) | st.floats(-1.0, 1.0)) * WEIGHT_SUM_TOLERANCE
    heaviest = max(weights, key=weights.get)
    weights[heaviest] += 1.0 + offset - sum(weights.values())
    # Step back an ulp at a time until the sum, taken as validation takes it, passes.
    while abs(total := sum(weights[tool] for tool in ToolKind) - 1.0) > WEIGHT_SUM_TOLERANCE:
        weights[heaviest] = math.nextafter(weights[heaviest], -math.inf if total > 0 else math.inf)
    return WeightProfile(tool_weights=weights)


def six_scores(values) -> dict[ToolKind, NormalizedScore]:
    return {tool: NormalizedScore(tool, value) for tool, value in zip(ToolKind, values)}


@st.composite
def assessments(draw, profile: WeightProfile | None = None, label: str = "assessment"):
    if profile is None:
        profile = draw(weight_profiles())
    values = draw(st.lists(score_values, min_size=6, max_size=6))
    return aggregate(six_scores(values), profile, label, timestamp=FIXED_TIMESTAMP)


@st.composite
def full_assessments(draw, label: str = "assessment"):
    """Assessments whose scores carry real raw reports for every tool."""
    profile = WeightProfile()
    raws = [
        draw(lynis_reports),
        draw(scap_reports(ScapProfile.STANDARD)),
        draw(aide_reports),
        draw(tripwire_reports()),
        draw(scap_reports(ScapProfile.CIS)),
        draw(vuln_reports()),
    ]
    scores = {}
    for raw in raws:
        score = normalize_report(raw, profile)
        scores[score.tool] = score
    timestamp = draw(st.datetimes(timezones=st.just(timezone.utc)))
    return aggregate(scores, profile, label, timestamp=timestamp)
