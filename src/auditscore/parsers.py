"""Parsers for the native report formats of the six supported scanners.

None of the tools share a format: the system auditor emits ``key=value``
report data, the SCAP evaluations emit XCCDF result XML, the two file
integrity checkers emit prose reports with summary counters, and the
network scanner emits its own XML with NSE script output embedded.

Each parser is a pure function from report text to a raw-metrics record
plus a :class:`ParseDiagnostics`. Diagnostics never alter extracted
values: a parse either succeeds with a complete record or raises a
:class:`~auditscore.errors.ParseError`. Every extracted number is traced
to its source line or element in ``diagnostics.trace`` so reports stay
auditable at debug verbosity.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass, field

from .errors import ParseError
from .model import (
    AideReport,
    LynisReport,
    ScapProfile,
    ScapReport,
    Severity,
    ToolKind,
    TripwireReport,
    VulnFinding,
    VulnReport,
    classify_severity,
)

# Any host filtering at least this many ports is treated as firewalled;
# observed scans show either ~0 or tens of thousands of filtered ports,
# so the threshold only needs to survive partial scans.
FIREWALL_FILTERED_THRESHOLD = 100

# Rule results an XCCDF evaluation may legally carry. pass/fixed count as
# passes, fail/error as failures; the rest are excluded from both counts
# because they never entered the evaluated denominator.
_XCCDF_PASS = frozenset({"pass", "fixed"})
_XCCDF_FAIL = frozenset({"fail", "error"})
_XCCDF_EXCLUDED = frozenset(
    {"notapplicable", "notchecked", "notselected", "informational", "unknown"}
)


@dataclass
class ParseDiagnostics:
    """Where a parse ran and what it noticed along the way."""

    source_path: str
    tool: ToolKind
    warnings: list[str] = field(default_factory=list)
    trace: list[str] = field(default_factory=list)
    excluded_results: dict[str, int] = field(default_factory=dict)

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    def note(self, message: str) -> None:
        self.trace.append(message)


# ---------------------------------------------------------------------------
# System audit report data (key=value lines)
# ---------------------------------------------------------------------------

_HARDENING_INDEX = re.compile(r"^\s*hardening_index\s*=\s*(.*?)\s*$")


def parse_lynis(report_text: str, source: str = "<string>") -> tuple[LynisReport, ParseDiagnostics]:
    """Extract the 0-100 hardening index from ``key=value`` report data.

    Lines starting with ``#`` are comments. Raises ``KEY_MISSING`` when no
    ``hardening_index`` line exists, ``VALUE_NOT_INTEGER`` or
    ``VALUE_OUT_OF_RANGE`` when the value is unusable.
    """
    diagnostics = ParseDiagnostics(source, ToolKind.LYNIS)
    matches: list[tuple[int, str]] = []
    for lineno, line in enumerate(report_text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        found = _HARDENING_INDEX.match(line)
        if found:
            matches.append((lineno, found.group(1)))
    if not matches:
        raise ParseError("KEY_MISSING", "no hardening_index line found", source)
    if len(matches) > 1:
        diagnostics.warn(
            f"hardening_index appears {len(matches)} times; using the last occurrence"
        )
    lineno, raw_value = matches[-1]
    try:
        value = int(raw_value)
    except ValueError:
        raise ParseError(
            "VALUE_NOT_INTEGER", f"hardening_index is {raw_value!r}", source, lineno
        ) from None
    if not 0 <= value <= 100:
        raise ParseError(
            "VALUE_OUT_OF_RANGE", f"hardening_index {value} outside [0, 100]", source, lineno
        )
    diagnostics.note(f"hardening_index={value} (line {lineno})")
    return LynisReport(value), diagnostics


# ---------------------------------------------------------------------------
# XCCDF result documents
# ---------------------------------------------------------------------------


# Larger counts come from no real scan, and would overflow the float
# arithmetic of normalization.
_MAX_COUNT = 10**18


def _count(text: str, what: str, source: str) -> int:
    """An integer count from report text: ``VALUE_NOT_INTEGER`` when ``int``
    cannot read it (past 4,300 digits too), ``VALUE_OUT_OF_RANGE`` above
    :data:`_MAX_COUNT`."""
    try:
        value = int(text)
    except ValueError:
        raise ParseError("VALUE_NOT_INTEGER", f"{what} is {text!r}", source) from None
    if value > _MAX_COUNT:
        raise ParseError("VALUE_OUT_OF_RANGE", f"{what} exceeds {_MAX_COUNT}", source)
    return value


def _localname(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def parse_xccdf(
    result_xml: str, profile: ScapProfile, source: str = "<string>"
) -> tuple[ScapReport, ParseDiagnostics]:
    """Count rule results in an XCCDF TestResult document.

    ``pass`` and ``fixed`` count as passes, ``fail`` and ``error`` as
    failures. Everything else (notapplicable, notchecked, notselected,
    informational, unknown) is excluded from both counts and tallied in
    the diagnostics, since excluded rules never enter the evaluated
    denominator. A document with several ``TestResult`` elements is
    scored by the last in document order, with a warning naming how many
    were ignored. Namespace-agnostic: any XCCDF version parses.
    """
    diagnostics = ParseDiagnostics(source, profile.tool)
    try:
        root = ET.fromstring(result_xml)
    except ET.ParseError as exc:
        raise ParseError("MALFORMED_XML", str(exc), source) from None
    rule_results, test_results = [], 0
    for el in root.iter():  # document order: each TestResult starts afresh
        name = _localname(el.tag)
        if name == "rule-result":
            rule_results.append(el)
        elif name == "TestResult":
            rule_results, test_results = [], test_results + 1
    if test_results > 1:
        diagnostics.warn(
            f"document contains {test_results} TestResult elements; scoring the last, "
            f"{test_results - 1} ignored"
        )
    if not rule_results:
        raise ParseError("NO_TEST_RESULT", "document contains no rule-result elements", source)
    pass_count = 0
    fail_count = 0
    excluded: Counter[str] = Counter()
    for element in rule_results:
        idref = element.get("idref", "<no idref>")
        result_el = next((c for c in element if _localname(c.tag) == "result"), None)
        value = (result_el.text or "").strip() if result_el is not None else ""
        if not value:
            diagnostics.warn(f"rule-result {idref} has no result value; ignored")
            continue
        if value in _XCCDF_PASS:
            pass_count += 1
            diagnostics.note(f"{idref}: {value} -> pass")
        elif value in _XCCDF_FAIL:
            fail_count += 1
            diagnostics.note(f"{idref}: {value} -> fail")
        else:
            if value not in _XCCDF_EXCLUDED:
                diagnostics.warn(f"rule-result {idref} has unknown result {value!r}; excluded")
            excluded[value] += 1
    diagnostics.excluded_results = dict(excluded)
    if excluded:
        tallies = ", ".join(f"{name}={count}" for name, count in sorted(excluded.items()))
        diagnostics.note(f"excluded result tallies: {tallies}")
    return ScapReport(profile, pass_count, fail_count), diagnostics


# ---------------------------------------------------------------------------
# File integrity check reports (summary counters)
# ---------------------------------------------------------------------------

_AIDE_COUNT = re.compile(
    r"^\s*(Added|Removed|Changed)\s+entries:\s*(\d+)\s*$", re.IGNORECASE | re.MULTILINE
)
_AIDE_NO_CHANGES = re.compile(
    r"found\s+NO\s+differences|all\s+files\s+match", re.IGNORECASE
)


def parse_aide(report_text: str, source: str = "<string>") -> tuple[AideReport, ParseDiagnostics]:
    """Extract added/removed/changed counts from a check report.

    Recognizes the summary counter lines and the "no differences" form of
    a clean run (which yields zero counts). Raises ``SUMMARY_MISSING``
    when neither is present. Section headers like ``Added entries:``
    without a count do not match the counter pattern.
    """
    diagnostics = ParseDiagnostics(source, ToolKind.AIDE)
    counts: dict[str, int] = {}
    for found in _AIDE_COUNT.finditer(report_text):
        key = found.group(1).lower()
        value = _count(found.group(2), f"{key} entries", source)
        if key in counts:
            diagnostics.warn(f"duplicate '{found.group(1)} entries' line; keeping first value")
            continue
        counts[key] = value
        lineno = report_text.count("\n", 0, found.start()) + 1
        diagnostics.note(f"{key} entries={value} (line {lineno})")
    if not counts:
        if _AIDE_NO_CHANGES.search(report_text):
            diagnostics.note("no-differences report; all counts zero")
            return AideReport(0, 0, 0), diagnostics
        raise ParseError(
            "SUMMARY_MISSING", "no summary counter lines and no no-differences marker", source
        )
    for key in ("added", "removed", "changed"):
        if key not in counts:
            diagnostics.warn(f"summary has no '{key} entries' line; assuming 0")
            counts[key] = 0
    return AideReport(counts["added"], counts["removed"], counts["changed"]), diagnostics


_TRIPWIRE_OBJECTS = re.compile(r"Total objects scanned:\s*([\d,]+)", re.IGNORECASE)
_TRIPWIRE_VIOLATIONS = re.compile(r"Total violations found:\s*([\d,]+)", re.IGNORECASE)


def parse_tripwire(
    report_text: str, source: str = "<string>"
) -> tuple[TripwireReport, ParseDiagnostics]:
    """Extract object and violation totals from an integrity check report.

    Thousands separators are stripped. Raises ``SUMMARY_MISSING`` when
    either total is absent and ``VIOLATIONS_EXCEED_OBJECTS`` when the
    counts are inconsistent.
    """
    diagnostics = ParseDiagnostics(source, ToolKind.TRIPWIRE)
    objects_match = _TRIPWIRE_OBJECTS.search(report_text)
    violations_match = _TRIPWIRE_VIOLATIONS.search(report_text)
    if objects_match is None or violations_match is None:
        missing = []
        if objects_match is None:
            missing.append("'Total objects scanned'")
        if violations_match is None:
            missing.append("'Total violations found'")
        raise ParseError("SUMMARY_MISSING", "missing " + " and ".join(missing), source)
    objects_scanned = _count(objects_match.group(1).replace(",", ""), "objects scanned", source)
    violations = _count(violations_match.group(1).replace(",", ""), "violations", source)
    objects_line = report_text.count("\n", 0, objects_match.start()) + 1
    violations_line = report_text.count("\n", 0, violations_match.start()) + 1
    diagnostics.note(f"objects scanned={objects_scanned} (line {objects_line})")
    diagnostics.note(f"violations={violations} (line {violations_line})")
    if violations > objects_scanned:
        raise ParseError(
            "VIOLATIONS_EXCEED_OBJECTS",
            f"violations ({violations}) exceed objects scanned ({objects_scanned})",
            source,
        )
    return TripwireReport(objects_scanned, violations), diagnostics


# ---------------------------------------------------------------------------
# Network scan XML with NSE script output
# ---------------------------------------------------------------------------

_CVE_TOKEN = re.compile(r"CVE-\d{4}-\d{4,}")
_LINE_CVSS = re.compile(r"(?<![\w.])(\d{1,2}\.\d+)(?![\w.])")
_GLOBAL_CVSS = re.compile(r"CVSS(?:v\d)?\s*[:=]?\s*(\d{1,2}(?:\.\d+)?)", re.IGNORECASE)
_VULNERABLE_MARKER = re.compile(r"\bVULNERABLE\b")
_NOT_VULNERABLE = re.compile(r"\bNOT\s+VULNERABLE\b")
_SEVERITY_KEYWORD = re.compile(
    r"(?:Risk factor|Severity)\s*:\s*(critical|high|medium|low)", re.IGNORECASE
)
# Lines that are structure rather than a human title for the finding.
_MARKER_PREFIXES = (
    "State:",
    "IDs:",
    "CVSS",
    "Risk factor:",
    "Severity:",
    "References:",
    "Disclosure",
    "Extra information",
    "Check results",
    "VULNERABLE:",
    "LIKELY VULNERABLE",
)


def detect_firewall(open_ports: int, filtered_ports: int, override: bool | None = None) -> bool:
    """Heuristic firewall detection, overridable for hosts where it is wrong."""
    if override is not None:
        return override
    return filtered_ports >= FIREWALL_FILTERED_THRESHOLD


def _first_descriptive_line(output: str) -> str:
    for line in output.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith(_MARKER_PREFIXES):
            continue
        if _CVE_TOKEN.search(stripped):
            continue
        return stripped[:200]
    return ""


def _script_findings(
    script_el: ET.Element, port: int | None, diagnostics: ParseDiagnostics
) -> list[VulnFinding]:
    script_id = script_el.get("id", "script")
    output = script_el.get("output") or ""
    nested = " ".join(text.strip() for text in script_el.itertext() if text.strip())
    text = output if not nested else output + "\n" + nested

    confirmed = bool(_VULNERABLE_MARKER.search(_NOT_VULNERABLE.sub("", text)))
    keyword = _SEVERITY_KEYWORD.search(text)
    keyword_severity = Severity(keyword.group(1).lower()) if keyword else None
    description = _first_descriptive_line(output)

    # CVE identifiers, deduplicated per script, with a CVSS value when one
    # appears on the same line (tabular script output lists one per line).
    cves: dict[str, float | None] = {}
    for line in text.splitlines():
        tokens = _CVE_TOKEN.findall(line)
        if not tokens:
            continue
        line_cvss: float | None = None
        for candidate in _LINE_CVSS.findall(_CVE_TOKEN.sub("", line)):
            value = float(candidate)
            if 0.0 <= value <= 10.0:
                line_cvss = value
                break
        for token in tokens:
            if token not in cves or (cves[token] is None and line_cvss is not None):
                cves[token] = line_cvss

    global_cvss: float | None = None
    global_match = _GLOBAL_CVSS.search(text)
    if global_match:
        value = float(global_match.group(1))
        if 0.0 <= value <= 10.0:
            global_cvss = value

    where = f"port {port}" if port is not None else "host"
    findings: list[VulnFinding] = []
    if cves:
        for identifier, cvss in cves.items():
            if cvss is None and len(cves) == 1:
                cvss = global_cvss
            if cvss is not None:
                severity = classify_severity(cvss)
            else:
                severity = keyword_severity or Severity.LOW
            findings.append(
                VulnFinding(identifier, severity, confirmed, cvss, port, description)
            )
            diagnostics.note(
                f"finding {identifier} from script {script_id} ({where}), "
                f"cvss={cvss}, confirmed={confirmed}"
            )
    elif confirmed:
        if global_cvss is not None:
            severity = classify_severity(global_cvss)
        else:
            severity = keyword_severity or Severity.LOW
        findings.append(
            VulnFinding(script_id, severity, True, global_cvss, port, description)
        )
        diagnostics.note(f"finding {script_id} ({where}), confirmed by state marker")
    return findings


def parse_nmap(
    scan_xml: str, source: str = "<string>", firewall_override: bool | None = None
) -> tuple[VulnReport, ParseDiagnostics]:
    """Extract port exposure and vulnerability findings from scan XML.

    Open and filtered ports are counted from per-port state elements plus
    the ``extraports`` summary. Findings come from script output: one per
    CVE token (with CVSS when present on its line), or one per script
    whose output carries a ``VULNERABLE`` state marker. A finding with no
    CVSS and no severity keyword defaults to low severity. Raises
    ``MALFORMED_XML``, ``NO_HOST`` or ``VALUE_NOT_INTEGER`` (an
    ``extraports`` count that is not an integer).
    """
    diagnostics = ParseDiagnostics(source, ToolKind.VULN_SCAN)
    try:
        root = ET.fromstring(scan_xml)
    except ET.ParseError as exc:
        raise ParseError("MALFORMED_XML", str(exc), source) from None
    # Outermost hosts in document order: one nested in another (nmap writes
    # none) is part of it, so each port counts once, in linear time.
    hosts, stack = [], [root]
    while stack:
        element = stack.pop()
        if _localname(element.tag) == "host":
            hosts.append(element)
        else:
            stack.extend(reversed(element))
    if not hosts:
        raise ParseError("NO_HOST", "document contains no host element", source)
    if len(hosts) > 1:
        diagnostics.warn(f"document contains {len(hosts)} hosts; metrics are aggregated")

    open_ports = 0
    filtered_ports = 0
    findings: list[VulnFinding] = []
    for host in hosts:
        for port_el in (el for el in host.iter() if _localname(el.tag) == "port"):
            portid_raw = port_el.get("portid", "")
            portid = _count(portid_raw, "portid", source) if portid_raw.isdecimal() else None
            state_el = next((c for c in port_el if _localname(c.tag) == "state"), None)
            state = state_el.get("state", "") if state_el is not None else ""
            if state == "open":
                open_ports += 1
                diagnostics.note(f"open port {portid_raw}/{port_el.get('protocol', '?')}")
            elif state == "filtered":
                filtered_ports += 1
                diagnostics.note(f"filtered port {portid_raw}")
            elif state:
                diagnostics.note(f"port {portid_raw} state {state!r} not counted")
            for script_el in (c for c in port_el if _localname(c.tag) == "script"):
                findings.extend(_script_findings(script_el, portid, diagnostics))
        for extra_el in (el for el in host.iter() if _localname(el.tag) == "extraports"):
            if extra_el.get("state") == "filtered":
                count = _count(extra_el.get("count", "0"), "extraports count", source)
                filtered_ports += count
                diagnostics.note(f"extraports: {count} filtered")
        for hostscript in (el for el in host.iter() if _localname(el.tag) == "hostscript"):
            for script_el in (c for c in hostscript if _localname(c.tag) == "script"):
                findings.extend(_script_findings(script_el, None, diagnostics))

    confirmed_count = sum(1 for f in findings if f.confirmed)
    firewall = detect_firewall(open_ports, filtered_ports, firewall_override)
    report = VulnReport(
        open_ports=open_ports,
        filtered_ports=filtered_ports,
        firewall_active=firewall,
        findings=tuple(findings),
        confirmed_count=confirmed_count,
    )
    return report, diagnostics
