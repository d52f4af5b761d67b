"""Parsers for the native report formats of the six supported scanners.

None of the tools share a format: the system auditor emits ``key=value``
report data, the SCAP evaluations emit XCCDF result XML, the two file
integrity checkers emit prose reports with summary counters, and the
network scanner emits its own XML with NSE script output embedded.

Each parser is a pure function from report text to a raw-metrics record
plus a :class:`ParseDiagnostics`. Diagnostics never alter extracted
values: a parse either succeeds with a complete record or raises a
:class:`~auditscore.errors.ParseError`. With ``trace=True``, the default,
every extracted number is traced to its source line or element in
``diagnostics.trace`` so reports stay auditable at debug verbosity; the
CLI asks for the notes only under ``--verbose``, since a large XCCDF
result carries one per rule. Warnings are always kept.

Without notes, a plain XCCDF result is tallied by one flat scan of its
text, with no element tree: a document with no DOCTYPE, comment, CDATA
section or processing instruction (a leading XML declaration is fine;
expat's handlers reject the rest during its one pass), ``rule-result`` and
``TestResult`` only as unprefixed elements, at most one ``TestResult`` and
no rule-result before it, each rule-result's first child a bare
``<result>`` holding a known value, and that expat accepts. Any other
document is read through the tree, and the counts, warnings and errors are
the same on both paths. Each nmap pattern runs only where an exact
substring test finds what any match of it contains.
"""

from __future__ import annotations

import re
from collections import Counter
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from .errors import ParseError, ValidationError
from .model import (
    MAX_COUNT,
    AideReport,
    Value,
    LynisReport,
    ScapProfile,
    ScapReport,
    Severity,
    TripwireReport,
    VulnFinding,
    VulnReport,
    classify_severity,
)

if TYPE_CHECKING:
    import xml.etree.ElementTree as ET

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
_XCCDF_KNOWN = _XCCDF_PASS | _XCCDF_FAIL | _XCCDF_EXCLUDED


class ParseDiagnostics(Value):
    """What a parse noticed along the way."""

    __slots__ = ("warnings", "trace", "excluded_results")

    def __init__(
        self,
        warnings: list[str] | None = None,
        trace: list[str] | None = None,
        excluded_results: dict[str, int] | None = None,
    ):
        self.warnings = [] if warnings is None else warnings
        self.trace = [] if trace is None else trace
        self.excluded_results = {} if excluded_results is None else excluded_results

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    def note(self, message: str) -> None:
        self.trace.append(message)


@contextmanager
def _as_parse_error(source: str, line: int | None = None) -> Iterator[None]:
    """Turn a model check that fails on what a parser read into a
    ``ParseError`` naming the report, so a parser raises nothing else."""
    try:
        yield
    except ValidationError as exc:
        raise ParseError(exc.code, str(exc), source, line) from exc


# The one reading rule of every report: a line ends at ``\n`` (``[^\S\n]`` is
# whitespace within a line), a value sits on its key's line, a count is ``-?[0-9]+``.
_INTEGER = re.compile(r"-?[0-9]+")


def _count(text: str, what: str, source: str, line: int | None = None) -> int:
    """A count from report text, which must be ``-?[0-9]+``: ``VALUE_NOT_INTEGER``
    otherwise, or past the 4,300 digits ``int`` reads; ``VALUE_OUT_OF_RANGE``
    above :data:`~auditscore.model.MAX_COUNT`. The report model rejects a negative one."""
    try:
        if not _INTEGER.fullmatch(text):
            raise ValueError
        value = int(text)
    except ValueError:
        raise ParseError("VALUE_NOT_INTEGER", f"{what} is {text!r}", source, line) from None
    if value > MAX_COUNT:
        raise ParseError("VALUE_OUT_OF_RANGE", f"{what} exceeds {MAX_COUNT}", source, line)
    return value


def _numbered(text: str, matches):
    """Yield ``(line, match)``, with the 1-based line each match of ``text``
    starts on, for matches given in text order; each ``\\n`` is counted once
    however many matches there are."""
    line, seen = 1, 0
    for found in matches:
        line += text.count("\n", seen, found.start())
        seen = found.start()
        yield line, found


# ---------------------------------------------------------------------------
# System audit report data (key=value lines)
# ---------------------------------------------------------------------------

_HARDENING_INDEX = re.compile(r"^[^\S\n]*hardening_index[^\S\n]*=[^\S\n]*(.*?)[^\S\n]*$", re.M)


def parse_lynis(
    report_text: str, source: str = "<string>", *, trace: bool = True
) -> tuple[LynisReport, ParseDiagnostics]:
    """Extract the 0-100 hardening index from ``key=value`` report data.

    The value is the rest of the last ``hardening_index`` line; a ``#``
    comment never matches. Raises ``KEY_MISSING`` when there is no such
    line, ``VALUE_NOT_INTEGER`` or ``VALUE_OUT_OF_RANGE`` with its line.
    """
    diagnostics = ParseDiagnostics()
    matches = list(_HARDENING_INDEX.finditer(report_text))
    if not matches:
        raise ParseError("KEY_MISSING", "no hardening_index line found", source)
    if len(matches) > 1:
        diagnostics.warn(f"hardening_index appears {len(matches)} times; using the last occurrence")
    line, found = list(_numbered(report_text, matches))[-1]
    value = _count(found.group(1), "hardening_index", source, line)
    if trace:
        diagnostics.note(f"hardening_index={value} (line {line})")
    with _as_parse_error(source, line):
        return LynisReport(value), diagnostics


# ---------------------------------------------------------------------------
# XCCDF result documents
# ---------------------------------------------------------------------------


class _LocalNames(dict):
    """Tag -> local name, each tag split on its first lookup."""

    def __missing__(self, tag: str) -> str:
        name = self[tag] = tag.rsplit("}", 1)[-1]
        return name


def _xml_root(text: str, source: str) -> ET.Element:
    # Imported here: only the two XML parsers use it, and every history
    # command would pay for loading it.
    import xml.etree.ElementTree as ET

    try:
        return ET.fromstring(text)
    except ET.ParseError as exc:
        raise ParseError("MALFORMED_XML", str(exc), source) from None


# A plain document's rule-results, each with ``<result>`` as its first child tag.
_PLAIN_RESULT = re.compile(r"<rule-result[\s>][^<]*<result>([^<]*)<")


def _plain_values(text: str) -> Counter[str] | None:
    """A tally of the stripped ``result`` values the tree walk of :func:`parse_xccdf`
    would score, read without building a tree, or ``None`` unless the text
    shows they are the same and need neither a warning nor a note.

    Sound because ``<`` never appears raw in character data or attribute
    values (XML 1.0 sections 2.4 and 3.1): in a document that expat accepts
    with no DOCTYPE, comment, CDATA section or processing instruction (its
    handlers for them reject the document during its one pass), every ``<``
    but a leading declaration's opens a tag. If ``rule-result`` occurs only
    in ``<rule-result``…``</rule-result>`` pairs and ``TestResult`` at most
    once as a pair starting before the first rule-result, every rule-result
    element is scored and none is prefixed or self-closing; one match per
    end tag means each one's first child tag is a bare ``<result>``, whose
    text runs to the next ``<``. A known value has no ``&``, so entities
    and line-end normalization cannot change it once stripped.
    """
    head = text.find("?>") if text.startswith("<?") else 0  # a leading declaration
    if text.startswith("<!") or text.find("<", 1, head) != -1:
        return None
    rule_results = text.count("</rule-result>")
    if text.count("rule-result") != 2 * rule_results:
        return None
    test_result = text.count("TestResult")
    if test_result and not (
        test_result == 2
        and text.rfind("</TestResult>") != -1
        and -1 < text.find("<TestResult") < text.find("<rule-result")
    ):
        return None
    tally: Counter[str] = Counter()
    for value, count in Counter(_PLAIN_RESULT.findall(text)).items():  # in first-seen order
        tally[value.strip()] += count
    if not tally or sum(tally.values()) != rule_results or not _XCCDF_KNOWN.issuperset(tally):
        return None
    import xml.parsers.expat  # the tree's parser, without the tree

    def refuse(*markup: object) -> None:
        raise xml.parsers.expat.ExpatError(markup)

    parser = xml.parsers.expat.ParserCreate(namespace_separator="}")
    parser.CommentHandler = parser.StartCdataSectionHandler = refuse
    parser.ProcessingInstructionHandler = parser.StartDoctypeDeclHandler = refuse
    try:
        parser.Parse(text, True)
    except (xml.parsers.expat.ExpatError, UnicodeEncodeError):
        return None  # not plain, or the tree walk raises it in ET's words
    return tally


def parse_xccdf(
    result_xml: str, profile: ScapProfile, source: str = "<string>", *, trace: bool = True
) -> tuple[ScapReport, ParseDiagnostics]:
    """Count rule results in an XCCDF TestResult document.

    ``pass`` and ``fixed`` count as passes, ``fail`` and ``error`` as
    failures. Everything else (notapplicable, notchecked, notselected,
    informational, unknown) is excluded from both counts and tallied in
    the diagnostics, since excluded rules never enter the evaluated
    denominator. A document with several ``TestResult`` elements is
    scored by the last in document order, with a warning naming how many
    were ignored. Namespace-agnostic: any XCCDF version parses. With
    ``trace=False`` a plain document (module docstring) is tallied from its
    text without building a tree, with the same result.
    """
    diagnostics = ParseDiagnostics()
    tally = None if trace else _plain_values(result_xml)
    rule_results: list[ET.Element] = []  # the tree's; only they are warned of or noted
    values: list[str] = []  # per rule-result: its first direct ``result`` child's text, stripped
    if tally is None:
        root = _xml_root(result_xml, source)
        # Real results run to tens of thousands of rules but a few dozen
        # distinct tags, so each tag is split once.
        names = _LocalNames()
        test_results = 0
        for element in root.iter():  # document order: each TestResult starts afresh
            name = names[element.tag]
            if name == "rule-result":
                rule_results.append(element)
            elif name == "TestResult":
                rule_results, test_results = [], test_results + 1
        if test_results > 1:
            diagnostics.warn(
                f"document contains {test_results} TestResult elements; scoring the last, "
                f"{test_results - 1} ignored"
            )
        if not rule_results:
            raise ParseError("NO_TEST_RESULT", "document contains no rule-result elements", source)
        for element in rule_results:
            for child in element:
                if names[child.tag] == "result":
                    values.append((child.text or "").strip())
                    break
            else:
                values.append("")
        tally = Counter(values)
    if not tally.keys() <= _XCCDF_KNOWN:  # a blank or unknown value: warn of each
        for element, value in zip(rule_results, values):
            if value not in _XCCDF_KNOWN:
                idref = element.get("idref", "<no idref>")
                diagnostics.warn(
                    f"rule-result {idref} has unknown result {value!r}; excluded"
                    if value
                    else f"rule-result {idref} has no result value; ignored"
                )
    excluded = {
        value: count
        for value, count in tally.items()  # first-seen order
        if value and value not in _XCCDF_PASS and value not in _XCCDF_FAIL
    }
    diagnostics.excluded_results = excluded
    if trace:
        for element, value in zip(rule_results, values):
            if value in _XCCDF_PASS or value in _XCCDF_FAIL:
                outcome = "pass" if value in _XCCDF_PASS else "fail"
                diagnostics.note(f"{element.get('idref', '<no idref>')}: {value} -> {outcome}")
        if excluded:
            tallies = ", ".join(f"{name}={count}" for name, count in sorted(excluded.items()))
            diagnostics.note(f"excluded result tallies: {tallies}")
    pass_count = sum(tally[value] for value in _XCCDF_PASS)
    fail_count = sum(tally[value] for value in _XCCDF_FAIL)
    return ScapReport(profile, pass_count, fail_count), diagnostics


# ---------------------------------------------------------------------------
# File integrity check reports (summary counters)
# ---------------------------------------------------------------------------

_AIDE_COUNT = re.compile(
    r"^[^\S\n]*(Added|Removed|Changed)[^\S\n]+entries:[^\S\n]*(\S.*?)[^\S\n]*$",
    re.I | re.M,
)
_AIDE_NO_CHANGES = re.compile(
    r"found\s+NO\s+differences|all\s+files\s+match", re.IGNORECASE
)


def parse_aide(
    report_text: str, source: str = "<string>", *, trace: bool = True
) -> tuple[AideReport, ParseDiagnostics]:
    """Extract added/removed/changed counts from a check report.

    Recognizes the summary counter lines, each count the rest of its line
    read by :func:`_count`, and the "no differences" form of a clean run
    (which yields zero counts). Raises ``SUMMARY_MISSING`` when neither is
    present. Section headers like ``Added entries:`` with nothing after
    them on their line do not match the counter pattern.
    """
    diagnostics = ParseDiagnostics()
    counts: dict[str, int] = {}
    for line, found in _numbered(report_text, _AIDE_COUNT.finditer(report_text)):
        key = found.group(1).lower()
        value = _count(found.group(2), f"{key} entries", source, line)
        if key in counts:
            diagnostics.warn(f"duplicate '{found.group(1)} entries' line; keeping first value")
            continue
        counts[key] = value
        if trace:
            diagnostics.note(f"{key} entries={value} (line {line})")
    if not counts:
        if _AIDE_NO_CHANGES.search(report_text):
            if trace:
                diagnostics.note("no-differences report; all counts zero")
            return AideReport(0, 0, 0), diagnostics
        raise ParseError(
            "SUMMARY_MISSING", "no summary counter lines and no no-differences marker", source
        )
    for key in ("added", "removed", "changed"):
        if key not in counts:
            diagnostics.warn(f"summary has no '{key} entries' line; assuming 0")
            counts[key] = 0
    with _as_parse_error(source):
        return AideReport(counts["added"], counts["removed"], counts["changed"]), diagnostics


# Each total: its key in the report, its name in errors and the pattern of its line.
_TRIPWIRE_TOTALS = tuple(
    (key, what, re.compile(key + r":[^\S\n]*(.*?)[^\S\n]*$", re.I | re.M))
    for key, what in (
        ("Total objects scanned", "objects scanned"),
        ("Total violations found", "violations"),
    )
)


def parse_tripwire(
    report_text: str, source: str = "<string>", *, trace: bool = True
) -> tuple[TripwireReport, ParseDiagnostics]:
    """Extract object and violation totals from an integrity check report.

    Each total is the rest of its line, thousands separators stripped,
    read by :func:`_count`; of a total given on several lines, each is
    read, the first is kept and each later one warned about. Raises
    ``SUMMARY_MISSING`` when either total is absent and
    ``VIOLATIONS_EXCEED_OBJECTS`` when the counts are inconsistent.
    """
    diagnostics = ParseDiagnostics()
    found = [
        (key, what, list(pattern.finditer(report_text))) for key, what, pattern in _TRIPWIRE_TOTALS
    ]
    missing = [f"'{key}'" for key, _, matches in found if not matches]
    if missing:
        raise ParseError("SUMMARY_MISSING", "missing " + " and ".join(missing), source)
    totals = []
    for key, what, matches in found:
        for line, match in _numbered(report_text, matches):
            value = _count(match.group(1).replace(",", ""), what, source, line)
            if match is not matches[0]:
                diagnostics.warn(f"duplicate '{key}' line; keeping first value")
                continue
            totals.append(value)
            if trace:
                diagnostics.note(f"{what}={value} (line {line})")
    with _as_parse_error(source):
        return TripwireReport(*totals), diagnostics


# ---------------------------------------------------------------------------
# Network scan XML with NSE script output
# ---------------------------------------------------------------------------

_CVE_TOKEN = re.compile(r"CVE-[0-9]{4}-[0-9]{4,}")
_LINE_CVSS = re.compile(r"(?<![\w.])([0-9]{1,2}\.[0-9]+)(?![\w.])")
_GLOBAL_CVSS = re.compile(r"CVSS(?:v[0-9])?\s*[:=]?\s*([0-9]{1,2}(?:\.[0-9]+)?)", re.IGNORECASE)
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


def detect_firewall(filtered_ports: int, override: bool | None = None) -> bool:
    """Heuristic firewall detection, overridable for hosts where it is wrong."""
    if override is not None:
        return override
    return filtered_ports >= FIREWALL_FILTERED_THRESHOLD


def _first_descriptive_line(output: str) -> str:
    for line in output.split("\n"):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith(_MARKER_PREFIXES):
            continue
        if _CVE_TOKEN.search(stripped):
            continue
        return stripped[:200]
    return ""


def _severity(cvss: float | None, keyword: Severity | None) -> Severity:
    """The CVSS band when there is a score, else the keyword's severity, else low."""
    if cvss is not None:
        return classify_severity(cvss)
    return keyword or Severity.LOW


def _script_findings(
    script_el: ET.Element, port: int | None, diagnostics: ParseDiagnostics, trace: bool
) -> list[VulnFinding]:
    script_id = script_el.get("id", "script")
    output = script_el.get("output") or ""
    nested = " ".join(text.strip() for text in script_el.itertext() if text.strip())
    text = output if not nested else output + "\n" + nested

    # Each pattern runs only where a substring test finds what it needs; a lowercase one
    # is exact on ASCII text alone: IGNORECASE matches "ſ" to "s", the Kelvin sign to "k".
    folded = text.lower() if text.isascii() else None
    unmarked = _NOT_VULNERABLE.sub("", text) if "VULNERABLE" in text else ""
    confirmed = bool(_VULNERABLE_MARKER.search(unmarked))
    keyword = (
        folded is None or "severity" in folded or "risk factor" in folded
    ) and _SEVERITY_KEYWORD.search(text)
    keyword_severity = Severity(keyword.group(1).lower()) if keyword else None
    description = _first_descriptive_line(output)

    # CVE identifiers, deduplicated per script, with a CVSS value when one
    # appears on the same line (tabular script output lists one per line).
    cves: dict[str, float | None] = {}
    for line in text.split("\n") if "CVE-" in text else ():
        tokens = "CVE-" in line and _CVE_TOKEN.findall(line)
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
    global_match = (folded is None or "cvss" in folded) and _GLOBAL_CVSS.search(text)
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
            severity = _severity(cvss, keyword_severity)
            findings.append(VulnFinding(identifier, severity, confirmed, cvss, port, description))
            if trace:
                diagnostics.note(
                    f"finding {identifier} from script {script_id} ({where}), "
                    f"cvss={cvss}, confirmed={confirmed}"
                )
    elif confirmed:
        severity = _severity(global_cvss, keyword_severity)
        findings.append(VulnFinding(script_id, severity, True, global_cvss, port, description))
        if trace:
            diagnostics.note(f"finding {script_id} ({where}), confirmed by state marker")
    return findings


def parse_nmap(
    scan_xml: str,
    source: str = "<string>",
    firewall_override: bool | None = None,
    *,
    trace: bool = True,
) -> tuple[VulnReport, ParseDiagnostics]:
    """Extract port exposure and vulnerability findings from scan XML.

    Open and filtered ports are counted from per-port state elements plus
    the ``extraports`` summary. Findings come from script output: one per
    CVE token (with CVSS when present on its line), or one per script
    whose output carries a ``VULNERABLE`` state marker. A finding with no
    CVSS and no severity keyword defaults to low severity. Raises
    ``MALFORMED_XML``, ``NO_HOST``, ``VALUE_NOT_INTEGER`` (an ``extraports``
    count that is not an integer) or ``VALUE_OUT_OF_RANGE`` (a count past
    ``MAX_COUNT``, or a finding on a port outside 1-65535).
    """
    diagnostics = ParseDiagnostics()
    root = _xml_root(scan_xml, source)
    names = _LocalNames()
    # Outermost hosts in document order: one nested in another (nmap writes
    # none) is part of it, so each port counts once, in linear time.
    hosts, stack = [], [root]
    while stack:
        element = stack.pop()
        if names[element.tag] == "host":
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
    with _as_parse_error(source):
        for host in hosts:
            for port_el in (el for el in host.iter() if names[el.tag] == "port"):
                portid_raw = port_el.get("portid", "")
                digits = portid_raw.isascii() and portid_raw.isdecimal()
                portid = _count(portid_raw, "portid", source) if digits else None
                state_el = next((c for c in port_el if names[c.tag] == "state"), None)
                state = state_el.get("state", "") if state_el is not None else ""
                if state == "open":
                    open_ports += 1
                    if trace:
                        diagnostics.note(f"open port {portid_raw}/{port_el.get('protocol', '?')}")
                elif state == "filtered":
                    filtered_ports += 1
                    if trace:
                        diagnostics.note(f"filtered port {portid_raw}")
                elif state and trace:
                    diagnostics.note(f"port {portid_raw} state {state!r} not counted")
                for script_el in (c for c in port_el if names[c.tag] == "script"):
                    findings.extend(_script_findings(script_el, portid, diagnostics, trace))
            for extra_el in (el for el in host.iter() if names[el.tag] == "extraports"):
                if extra_el.get("state") == "filtered":
                    count = _count(extra_el.get("count", "0"), "extraports count", source)
                    filtered_ports += count
                    if trace:
                        diagnostics.note(f"extraports: {count} filtered")
            for hostscript in (el for el in host.iter() if names[el.tag] == "hostscript"):
                for script_el in (c for c in hostscript if names[c.tag] == "script"):
                    findings.extend(_script_findings(script_el, None, diagnostics, trace))

        confirmed_count = sum(1 for f in findings if f.confirmed)
        firewall = detect_firewall(filtered_ports, firewall_override)
        report = VulnReport(
            open_ports=open_ports,
            filtered_ports=filtered_ports,
            firewall_active=firewall,
            findings=tuple(findings),
            confirmed_count=confirmed_count,
        )
        return report, diagnostics
