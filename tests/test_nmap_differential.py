"""``parse_nmap`` against a frozen copy of the finding extraction it replaced.

The oracle below is ``parsers._script_findings`` as it was before each
pattern got a substring guard, with the patterns and helpers it read, kept
verbatim apart from their names. Patching it in for the real one gives the
report and diagnostics the parser gave then, so both must be equal, with
and without trace notes.

The generated script outputs mix what each guard tests for: ``VULNERABLE``
with and without ``NOT VULNERABLE``, CVE tokens on some lines only, CVSS
values on and off the CVE line, severity and CVSS keywords in mixed case,
and non-ASCII text, including the letters that Unicode case folding
matches to ASCII ones (``ſ`` to ``s``, the Kelvin sign to ``k``) and the
Turkish ``ı`` and ``İ``.
"""

from __future__ import annotations

import re
from unittest import mock
from xml.sax.saxutils import escape, quoteattr

import hypothesis.strategies as st
from hypothesis import example, given

from auditscore import parsers
from auditscore.errors import ParseError
from auditscore.model import Severity, VulnFinding, classify_severity
from auditscore.parsers import parse_nmap

_CVE_TOKEN = re.compile(r"CVE-[0-9]{4}-[0-9]{4,}")
_LINE_CVSS = re.compile(r"(?<![\w.])([0-9]{1,2}\.[0-9]+)(?![\w.])")
_GLOBAL_CVSS = re.compile(r"CVSS(?:v[0-9])?\s*[:=]?\s*([0-9]{1,2}(?:\.[0-9]+)?)", re.IGNORECASE)
_VULNERABLE_MARKER = re.compile(r"\bVULNERABLE\b")
_NOT_VULNERABLE = re.compile(r"\bNOT\s+VULNERABLE\b")
_SEVERITY_KEYWORD = re.compile(
    r"(?:Risk factor|Severity)\s*:\s*(critical|high|medium|low)", re.IGNORECASE
)
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


def _first_descriptive_line(output):
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


def _severity(cvss, keyword):
    if cvss is not None:
        return classify_severity(cvss)
    return keyword or Severity.LOW


def oracle_script_findings(script_el, port, diagnostics, trace):
    script_id = script_el.get("id", "script")
    output = script_el.get("output") or ""
    nested = " ".join(text.strip() for text in script_el.itertext() if text.strip())
    text = output if not nested else output + "\n" + nested

    confirmed = bool(_VULNERABLE_MARKER.search(_NOT_VULNERABLE.sub("", text)))
    keyword = _SEVERITY_KEYWORD.search(text)
    keyword_severity = Severity(keyword.group(1).lower()) if keyword else None
    description = _first_descriptive_line(output)

    cves = {}
    for line in text.split("\n"):
        tokens = _CVE_TOKEN.findall(line)
        if not tokens:
            continue
        line_cvss = None
        for candidate in _LINE_CVSS.findall(_CVE_TOKEN.sub("", line)):
            value = float(candidate)
            if 0.0 <= value <= 10.0:
                line_cvss = value
                break
        for token in tokens:
            if token not in cves or (cves[token] is None and line_cvss is not None):
                cves[token] = line_cvss

    global_cvss = None
    global_match = _GLOBAL_CVSS.search(text)
    if global_match:
        value = float(global_match.group(1))
        if 0.0 <= value <= 10.0:
            global_cvss = value

    where = f"port {port}" if port is not None else "host"
    findings = []
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


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------

_CVES = ("CVE-2014-0160", "CVE-2021-44228", "CVE-2020-10000", "CVE-1999-0001")
_NUMBERS = ("7.5", "9.8", "0.4", "10.0", "11.2", "5", "4.3.1")
# Letters that fold to ASCII under IGNORECASE, and others that do not.
_FOLDING = ("\u017f", "\u212a", "\u0131", "\u0130", "é", "ß")
_KEYWORDS = (
    "Risk factor: High",
    "risk factor: LOW",
    "RISK FACTOR : medium",
    "Severity: critical",
    "SEVERITY:high",
    "sEvErItY :  Low",
    "Severity: none",
    "\u017feverity: high",  # long s, which the pattern's s matches
    "Ris\u212a factor: medium",  # the Kelvin sign, which the pattern's k matches
    "R\u0131sk factor: high",  # dotless i
    "R\u0130sk factor: low",  # dotted capital I
    "CVSS: 5.0",
    "cvss 9.1",
    "CvSSv3 = 7.2",
    "CVSS: 12",
    "cv\u017fs: 6.4",
    "CVSS: 4.4 \u00e9",
)


@st.composite
def _line(draw) -> str:
    kind = draw(st.sampled_from(["state", "cve", "keyword", "prose", "blank"]))
    if kind == "state":
        return draw(
            st.sampled_from(
                [
                    "VULNERABLE:",
                    "State: VULNERABLE",
                    "State: NOT VULNERABLE",
                    "State: NOT  VULNERABLE (unpatched)",
                    "State: LIKELY VULNERABLE",
                    "NOTVULNERABLE",
                    "vulnerable",
                ]
            )
        )
    if kind == "cve":
        tokens = draw(st.lists(st.sampled_from(_CVES), min_size=1, max_size=2))
        numbers = draw(st.lists(st.sampled_from(_NUMBERS), max_size=2))
        words = [*tokens, *numbers, draw(st.sampled_from(["", "https://vulners.com/cve/x"]))]
        return "\t".join(draw(st.permutations(words)))
    if kind == "keyword":
        return draw(st.sampled_from(_KEYWORDS))
    if kind == "prose":
        word = draw(st.sampled_from(["Heartbleed", "ssl-heartbleed", "IDs: CVE:x", "Check results"]))
        return word + draw(st.sampled_from(["", *(f" {letter}" for letter in _FOLDING)]))
    return draw(st.sampled_from(["", "   "]))


_TEXT = st.lists(_line(), max_size=6).map("\n".join)


@st.composite
def _script(draw) -> str:
    script_id = draw(st.sampled_from(["vulners", "ssl-heartbleed", "smb-vuln"]))
    nested = "".join(
        f"<elem key='k'>{escape(text)}</elem>" for text in draw(st.lists(_TEXT, max_size=2))
    )
    output = draw(_TEXT)
    return f"<script id={quoteattr(script_id)} output={quoteattr(output)}>{nested}</script>"


@st.composite
def _scans(draw) -> str:
    ports = []
    for number in draw(st.lists(st.sampled_from([22, 80, 443, 8080]), max_size=3)):
        state = draw(st.sampled_from(["open", "filtered", "closed"]))
        scripts = "".join(draw(st.lists(_script(), max_size=3)))
        ports.append(
            f"<port protocol='tcp' portid='{number}'><state state='{state}'/>{scripts}</port>"
        )
    hostscripts = "".join(draw(st.lists(_script(), max_size=2)))
    hostscript = f"<hostscript>{hostscripts}</hostscript>" if hostscripts else ""
    return f"<nmaprun><host><ports>{''.join(ports)}</ports>{hostscript}</host></nmaprun>"


def _outcome(scan: str, trace: bool):
    try:
        report, diagnostics = parse_nmap(scan, "scan.xml", trace=trace)
    except ParseError as exc:
        return ("error", exc.code, str(exc))
    return report, diagnostics.warnings, diagnostics.trace


_SAMPLE = (
    "<nmaprun><host><ports><port protocol='tcp' portid='443'><state state='open'/>"
    "<script id='ssl-heartbleed' output='VULNERABLE:&#10;State: VULNERABLE&#10;"
    "IDs: CVE:CVE-2014-0160&#10;Risk factor: High&#10;CVE-2014-0160 7.5'/>"
    "<script id='x' output='State: NOT VULNERABLE&#10;CVSS: 5.0'/>"
    "<script id='y' output='R\u0131sk factor: high&#10;cv\u017fs: 6.4&#10;CVE-2021-44228'/>"
    "</port></ports></host></nmaprun>"
)


@given(scan=_scans(), trace=st.booleans())
@example(scan=_SAMPLE, trace=True)
@example(scan=_SAMPLE, trace=False)
def test_parse_nmap_matches_the_frozen_findings(scan, trace):
    with mock.patch.object(parsers, "_script_findings", oracle_script_findings):
        expected = _outcome(scan, trace)
    assert _outcome(scan, trace) == expected
