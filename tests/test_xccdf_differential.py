"""``parse_xccdf`` against the plain tree-walk parser it replaced.

The oracle below is that parser, kept verbatim apart from its name: a
``_localname`` split per element and a generator per rule-result. The
generated documents cover what the walk must get right: several
``TestResult`` elements, rule-results outside any of them and nested in
one another, default, prefixed and absent namespaces, results written
through CDATA, character references, entities and comments, blank,
unknown, missing and repeated ``result`` children, and malformed XML.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from collections import Counter
from xml.sax.saxutils import quoteattr

import hypothesis.strategies as st
from hypothesis import example, given

from auditscore.errors import ParseError
from auditscore.model import ScapProfile, ScapReport
from auditscore.parsers import ParseDiagnostics, parse_xccdf

_XCCDF_PASS = frozenset({"pass", "fixed"})
_XCCDF_FAIL = frozenset({"fail", "error"})
_XCCDF_EXCLUDED = frozenset(
    {"notapplicable", "notchecked", "notselected", "informational", "unknown"}
)


def _localname(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _xml_root(text: str, source: str) -> ET.Element:
    try:
        return ET.fromstring(text)
    except ET.ParseError as exc:
        raise ParseError("MALFORMED_XML", str(exc), source) from None


def oracle_parse_xccdf(
    result_xml: str, profile: ScapProfile, source: str = "<string>"
) -> tuple[ScapReport, ParseDiagnostics]:
    diagnostics = ParseDiagnostics()
    root = _xml_root(result_xml, source)
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
# Documents
# ---------------------------------------------------------------------------

_NAMESPACES = (
    "http://checklists.nist.gov/xccdf/1.2",
    "http://checklists.nist.gov/xccdf/1.1",
    "urn:example:other",
)
_VALUES = st.sampled_from(
    sorted(_XCCDF_PASS | _XCCDF_FAIL | _XCCDF_EXCLUDED)
    + ["", "  ", "\n", "bogus", "PASS", " fail\n", "pass fail", "é", "a&b<c"]
)


@st.composite
def _element(draw, local: str, attributes: str, body: str) -> str:
    """``local`` with no namespace, its own default namespace or a prefix."""
    style = draw(st.sampled_from(["inherit", "default", "prefixed"]))
    namespace = draw(st.sampled_from(_NAMESPACES))
    if style == "inherit":
        tag, declaration = local, ""
    elif style == "default":
        tag, declaration = local, f" xmlns={quoteattr(namespace)}"
    else:
        tag, declaration = f"p:{local}", f" xmlns:p={quoteattr(namespace)}"
    if not body and draw(st.booleans()):
        return f"<{tag}{declaration}{attributes}/>"
    return f"<{tag}{declaration}{attributes}>{body}</{tag}>"


@st.composite
def _text(draw, value: str) -> str:
    """``value`` as element content, written one of several ways."""
    form = draw(st.sampled_from(["escaped", "cdata", "charref", "entity", "comment"]))
    escaped = value.replace("&", "&amp;").replace("<", "&lt;")
    if form == "cdata":
        return f"<![CDATA[{value}]]>"
    if form == "charref":
        return "".join(f"&#{ord(char)};" for char in value)
    if form == "entity" and value == "pass":
        return "&ok;"  # declared in every document's internal subset
    if form == "comment" and len(value) > 1:
        return f"{escaped[:1]}<!-- split -->{escaped[1:]}"
    return escaped


@st.composite
def _rule_result(draw, depth: int) -> str:
    children = []
    for kind in draw(st.lists(st.sampled_from(["result", "check", "nested", "deep"]), max_size=4)):
        if kind == "result":
            tail = draw(st.sampled_from(["", "<sub/>tail"]))
            body = draw(_text(draw(_VALUES))) + tail
            children.append(draw(_element("result", "", body)))
        elif kind == "check":
            children.append(draw(_element("check", " system='oval'", "")))
        elif kind == "nested" and depth > 0:
            children.append(draw(_rule_result(depth - 1)))
        else:  # a result that is no direct child
            inner = draw(_element("result", "", draw(_text(draw(_VALUES)))))
            children.append(draw(_element("message", "", inner)))
    idref = draw(st.one_of(st.none(), st.sampled_from(["r1", "r2", "a&b", "x'y\"z"])))
    attributes = "" if idref is None else f" idref={quoteattr(idref)}"
    return draw(_element("rule-result", attributes, "".join(children)))


@st.composite
def _node(draw, depth: int) -> str:
    kind = draw(st.sampled_from(["rule-result", "TestResult", "Group", "target"]))
    if kind == "rule-result":
        return draw(_rule_result(2))
    if kind == "target":
        return draw(_element("target", "", "host"))
    children = draw(st.lists(_node(depth - 1), max_size=4)) if depth > 0 else []
    return draw(_element(kind, " id='x'", "".join(children)))


@st.composite
def _documents(draw) -> str:
    root = draw(st.sampled_from(["Benchmark", "TestResult", "arf"]))
    body = "".join(draw(st.lists(_node(3), max_size=6)))
    document = "<!DOCTYPE d [<!ENTITY ok 'pass'>]>" + draw(_element(root, "", body))
    if draw(st.sampled_from(range(10))) == 9:  # now and then, malformed
        document = document[: draw(st.integers(0, len(document) - 1))]
    return document


def _outcome(document: str, profile: ScapProfile, parse=parse_xccdf, **options):
    try:
        report, diagnostics = parse(document, profile, "doc.xml", **options)
    except ParseError as exc:
        return ("error", exc.code, str(exc), exc.location())
    return (
        report,
        diagnostics.warnings,
        diagnostics.trace,
        list(diagnostics.excluded_results.items()),  # order included
    )


_SAMPLE = (
    "<!DOCTYPE d [<!ENTITY ok 'pass'>]><Benchmark xmlns='urn:x'>"
    "<rule-result idref='before'><result>fail</result></rule-result>"
    "<TestResult><rule-result idref='a'><result>&ok;</result></rule-result></TestResult>"
    "<TestResult><rule-result idref='b'><result>notchecked</result><result>pass</result>"
    "<rule-result><p:result xmlns:p='urn:y'><![CDATA[ fail ]]></p:result></rule-result>"
    "</rule-result><rule-result idref='c'><result> </result></rule-result>"
    "<rule-result idref='d'><result>bogus</result></rule-result>"
    "<rule-result idref='e'><message><result>pass</result></message></rule-result>"
    "<rule-result idref='f'><result>notapplicable</result></rule-result></TestResult>"
    "<rule-result idref='after'><result>f&#97;il</result></rule-result></Benchmark>"
)


@given(document=_documents(), profile=st.sampled_from(ScapProfile))
@example(document=_SAMPLE, profile=ScapProfile.CIS)
@example(document="<Benchmark><TestResult/></Benchmark>", profile=ScapProfile.CIS)
@example(document="<TestResult><rule-result>", profile=ScapProfile.STANDARD)
def test_parse_xccdf_matches_the_tree_walk_oracle(document, profile):
    expected = _outcome(document, profile, oracle_parse_xccdf)
    assert _outcome(document, profile) == expected
    untraced = _outcome(document, profile, trace=False)
    if expected[0] == "error":
        assert untraced == expected
    else:
        report, warnings, _, excluded = expected
        assert untraced == (report, warnings, [], excluded)


def test_sample_document_exercises_every_branch():
    """The explicit example above reaches each warning and note kind."""
    report, warnings, trace, excluded = _outcome(_SAMPLE, ScapProfile.CIS, oracle_parse_xccdf)
    assert (report.pass_count, report.fail_count) == (0, 2)
    assert len(warnings) == 4  # two TestResults, blank, unknown, missing
    assert excluded == [("notchecked", 1), ("bogus", 1), ("notapplicable", 1)]
    assert trace[-1] == "excluded result tallies: bogus=1, notapplicable=1, notchecked=1"
