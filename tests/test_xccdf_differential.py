"""``parse_xccdf`` against the plain tree-walk parser it replaced.

The oracle below is that parser, kept verbatim apart from its name: a
``_localname`` split per element and a generator per rule-result. The
generated documents cover what the walk must get right: several
``TestResult`` elements, rule-results outside any of them and nested in
one another, default, prefixed and absent namespaces, results written
through CDATA, character references, entities and comments, blank,
unknown, missing and repeated ``result`` children, and malformed XML.

With ``trace=False`` a plain document is tallied by a flat scan of its
text instead of the tree walk. Most generated documents have no DOCTYPE,
so they can reach that scan, and a second generator builds plain documents
with one or more look-alike parts that the scan must either read as the
walk does or leave to it: among them comments, CDATA sections, processing
instructions and DOCTYPEs with an internal subset, which only expat's
handlers find during its pass. A fixed list of plain documents pins that
the scan does answer, so these tests cannot pass by its always falling
back, and a second list pins that documents with such markup take the tree.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from collections import Counter
from unittest import mock
from xml.sax.saxutils import quoteattr

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from auditscore import parsers
from auditscore.errors import ParseError
from auditscore.model import ScapProfile, ScapReport
from auditscore.parsers import ParseDiagnostics, parse_xccdf
from auditscore.reportgen import render_xccdf

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


_DOCTYPE = "<!DOCTYPE d [<!ENTITY ok 'pass'>]>"


def _truncated(draw, document: str) -> str:
    if draw(st.sampled_from(range(10))) == 9:  # now and then, malformed
        document = document[: draw(st.integers(0, len(document) - 1))]
    return document


@st.composite
def _documents(draw) -> str:
    root = draw(st.sampled_from(["Benchmark", "TestResult", "arf"]))
    body = "".join(draw(st.lists(_node(3), max_size=6)))
    # A DOCTYPE where the entity needs one, and in one document of four.
    doctype = "&ok;" in body or draw(st.sampled_from(range(4))) == 3
    return _truncated(draw, (_DOCTYPE if doctype else "") + draw(_element(root, "", body)))


_KNOWN = sorted(_XCCDF_PASS | _XCCDF_FAIL | _XCCDF_EXCLUDED)
_NS = "http://checklists.nist.gov/xccdf/1.2"

# Parts of a plain document that look like what the flat scan reads but
# are not, or are only in text it must not read as markup.
_LOOK_ALIKES = (
    "<rule-result idref='self'/>",
    "<rule-result idref='space'><result>pass</result></rule-result >",
    "<p:rule-result xmlns:p='urn:p' idref='p'><result>fail</result></p:rule-result>",
    "<rule-result idref='pr'><p:result xmlns:p='urn:p'>pass</p:result></rule-result>",
    "<p:TestResult xmlns:p='urn:p'/>",
    "<p:TestResult xmlns:p='urn:p'><rule-result><result>pass</result></rule-result></p:TestResult>",
    "<rule-result idref='attr'><result a='x'>fail</result></rule-result>",
    "<rule-result idref='spaced'><result >fail</result></rule-result>",
    "<rule-result idref='a>b' role='>'><result>pass</result></rule-result>",
    "<target note='rule-result'>host</target>",
    "<target note='TestResult'>host</target>",
    "<target note='&lt;/rule-result>'>host</target>",
    "<message>rule-result TestResult</message>",
    "<rule-result idref='ref'><result>&#112;ass</result></rule-result>",
    "<rule-result idref='ref-space'><result>&#32;fail&#10;</result></rule-result>",
    "<rule-result idref='ref-nbsp'><result>&#xA0;pass</result></rule-result>",
    "<rule-result idref='amp'><result>pa&amp;ss</result></rule-result>",
    "<rule-result idref='nbsp'><result>\xa0notapplicable\xa0</result></rule-result>",
    "<rule-result idref='cr'><result>\rfail\r\n</result></rule-result>",
    "<rule-result idref='nel'><result>\x85pass\u2028</result></rule-result>",
    "<rule-result idref='blank'><result> </result></rule-result>",
    "<rule-result idref='empty'><result></result></rule-result>",
    "<rule-result idref='closed'><result/></rule-result>",
    "<rule-result idref='none'><check/></rule-result>",
    "<rule-result idref='late'><check/><result>pass</result></rule-result>",
    "<rule-result idref='deep'><message><result>pass</result></message></rule-result>",
    "<rule-result idref='twice'><result>fail</result><result>pass</result></rule-result>",
    "<rule-result idref='tail'><result>pass<sub/>fail</result></rule-result>",
    "<rule-result idref='bogus'><result>bogus</result></rule-result>",
    "<rule-result idref='upper'><result>PASS</result></rule-result>",
    "<rule-result idref='outer'><result>pass</result>"
    "<rule-result idref='inner'><result>fail</result></rule-result></rule-result>",
    "<rule-result idref='tight'><result></result><rule-result><result>pass</result></rule-result>"
    "</rule-result>",
    "<rule-results><result>pass</result></rule-results>",
    "<q:rule-result idref='unbound'><result>pass</result></q:rule-result>",
    "<rule-result idref='unbound'><q:result>pass</q:result></rule-result>",
    "<rule-result idref='cdata'><result><![CDATA[pass]]></result></rule-result>",
    "<rule-result idref='comment'><result>pass<!-- x --></result></rule-result>",
    "<!-- <rule-result><result>pass</result></rule-result> -->",
    "<?pi <rule-result><result>pass</result></rule-result>?>",
    "<TestResult><rule-result idref='second'><result>pass</result></rule-result></TestResult>",
    "<TestResult/>",
    "\x01",
    "<?pi between?>",
    "<!-- </rule-result> -->",
    "<![CDATA[</rule-result>]]>",
    "<rule-result idref='closed' /><result>pass</result>",
    "<target note='rule-result' role='TestResult'>rule-result TestResult</target>",
)


# Nothing, or markup that only expat's pass finds, after the last
# rule-result or after the root's end tag.
_LAST = ("", "", "", "<!-- last -->", "<?pi last?>", "\n<!-- </rule-result> -->\n")
# DOCTYPEs with an internal subset; the second declares a rule-result that
# each ``&rr;`` in the body expands to, and that the text shows just once.
_SUBSETS = (
    "<!DOCTYPE d [<!ELEMENT d ANY>]>\n",
    "<!DOCTYPE d [<!ENTITY rr '<rule-result idref=\"e\"><result>pass</result>"
    "</rule-result>'>]>\n",
)


@st.composite
def _plain_rule_result(draw) -> str:
    space = st.sampled_from(["", "", " ", "\n  ", "\t", "\r\n"])
    value = draw(space) + draw(st.sampled_from(_KNOWN)) + draw(space)
    idref = draw(st.sampled_from([" idref='r'", " idref=\"x_y\"", "", "\n idref='z' role='full'"]))
    after = draw(st.sampled_from(["", "", "<check system='oval'><ref/></check>", "\n"]))
    return f"<rule-result{idref}><result>{value}</result>{after}</rule-result>"


@st.composite
def _plain_documents(draw) -> str:
    """A plain result document, now and then with look-alike parts mixed in."""
    parts = draw(st.lists(_plain_rule_result(), min_size=1, max_size=6))
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2]))):
        parts.insert(draw(st.integers(0, len(parts))), draw(st.sampled_from(_LOOK_ALIKES)))
    parts.append(draw(st.sampled_from(_LAST)))  # after the last rule-result
    split = draw(st.integers(0, len(parts)))
    before, inside = "".join(parts[:split]), "".join(parts[split:])
    shape = draw(st.sampled_from(["TestResult", "Benchmark", "bare Benchmark", "arf"]))
    test_result = f"<TestResult xmlns='{_NS}' id='t'><target>host</target>{inside}</TestResult>"
    if shape == "TestResult":
        body = test_result if not before else f"<Benchmark>{before}{test_result}</Benchmark>"
    elif shape == "Benchmark":
        body = f"<Benchmark xmlns='{_NS}'>{before}{test_result}<Rule id='r'/></Benchmark>"
    elif shape == "bare Benchmark":  # no TestResult at all
        body = f"<Benchmark xmlns='{_NS}'>{before}{inside}</Benchmark>"
    else:
        body = (
            "<arf:asset-report-collection xmlns:arf='urn:arf'><arf:report>"
            f"{before}{test_result}</arf:report></arf:asset-report-collection>"
        )
    declaration = draw(st.sampled_from(["", "<?xml version='1.0' encoding='UTF-8'?>\n"]))
    if declaration and draw(st.booleans()):  # a DOCTYPE the leading checks do not see
        declaration += draw(st.sampled_from(_SUBSETS))
    return _truncated(draw, declaration + body + draw(st.sampled_from(_LAST)))


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


def _check_against_the_oracle(document: str, profile: ScapProfile) -> None:
    expected = _outcome(document, profile, oracle_parse_xccdf)
    assert _outcome(document, profile) == expected
    untraced = _outcome(document, profile, trace=False)
    if expected[0] == "error":
        assert untraced == expected
    else:
        report, warnings, _, excluded = expected
        assert untraced == (report, warnings, [], excluded)


@given(document=st.one_of(_documents(), _plain_documents()), profile=st.sampled_from(ScapProfile))
@example(document=_SAMPLE, profile=ScapProfile.CIS)
@example(document="<Benchmark><TestResult/></Benchmark>", profile=ScapProfile.CIS)
@example(document="<TestResult><rule-result>", profile=ScapProfile.STANDARD)
def test_parse_xccdf_matches_the_tree_walk_oracle(document, profile):
    _check_against_the_oracle(document, profile)


_PLAIN_RESULTS = (
    "<rule-result idref='a'><result>pass</result></rule-result>"
    "<rule-result idref='b'><result>fail</result></rule-result>"
    "<rule-result idref='c'><result>notapplicable</result></rule-result>"
)


# Where a look-alike part goes around the plain rule-results.
_SHAPES = {
    "leading": "{part}<Benchmark><TestResult>{plain}</TestResult></Benchmark>",
    "before": "<Benchmark>{part}<TestResult>{plain}</TestResult></Benchmark>",
    "inside": "<Benchmark><TestResult>{plain}{part}</TestResult></Benchmark>",
    "after": "<Benchmark><TestResult>{plain}</TestResult>{part}</Benchmark>",
    "leading, no TestResult": "{part}<Benchmark>{plain}</Benchmark>",
    "around, no TestResult": "<Benchmark>{part}{plain}{part}</Benchmark>",
}


@pytest.mark.parametrize("look_alike", _LOOK_ALIKES, ids=range(len(_LOOK_ALIKES)))
@pytest.mark.parametrize("shape", _SHAPES)
def test_look_alike_parts_match_the_oracle(look_alike, shape):
    document = _SHAPES[shape].format(part=look_alike, plain=_PLAIN_RESULTS)
    _check_against_the_oracle(document, ScapProfile.CIS)
    _check_against_the_oracle(document[: len(document) // 2], ScapProfile.CIS)


# Plain documents: the flat scan must answer for each, without a tree.
_PLAIN_DOCUMENTS = (
    render_xccdf(ScapReport(ScapProfile.CIS, 3, 2), {"notapplicable": 2, "notselected": 1}),
    f"<TestResult xmlns='{_NS}'>{_PLAIN_RESULTS}</TestResult>",
    f"<?xml version='1.0' encoding='UTF-8'?>\n<TestResult xmlns='{_NS}'>\n"
    f"{_PLAIN_RESULTS}\n</TestResult>\n",
    f"<Benchmark xmlns='{_NS}'><Rule id='r'/><TestResult id='t'>{_PLAIN_RESULTS}</TestResult>"
    f"{_PLAIN_RESULTS}</Benchmark>",
    f"<Benchmark xmlns='{_NS}'>{_PLAIN_RESULTS}</Benchmark>",
    "<arf:asset-report-collection xmlns:arf='urn:arf' xmlns:x='urn:x'><arf:report>"
    f"<x:info/><TestResult xmlns='{_NS}'><x:target>h</x:target>{_PLAIN_RESULTS}"
    "</TestResult></arf:report></arf:asset-report-collection>",
    "<TestResult id='a>b'><rule-result\n  idref='x>y'  role=\"full\"\n>\n<result>"
    "\r\n\xa0fixed\t</result><check system='>'/></rule-result>"
    "<rule-result idref='n'><result> error </result><result>pass</result>"
    "<rule-result idref='inner'><result>unknown<sub/>pass</result></rule-result>"
    "</rule-result></TestResult>",
    "<TestResult><rule-result><result>informational</result></rule-result></TestResult>",
    # Padded values whose stripped keys merge, in first-seen order.
    "<TestResult><rule-result><result> notchecked</result></rule-result>"
    "<rule-result><result>pass\n</result></rule-result>"
    "<rule-result><result>\tnotchecked </result></rule-result>"
    "<rule-result><result>notchecked</result></rule-result>"
    "<rule-result><result> pass </result></rule-result>"
    "<rule-result><result>notapplicable</result></rule-result></TestResult>",
)


@pytest.mark.parametrize("document", _PLAIN_DOCUMENTS, ids=range(len(_PLAIN_DOCUMENTS)))
def test_plain_documents_are_tallied_without_a_tree(monkeypatch, document):
    expected = _outcome(document, ScapProfile.CIS, oracle_parse_xccdf)
    monkeypatch.setattr(parsers, "_xml_root", mock.Mock(side_effect=AssertionError("tree built")))
    report, warnings, _, excluded = expected
    assert _outcome(document, ScapProfile.CIS, trace=False) == (report, warnings, [], excluded)


_DECLARATION = "<?xml version='1.0' encoding='UTF-8'?>\n"
_SELF_CLOSED = "<rule-result idref='closed' /><result>pass</result>"

# Plain documents but for markup that only expat's handlers, or the checks
# on the text, find. In the first five the text checks all pass: a comment,
# CDATA section, processing instruction or DOCTYPE shows one more
# ``</rule-result>`` and ``<result>`` than the tree holds.
_TREE_DOCUMENTS = (
    f"<TestResult>{_SELF_CLOSED}{_PLAIN_RESULTS}<!-- </rule-result> --></TestResult>",
    f"<TestResult>{_SELF_CLOSED}<![CDATA[</rule-result>]]>{_PLAIN_RESULTS}</TestResult>",
    f"<TestResult>{_SELF_CLOSED}{_PLAIN_RESULTS}</TestResult><?pi </rule-result>?>",
    f"{_DECLARATION}{_SUBSETS[1]}<Benchmark>&rr;&rr;{_PLAIN_RESULTS}</Benchmark>",
    f"{_DECLARATION}{_SUBSETS[1]}<Benchmark>{_PLAIN_RESULTS}</Benchmark>",
    f"{_DECLARATION}{_SUBSETS[0]}<TestResult>{_PLAIN_RESULTS}</TestResult>",
    f"{_SUBSETS[0]}<TestResult>{_PLAIN_RESULTS}</TestResult>",
    f"<TestResult>{_PLAIN_RESULTS}<!-- last --></TestResult>",
    f"<TestResult>{_PLAIN_RESULTS}<?pi last?></TestResult>",
    f"<TestResult>{_PLAIN_RESULTS}</TestResult><!-- after the root -->",
    f"{_DECLARATION}<TestResult>{_PLAIN_RESULTS}</TestResult>\n<?pi after the root?>\n",
    f"<TestResult><rule-result idref='a'><result>pass</result></rule-result><?pi between?>"
    f"{_PLAIN_RESULTS}</TestResult>",
    f"<TestResult>{_SELF_CLOSED}{_PLAIN_RESULTS}</TestResult>",
    f"<TestResult><target note='rule-result'/>{_PLAIN_RESULTS}</TestResult>",
    f"<TestResult note='TestResult'>{_PLAIN_RESULTS}</TestResult>",
    f"<TestResult>{_PLAIN_RESULTS}<message>rule-result TestResult</message></TestResult>",
)


@pytest.mark.parametrize("document", _TREE_DOCUMENTS, ids=range(len(_TREE_DOCUMENTS)))
def test_documents_with_hidden_markup_take_the_tree_path(monkeypatch, document):
    _check_against_the_oracle(document, ScapProfile.CIS)
    xml_root = mock.Mock(wraps=parsers._xml_root)
    monkeypatch.setattr(parsers, "_xml_root", xml_root)
    parse_xccdf(document, ScapProfile.CIS, "doc.xml", trace=False)
    xml_root.assert_called_once()


def test_sample_document_exercises_every_branch():
    """The explicit example above reaches each warning and note kind."""
    report, warnings, trace, excluded = _outcome(_SAMPLE, ScapProfile.CIS, oracle_parse_xccdf)
    assert (report.pass_count, report.fail_count) == (0, 2)
    assert len(warnings) == 4  # two TestResults, blank, unknown, missing
    assert excluded == [("notchecked", 1), ("bogus", 1), ("notapplicable", 1)]
    assert trace[-1] == "excluded result tallies: bogus=1, notapplicable=1, notchecked=1"
