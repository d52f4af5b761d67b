import pytest
from hypothesis import given, settings

from auditscore.errors import ParseError
from auditscore.model import ScapProfile, ScapReport, Severity
from auditscore.parsers import (
    detect_firewall,
    parse_aide,
    parse_lynis,
    parse_nmap,
    parse_tripwire,
    parse_xccdf,
)
from auditscore.reportgen import (
    render_aide,
    render_lynis,
    render_nmap,
    render_tripwire,
    render_xccdf,
)

from .strategies import (
    aide_reports,
    lynis_reports,
    scap_reports,
    tripwire_reports,
    vuln_reports,
)


# ---------------------------------------------------------------------------
# key=value report data
# ---------------------------------------------------------------------------


def test_lynis_fixture_extraction(data_dir):
    report, diagnostics = parse_lynis((data_dir / "lynis-baseline.dat").read_text())
    assert report.hardening_index == 59
    assert diagnostics.warnings == []
    assert any("hardening_index=59" in note for note in diagnostics.trace)


def test_lynis_boundary_value():
    report, _ = parse_lynis("hardening_index=100\n")
    assert report.hardening_index == 100


def test_lynis_comments_and_unrelated_lines_ignored():
    text = "# comment\nos=Linux\nhardening_index=59\nreport_end=done\n"
    report, _ = parse_lynis(text)
    assert report.hardening_index == 59


def test_lynis_missing_key():
    with pytest.raises(ParseError) as excinfo:
        parse_lynis("os=Linux\ntests_executed=258\n")
    assert excinfo.value.code == "KEY_MISSING"


def test_lynis_non_integer_value():
    with pytest.raises(ParseError) as excinfo:
        parse_lynis("hardening_index=high\n")
    assert excinfo.value.code == "VALUE_NOT_INTEGER"
    assert excinfo.value.line == 1


def test_lynis_out_of_range_value():
    with pytest.raises(ParseError) as excinfo:
        parse_lynis("hardening_index=140\n")
    assert excinfo.value.code == "VALUE_OUT_OF_RANGE"


# ---------------------------------------------------------------------------
# XCCDF result documents
# ---------------------------------------------------------------------------


def test_xccdf_standard_fixture_counts(data_dir):
    report, _ = parse_xccdf(
        (data_dir / "oscap-standard-baseline.xml").read_text(), ScapProfile.STANDARD
    )
    assert (report.pass_count, report.fail_count) == (29, 14)
    assert report.profile is ScapProfile.STANDARD


def test_xccdf_cis_fixture_counts_exclude_notapplicable(data_dir):
    report, diagnostics = parse_xccdf(
        (data_dir / "oscap-cis-baseline.xml").read_text(), ScapProfile.CIS
    )
    assert (report.pass_count, report.fail_count) == (137, 100)
    assert diagnostics.excluded_results == {"notapplicable": 10}


def test_xccdf_fixed_counts_as_pass_and_error_as_fail():
    xml = render_xccdf(
        ScapReport(ScapProfile.STANDARD, 0, 0),
        excluded={"fixed": 2, "error": 3, "notchecked": 1},
    )
    report, diagnostics = parse_xccdf(xml, ScapProfile.STANDARD)
    assert report.pass_count == 2
    assert report.fail_count == 3
    assert diagnostics.excluded_results == {"notchecked": 1}


def test_xccdf_without_rule_results_is_an_error():
    xml = '<TestResult xmlns="http://checklists.nist.gov/xccdf/1.2"><target>x</target></TestResult>'
    with pytest.raises(ParseError) as excinfo:
        parse_xccdf(xml, ScapProfile.STANDARD)
    assert excinfo.value.code == "NO_TEST_RESULT"


def test_xccdf_malformed_document():
    with pytest.raises(ParseError) as excinfo:
        parse_xccdf("<TestResult><rule-result>", ScapProfile.CIS)
    assert excinfo.value.code == "MALFORMED_XML"


def test_xccdf_unknown_result_value_warned_and_excluded():
    xml = (
        "<TestResult>"
        "<rule-result idref='r1'><result>pass</result></rule-result>"
        "<rule-result idref='r2'><result>mystery</result></rule-result>"
        "</TestResult>"
    )
    report, diagnostics = parse_xccdf(xml, ScapProfile.STANDARD)
    assert (report.pass_count, report.fail_count) == (1, 0)
    assert diagnostics.excluded_results == {"mystery": 1}
    assert any("unknown result" in warning for warning in diagnostics.warnings)


def test_xccdf_several_test_results_score_the_last():
    xml = (
        "<Benchmark xmlns='http://checklists.nist.gov/xccdf/1.2'>"
        "<TestResult><rule-result idref='r1'><result>pass</result></rule-result></TestResult>"
        "<TestResult><rule-result idref='r1'><result>fail</result></rule-result>"
        "<rule-result idref='r2'><result>fail</result></rule-result></TestResult>"
        "<TestResult><rule-result idref='r1'><result>fail</result></rule-result>"
        "<rule-result idref='r2'><result>pass</result></rule-result></TestResult>"
        "</Benchmark>"
    )
    report, diagnostics = parse_xccdf(xml, ScapProfile.CIS)
    assert (report.pass_count, report.fail_count) == (1, 1)
    assert diagnostics.warnings == [
        "document contains 3 TestResult elements; scoring the last, 2 ignored"
    ]
    # One TestResult, as every fixture has, gives no warning.
    single = xml.replace("<TestResult>", "", 2).replace("</TestResult>", "", 2)
    assert parse_xccdf(single, ScapProfile.CIS)[1].warnings == []


# ---------------------------------------------------------------------------
# File integrity check reports
# ---------------------------------------------------------------------------


def test_aide_baseline_fixture(data_dir):
    report, _ = parse_aide((data_dir / "aide-baseline.txt").read_text())
    assert (report.added, report.removed, report.changed) == (11, 0, 35)
    assert report.total_changes == 46


def test_aide_full_fixture(data_dir):
    report, _ = parse_aide((data_dir / "aide-full.txt").read_text())
    assert report.total_changes == 317


def test_aide_no_differences_report(data_dir):
    report, _ = parse_aide((data_dir / "aide-clean.txt").read_text())
    assert (report.added, report.removed, report.changed) == (0, 0, 0)


def test_aide_all_files_match_variant():
    report, _ = parse_aide("All files match AIDE database. Looks okay!\n")
    assert report.total_changes == 0


def test_aide_summary_missing():
    with pytest.raises(ParseError) as excinfo:
        parse_aide("Start timestamp: 2025-10-02\nnothing to see here\n")
    assert excinfo.value.code == "SUMMARY_MISSING"


def test_aide_section_headers_without_counts_do_not_match(data_dir):
    # The fixture contains an "Added entries:" section header; the parser
    # must read the summary counters, not the header.
    report, diagnostics = parse_aide((data_dir / "aide-baseline.txt").read_text())
    assert report.added == 11
    assert not diagnostics.warnings


def test_tripwire_fixture_with_thousands_separators(data_dir):
    report, _ = parse_tripwire((data_dir / "tripwire-baseline.txt").read_text())
    assert (report.objects_scanned, report.violations) == (76472, 13459)


def test_tripwire_clean_system():
    text = "Total objects scanned:  100\nTotal violations found:  0\n"
    report, _ = parse_tripwire(text)
    assert (report.objects_scanned, report.violations) == (100, 0)


def test_tripwire_violations_exceed_objects():
    text = "Total objects scanned:  100\nTotal violations found:  200\n"
    with pytest.raises(ParseError) as excinfo:
        parse_tripwire(text)
    assert excinfo.value.code == "VIOLATIONS_EXCEED_OBJECTS"


def test_tripwire_summary_missing():
    with pytest.raises(ParseError) as excinfo:
        parse_tripwire("Total objects scanned: 100\n")
    assert excinfo.value.code == "SUMMARY_MISSING"
    assert "violations" in str(excinfo.value)


# ---------------------------------------------------------------------------
# Scan XML
# ---------------------------------------------------------------------------


def test_nmap_baseline_fixture(data_dir):
    report, _ = parse_nmap((data_dir / "nmap-baseline.xml").read_text())
    assert report.open_ports == 2
    assert report.filtered_ports == 0
    assert report.firewall_active is False
    assert report.confirmed_count == 4
    unconfirmed = [f.severity for f in report.findings if not f.confirmed]
    assert sorted(s.value for s in unconfirmed) == ["critical", "critical", "high", "high", "high"]


def test_nmap_baseline_findings_carry_cvss_and_ports(data_dir):
    report, _ = parse_nmap((data_dir / "nmap-baseline.xml").read_text())
    by_id = {f.identifier: f for f in report.findings}
    assert by_id["CVE-2023-38408"].cvss == 9.8
    assert by_id["CVE-2023-38408"].port == 22
    assert by_id["CVE-2021-41773"].confirmed is True
    assert by_id["http-csrf"].confirmed is True
    assert by_id["http-csrf"].severity is Severity.LOW


def test_nmap_partial_fixture_extraports_and_firewall(data_dir):
    report, _ = parse_nmap((data_dir / "nmap-partial.xml").read_text())
    assert report.open_ports == 1
    assert report.filtered_ports == 65534
    assert report.firewall_active is True
    assert report.confirmed_count == 0


def test_nmap_host_without_ports_section():
    xml = "<nmaprun><host><status state='up'/><address addr='10.0.0.1'/></host></nmaprun>"
    report, _ = parse_nmap(xml)
    assert report.open_ports == 0
    assert report.filtered_ports == 0
    assert report.firewall_active is False
    assert report.findings == ()


def test_nmap_no_host_is_an_error():
    with pytest.raises(ParseError) as excinfo:
        parse_nmap("<nmaprun><runstats/></nmaprun>")
    assert excinfo.value.code == "NO_HOST"


def test_nmap_malformed_xml():
    with pytest.raises(ParseError) as excinfo:
        parse_nmap("<nmaprun><host>")
    assert excinfo.value.code == "MALFORMED_XML"


def test_nmap_non_integer_extraports_count_is_a_parse_error():
    xml = (
        "<nmaprun><host><ports><extraports state='filtered' count='lots'/>"
        "</ports></host></nmaprun>"
    )
    with pytest.raises(ParseError) as excinfo:
        parse_nmap(xml, "scan.xml")
    assert excinfo.value.code == "VALUE_NOT_INTEGER"
    assert excinfo.value.source == "scan.xml"
    assert "lots" in str(excinfo.value)


def test_nmap_non_decimal_digit_portid_is_not_a_port_number():
    xml = (
        "<nmaprun><host><ports><port protocol='tcp' portid='\u00b2'>"
        "<state state='open'/><script id='x' output='CVE-2024-0001 7.5'/>"
        "</port></ports></host></nmaprun>"
    )
    report, _ = parse_nmap(xml)
    assert report.open_ports == 1
    assert report.findings[0].port is None


def test_count_past_the_limits_is_a_parse_error():
    # 5,000 digits is past the interpreter's int conversion limit.
    for digits, code in (("1" + "0" * 19, "VALUE_OUT_OF_RANGE"), ("9" * 5000, "VALUE_NOT_INTEGER")):
        for parse, text in (
            (parse_aide, f"Added entries: {digits}\n"),
            (parse_tripwire, f"Total objects scanned: {digits}\nTotal violations found: 0\n"),
            (parse_tripwire, f"Total objects scanned: 5\nTotal violations found: {digits}\n"),
            (
                parse_nmap,
                f"<nmaprun><host><extraports state='filtered' count='{digits}'/></host></nmaprun>",
            ),
            (parse_nmap, f"<nmaprun><host><port portid='{digits}'/></host></nmaprun>"),
        ):
            with pytest.raises(ParseError) as excinfo:
                parse(text)
            assert excinfo.value.code == code, text[:60]


def test_nmap_host_nested_in_a_host_is_part_of_it():
    port = "<ports><port portid='22'><state state='open'/></port></ports>"
    xml = f"<nmaprun><host>{port}<host>{port}<host>{port}</host></host></host></nmaprun>"
    report, diagnostics = parse_nmap(xml)
    assert report.open_ports == 3  # each port once
    assert diagnostics.warnings == []  # one outermost host


def test_nmap_not_vulnerable_marker_is_not_confirmed():
    xml = (
        "<nmaprun><host><status state='up'/><ports>"
        "<port protocol='tcp' portid='443'><state state='open'/>"
        "<script id='ssl-heartbleed' output='State: NOT VULNERABLE'/>"
        "</port></ports></host></nmaprun>"
    )
    report, _ = parse_nmap(xml)
    assert report.confirmed_count == 0
    assert report.findings == ()


def test_nmap_firewall_override_wins():
    xml = (
        "<nmaprun><host><status state='up'/><ports>"
        "<port protocol='tcp' portid='22'><state state='open'/></port>"
        "</ports></host></nmaprun>"
    )
    report, _ = parse_nmap(xml, firewall_override=True)
    assert report.firewall_active is True


@pytest.mark.parametrize(
    "open_ports,filtered,override,expected",
    [
        (1, 65534, None, True),
        (2, 0, None, False),
        (5, 0, True, True),
        (0, 99, None, False),
        (0, 100, None, True),
        (3, 65534, False, False),
    ],
)
def test_detect_firewall_threshold_and_override(open_ports, filtered, override, expected):
    assert detect_firewall(open_ports, filtered, override) is expected


# ---------------------------------------------------------------------------
# Determinism and generator round-trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "fixture,parse",
    [
        ("lynis-baseline.dat", parse_lynis),
        ("aide-baseline.txt", parse_aide),
        ("tripwire-baseline.txt", parse_tripwire),
        ("nmap-baseline.xml", parse_nmap),
    ],
)
def test_parsers_are_deterministic(data_dir, fixture, parse):
    text = (data_dir / fixture).read_text()
    first, _ = parse(text)
    second, _ = parse(text)
    assert first == second


def test_xccdf_parser_is_deterministic(data_dir):
    text = (data_dir / "oscap-cis-baseline.xml").read_text()
    assert parse_xccdf(text, ScapProfile.CIS)[0] == parse_xccdf(text, ScapProfile.CIS)[0]


@given(lynis_reports)
def test_lynis_round_trip(report):
    parsed, _ = parse_lynis(render_lynis(report))
    assert parsed == report


@given(scap_reports())
@settings(max_examples=40)
def test_xccdf_round_trip(report):
    parsed, _ = parse_xccdf(render_xccdf(report), report.profile)
    assert parsed == report


@given(aide_reports)
def test_aide_round_trip(report):
    parsed, _ = parse_aide(render_aide(report))
    assert parsed == report


@given(tripwire_reports())
def test_tripwire_round_trip(report):
    parsed, _ = parse_tripwire(render_tripwire(report))
    assert parsed == report


def _finding_key(finding):
    return (finding.identifier, finding.port or 0, finding.confirmed)


@given(vuln_reports())
@settings(max_examples=120)
def test_nmap_round_trip(report):
    # The firewall flag is re-derived from port counts at parse time, so
    # the round trip pins it through the override argument.
    parsed, _ = parse_nmap(render_nmap(report), firewall_override=report.firewall_active)
    assert parsed.open_ports == report.open_ports
    assert parsed.filtered_ports == report.filtered_ports
    assert parsed.firewall_active == report.firewall_active
    assert parsed.confirmed_count == report.confirmed_count
    assert sorted(parsed.findings, key=_finding_key) == sorted(
        report.findings, key=_finding_key
    )
