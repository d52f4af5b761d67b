import argparse
import gc
import itertools
import json
import os
import re
import stat
import tempfile
import time
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
import pytest
import yaml
from hypothesis import HealthCheck, assume, given, settings

from auditscore import cli, parsers, store
from auditscore.cli import build_parser, load_manifest, main
from auditscore.errors import ParseError, ValidationError
from auditscore.model import ScapProfile, ScapReport, ToolKind, raw_report_to_dict
from auditscore.parsers import ParseDiagnostics, parse_aide, parse_lynis
from auditscore.render import change_cell
from auditscore.reportgen import render_xccdf
from auditscore.store import load_history

from .conftest import DATA_DIR, ROOT, history_reads, run_child, settle


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _alias_bomb(levels=5, width=9):
    """Nested lists that YAML writes with aliases: a few hundred bytes of file
    for ``width ** levels`` leaves once loaded."""
    value = "lol"
    for _ in range(levels):
        value = [value] * width
    return value


# ---------------------------------------------------------------------------
# parse
# ---------------------------------------------------------------------------


def test_parse_aide_full_prints_total_and_score(capsys, data_dir):
    code, out, _ = run_cli(capsys, "parse", "--tool", "aide", str(data_dir / "aide-full.txt"))
    assert code == 0
    assert "total_changes: 317" in out
    assert "score: 74.99" in out


_PARSE_GOLDEN = json.loads((DATA_DIR / "expected-parse.json").read_text())


@pytest.mark.parametrize("fixture", sorted(_PARSE_GOLDEN))
def test_parse_output_matches_golden(capsys, monkeypatch, data_dir, fixture):
    """Byte-exact ``parse`` text and ``--json`` output, captured from an
    earlier release, for one fixture per tool."""
    expected = _PARSE_GOLDEN[fixture]
    monkeypatch.chdir(data_dir)
    for key, extra in (("text", []), ("json", ["--json"])):
        code, out, _ = run_cli(capsys, "parse", "--tool", expected["tool"], fixture, *extra)
        assert code == 0
        assert out == expected[key]


@pytest.mark.parametrize("name", ["baseline", "baseline-literal"])
def test_score_output_matches_golden(capsys, data_dir, name):
    """Byte-exact ``score`` text: the ``raw`` column lists ``parse``'s fields."""
    manifest = str(data_dir / f"manifest-{name}.yaml")
    code, out, _ = run_cli(capsys, "score", "--manifest", manifest, "--host", "ci")
    assert code == 0
    assert out == (data_dir / f"expected-score-{name}.txt").read_text()


# Per fixture, the stderr of ``parse --verbose``, one line per entry.
_VERBOSE_GOLDEN = json.loads((DATA_DIR / "expected-verbose.json").read_text())


def _golden_stderr(fixture, verbose):
    lines = _VERBOSE_GOLDEN[fixture]["stderr"]
    return "".join(f"{line}\n" for line in lines if verbose or line.startswith("warning: "))


@pytest.mark.parametrize("verbose", [True, False], ids=["verbose", "quiet"])
@pytest.mark.parametrize("fixture", sorted(_VERBOSE_GOLDEN))
def test_parse_stderr_matches_golden(capsys, monkeypatch, data_dir, fixture, verbose):
    """Byte-exact ``warning:`` and, under ``--verbose``, ``debug:`` lines."""
    monkeypatch.chdir(data_dir)
    tool = _VERBOSE_GOLDEN[fixture]["tool"]
    code, _, err = run_cli(capsys, "parse", "--tool", tool, fixture, *(["--verbose"] * verbose))
    assert code == 0
    assert err == _golden_stderr(fixture, verbose)


@pytest.mark.parametrize("verbose", [True, False], ids=["verbose", "quiet"])
@pytest.mark.parametrize("manifest", ["manifest-baseline.yaml", "manifest-warnings.yaml"])
def test_score_stderr_matches_golden(capsys, monkeypatch, data_dir, manifest, verbose):
    """``score`` prints each report's golden ``parse`` stderr, in manifest order."""
    monkeypatch.chdir(data_dir)
    reports = yaml.safe_load((data_dir / manifest).read_text())["reports"].values()
    code, _, err = run_cli(capsys, "score", "--manifest", manifest, *(["--verbose"] * verbose))
    assert code == 0
    assert err == "".join(_golden_stderr(report, verbose) for report in reports)


@pytest.mark.parametrize(
    "tool, text, warnings, escaped",
    [
        (
            "openscap-cis",
            '<Benchmark xmlns="http://checklists.nist.gov/xccdf/1.2"><TestResult>'
            '<rule-result idref="a&#10;b"><result>bogus</result></rule-result>'
            '<rule-result idref="c&#13;d"><result>pass</result></rule-result>'
            "</TestResult></Benchmark>",
            ["rule-result a\nb has unknown result 'bogus'; excluded"],
            "rule-result a\\nb has",
        ),
        (
            "vuln-scan",
            '<nmaprun><host><address addr="10.0.0.1" addrtype="ipv4"/><ports>'
            '<port protocol="t&#10;cp" portid="22"><state state="open"/>'
            '<script id="vu&#13;lners" output="CVE-2023-38408  9.8"/></port>'
            '<port protocol="tcp" portid="23"><state state="clo&#13;&#10;sed"/></port>'
            "</ports></host></nmaprun>",
            [],
            "open port 22/t\\ncp",
        ),
    ],
    ids=["xccdf", "nmap"],
)
def test_a_line_break_in_a_report_field_splits_no_diagnostic_line(
    capsys, tmp_path, tool, text, warnings, escaped
):
    report = tmp_path / "f.xml"
    report.write_text(text)
    code, _, err = run_cli(capsys, "parse", "--tool", tool, str(report), "--verbose")
    assert code == 0
    lines = err.splitlines()
    assert lines and all(line.startswith(("warning: ", "debug: ")) for line in lines)
    # The break is written backslash-escaped, not dropped.
    assert escaped in err
    # ``--json`` keeps each warning as the parser wrote it.
    code, out, _ = run_cli(capsys, "parse", "--tool", tool, str(report), "--json")
    assert code == 0
    assert json.loads(out)["warnings"] == warnings


def test_parse_lynis_key_missing_exits_2(capsys, tmp_path):
    bad = tmp_path / "missing.dat"
    bad.write_text("os=Linux\n")
    code, _, err = run_cli(capsys, "parse", "--tool", "lynis", str(bad))
    assert code == 2
    assert "KEY_MISSING" in err


def test_parse_unreadable_file_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "parse", "--tool", "lynis", str(tmp_path / "absent.dat"))
    assert code == 2
    assert "IO_FAILURE" in err


def test_parse_tripwire_json_output(capsys, data_dir):
    code, out, _ = run_cli(
        capsys, "parse", "--tool", "tripwire", str(data_dir / "tripwire-baseline.txt"), "--json"
    )
    assert code == 0
    document = json.loads(out)
    assert document["raw"] == {
        "kind": "tripwire",
        "objects_scanned": 76472,
        "violations": 13459,
    }
    assert document["score"] == pytest.approx(82.40, abs=0.005)


def test_parse_nmap_bad_extraports_count_exits_2(capsys, tmp_path):
    scan = tmp_path / "scan.xml"
    scan.write_text("<nmaprun><host><extraports state='filtered' count='lots'/></host></nmaprun>")
    code, out, err = run_cli(capsys, "parse", "--tool", "vuln-scan", str(scan))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error[VALUE_NOT_INTEGER] {scan}:")


@pytest.mark.parametrize(
    "tool, text, line",
    [
        ("aide", "Added entries: 5_0\n", 1),
        ("tripwire", "Total objects scanned: 50\nTotal violations found: 5_0\n", 2),
    ],
)
def test_parse_integrity_count_error_names_its_line(capsys, tmp_path, tool, text, line):
    report = tmp_path / "check.txt"
    report.write_text(text)
    code, out, err = run_cli(capsys, "parse", "--tool", tool, str(report))
    assert (code, out) == (2, "")
    assert err.startswith(f"error[VALUE_NOT_INTEGER] {report}:{line}: ")


@pytest.mark.parametrize(
    "tool, parse, data",
    [
        ("lynis", parse_lynis, b"hardening_index=5\r7\n"),
        ("aide", parse_aide, b"Added entries: 1\nNote\rRemoved entries: 9\nChanged entries: 2\n"),
    ],
    ids=["lynis", "aide"],
)
def test_parse_reads_a_lone_carriage_return_as_the_library_does(
    capsys, tmp_path, tool, parse, data
):
    # A lone \r is a character of its line: lynis reads '5\r7', which is no
    # count, and AIDE finds no 'Removed entries' line.
    report = tmp_path / "report.txt"
    report.write_bytes(data)
    code, out, err = run_cli(capsys, "parse", "--tool", tool, str(report), "--json")
    try:
        raw, diagnostics = parse(data.decode(), str(report))
    except ParseError as exc:
        assert exc.code == "VALUE_NOT_INTEGER"
        assert (code, out, err) == (2, "", f"error[{exc.code}] {exc.location()}: {exc}\n")
    else:
        assert raw_report_to_dict(raw)["removed"] == 0
        assert (code, json.loads(out)["raw"]) == (0, raw_report_to_dict(raw))
        assert err == "".join(f"warning: {report}: {warning}\n" for warning in diagnostics.warnings)


_BOM = b"\xef\xbb\xbf"


def test_parse_reads_an_aide_report_after_a_byte_order_mark(capsys, tmp_path):
    # With the mark left in, line 1's key was not found: 0 added and 100.00.
    report = tmp_path / "aide-check.txt"
    report.write_bytes(_BOM + b"Added entries: 3\nRemoved entries: 0\nChanged entries: 1\n")
    code, out, err = run_cli(capsys, "parse", "--tool", "aide", str(report))
    assert (code, err) == (0, "")
    assert "added: 3\n" in out
    assert "score: 93.98\n" in out


def test_parse_reads_a_one_line_lynis_report_after_a_byte_order_mark(capsys, tmp_path):
    report = tmp_path / "lynis-report.dat"
    report.write_bytes(_BOM + b"hardening_index=67\n")
    code, out, err = run_cli(capsys, "parse", "--tool", "lynis", str(report))
    assert (code, err) == (0, "")
    assert "hardening_index: 67\n" in out


def test_parse_tallies_a_plain_xccdf_result_after_a_byte_order_mark_without_a_tree(
    capsys, data_dir, tmp_path
):
    plain = data_dir / "oscap-cis-baseline.xml"
    marked = tmp_path / "oscap-cis.xml"
    marked.write_bytes(_BOM + plain.read_bytes())
    raws = []
    for path in (plain, marked):
        with mock.patch.object(parsers, "_xml_root", wraps=parsers._xml_root) as built:
            code, out, _ = run_cli(capsys, "parse", "--tool", "openscap-cis", str(path), "--json")
        assert (code, built.call_count) == (0, 0)
        raws.append(json.loads(out)["raw"])
    assert raws[0] == raws[1]


_PORT_OUT_OF_RANGE = (
    '<nmaprun><host><ports><port protocol="tcp" portid="70000">'
    '<state state="open"/><service name="http"/>'
    '<script id="vulners" output="CVE-2021-1234 9.8 https://vulners.com/cve/CVE-2021-1234"/>'
    "</port></ports></host></nmaprun>"
)


def test_model_check_failing_in_a_parse_names_the_report(capsys, tmp_path):
    scan = tmp_path / "scan.xml"
    scan.write_text(_PORT_OUT_OF_RANGE)
    manifest = tmp_path / "manifest.yaml"
    manifest.write_text(
        "reports:\n  vuln_scan: scan.xml\n"
        + "".join(
            f"  {name}: {{score: 50}}\n"
            for name in ("lynis", "openscap_standard", "aide", "tripwire", "openscap_cis")
        )
    )
    for argv in (["parse", "--tool", "vuln-scan", str(scan)], ["score", "--manifest", str(manifest)]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == (
            f"error[VALUE_OUT_OF_RANGE] {scan}: port must be in [1, 65535], got 70000\n"
        )


def test_parse_vuln_scan_firewall_override(capsys, data_dir):
    code, out, _ = run_cli(
        capsys,
        "parse",
        "--tool",
        "vuln-scan",
        str(data_dir / "nmap-partial.xml"),
        "--firewall",
        "inactive",
    )
    assert code == 0
    assert "firewall_active: no" in out


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------


def test_score_baseline_manifest_reproduces_composite(capsys, data_dir):
    code, out, _ = run_cli(
        capsys, "score", "--manifest", str(data_dir / "manifest-baseline.yaml")
    )
    assert code == 0
    assert "composite: 58.34" in out
    assert "label: baseline" in out


def test_score_json_is_a_loadable_history_record(capsys, data_dir, tmp_path):
    code, out, _ = run_cli(
        capsys, "score", "--manifest", str(data_dir / "manifest-baseline.yaml"), "--json"
    )
    assert code == 0
    saved = tmp_path / "one-record.jsonl"
    saved.write_text(out)
    loaded = load_history(saved)
    assert loaded.skipped == 0
    assert loaded.records[0].assessment.composite == pytest.approx(58.34, abs=0.01)
    assert loaded.records[0].host_label == "fabric-node-baseline"


def test_score_min_score_gate_fails_with_exit_3(capsys, data_dir):
    code, out, err = run_cli(
        capsys,
        "score",
        "--manifest",
        str(data_dir / "manifest-baseline.yaml"),
        "--min-score",
        "60",
    )
    assert code == 3
    assert "below required minimum" in err


def test_score_min_score_gate_passes(capsys, data_dir):
    code, _, _ = run_cli(
        capsys,
        "score",
        "--manifest",
        str(data_dir / "manifest-baseline.yaml"),
        "--min-score",
        "50",
    )
    assert code == 0


def test_score_min_score_must_be_finite(capsys, data_dir):
    manifest = str(data_dir / "manifest-baseline.yaml")
    for bound in ("nan", "inf", "-inf", "1e999"):
        code, out, err = run_cli(capsys, "score", "--manifest", manifest, f"--min-score={bound}")
        assert (code, out) == (2, ""), bound
        assert err.startswith("error[VALUE_OUT_OF_RANGE]: --min-score must be finite"), err


def test_score_missing_tool_exits_2_naming_it(capsys, tmp_path, data_dir):
    manifest = {
        "label": "incomplete",
        "reports": {
            "lynis": str(data_dir / "lynis-baseline.dat"),
            "openscap_standard": {"score": 67.4},
            "aide": {"score": 83.4},
            "tripwire": {"score": 82.4},
            "openscap_cis": {"score": 57.8},
        },
    }
    path = tmp_path / "manifest.yaml"
    path.write_text(yaml.safe_dump(manifest))
    code, _, err = run_cli(capsys, "score", "--manifest", str(path))
    assert code == 2
    assert "TOOL_MISSING" in err
    assert "vuln_scan" in err


def test_score_saves_history(capsys, data_dir, tmp_path):
    history = tmp_path / "history.jsonl"
    code, _, _ = run_cli(
        capsys,
        "score",
        "--manifest",
        str(data_dir / "manifest-baseline.yaml"),
        "--history",
        str(history),
    )
    assert code == 0
    assert len(load_history(history).records) == 1


def test_score_accepts_a_weight_sum_at_its_tolerance(capsys, tmp_path):
    """Weights summing to 1 + 5e-10 pass validation, so six scores of 100,
    which sum to 100.00000005, score a clamped 100 rather than failing."""
    config = tmp_path / "config.yaml"
    config.write_text("weights: {tool_weights: {lynis: 0.2000000005}}\n")
    manifest = tmp_path / "manifest.yaml"
    manifest.write_text(
        "reports:\n" + "".join(f"  {tool.value}: {{score: 100}}\n" for tool in ToolKind)
    )
    history = tmp_path / "history.jsonl"
    code, out, err = run_cli(
        capsys,
        "score",
        "--config",
        str(config),
        "--manifest",
        str(manifest),
        "--history",
        str(history),
    )
    assert (code, err) == (0, "")
    assert "composite: 100.00" in out.splitlines()
    loaded = load_history(history)
    assert loaded.skipped == 0
    assert [record.assessment.composite for record in loaded.records] == [100.0]
    code, out, err = run_cli(capsys, "history", "--config", str(config), "--history", str(history))
    assert (code, err) == (0, "")
    assert "composite=100.00" in out


def test_score_rejects_out_of_range_literal(capsys, tmp_path):
    manifest = tmp_path / "manifest.yaml"
    manifest.write_text(
        "reports:\n"
        "  lynis: {score: 150}\n"
        + "".join(
            f"  {name}: {{score: 50}}\n"
            for name in ("openscap_standard", "aide", "tripwire", "openscap_cis", "vuln_scan")
        )
    )
    code, _, err = run_cli(capsys, "score", "--manifest", str(manifest))
    assert code == 2
    assert "VALUE_OUT_OF_RANGE" in err


def test_manifest_rejects_entry_with_both_path_and_score(tmp_path):
    path = tmp_path / "manifest.yaml"
    path.write_text("reports:\n  lynis: {path: x.dat, score: 10}\n")
    with pytest.raises(ValidationError) as excinfo:
        load_manifest(path)
    assert excinfo.value.code == "MANIFEST_INVALID"


def test_manifest_rejects_unknown_tool(tmp_path):
    path = tmp_path / "manifest.yaml"
    path.write_text("reports:\n  nessus: scan.xml\n")
    with pytest.raises(ValidationError) as excinfo:
        load_manifest(path)
    assert "nessus" in str(excinfo.value)


@pytest.mark.parametrize("value", ["5", "[a.txt]"], ids=["number", "list"])
def test_manifest_entry_neither_path_nor_mapping_exits_2(capsys, tmp_path, value):
    manifest = tmp_path / "manifest.yaml"
    manifest.write_text(f"reports:\n  lynis: {value}\n")
    assert run_cli(capsys, "score", "--manifest", str(manifest)) == (
        2,
        "",
        f"error[MANIFEST_INVALID]: {manifest}: lynis: entry must be a path string or a mapping\n",
    )


def test_manifest_paths_resolve_relative_to_manifest(tmp_path, data_dir):
    nested = tmp_path / "nested"
    nested.mkdir()
    (nested / "lynis.dat").write_text("hardening_index=59\n")
    path = nested / "manifest.yaml"
    path.write_text("reports:\n  lynis: lynis.dat\n")
    manifest = load_manifest(path)
    assert manifest.entries[ToolKind.LYNIS].path == nested / "lynis.dat"


def _literal_manifest(tmp_path, vuln_entry):
    """Five literal scores plus ``vuln_entry`` for the scan, as YAML."""
    names = ("lynis", "openscap_standard", "aide", "tripwire", "openscap_cis")
    reports = {name: {"score": 50} for name in names}
    reports["vuln_scan"] = vuln_entry
    path = tmp_path / "manifest.yaml"
    path.write_text(yaml.safe_dump({"reports": reports}))
    return path


@pytest.mark.parametrize(
    "vuln_entry",
    [
        {"score": "abc"},
        {"score": float("nan")},
        {"score": float("inf")},
        {"score": None},
        {"score": [47]},
        {"score": True},
        {"path": str(DATA_DIR / "nmap-baseline.xml"), "firewall": "maybe"},
        {"path": str(DATA_DIR / "nmap-baseline.xml"), "firewall": 1},
        {"path": ["a", "b"]},
        {"path": _alias_bomb()},
        {"path": None},
    ],
    ids=[
        "score-text",
        "score-nan",
        "score-inf",
        "score-null",
        "score-list",
        "score-bool",
        "firewall-text",
        "firewall-int",
        "path-list",
        "path-alias-bomb",
        "path-empty",
    ],
)
def test_manifest_bad_score_or_firewall_exits_2(capsys, tmp_path, vuln_entry):
    path = _literal_manifest(tmp_path, vuln_entry)
    code, out, err = run_cli(capsys, "score", "--manifest", str(path), "--json")
    assert code == 2
    assert out == ""
    assert "error[MANIFEST_INVALID]" in err
    assert "vuln_scan" in err


_yaml_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=8),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@given(score=_yaml_values, firewall=_yaml_values, literal=st.booleans())
@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_manifest_values_never_crash(capsys, tmp_path, score, firewall, literal):
    entry = {"score": score} if literal else {"path": str(DATA_DIR / "nmap-baseline.xml")}
    entry["firewall"] = firewall
    path = _literal_manifest(tmp_path, entry)
    code, _, err = run_cli(capsys, "score", "--manifest", str(path))
    assert code in (0, 2)
    assert "Traceback" not in err
    if firewall is not None and not isinstance(firewall, bool):
        assert code == 2
    elif not literal:
        assert code == 0
    elif isinstance(score, (int, float)) and not isinstance(score, bool):
        assert (code == 0) == (0 <= score <= 100)  # NaN compares false: rejected
    elif not isinstance(score, str):  # numeric strings are read as numbers
        assert code == 2


def _manifest_with(tmp_path, key, value):
    path = _literal_manifest(tmp_path, {"score": 50})
    data = yaml.safe_load(path.read_text())
    data[key] = value
    path.write_text(yaml.safe_dump(data))
    return path


@pytest.mark.parametrize("key", ["label", "host"])
@pytest.mark.parametrize(
    "value",
    [[1, 2], [], {"a": 1}, {"a"}, _alias_bomb()],
    ids=["list", "empty-list", "mapping", "set", "alias-bomb"],
)
def test_manifest_non_scalar_label_or_host_exits_2(capsys, tmp_path, key, value):
    path = _manifest_with(tmp_path, key, value)
    code, out, err = run_cli(capsys, "score", "--manifest", str(path), "--json")
    assert code == 2
    assert out == ""
    assert f"error[MANIFEST_INVALID]: {path}: {key} must be a scalar" in err


@pytest.mark.parametrize("key", ["label", "host"])
@pytest.mark.parametrize(
    "value, stored", [(2026, "2026"), (1.5, "1.5"), (True, "True"), ("w01", "w01")]
)
def test_manifest_scalar_label_or_host_is_stringified(capsys, tmp_path, key, value, stored):
    path = _manifest_with(tmp_path, key, value)
    code, out, _ = run_cli(capsys, "score", "--manifest", str(path), "--json")
    assert code == 0
    record = json.loads(out)
    assert (record["host_label"] if key == "host" else record["assessment"]["label"]) == stored


@pytest.mark.parametrize(
    "option, text",
    [
        ("--manifest", yaml.safe_dump({"label": _alias_bomb(), "reports": {}})),
        ("--manifest", yaml.safe_dump({"reports": {"aide": {"path": _alias_bomb()}}})),
        ("--manifest", yaml.safe_dump({"reports": {"aide": {"score": _alias_bomb()}}})),
        ("--config", yaml.safe_dump({"history": _alias_bomb()})),
        ("--config", yaml.safe_dump({"runner": {"tools": {"aide": {"command": _alias_bomb()}}}})),
        ("--weights", yaml.safe_dump({"port_penalty": _alias_bomb()})),
    ],
    ids=["label", "report-path", "score", "history", "tool-command", "penalty"],
)
def test_yaml_alias_values_print_short_errors(capsys, data_dir, tmp_path, option, text):
    """Five levels of nine aliases load as 59,049 leaves; the error stays short."""
    path = tmp_path / "aliases.yaml"
    path.write_text(text)
    assert len(text) < 1024
    manifest = data_dir / "manifest-baseline-literal.yaml"
    # A repeated --manifest takes the last value.
    code, out, err = run_cli(capsys, "score", "--manifest", str(manifest), option, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error[") and "[...]" in err
    assert len(err.encode()) < 1024


@pytest.mark.parametrize(
    "option, text, names",
    [
        (
            "--manifest",
            "reports:\n  vuln_scan: {score: 0}\n  vuln-scan: {score: 99}\n",
            "'vuln_scan' and 'vuln-scan' both name vuln_scan",
        ),
        (
            "--config",
            "runner:\n  tools:\n    openscap-cis: {timeout: 5}\n    openscap_cis: {}\n",
            "'openscap-cis' and 'openscap_cis' both name openscap_cis",
        ),
        (
            "--weights",
            "tool_weights:\n  vuln_scan: 0.15\n  vuln-scan: 0.15\n",
            "'vuln_scan' and 'vuln-scan' both name vuln_scan",
        ),
        (
            "--weights",
            "severity_weights:\n  High: 8\n  high: 80\n",
            "'High' and 'high' both name high",
        ),
        (
            "--manifest",
            "reports:\n  lynis: {score: 0}\n  lynis: {score: 99}\n",
            "repeated key 'lynis' on line 3",
        ),
        (
            "--manifest",
            "label: a\nreports: {}\nlabel: b\n",
            "repeated key 'label' on line 3",
        ),
        (
            "--config",
            "runner:\n  target: a\n  datastream: b\n  target: c\n",
            "repeated key 'target' on line 4",
        ),
        (
            "--weights",
            "port_penalty: 1\ntool_weights: {lynis: 0.2, lynis: 0.3}\n",
            "repeated key 'lynis' on line 2",
        ),
    ],
    ids=[
        "manifest-reports",
        "runner-tools",
        "tool-weights",
        "severity-weights",
        "repeated-report",
        "repeated-label",
        "repeated-target",
        "repeated-weight",
    ],
)
def test_section_key_named_twice_exits_2(capsys, data_dir, tmp_path, option, text, names):
    path = tmp_path / "twice.yaml"
    path.write_text(text)
    manifest = data_dir / "manifest-baseline-literal.yaml"
    code, out, err = run_cli(capsys, "score", "--manifest", str(manifest), option, str(path))
    assert (code, out) == (2, "")
    error_code = "MANIFEST_INVALID" if option == "--manifest" else "CONFIG_INVALID"
    assert err.startswith(f"error[{error_code}]") and names in err


def test_yaml_merge_key_may_be_overridden(capsys, tmp_path):
    manifest = tmp_path / "merged.yaml"
    manifest.write_text(
        "reports:\n  lynis: &base {score: 10}\n  aide: {<<: *base, score: 20}\n"
        "  tripwire: {<<: *base}\n  openscap_standard: {score: 30}\n"
        "  openscap_cis: {score: 40}\n  vuln_scan: {score: 50}\n"
    )
    code, out, err = run_cli(capsys, "score", "--manifest", str(manifest), "--json")
    assert (code, err) == (0, "")
    scores = json.loads(out)["assessment"]["scores"]
    assert {tool: scores[tool]["value"] for tool in ("lynis", "aide", "tripwire")} == {
        "lynis": 10.0,
        "aide": 20.0,
        "tripwire": 10.0,
    }


# ---------------------------------------------------------------------------
# history / compare / report against a populated store
# ---------------------------------------------------------------------------


@pytest.fixture
def populated_history(capsys, data_dir, tmp_path):
    history = tmp_path / "history.jsonl"
    for name in ("manifest-baseline-literal.yaml", "manifest-partial.yaml", "manifest-full.yaml"):
        code = main(
            ["score", "--manifest", str(data_dir / name), "--history", str(history)]
        )
        assert code == 0
    capsys.readouterr()
    return history


def test_history_lists_records_in_order(capsys, populated_history):
    code, out, _ = run_cli(capsys, "history", "--history", str(populated_history))
    assert code == 0
    labels = [line.split()[0] for line in out.strip().splitlines()]
    assert labels == ["baseline", "partial", "full"]
    assert "composite=58.34" in out
    assert "composite=64.80" in out
    assert "composite=68.17" in out


def test_history_and_score_write_a_character_stdout_cannot_encode_escaped(
    capsys, data_dir, tmp_path
):
    # JSON takes a lone surrogate escape, and an argument's undecodable byte
    # becomes one; a strict UTF-8 stdout can write neither.
    history = tmp_path / "history.jsonl"
    assert main(["score", "--manifest", str(data_dir / "manifest-full.yaml"), "--json"]) == 0
    history.write_text(capsys.readouterr().out.replace('"label":"full"', '"label":"\\ud800x"'))
    code, out, err = run_cli(capsys, "history", "--history", str(history))
    assert (code, err) == (0, "")
    assert out.startswith("\\ud800x ")
    code, out, _ = run_cli(
        capsys, "score", "--manifest", str(data_dir / "manifest-full.yaml"), "--label", "bad\udcff"
    )
    assert code == 0
    assert "label: bad\\udcff" in out.splitlines()


def test_history_json_lines_round_trip(capsys, populated_history, tmp_path):
    code, out, _ = run_cli(capsys, "history", "--history", str(populated_history), "--json")
    assert code == 0
    rewritten = tmp_path / "rewritten.jsonl"
    rewritten.write_text(out)
    loaded = load_history(rewritten)
    assert loaded.skipped == 0
    assert [r.assessment.label for r in loaded.records] == ["baseline", "partial", "full"]


def test_history_host_filter(capsys, populated_history):
    code, out, _ = run_cli(
        capsys, "history", "--history", str(populated_history), "--host", "fabric-node-full"
    )
    assert code == 0
    assert out.strip().splitlines()[0].startswith("full")
    assert len(out.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["history"],
        ["compare", "baseline", "full"],
        ["report", "baseline", "full"],
        ["report", "baseline", "full", "--format", "json"],
    ],
)
def test_history_readers_skip_and_report_corrupt_lines(capsys, populated_history, argv):
    record = json.loads(populated_history.read_text().splitlines()[0])
    record["assessment"]["scores"] = []
    with open(populated_history, "ab") as handle:
        handle.write(json.dumps(record).encode() + b"\n{torn\n")
        handle.write(b'\xff\xfe{"x":1}\n')  # not UTF-8
    code, out, err = run_cli(capsys, *argv, "--history", str(populated_history))
    assert code == 0
    assert out
    assert err == "warning: skipped 3 corrupt line(s)\n"


def _append_deep_invalid(history, label):
    """Append a copy of ``label``'s record that parses but breaks an invariant."""
    line = next(
        line
        for line in history.read_text().splitlines()
        if json.loads(line)["assessment"]["label"] == label
    )
    record = json.loads(line)
    record["assessment"]["composite"] = 12.0  # no longer the sum of contributions
    with open(history, "a") as handle:
        handle.write(json.dumps(record) + "\n")


_LABEL_READERS = [
    ["compare", "baseline", "full"],
    ["compare", "baseline", "full", "--json"],
    ["report", "baseline", "full"],
    ["report", "baseline", "full", "--format", "text"],
    ["report", "baseline", "full", "--format", "json"],
]


@pytest.mark.parametrize("argv", _LABEL_READERS)
def test_label_readers_ignore_deep_invalid_line_of_other_label(capsys, populated_history, argv):
    history = ["--history", str(populated_history)]
    _, expected, _ = run_cli(capsys, *argv, *history)
    _append_deep_invalid(populated_history, "partial")
    code, out, err = run_cli(capsys, *argv, *history)
    assert code == 0
    assert out == expected
    assert err == ""


@pytest.mark.parametrize("argv", _LABEL_READERS)
def test_label_readers_fall_back_past_deep_invalid_latest_record(capsys, populated_history, argv):
    history = ["--history", str(populated_history)]
    _, expected, _ = run_cli(capsys, *argv, *history)
    _append_deep_invalid(populated_history, "full")
    code, out, err = run_cli(capsys, *argv, *history)
    assert code == 0
    assert out == expected
    assert err == "warning: skipped 1 corrupt line(s)\n"


@pytest.mark.parametrize("argv", _LABEL_READERS)
def test_label_readers_do_not_decode_lines_older_than_the_latest_record(
    capsys, populated_history, argv
):
    history = ["--history", str(populated_history)]
    _, expected, _ = run_cli(capsys, *argv, *history)
    full = populated_history.read_text().splitlines()[2]
    _append_deep_invalid(populated_history, "full")
    with open(populated_history, "a") as handle:
        handle.write(full + "\n")
    assert run_cli(capsys, *argv, *history) == (0, expected, "")


@pytest.mark.parametrize(
    "host, deep_skipped",
    [(None, 2), ("fabric-node-partial", 1), ("fabric-node-full", 0)],
)
def test_history_counts_corrupt_lines_it_decodes(capsys, populated_history, host, deep_skipped):
    for label in ("baseline", "partial"):
        _append_deep_invalid(populated_history, label)
    newer = json.loads(populated_history.read_text().splitlines()[2])
    newer["schema_version"] += 1
    with open(populated_history, "a") as handle:
        handle.write(json.dumps(newer) + "\n[1, 2]\n{torn\n")
    argv = ["history", "--history", str(populated_history)]
    if host is not None:
        argv += ["--host", host]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    labels = [line.split()[0] for line in out.splitlines()]
    assert labels == {
        None: ["baseline", "partial", "full"],
        "fabric-node-partial": ["partial"],
        "fabric-node-full": ["full"],
    }[host]
    # Lines that fail the cheap checks are counted by every reader;
    # deep-invalid ones only by a reader that decodes them.
    assert err == f"warning: skipped {deep_skipped + 3} corrupt line(s)\n"


@pytest.fixture
def decoded(monkeypatch):
    """The records each command decodes, counted at the store's one decoder."""
    calls = []
    decode = store._record_from_payload

    def counting(*args):
        calls.append(args)
        return decode(*args)

    monkeypatch.setattr(store, "_record_from_payload", counting)
    return calls


@pytest.fixture
def two_host_history(capsys, data_dir, tmp_path):
    """Labels a, b and c on hosts h1 and h2, each written twice."""
    history = tmp_path / "history.jsonl"
    manifest = str(data_dir / "manifest-baseline-literal.yaml")
    for _ in range(2):
        for host in ("h1", "h2"):
            for label in "abc":
                argv = ["--history", str(history), "--host", host, "--label", label]
                assert main(["score", "--manifest", manifest, *argv]) == 0
    capsys.readouterr()
    return history


def test_warm_compare_decodes_only_its_two_records(capsys, two_host_history, decoded):
    argv = ["compare", "a", "b", "--history", str(two_host_history)]
    first = run_cli(capsys, *argv)
    decoded.clear()
    assert run_cli(capsys, *argv) == first
    assert len(decoded) == 2


def test_report_decodes_one_record_per_label(capsys, two_host_history, decoded):
    code, _, _ = run_cli(capsys, "report", "a", "b", "c", "--history", str(two_host_history))
    assert code == 0
    assert len(decoded) == 3


def test_history_host_filter_decodes_only_that_hosts_lines(capsys, two_host_history, decoded):
    argv = ["history", "--history", str(two_host_history), "--host", "h1"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(out.splitlines()) == len(decoded) == 6
    assert {payload["host_label"] for payload, _ in decoded} == {"h1"}


# Counted work of a read whose line index records the history's identity:
# it neither reads the history whole nor hashes it.


def _settle(history, monkeypatch, capsys):
    """Record ``history``'s identity in its index, by a read that begins more
    than a lowered settle constant after the history's last change."""
    settle(history, monkeypatch)
    assert run_cli(capsys, "history", "--history", str(history), "--host", "h1")[0] == 0
    body = (history.parent / (history.name + ".idx")).read_bytes().partition(b"\n")[2]
    assert json.loads(body)["identity"] == store._identity(history.stat())


@pytest.mark.parametrize(
    "argv, records",
    [(["compare", "a", "b"], 2), (["history", "--host", "h2"], 6)],
    ids=["compare", "history-host"],
)
def test_warm_read_of_a_settled_history_reads_only_its_lines_and_hashes_nothing(
    capsys, monkeypatch, two_host_history, decoded, argv, records
):
    _settle(two_host_history, monkeypatch, capsys)
    data = two_host_history.read_bytes()
    argv = [*argv, "--history", str(two_host_history)]
    expected = run_cli(capsys, *argv)
    decoded.clear()
    hashing = mock.patch.object(store, "_new_digest", side_effect=AssertionError("hashed"))
    with history_reads() as reads, hashing:
        assert run_cli(capsys, *argv) == expected
    assert len(decoded) == records
    # Each decoded line is read with the \n that ends it and the one before
    # it, which the first line of the file has not.
    lines = [json.dumps(payload, separators=(",", ":")).encode() + b"\n" for payload, _ in decoded]
    assert all(line in data for line in lines)
    assert sum(size for _, size in reads) == sum(
        len(line) + (not data.startswith(line)) for line in lines
    )


def test_compare_child_on_a_settled_history_never_imports_hashlib(
    capsys, monkeypatch, two_host_history
):
    _settle(two_host_history, monkeypatch, capsys)
    probe = (
        "import sys; from auditscore.cli import main; code = main(sys.argv[1:]); "
        "print(code, 'hashlib' in sys.modules, file=sys.stderr)"
    )
    argv = ["compare", "a", "b", "--history", str(two_host_history)]
    completed = run_child("-c", probe, *argv, text=True)
    assert completed.stderr.splitlines() == ["0 False"]
    assert completed.stdout == run_cli(capsys, *argv)[1]


# What a trusted history query never needs: hashing, YAML, XML, processes,
# index writes and the append lock are for other commands or for a changed
# history.
_UNUSED_BY_HISTORY_QUERIES = (
    "fcntl",
    "hashlib",
    "yaml",
    "xml.etree.ElementTree",
    "subprocess",
    "shlex",
    "concurrent.futures",
    "tempfile",
)


def _child(*argv):
    """Run ``main(argv)`` in a fresh interpreter: its exit code, the modules
    it loaded and its stdout."""
    # The snapshot is the probe's own: site may load some of these first.
    probe = (
        "import sys; before = set(sys.modules); from auditscore.cli import main; "
        "code = main(sys.argv[1:]); "
        "print(code, *sorted(set(sys.modules) - before), file=sys.stderr)"
    )
    completed = run_child("-c", probe, *argv, text=True)
    code, *loaded = completed.stderr.splitlines()[-1].split()
    return code, loaded, completed.stdout


@pytest.mark.parametrize(
    "argv",
    [["compare", "a", "b"], ["history", "--host", "h2"], ["report", "a", "b"]],
    ids=["compare", "history-host", "report"],
)
def test_query_child_on_a_settled_history_loads_nothing_it_does_not_use(
    capsys, monkeypatch, two_host_history, argv
):
    _settle(two_host_history, monkeypatch, capsys)
    argv = [*argv, "--history", str(two_host_history)]
    code, loaded, out = _child(*argv)
    assert code == "0"
    assert [name for name in _UNUSED_BY_HISTORY_QUERIES if name in loaded] == []
    assert out == run_cli(capsys, *argv)[1]


def test_parse_child_on_a_plain_result_loads_nothing_it_does_not_use():
    result = str(DATA_DIR / "oscap-cis-baseline.xml")
    code, loaded, _ = _child("parse", "--tool", "openscap-cis", result)
    assert code == "0"
    # A plain XCCDF result is tallied without a tree, and parse reads no YAML.
    assert [name for name in _UNUSED_BY_HISTORY_QUERIES if name in loaded] == []


# Neither scoring a manifest nor appending its record hashes, runs a process
# or writes an index.
_UNUSED_BY_SCORE = ("hashlib", "subprocess", "shlex", "concurrent.futures", "tempfile")


@pytest.mark.parametrize("save", [False, True], ids=["print", "history"])
def test_score_child_loads_nothing_it_does_not_use(tmp_path, save):
    history = tmp_path / "history.jsonl"
    argv = ["score", "--manifest", str(DATA_DIR / "manifest-baseline.yaml")]
    code, loaded, _ = _child(*argv, *(["--history", str(history)] if save else []))
    assert code == "0"
    assert [name for name in _UNUSED_BY_SCORE if name in loaded] == []
    assert history.exists() == save


@pytest.mark.parametrize(
    "argv",
    [["run", "--tools", "lynis"], ["init-integrity-db", "--tool", "aide"]],
    ids=["run", "init-integrity-db"],
)
def test_runner_child_loads_nothing_it_does_not_use(tmp_path, argv):
    lynis = _fake_tool(tmp_path, "fake-lynis", 'echo "hardening_index=61" > "$1"\n')
    init = _fake_tool(tmp_path, "fake-aide-init", 'echo "new baseline written"\n')
    config = tmp_path / "config.yaml"
    config.write_text(
        f"runner:\n"
        f"  output_dir: {tmp_path / 'reports'}\n"
        f"  tools:\n"
        f"    lynis:\n"
        f"      command: '{lynis} {{output}}'\n"
        f"  init:\n"
        f"    aide:\n"
        f"      command: '{init}'\n"
        f"      database: {tmp_path / 'aide.db'}\n"
    )
    code, loaded, _ = _child(*argv, "--config", str(config))
    assert code == "0"
    # One tool runs in this process: no pool, and neither XML nor a digest.
    unused = ("xml.etree.ElementTree", "hashlib", "concurrent.futures", "tempfile")
    assert [name for name in unused if name in loaded] == []


@pytest.mark.parametrize(
    "change", ["none", "append", "same-size-edit"], ids=["settled", "appended", "edited"]
)
@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "a", "b"],
        ["history", "--host", "h1"],
        ["report", "a", "b", "c"],
        ["report", "a", "c", "--format", "json"],
    ],
    ids=["compare", "history-host", "report", "report-json"],
)
def test_read_equals_a_read_without_index_in_each_index_state(
    capsys, monkeypatch, data_dir, two_host_history, argv, change
):
    with open(two_host_history, "a") as handle:
        handle.write("{torn\n")
    _settle(two_host_history, monkeypatch, capsys)
    manifest = str(data_dir / "manifest-baseline-literal.yaml")
    history = ["--history", str(two_host_history)]
    if change == "append":
        append = ["score", "--manifest", manifest, *history, "--host", "h1", "--label", "a"]
        assert main(append) == 0
    elif change == "same-size-edit":
        # A host renamed in place, at the same size and modification time.
        times = two_host_history.stat()
        data = two_host_history.read_bytes()
        two_host_history.write_bytes(data[::-1].replace(b'"1h"', b'"3h"', 1)[::-1])
        os.utime(two_host_history, ns=(times.st_atime_ns, times.st_mtime_ns))
    capsys.readouterr()
    with mock.patch.object(store, "_new_digest", wraps=store._new_digest) as hashed:
        indexed = run_cli(capsys, *argv, *history)
    # Only a history unchanged since its identity was recorded goes unhashed.
    assert hashed.called == (change != "none")
    (two_host_history.parent / (two_host_history.name + ".idx")).unlink()
    assert indexed == run_cli(capsys, *argv, *history)
    assert "skipped 1 corrupt line(s)" in indexed[2]


@pytest.mark.parametrize("verbose", [False, True])
def test_parse_builds_trace_notes_only_under_verbose(capsys, data_dir, monkeypatch, verbose):
    notes = []
    monkeypatch.setattr(ParseDiagnostics, "note", lambda self, message: notes.append(message))
    argv = ["parse", "--tool", "openscap-cis", str(data_dir / "oscap-cis-baseline.xml"), "--json"]
    code, out, _ = run_cli(capsys, *argv, *(["--verbose"] if verbose else []))
    assert code == 0
    raw = json.loads(out)["raw"]
    # One note per scored rule and one for the tally of excluded results.
    assert len(notes) == (raw["pass_count"] + raw["fail_count"] + 1 if verbose else 0)


def _large_xccdf(tmp_path):
    report = tmp_path / "cis.xml"
    report.write_text(render_xccdf(ScapReport(ScapProfile.CIS, 15000, 5000)))
    return report


@pytest.mark.parametrize(
    "report, verbose, trees",
    [
        ("oscap-cis-baseline.xml", False, 0),
        ("20,000 rules", False, 0),
        ("oscap-cis-baseline.xml", True, 1),
        ("20,000 rules", True, 1),
        ("oscap-warnings.xml", False, 1),
    ],
)
def test_parse_builds_an_xccdf_tree_only_to_trace_or_warn(
    capsys, data_dir, tmp_path, report, verbose, trees
):
    # A plain result is tallied by a flat scan; notes and warnings need the tree.
    path = _large_xccdf(tmp_path) if report == "20,000 rules" else data_dir / report
    argv = ["parse", "--tool", "openscap-cis", str(path)] + (["--verbose"] if verbose else [])
    with mock.patch.object(parsers, "_xml_root", wraps=parsers._xml_root) as built:
        code, _, _ = run_cli(capsys, *argv)
    assert (code, built.call_count) == (0, trees)


def _run_with_stdout(stdout, *argv):
    completed = run_child("-m", "auditscore.cli", *argv, stdout=stdout)
    return completed.returncode, completed.stderr.decode()


def _closed_pipe():
    """The write end of a pipe whose read end is closed already."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


def _run_with_closed_stdout(*argv):
    """Run the CLI in a child whose stdout is a pipe nobody reads any more."""
    write_end = _closed_pipe()
    try:
        return _run_with_stdout(write_end, *argv)
    finally:
        os.close(write_end)


def _run_with_closed_stderr(*argv):
    """Run the CLI in a child whose stderr is a pipe nobody reads any more:
    its exit code and stdout."""
    write_end = _closed_pipe()
    try:
        completed = run_child("-m", "auditscore.cli", *argv, stderr=write_end)
    finally:
        os.close(write_end)
    return completed.returncode, completed.stdout.decode()


@pytest.mark.parametrize(
    "argv",
    [["history"], ["history", "--json"], ["report", "baseline", "full"], ["--help"]],
)
def test_closed_stdout_is_not_an_error(populated_history, argv):
    # Enough records that `history --json` overflows the stdout buffer
    # mid-command, not only at the final flush.
    lines = populated_history.read_text().splitlines(keepends=True)
    populated_history.write_text("".join(lines * 4))
    code, err = _run_with_closed_stdout(*argv, "--history", str(populated_history))
    assert (code, err) == (0, "")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_full_stdout_is_io_failure(populated_history):
    # Help and version text is written by argparse, which then exits.
    for argv in (["history"], ["--help"], ["--version"], ["history", "--help"]):
        with open("/dev/full", "w") as full:
            code, err = _run_with_stdout(full, *argv, "--history", str(populated_history))
        assert (code, err) == (2, "error[IO_FAILURE]: [Errno 28] No space left on device\n"), argv


def test_closed_stdout_keeps_score_append_and_gate(populated_history, data_dir):
    before = populated_history.read_text().count("\n")
    code, err = _run_with_closed_stdout(
        "score",
        "--manifest",
        str(data_dir / "manifest-baseline.yaml"),
        "--history",
        str(populated_history),
        "--min-score",
        "101",
    )
    assert code == 3
    assert err == "composite 58.34 below required minimum 101.00\n"
    assert populated_history.read_text().count("\n") == before + 1


def test_closed_stderr_keeps_the_exit_code(data_dir, tmp_path):
    # A reader of stderr that has gone is not an error either: an input error
    # still exits 2, and the gate, after warnings and notes, 3.
    code, out = _run_with_closed_stderr("parse", "--tool", "lynis", str(tmp_path / "absent.dat"))
    assert (code, out) == (2, "")
    argv = ["score", "--manifest", str(data_dir / "manifest-warnings.yaml"), "--verbose"]
    code, out = _run_with_closed_stderr(*argv, "--min-score", "99")
    assert code == 3
    assert out.splitlines()[-1].startswith("composite: ")


def test_compare_baseline_to_full(capsys, populated_history):
    code, out, _ = run_cli(
        capsys, "compare", "baseline", "full", "--history", str(populated_history)
    )
    assert code == 0
    assert "dominant: vuln_scan +7.05 (71.7%)" in out
    assert "total delta: +9.83" in out


def test_compare_identical_assessments(capsys, populated_history):
    code, out, _ = run_cli(
        capsys, "compare", "baseline", "baseline", "--history", str(populated_history)
    )
    assert code == 0
    assert "total delta: +0.00" in out
    assert "dominant: none" in out


def test_compare_near_zero_total_prints_no_share(capsys, tmp_path):
    """+20 and -20 that leave a subnormal total: no share, never ``inf%``."""
    history = tmp_path / "history.jsonl"
    for label, scores in (
        ("before", [0, 50, 50, 50, 100, 0]),
        ("after", [100, 50, 50, 50, 0, 1e-321]),
    ):
        manifest = tmp_path / f"{label}.yaml"
        reports = {tool.value: {"score": score} for tool, score in zip(ToolKind, scores)}
        manifest.write_text(yaml.safe_dump({"label": label, "reports": reports}))
        assert main(["score", "--manifest", str(manifest), "--history", str(history)]) == 0
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "compare", "before", "after", "--history", str(history))
    assert code == 0
    assert "inf" not in out
    assert out.splitlines()[2].split() == ["1", "lynis", "+20.00", "-"]
    assert "dominant: none (total delta is zero)" in out
    code, out, _ = run_cli(
        capsys, "compare", "before", "after", "--history", str(history), "--json"
    )
    document = json.loads(out)
    assert document["dominant_share"] is None
    assert [entry["share"] for entry in document["ranked"]] == [None] * 6


def test_zero_total_names_no_dominant_tool_in_any_format(capsys, data_dir, tmp_path):
    """One manifest scored twice: text, markdown and both JSON documents
    agree that no tool dominates an unchanged composite."""
    history = tmp_path / "history.jsonl"
    manifest = str(data_dir / "manifest-baseline.yaml")
    for label in ("a", "b"):
        argv = ["score", "--manifest", manifest, "--label", label, "--history", str(history)]
        assert main(argv) == 0
    capsys.readouterr()
    query = ("--history", str(history))
    code, out, _ = run_cli(capsys, "compare", "a", "b", *query)
    assert (code, out.splitlines()[-1]) == (0, "dominant: none (total delta is zero)")
    code, out, _ = run_cli(capsys, "report", "a", "b", *query)
    assert code == 0 and "No dominant driver: the composite did not change." in out
    code, out, _ = run_cli(capsys, "compare", "a", "b", "--json", *query)
    document = json.loads(out)
    assert (code, document["dominant_tool"], document["dominant_share"]) == (0, None, None)
    code, out, _ = run_cli(capsys, "report", "a", "b", "--format", "json", *query)
    document = json.loads(out)["decomposition"]
    assert (code, document["dominant_tool"], document["dominant_share"]) == (0, None, None)


def test_compare_unknown_label_exits_2(capsys, populated_history):
    code, _, err = run_cli(
        capsys, "compare", "baseline", "ultimate", "--history", str(populated_history)
    )
    assert code == 2
    assert "UNKNOWN_LABEL" in err


def test_compare_accepts_record_files(capsys, data_dir, tmp_path):
    for label, manifest in (("a", "manifest-baseline-literal.yaml"), ("b", "manifest-full.yaml")):
        code = main(
            [
                "score",
                "--manifest",
                str(data_dir / manifest),
                "--json",
                "--label",
                label,
            ]
        )
        assert code == 0
        (tmp_path / f"{label}.json").write_text(capsys.readouterr().out)
    code, out, _ = run_cli(
        capsys, "compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")
    )
    assert code == 0
    assert "+9.83" in out


@pytest.mark.parametrize(
    "content, skipped",
    [("", ""), ("{torn\n", "warning: skipped 1 corrupt line(s)\n")],
    ids=["empty", "corrupt"],
)
def test_compare_record_file_with_no_loadable_record_exits_2(
    capsys, populated_history, tmp_path, content, skipped
):
    reference = tmp_path / "empty.json"
    reference.write_text(content)
    code, out, err = run_cli(
        capsys, "compare", str(reference), "full", "--history", str(populated_history)
    )
    assert code == 2
    assert out == ""
    assert err == (
        f"{skipped}error[UNKNOWN_LABEL]: {reference}: file contains no parseable records\n"
    )


def test_compare_mismatched_weights_exits_2(capsys, data_dir, tmp_path):
    history = tmp_path / "history.jsonl"
    weights = tmp_path / "uniform.yaml"
    weights.write_text(
        "tool_weights:\n"
        + "".join(f"  {tool.value}: 0.16666666666666666\n" for tool in ToolKind)
    )
    assert (
        main(
            [
                "score",
                "--manifest",
                str(data_dir / "manifest-baseline-literal.yaml"),
                "--history",
                str(history),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "score",
                "--manifest",
                str(data_dir / "manifest-full.yaml"),
                "--history",
                str(history),
                "--weights",
                str(weights),
            ]
        )
        == 0
    )
    capsys.readouterr()
    code, _, err = run_cli(
        capsys, "compare", "baseline", "full", "--history", str(history)
    )
    assert code == 2
    assert "WEIGHT_MISMATCH" in err


def test_report_markdown_three_levels(capsys, populated_history):
    code, out, _ = run_cli(
        capsys,
        "report",
        "baseline",
        "partial",
        "full",
        "--history",
        str(populated_history),
    )
    assert code == 0
    assert "+16.8%" in out  # composite change
    assert "| Lynis | 59.00 | 61.00 | 66.00 | +11.9% |" in out
    assert "-8.4 pts" in out  # integrity change shown in points
    assert "| AIDE | down |" in out
    assert "| Lynis | up |" in out
    assert "Vulnerability" in out


def test_report_markdown_matches_golden_file(capsys, data_dir, populated_history):
    code, out, _ = run_cli(
        capsys,
        "report",
        "baseline",
        "partial",
        "full",
        "--history",
        str(populated_history),
    )
    assert code == 0
    assert out == (data_dir / "expected-report-three-levels.md").read_text()


def test_report_is_deterministic_and_timestamp_free(capsys, populated_history):
    code, first, _ = run_cli(
        capsys, "report", "baseline", "full", "--history", str(populated_history)
    )
    assert code == 0
    code, second, _ = run_cli(
        capsys, "report", "baseline", "full", "--history", str(populated_history)
    )
    assert first == second
    assert "T" not in first.split("## Scores")[0].replace("Tool", "")  # no ISO timestamps


def test_report_with_timestamps_flag(capsys, populated_history):
    code, out, _ = run_cli(
        capsys,
        "report",
        "baseline",
        "--history",
        str(populated_history),
        "--timestamps",
    )
    assert code == 0
    assert "baseline:" in out


def test_report_text_with_timestamps_matches_golden_file(capsys, data_dir, populated_history):
    # The records' own timestamps are those of the run that wrote them:
    # the copy read here has fixed ones, an hour apart.
    fixed = populated_history.with_name("fixed.jsonl")
    with open(fixed, "w") as handle:
        for hour, line in enumerate(populated_history.read_text().splitlines()):
            record = json.loads(line)
            record["assessment"]["timestamp"] = f"2025-10-02T{14 + hour}:30:00+00:00"
            handle.write(json.dumps(record) + "\n")
    code, out, _ = run_cli(
        capsys,
        "report",
        "baseline",
        "partial",
        "full",
        "--history",
        str(fixed),
        "--format",
        "text",
        "--timestamps",
    )
    assert code == 0
    assert out == (data_dir / "expected-report-three-levels-timestamps.txt").read_text()


def test_report_single_assessment_json(capsys, populated_history):
    code, out, _ = run_cli(
        capsys,
        "report",
        "partial",
        "--history",
        str(populated_history),
        "--format",
        "json",
    )
    assert code == 0
    document = json.loads(out)
    assert document["labels"] == ["partial"]
    assert document["trends"] is None
    assert document["decomposition"] is None
    assert document["records"][0]["assessment"]["composite"] == pytest.approx(64.80, abs=0.01)


def test_report_json_three_levels_has_trends(capsys, populated_history):
    code, out, _ = run_cli(
        capsys,
        "report",
        "baseline",
        "partial",
        "full",
        "--history",
        str(populated_history),
        "--format",
        "json",
    )
    document = json.loads(out)
    assert document["trends"]["directions"]["aide"] == "down"
    assert document["decomposition"]["dominant_tool"] == "vuln_scan"


def test_report_unknown_label_exits_2(capsys, populated_history):
    code, _, err = run_cli(
        capsys, "report", "mystery", "--history", str(populated_history)
    )
    assert code == 2
    assert "UNKNOWN_LABEL" in err


def test_report_text_format(capsys, populated_history):
    code, out, _ = run_cli(
        capsys,
        "report",
        "baseline",
        "full",
        "--history",
        str(populated_history),
        "--format",
        "text",
    )
    assert code == 0
    assert "Composite" in out
    assert "dominant: vuln_scan" in out


@pytest.mark.parametrize(
    "report_format, header, composite_row",
    [
        (
            "text",
            "Tool                v**2   full     Change",
            "Composite          58.34  68.17     +16.8%",
        ),
        (
            "markdown",
            "| Tool | v**2 | full | Change |",
            "| **Composite** | **58.34** | **68.17** | **+16.8%** |",
        ),
    ],
    ids=["text", "markdown"],
)
def test_report_keeps_emphasis_marks_in_labels(
    capsys, data_dir, tmp_path, report_format, header, composite_row
):
    history = tmp_path / "history.jsonl"
    for name, label in (("manifest-baseline-literal.yaml", "v**2"), ("manifest-full.yaml", "full")):
        argv = ["score", "--manifest", str(data_dir / name), "--label", label]
        assert main([*argv, "--history", str(history)]) == 0
    capsys.readouterr()
    code, out, _ = run_cli(
        capsys, "report", "v**2", "full", "--history", str(history), "--format", report_format
    )
    assert code == 0
    lines = out.splitlines()
    assert header in lines
    assert composite_row in lines


@pytest.mark.parametrize(
    "first, last, cell",
    [
        (0.004, 1.0, "+1.0 pts"),  # shows as 0.00
        (0.005, 1.0, "+19900.0%"),  # shows as 0.01
        (0.0, 5.0, "+5.0 pts"),
        (10.0, 5.0, "-5.0 pts"),
    ],
)
def test_change_is_a_percent_only_from_a_base_that_shows_as_nonzero(first, last, cell):
    assert change_cell(first, last) == cell


@pytest.mark.parametrize(
    "report_format, row",
    [
        ("markdown", "| Lynis | 0.00 | 60.00 | +60.0 pts |"),
        ("text", "Lynis               0.00  60.00  +60.0 pts"),
    ],
    ids=["markdown", "text"],
)
def test_report_change_from_a_base_that_shows_as_zero_is_in_points(
    capsys, tmp_path, report_format, row
):
    history = tmp_path / "history.jsonl"
    for label, lynis in (("tiny", "5e-324"), ("up", "60")):
        manifest = tmp_path / f"{label}.yaml"
        manifest.write_text(
            "reports:\n"
            + "".join(
                f"  {tool.value}: {{score: {lynis if tool is ToolKind.LYNIS else 50}}}\n"
                for tool in ToolKind
            )
        )
        argv = ["score", "--manifest", str(manifest), "--label", label]
        assert main([*argv, "--history", str(history)]) == 0
    capsys.readouterr()
    code, out, _ = run_cli(
        capsys, "report", "tiny", "up", "--history", str(history), "--format", report_format
    )
    assert code == 0
    assert row in out.splitlines()


def test_report_markdown_keeps_a_pipe_in_a_label_inside_its_cell(capsys, data_dir, tmp_path):
    history = tmp_path / "history.jsonl"
    for name, label in (("manifest-baseline-literal.yaml", "a|b"), ("manifest-full.yaml", "c")):
        argv = ["score", "--manifest", str(data_dir / name), "--label", label]
        assert main([*argv, "--history", str(history)]) == 0
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "report", "a|b", "c", "--history", str(history))
    assert code == 0
    # A GFM row splits at each "|" that no backslash escapes; every row of a
    # table has as many cells as its header.
    cells = [
        len(re.findall(r"(?<!\\)\|", line)) - 1 if line.startswith("|") else 0
        for line in out.splitlines()
    ]
    tables = [list(rows) for is_row, rows in itertools.groupby(cells, bool) if is_row]
    assert [set(rows) for rows in tables] == [{4}, {2}, {4}]
    assert "| Tool | a\\|b | c | Change |" in out.splitlines()


def test_report_markdown_writes_a_line_break_in_a_label_as_br(capsys, data_dir, tmp_path):
    history = tmp_path / "history.jsonl"
    labels = ("two\nlines", "c\r\nd", "e\rf")
    names = ("manifest-baseline-literal.yaml", "manifest-partial.yaml", "manifest-full.yaml")
    for name, label in zip(names, labels):
        argv = ["score", "--manifest", str(data_dir / name), "--label", label]
        assert main([*argv, "--history", str(history)]) == 0
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "report", *labels, "--history", str(history))
    assert code == 0
    assert "| Tool | two<br>lines | c<br>d | e<br>f | Change |" in out.splitlines()
    assert "## Change drivers: two<br>lines to e<br>f" in out.split("\n")
    # Every line of a table is a whole row.
    rows = [line for line in out.splitlines() if "|" in line]
    assert all(row.startswith("| ") and row.endswith(" |") for row in rows)


def test_a_line_break_in_a_label_or_host_splits_no_line_of_output(capsys, data_dir, tmp_path):
    history = tmp_path / "history.jsonl"
    for name, label, host in (
        ("manifest-baseline-literal.yaml", "two\nlines", "x\r\ny"),
        ("manifest-full.yaml", "c", "e\rf"),
    ):
        argv = ["score", "--manifest", str(data_dir / name), "--label", label, "--host", host]
        assert main([*argv, "--history", str(history)]) == 0
    capsys.readouterr()
    # One history row per record, each line break backslash-escaped.
    code, out, _ = run_cli(capsys, "history", "--history", str(history))
    assert code == 0
    first, second = out.split("\n")[:-1]
    assert first.startswith("two\\nlines ") and first.endswith(" host=x\\r\\ny")
    assert second.startswith("c ") and second.endswith(" host=e\\rf")
    # Markdown writes each line break as <br>: the heading and each bullet
    # stay one line.
    argv = ["report", "two\nlines", "c", "--history", str(history), "--timestamps"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "\r" not in out
    lines = out.split("\n")
    assert "## Change drivers: two<br>lines to c" in lines
    first, second = [line for line in lines if line.startswith("- ")]
    assert first.startswith("- two<br>lines: ") and first.endswith(" (host x<br>y)")
    assert second.startswith("- c: ") and second.endswith(" (host e<br>f)")
    # The text report's timestamp lines, like history rows, escape them.
    code, out, _ = run_cli(capsys, *argv, "--format", "text")
    assert code == 0
    assert not [line for line in out.split("\n") if line.startswith("lines")]
    _, _, first, second, _, header, *rest = out.split("\n")
    assert first.startswith("two\\nlines: ") and first.endswith(" (host x\\r\\ny)")
    assert second.startswith("c: ") and second.endswith(" (host e\\rf)")
    # So do the text report's header row and every line of ``compare`` and
    # ``score``.
    assert header.split() == ["Tool", "two\\nlines", "c", "Change"]
    assert "delta decomposition: two\\nlines -> c" in rest
    code, out, _ = run_cli(capsys, "compare", "two\nlines", "c", "--history", str(history))
    assert code == 0
    assert out.split("\n")[0] == "delta decomposition: two\\nlines -> c"
    argv = ["score", "--manifest", str(data_dir / "manifest-baseline-literal.yaml")]
    code, out, _ = run_cli(capsys, *argv, "--label", "two\nlines", "--host", "x\r\ny")
    assert code == 0
    assert out.split("\n")[:2] == ["label: two\\nlines", "host: x\\r\\ny"]


def _line_counts(capsys, first, second, host, name):
    """Exit code, stdout lines and stderr lines of each command over a record
    labelled ``first`` and one labelled ``second``, both of ``host``, in a
    history file, beside report files, whose names start with ``name``."""
    with tempfile.TemporaryDirectory() as directory:
        files = Path(directory)
        report = files / f"{name}.dat"  # warns, and under --verbose notes
        report.write_bytes((DATA_DIR / "lynis-warnings.dat").read_bytes())
        broken = files / f"{name}-missing.dat"
        broken.write_text("os=Linux\n")  # no hardening_index: KEY_MISSING
        manifests = []
        for lynis in (report, broken):
            manifests.append(files / f"{lynis.stem}.yaml")
            reports = {tool.value: {"score": 50} for tool in ToolKind}
            reports["lynis"] = str(lynis)
            manifests[-1].write_text(yaml.safe_dump({"reports": reports}))
        history = ["--history", str(files / f"{name}.jsonl")]
        commands = [
            ["parse", "--tool", "lynis", str(report), "--verbose"],
            ["parse", "--tool", "lynis", str(broken)],
            ["score", "--manifest", str(manifests[0]), "--label", first, "--host", host,
             "--verbose", *history],
            ["score", "--manifest", str(DATA_DIR / "manifest-full.yaml"), "--label", second,
             "--host", host, *history],
            ["score", "--manifest", str(manifests[1]), *history],
            ["history", *history],
            ["compare", first, second, *history],
            ["report", first, second, *history],
            ["report", first, second, "--timestamps", *history],
            ["report", first, second, "--format", "text", "--timestamps", *history],
        ]
        counts = []
        for argv in commands:
            code, out, err = run_cli(capsys, *argv)
            counts.append((code, len(out.splitlines()), len(err.splitlines())))
    return counts


# Every character at which ``str.splitlines`` ends a line, among others.
_LINE_BREAKING_TEXT = st.lists(
    st.sampled_from(
        ["a", "b", " ", "|", "\r", "\n", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
         "\u2028", "\u2029"]
    ),
    min_size=1,
    max_size=6,
).map("".join)


@given(
    first=_LINE_BREAKING_TEXT,
    second=_LINE_BREAKING_TEXT,
    host=_LINE_BREAKING_TEXT,
    name=_LINE_BREAKING_TEXT,
)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_labels_and_host_never_change_the_line_count_of_an_output(
    capsys, monkeypatch, tmp_path, first, second, host, name
):
    # Nor does a file name, on stdout or on stderr, and on an error path too.
    assume(first != second)
    monkeypatch.chdir(tmp_path)  # so that no label names a record file
    plain = _line_counts(capsys, "a", "b", "plain", "plain")
    assert _line_counts(capsys, first, second, host, name) == plain


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def test_config_env_var_supplies_history_path(capsys, data_dir, tmp_path, monkeypatch):
    history = tmp_path / "via-config.jsonl"
    config = tmp_path / "config.yaml"
    config.write_text(f"history: {history}\n")
    monkeypatch.setenv("AUDITSCORE_CONFIG", str(config))
    code, _, _ = run_cli(
        capsys,
        "score",
        "--manifest",
        str(data_dir / "manifest-baseline-literal.yaml"),
        "--save",
    )
    assert code == 0
    assert len(load_history(history).records) == 1


def test_invalid_config_exits_2(capsys, data_dir, tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text("weights:\n  tool_weights:\n    lynis: 0.9\n")
    code, _, err = run_cli(
        capsys,
        "score",
        "--config",
        str(config),
        "--manifest",
        str(data_dir / "manifest-baseline-literal.yaml"),
    )
    assert code == 2
    assert "WEIGHT_SUM_INVALID" in err


@pytest.mark.parametrize(
    "config_text",
    [
        "runner:\n  tools:\n    lynis:\n      timeout: soon\n",
        "runner:\n  tools:\n    lynis:\n      timeout: .inf\n",
        "runner:\n  tools:\n    lynis:\n      exit_codes: [0, abc]\n",
        "runner:\n  tools:\n    lynis:\n      exit_codes: [0, 1.5]\n",
        "runner:\n  tools:\n    lynis:\n      exit_codes: 78\n",
        "weights:\n  port_penalty: abc\n",
        "weights:\n  tool_weights:\n    lynis: .nan\n",
        "weights:\n  severity_weights:\n    high: -.inf\n",
        "weights:\n  tool_weights: {lynis: 0.2}\n  7: x\n  z: y\n",
        "runner:\n  tools:\n    lynis:\n      timeout: -5\n",
        "runner:\n  tools:\n    aide:\n      timeout: 0\n",
        "runner:\n  init:\n    lynis:\n      command: lynis --init\n",
        "weights: " + "[" * 1000 + "]" * 1000 + "\n",
        "runner:\n  tools:\n    lynis:\n      timeout: 1.0e+7\n",
        "weights:\n  port_penalty: 2001-13-45\n",
        "history: [a, b]\n",
        yaml.safe_dump({"history": _alias_bomb()}),
        "runner:\n  output_dir: {a: 1}\n",
        "runner:\n  target: [a]\n",
        "runner:\n  datastream: [a]\n",
        "runner:\n  tools:\n    lynis:\n      command: [lynis, audit]\n",
        "runner:\n  tools:\n    lynis:\n      output: {a: 1}\n",
        "runner:\n  init:\n    aide:\n      command: [aide, --init]\n",
        "runner:\n  init:\n    aide:\n      database: [a]\n",
        "history:\n",
        "runner:\n  target:\n",
        "runner:\n  output_dir:\n",
        "runner:\n  tools:\n    lynis:\n      command:\n",
        "runner:\n  init:\n    aide:\n      database:\n",
    ],
    ids=[
        "timeout-text",
        "timeout-inf",
        "exit-code-text",
        "exit-code-fraction",
        "exit-codes-not-a-list",
        "penalty-text",
        "weight-nan",
        "severity-weight-inf",
        "unknown-keys-of-mixed-type",
        "timeout-negative",
        "timeout-zero",
        "init-without-database",
        "nested-too-deep",
        "timeout-too-large",
        "not-a-date",
        "history-list",
        "history-alias-bomb",
        "output-dir-mapping",
        "target-list",
        "datastream-list",
        "tool-command-list",
        "tool-output-mapping",
        "init-command-list",
        "init-database-list",
        "history-empty",
        "target-empty",
        "output-dir-empty",
        "tool-command-empty",
        "init-database-empty",
    ],
)
def test_config_bad_values_exit_2(capsys, data_dir, tmp_path, config_text):
    config = tmp_path / "config.yaml"
    config.write_text(config_text)
    code, out, err = run_cli(
        capsys,
        "score",
        "--config",
        str(config),
        "--manifest",
        str(data_dir / "manifest-baseline-literal.yaml"),
    )
    assert code == 2
    assert out == ""
    assert "error[CONFIG_INVALID]" in err


@pytest.mark.parametrize(
    "option, code", [("--manifest", "MANIFEST_INVALID"), ("--weights", "CONFIG_INVALID")]
)
def test_deeply_nested_manifest_or_weights_exits_2(capsys, data_dir, tmp_path, option, code):
    deep = tmp_path / "deep.yaml"
    deep.write_text("label: " + "[" * 1000 + "]" * 1000 + "\n")
    manifest = data_dir / "manifest-baseline-literal.yaml"
    # A repeated --manifest takes the last value.
    result = run_cli(capsys, "score", "--manifest", str(manifest), option, str(deep))
    assert result == (2, "", f"error[{code}]: {deep}: nested too deeply\n")


def test_manifest_nested_50000_deep_exits_2_in_a_real_process(tmp_path):
    # A whole process, so that a crash below Python (libyaml's C parser dies
    # of SIGSEGV at this depth) shows as a signal, not as a test error.
    deep = tmp_path / "deep.yaml"
    deep.write_text("label: " + "[" * 50_000 + "]" * 50_000 + "\n")
    completed = run_child("-m", "auditscore.cli", "score", "--manifest", str(deep), text=True)
    assert (completed.returncode, completed.stdout) == (2, "")
    assert completed.stderr == f"error[MANIFEST_INVALID]: {deep}: nested too deeply\n"


@pytest.mark.parametrize(
    "option, text, where",
    [
        ("--config", "weights:\n  severity_weights:\n    bogus: 1.0\n", "weights"),
        ("--weights", "severity_weights:\n  bogus: 1.0\n", None),
    ],
)
def test_unknown_severity_exits_2(capsys, data_dir, tmp_path, option, text, where):
    path = tmp_path / "settings.yaml"
    path.write_text(text)
    manifest = str(data_dir / "manifest-baseline-literal.yaml")
    assert run_cli(capsys, "score", option, str(path), "--manifest", manifest) == (
        2,
        "",
        f"error[CONFIG_INVALID]: {where or path}: unknown severity 'bogus'\n",
    )


def test_weights_flag_overrides_default(capsys, data_dir, tmp_path):
    weights = tmp_path / "weights.yaml"
    weights.write_text(
        "tool_weights:\n"
        + "".join(f"  {tool.value}: 0.16666666666666666\n" for tool in ToolKind)
    )
    code, out, _ = run_cli(
        capsys,
        "score",
        "--manifest",
        str(data_dir / "manifest-baseline-literal.yaml"),
        "--weights",
        str(weights),
    )
    assert code == 0
    # uniform weights: (59 + 67.4 + 83.4 + 82.4 + 57.8 + 0) / 6 = 58.33
    assert "composite: 58.33" in out


# ---------------------------------------------------------------------------
# run / init-integrity-db (driven through config with fake tools)
# ---------------------------------------------------------------------------


def _fake_tool(tmp_path, name, body):
    path = tmp_path / name
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return path


def test_run_subset_with_fake_tools(capsys, tmp_path):
    lynis = _fake_tool(tmp_path, "fake-lynis", 'echo "hardening_index=61" > "$1"\n')
    config = tmp_path / "config.yaml"
    config.write_text(
        f"runner:\n"
        f"  output_dir: {tmp_path / 'reports'}\n"
        f"  tools:\n"
        f"    lynis:\n"
        f"      command: '{lynis} {{output}}'\n"
    )
    code, out, _ = run_cli(
        capsys, "run", "--config", str(config), "--tools", "lynis"
    )
    assert code == 0
    assert "lynis:" in out
    assert (tmp_path / "reports" / "lynis-report.dat").read_text().strip() == "hardening_index=61"


def test_run_command_that_splits_to_an_empty_program_exits_2(capsys, tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text(
        f"runner:\n"
        f"  output_dir: {tmp_path / 'reports'}\n"
        f"  tools:\n"
        f"    lynis:\n"
        f"      command: \"''\"\n"
    )
    assert run_cli(capsys, "run", "--config", str(config), "--tools", "lynis") == (
        2,
        "",
        "lynis: FAILED [TEMPLATE_INVALID] lynis: empty command\n",
    )


def test_run_reports_partial_failure_with_exit_2(capsys, tmp_path):
    lynis = _fake_tool(tmp_path, "fake-lynis", 'echo "hardening_index=61" > "$1"\n')
    config = tmp_path / "config.yaml"
    config.write_text(
        f"runner:\n"
        f"  output_dir: {tmp_path / 'reports'}\n"
        f"  tools:\n"
        f"    lynis:\n"
        f"      command: '{lynis} {{output}}'\n"
        f"    aide:\n"
        f"      command: 'no-such-binary-qqq --check'\n"
    )
    code, out, err = run_cli(
        capsys, "run", "--config", str(config), "--tools", "lynis", "aide"
    )
    assert code == 2
    assert "lynis:" in out
    assert "TOOL_NOT_FOUND" in err


@pytest.mark.parametrize(
    "content, mode",
    [(b"#!/bin/sh\nexit 0\n", 0o644), (b"\x00\x01 not a program", 0o755)],
    ids=["no-execute-bit", "not-a-program"],
)
def test_run_lists_every_tool_when_one_cannot_be_executed(capsys, tmp_path, content, mode):
    broken = tmp_path / "broken-lynis"
    broken.write_bytes(content)
    broken.chmod(mode)
    aide = _fake_tool(tmp_path, "fake-aide", 'echo "Added entries: 3"\n')
    config = tmp_path / "config.yaml"
    config.write_text(
        f"runner:\n"
        f"  output_dir: {tmp_path / 'reports'}\n"
        f"  tools:\n"
        f"    lynis:\n"
        f"      command: '{broken} {{output}}'\n"
        f"    aide:\n"
        f"      command: '{aide}'\n"
    )
    code, out, err = run_cli(capsys, "run", "--config", str(config), "--tools", "lynis", "aide")
    assert code == 2
    assert out == f"aide: {tmp_path / 'reports' / 'aide-check.txt'}\n"
    assert err.startswith(
        f"lynis: FAILED [TOOL_NOT_EXECUTABLE] lynis: cannot execute '{broken}': "
    )


def test_init_integrity_db_refuses_then_forces(capsys, tmp_path):
    database = tmp_path / "aide.db"
    database.write_text("baseline")
    init = _fake_tool(tmp_path, "fake-aide-init", 'echo "new baseline written"\n')
    config = tmp_path / "config.yaml"
    config.write_text(
        f"runner:\n"
        f"  output_dir: {tmp_path / 'reports'}\n"
        f"  init:\n"
        f"    aide:\n"
        f"      command: '{init}'\n"
        f"      database: {database}\n"
    )
    code, _, err = run_cli(
        capsys, "init-integrity-db", "--config", str(config), "--tool", "aide"
    )
    assert code == 2
    assert "DATABASE_EXISTS" in err
    code, out, _ = run_cli(
        capsys, "init-integrity-db", "--config", str(config), "--tool", "aide", "--force"
    )
    assert code == 0
    assert "initialized" in out


def _init_config(tmp_path, init, timeout=None):
    config = tmp_path / "config.yaml"
    tools = f"  tools:\n    aide:\n      timeout: {timeout}\n" if timeout is not None else ""
    config.write_text(
        f"runner:\n"
        f"  output_dir: {tmp_path / 'reports'}\n"
        f"{tools}"
        f"  init:\n"
        f"    aide:\n"
        f"      command: '{init}'\n"
        f"      database: {tmp_path / 'aide.db'}\n"
    )
    return config


def test_init_integrity_db_logs_next_to_reports(capsys, tmp_path):
    init = _fake_tool(tmp_path, "fake-aide-init", 'echo "new baseline written"\n')
    config = _init_config(tmp_path, init)
    code, out, _ = run_cli(capsys, "init-integrity-db", "--config", str(config), "--tool", "aide")
    log = tmp_path / "reports" / "aide-init.log"
    assert code == 0
    assert out == f"aide: initialized (log: {log})\n"
    assert log.read_text() == "new baseline written\n"


def test_init_integrity_db_uses_check_command_timeout(capsys, tmp_path):
    init = _fake_tool(tmp_path, "slow-aide-init", "exec sleep 10\n")
    config = _init_config(tmp_path, init, timeout=0.2)
    code, out, err = run_cli(
        capsys, "init-integrity-db", "--config", str(config), "--tool", "aide"
    )
    assert code == 2
    assert out == ""
    assert "error[TIMEOUT_EXCEEDED]" in err
    assert not (tmp_path / "reports" / "aide-init.log").exists()


# ---------------------------------------------------------------------------
# option surface: each subcommand takes only the options it reads
# ---------------------------------------------------------------------------

_SUBCOMMAND_ARGV = {
    "parse": ["parse", "--tool", "aide", "report.txt"],
    "score": ["score", "--manifest", "manifest.yaml"],
    "compare": ["compare", "baseline", "full"],
    "history": ["history"],
    "report": ["report", "baseline"],
    "run": ["run"],
    "init-integrity-db": ["init-integrity-db", "--tool", "aide"],
}
_SHARED_OPTION_ARGS = {
    "--config": ["--config", "config.yaml"],
    "--weights": ["--weights", "weights.yaml"],
    "--json": ["--json"],
    "--verbose": ["--verbose"],
}
_KEPT_OPTIONS = {
    "parse": {"--config", "--weights", "--json", "--verbose"},
    "score": {"--config", "--weights", "--json", "--verbose"},
    "compare": {"--config", "--json"},
    "history": {"--config", "--json"},
    "report": {"--config"},
    "run": {"--config"},
    "init-integrity-db": {"--config"},
}
_OPTION_CASES = [
    (command, option, option in _KEPT_OPTIONS[command])
    for command in _SUBCOMMAND_ARGV
    for option in _SHARED_OPTION_ARGS
]


@pytest.mark.parametrize(
    "command, option, kept",
    _OPTION_CASES,
    ids=[f"{command}-{option[2:]}" for command, option, _ in _OPTION_CASES],
)
def test_subcommand_takes_only_the_options_it_reads(capsys, command, option, kept):
    # Parse only: a wrongly accepted option must not run the command.
    argv = _SUBCOMMAND_ARGV[command] + _SHARED_OPTION_ARGS[option]
    if kept:
        args = build_parser().parse_args(argv)
        value = getattr(args, option[2:])
        assert value is True or str(value) == argv[-1]
        return
    with pytest.raises(SystemExit) as exited:
        build_parser().parse_args(argv)
    err = capsys.readouterr().err
    assert exited.value.code == 2
    assert "unrecognized arguments: " + " ".join(_SHARED_OPTION_ARGS[option]) in err
    assert "Traceback" not in err


def test_readme_lists_the_shared_options_of_each_subcommand(monkeypatch):
    declared = {}
    add = cli._add_shared_options

    def recording(parser, *options):
        declared[parser.prog.split()[-1]] = set(options)
        add(parser, *options)

    monkeypatch.setattr(cli, "_add_shared_options", recording)
    build_parser()
    readme = (ROOT / "README.md").read_text()
    table = re.search(r"\| subcommand \| flags \|\n\| --- \| --- \|\n((?:\|.*\n)+)", readme)
    listed = {}
    for row in table.group(1).splitlines():
        commands, options = row.strip("|").split("|")
        for command in re.findall(r"`(.+?)`", commands):
            listed[command] = set(re.findall(r"`(.+?)`", options))
    assert listed == declared


def _arguments(parser):
    """``(prog, action)`` for each argument of ``parser`` and its subcommands;
    a subcommand's own line in ``--help`` counts as an argument."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            yield from ((parser.prog, choice) for choice in action._choices_actions)
            for subparser in action.choices.values():
                yield from _arguments(subparser)
        else:
            yield parser.prog, action


def test_every_argument_has_a_help_string():
    undescribed = [
        (prog, action.metavar or action.dest)
        for prog, action in _arguments(build_parser())
        if action.help is None
    ]
    assert undescribed == []


# ---------------------------------------------------------------------------
# cold start: what importing the CLI loads
# ---------------------------------------------------------------------------

# Only ``parse``, ``score``, ``run``, ``init-integrity-db``, a YAML file or a
# line index write need these; every history query is a fresh process and
# would pay for them.
# No command needs ``dataclasses`` or the modules it loads.
_DEFERRED_MODULES = (
    "yaml",
    "subprocess",
    "shlex",
    "concurrent.futures",
    "xml.etree.ElementTree",
    "tempfile",
    "socket",
    "dataclasses",
    "inspect",
    "ast",
    "dis",
)
# The layers whose functions perfbench/tracing.py wraps right after
# importing the CLI: the package keeps importing them eagerly.
_LAYER_MODULES = tuple(
    f"auditscore.{name}"
    for name in ("cli", "config", "parsers", "scoring", "store", "analysis", "render")
)


def test_package_import_loads_no_module_of_the_package():
    probe = (
        "import sys; before = set(sys.modules); import auditscore; "
        "print(*sorted(set(sys.modules) - before))"
    )
    completed = run_child("-c", probe, text=True)
    assert (completed.returncode, completed.stderr) == (0, "")
    loaded = completed.stdout.split()
    assert "auditscore" in loaded
    assert [name for name in loaded if name.startswith("auditscore.")] == []


def test_cli_import_loads_the_layers_and_defers_what_few_commands_use():
    # Only what the import adds counts: site may load modules of its own.
    probe = (
        "import sys; before = set(sys.modules); import auditscore.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    completed = run_child("-c", probe, text=True)
    assert (completed.returncode, completed.stderr) == (0, "")
    loaded = set(completed.stdout.split())
    assert [name for name in _DEFERRED_MODULES if name in loaded] == []
    assert [name for name in _LAYER_MODULES if name not in loaded] == []


# ---------------------------------------------------------------------------
# Collector policy: main pauses the cyclic collector, run freezes the heap
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("verbose", [False, True], ids=["plain", "verbose"])
def test_parse_of_a_large_xccdf_makes_no_collector_pass(capsys, tmp_path, verbose):
    # An element tree holds no reference cycles, so every pass over it is
    # wasted work: the paused collector makes none while the command runs,
    # whether it tallies by the flat scan or, under --verbose, by the tree.
    report = _large_xccdf(tmp_path)
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        code = main(
            ["parse", "--tool", "openscap-cis", str(report), "--json"]
            + (["--verbose"] if verbose else [])
        )
    finally:
        gc.callbacks.remove(count)
    capsys.readouterr()
    assert (code, passes) == (0, [])


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["parse", "--tool", "aide", "{data}/aide-full.txt"], 0),
        (["parse", "--tool", "lynis", "{tmp}/absent.dat"], 2),
        (["score", "--manifest", "{data}/manifest-baseline.yaml", "--min-score", "60"], 3),
        (["--help"], 0),
        (["--version"], 0),
        (["parse", "--no-such-option"], 2),
    ],
    ids=["exit-0", "exit-2", "exit-3", "help", "version", "usage-error"],
)
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_main_restores_the_collector_state(capsys, data_dir, tmp_path, argv, expected, enabled):
    argv = [arg.format(data=data_dir, tmp=tmp_path) for arg in argv]
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        code = main(argv)
        assert (code, gc.isenabled()) == (expected, enabled)
    finally:
        (gc.enable if was_enabled else gc.disable)()
    capsys.readouterr()


def test_run_freezes_the_heap_and_exits_with_the_code(monkeypatch):
    monkeypatch.setattr(cli, "main", lambda: 3)
    try:
        with pytest.raises(SystemExit) as exited:
            cli.run()
        assert exited.value.code == 3
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
