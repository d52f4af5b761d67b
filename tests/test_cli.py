import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
import yaml
from hypothesis import HealthCheck, given, settings

import auditscore
from auditscore.cli import build_parser, load_manifest, main
from auditscore.errors import ValidationError
from auditscore.model import ToolKind
from auditscore.store import load_history

from .conftest import DATA_DIR


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    "value", [[1, 2], [], {"a": 1}, {"a"}], ids=["list", "empty-list", "mapping", "set"]
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


def _run_with_stdout(stdout, *argv):
    env = dict(os.environ, PYTHONPATH=str(Path(auditscore.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)  # block-buffered, as a pipe or file normally is
    completed = subprocess.run(
        [sys.executable, "-m", "auditscore.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=env,
        timeout=60,
    )
    return completed.returncode, completed.stderr.decode()


def _run_with_closed_stdout(*argv):
    """Run the CLI in a child whose stdout is a pipe nobody reads any more."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return _run_with_stdout(write_end, *argv)
    finally:
        os.close(write_end)


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
