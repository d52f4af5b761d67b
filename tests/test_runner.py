import os
import stat

import pytest

from auditscore.errors import RunnerError, ValidationError
from auditscore.model import ToolKind
from auditscore.parsers import parse_lynis
from auditscore.runner import (
    ToolInvocation,
    init_integrity_database,
    invoke_tool,
    orchestrate_scan,
)


def _fake_tool(tmp_path, name: str, script_body: str) -> str:
    path = tmp_path / name
    path.write_text("#!/bin/sh\n" + script_body)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


@pytest.fixture
def out_dir(tmp_path):
    return tmp_path / "reports"


def test_tool_writing_its_own_output(tmp_path, out_dir):
    exe = _fake_tool(tmp_path, "fake-lynis", 'echo "hardening_index=59" > "$1"\n')
    invocation = ToolInvocation(
        tool=ToolKind.LYNIS,
        command_template=f"{exe} {{output}}",
        output_path=out_dir / "lynis-report.dat",
    )
    result = invoke_tool(invocation)
    assert result.report_path.read_text().strip() == "hardening_index=59"
    assert result.exit_code == 0
    # the captured report feeds straight into parsing
    report, _ = parse_lynis(result.report_path.read_text())
    assert report.hardening_index == 59


def test_stdout_captured_when_tool_prints_report(tmp_path, out_dir):
    exe = _fake_tool(
        tmp_path,
        "fake-aide",
        'echo "Added entries: 3"\necho "Removed entries: 0"\necho "Changed entries: 1"\nexit 5\n',
    )
    invocation = ToolInvocation(
        tool=ToolKind.AIDE,
        command_template=exe,
        output_path=out_dir / "aide-check.txt",
        exit_code_policy=frozenset(range(8)),
    )
    result = invoke_tool(invocation)
    assert "Added entries: 3" in result.report_path.read_text()
    assert result.exit_code == 5


def test_missing_binary(out_dir):
    invocation = ToolInvocation(
        tool=ToolKind.TRIPWIRE,
        command_template="definitely-not-installed-anywhere --check",
        output_path=out_dir / "tw.txt",
    )
    with pytest.raises(RunnerError) as excinfo:
        invoke_tool(invocation)
    assert excinfo.value.code == "TOOL_NOT_FOUND"


def test_timeout_discards_partial_output(tmp_path, out_dir):
    exe = _fake_tool(
        tmp_path, "fake-slow", 'echo "partial" > "$1"\nsleep 5\necho "done" >> "$1"\n'
    )
    invocation = ToolInvocation(
        tool=ToolKind.VULN_SCAN,
        command_template=f"{exe} {{output}}",
        output_path=out_dir / "scan.xml",
        timeout=0.3,
    )
    with pytest.raises(RunnerError) as excinfo:
        invoke_tool(invocation)
    assert excinfo.value.code == "TIMEOUT_EXCEEDED"
    assert not (out_dir / "scan.xml").exists()


def test_unexpected_exit_code(tmp_path, out_dir):
    exe = _fake_tool(tmp_path, "fake-broken", 'echo "boom" >&2\nexit 9\n')
    invocation = ToolInvocation(
        tool=ToolKind.AIDE,
        command_template=exe,
        output_path=out_dir / "aide.txt",
        exit_code_policy=frozenset(range(8)),
    )
    with pytest.raises(RunnerError) as excinfo:
        invoke_tool(invocation)
    assert excinfo.value.code == "UNEXPECTED_EXIT_CODE"
    assert "9" in str(excinfo.value)


def test_accepted_nonzero_exit_code(tmp_path, out_dir):
    exe = _fake_tool(tmp_path, "fake-tw", 'echo "Total objects scanned: 10"\nexit 7\n')
    invocation = ToolInvocation(
        tool=ToolKind.TRIPWIRE,
        command_template=exe,
        output_path=out_dir / "tw.txt",
        exit_code_policy=frozenset(range(8)),
    )
    assert invoke_tool(invocation).exit_code == 7


def test_output_missing(tmp_path, out_dir):
    exe = _fake_tool(tmp_path, "fake-silent", "exit 0\n")
    invocation = ToolInvocation(
        tool=ToolKind.LYNIS,
        command_template=exe,
        output_path=out_dir / "report.dat",
    )
    with pytest.raises(RunnerError) as excinfo:
        invoke_tool(invocation)
    assert excinfo.value.code == "OUTPUT_MISSING"


def test_template_substitutions(tmp_path, out_dir):
    exe = _fake_tool(tmp_path, "fake-nmap", 'echo "<nmaprun target=$2/>" > "$1"\n')
    invocation = ToolInvocation(
        tool=ToolKind.VULN_SCAN,
        command_template=f"{exe} {{output}} {{target}}",
        output_path=out_dir / "scan.xml",
    )
    result = invoke_tool(invocation, {"target": "10.10.1.1"})
    assert "10.10.1.1" in result.report_path.read_text()


def test_unknown_placeholder_is_template_error(out_dir):
    # Also a bad attribute or index lookup, an unclosed quote and a NUL.
    for template in ("echo {nonexistent}", "echo {output.x}", "echo {output[a]}",
                     "echo '{output}", "echo {output}\0"):
        invocation = ToolInvocation(
            tool=ToolKind.LYNIS,
            command_template=template,
            output_path=out_dir / "x",
        )
        with pytest.raises(RunnerError) as excinfo:
            invoke_tool(invocation)
        assert excinfo.value.code == "TEMPLATE_INVALID", template


def test_invalid_timeout_rejected(out_dir):
    with pytest.raises(ValidationError):
        ToolInvocation(
            tool=ToolKind.LYNIS, command_template="x", output_path=out_dir / "x", timeout=0
        )


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def _two_invocations(tmp_path, out_dir):
    lynis = _fake_tool(tmp_path, "fake-lynis", 'echo "hardening_index=59" > "$1"\n')
    aide = _fake_tool(tmp_path, "fake-aide", 'echo "Added entries: 1"\nexit 4\n')
    return [
        ToolInvocation(
            tool=ToolKind.LYNIS,
            command_template=f"{lynis} {{output}}",
            output_path=out_dir / "lynis.dat",
        ),
        ToolInvocation(
            tool=ToolKind.AIDE,
            command_template=aide,
            output_path=out_dir / "aide.txt",
            exit_code_policy=frozenset(range(8)),
        ),
    ]


def test_orchestration_collects_all_reports(tmp_path, out_dir):
    outcome = orchestrate_scan(_two_invocations(tmp_path, out_dir))
    assert set(outcome.reports) == {ToolKind.LYNIS, ToolKind.AIDE}
    assert outcome.failures == {}


def test_sequential_and_parallel_agree(tmp_path):
    seq_dir = tmp_path / "seq"
    par_dir = tmp_path / "par"
    sequential = orchestrate_scan(_two_invocations(tmp_path, seq_dir), parallel=False)
    parallel = orchestrate_scan(_two_invocations(tmp_path, par_dir), parallel=True)
    assert set(sequential.reports) == set(parallel.reports)
    assert [p.name for p in sequential.reports.values()] == [
        p.name for p in parallel.reports.values()
    ]


def test_partial_failure_does_not_abort(tmp_path, out_dir):
    invocations = _two_invocations(tmp_path, out_dir)
    invocations.append(
        ToolInvocation(
            tool=ToolKind.TRIPWIRE,
            command_template="no-such-binary-xyz --check",
            output_path=out_dir / "tw.txt",
        )
    )
    outcome = orchestrate_scan(invocations)
    assert set(outcome.reports) == {ToolKind.LYNIS, ToolKind.AIDE}
    assert set(outcome.failures) == {ToolKind.TRIPWIRE}
    assert outcome.failures[ToolKind.TRIPWIRE].code == "TOOL_NOT_FOUND"


def test_duplicate_tool_rejected(tmp_path, out_dir):
    invocations = _two_invocations(tmp_path, out_dir)
    invocations.append(invocations[0])
    with pytest.raises(RunnerError) as excinfo:
        orchestrate_scan(invocations)
    assert excinfo.value.code == "DUPLICATE_TOOL"


def test_failure_ordering_is_canonical(tmp_path, out_dir):
    # Submit in reverse canonical order; failures come back in canonical order.
    invocations = [
        ToolInvocation(
            tool=tool,
            command_template="no-such-binary-xyz",
            output_path=out_dir / f"{tool.value}.txt",
        )
        for tool in [ToolKind.VULN_SCAN, ToolKind.AIDE, ToolKind.LYNIS]
    ]
    outcome = orchestrate_scan(invocations)
    assert list(outcome.failures) == [ToolKind.LYNIS, ToolKind.AIDE, ToolKind.VULN_SCAN]


def test_runner_writes_only_inside_its_output_paths(tmp_path, out_dir):
    invocations = _two_invocations(tmp_path, out_dir)
    before = set(os.listdir(tmp_path))
    _ = orchestrate_scan(invocations)
    after = set(os.listdir(tmp_path))
    assert after - before == {out_dir.name}


# ---------------------------------------------------------------------------
# Integrity database initialization
# ---------------------------------------------------------------------------


def test_init_refuses_existing_database(tmp_path, out_dir):
    database = tmp_path / "aide.db"
    database.write_text("baseline")
    exe = _fake_tool(tmp_path, "fake-init", 'echo "initialized"\n')
    invocation = ToolInvocation(
        tool=ToolKind.AIDE, command_template=exe, output_path=out_dir / "init.log"
    )
    with pytest.raises(RunnerError) as excinfo:
        init_integrity_database(invocation, database)
    assert excinfo.value.code == "DATABASE_EXISTS"


def test_init_force_overrides(tmp_path, out_dir):
    database = tmp_path / "aide.db"
    database.write_text("baseline")
    exe = _fake_tool(tmp_path, "fake-init", 'echo "initialized"\n')
    invocation = ToolInvocation(
        tool=ToolKind.AIDE, command_template=exe, output_path=out_dir / "init.log"
    )
    result = init_integrity_database(invocation, database, force=True)
    assert result.report_path.read_text().strip() == "initialized"


def test_init_runs_when_no_database(tmp_path, out_dir):
    exe = _fake_tool(tmp_path, "fake-init", 'echo "initialized"\n')
    invocation = ToolInvocation(
        tool=ToolKind.TRIPWIRE, command_template=exe, output_path=out_dir / "init.log"
    )
    result = init_integrity_database(invocation, tmp_path / "absent.twd")
    assert result.exit_code == 0
