"""What only a whole process shows: the scripts, README's Library example,
the exit status ``cli.run`` hands to the interpreter, and ``run`` with
stand-in scanners, each fed the reports ``scripts/make_sample_reports.py``
writes."""

import re
import shlex

import pytest
import yaml

from .conftest import ROOT, run_child


@pytest.fixture(scope="module")
def samples(tmp_path_factory):
    directory = tmp_path_factory.mktemp("samples")
    completed = run_child(str(ROOT / "scripts" / "make_sample_reports.py"), str(directory))
    assert completed.returncode == 0, completed.stderr
    return directory


def _cli(*argv, **kwargs):
    return run_child("-m", "auditscore.cli", *argv, **kwargs)


def _composite_line(manifest):
    completed = _cli("score", "--manifest", str(manifest))
    assert completed.returncode == 0, completed.stderr
    return [line for line in completed.stdout.splitlines() if line.startswith(b"composite:")]


def test_reproduce_hardening_analysis_exits_0(tmp_path):
    completed = run_child(str(ROOT / "scripts" / "reproduce_hardening_analysis.py"), cwd=tmp_path)
    assert completed.returncode == 0, completed.stderr


def test_a_failed_gate_exits_3_and_prints_the_same_score(samples):
    # cli.run does work between main() and SystemExit: only a child sees the status.
    argv = ["score", "--manifest", str(samples / "manifest.yaml")]
    scored = _cli(*argv)
    gated = _cli(*argv, "--min-score", "101")
    assert (scored.returncode, gated.returncode) == (0, 3)
    assert gated.stdout == scored.stdout


def test_readme_library_example_runs_as_written(samples):
    readme = (ROOT / "README.md").read_text()
    example = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    # Development mode reports a file the example leaves unclosed.
    completed = run_child(
        "-X", "dev", "-W", "error::ResourceWarning", "-c", example, cwd=samples, text=True
    )
    assert (completed.returncode, completed.stderr) == (0, "")


# Four stand-ins write the report named {output}, two print it to stdout. The
# default report names are the sample names, so the sample manifest scores
# the captured reports as well.
_STAND_INS = {
    "lynis": "cp lynis-report.dat {output}",
    "openscap_standard": "cp openscap-standard.xml {output}",
    "aide": "cat aide-check.txt",
    "tripwire": "cat tripwire-check.txt",
    "openscap_cis": "cp openscap-cis.xml {output}",
    "vuln_scan": "cp nmap-scan.xml {output}",
}


def _config(tmp_path, scan, tools):
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({"runner": {"output_dir": str(scan), "tools": tools}}))
    return str(config)


def test_run_captures_six_stand_in_reports_that_score_as_the_samples(samples, tmp_path):
    scan = tmp_path / "scan"
    tools = {tool: {"command": command} for tool, command in _STAND_INS.items()}
    completed = _cli("run", "--config", _config(tmp_path, scan, tools), cwd=samples)
    assert completed.returncode == 0, completed.stderr
    assert len(completed.stdout.splitlines()) == 6
    (scan / "manifest.yaml").write_bytes((samples / "manifest.yaml").read_bytes())
    expected = _composite_line(samples / "manifest.yaml")
    assert len(expected) == 1
    assert _composite_line(scan / "manifest.yaml") == expected


def test_run_accepts_a_configured_exit_code_and_writes_the_configured_name(samples, tmp_path):
    stand_in = tmp_path / "lynis-exit-3"
    report = shlex.quote(str(samples / "lynis-report.dat"))
    stand_in.write_text(f'#!/bin/sh\ncp {report} "$1"\nexit 3\n')
    stand_in.chmod(0o755)
    scan = tmp_path / "custom-scan"
    lynis = {
        "command": f"{shlex.quote(str(stand_in))} {{output}}",
        "timeout": 30,
        "exit_codes": [0, 3],
        "output": "custom-lynis.dat",
    }
    config = _config(tmp_path, scan, {"lynis": lynis})
    completed = _cli("run", "--config", config, "--tools", "lynis", text=True)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout == f"lynis: {scan / 'custom-lynis.dat'}\n"
