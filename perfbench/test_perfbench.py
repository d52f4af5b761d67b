"""Tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import formulas
import pytest
import run

workloads = run.load_program()

SPEC = json.loads(run.SPEC.read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
OWN_METRICS = {
    "ci-gate": ["score_ms.p50", "peak_rss_mib", "error_rate"],
    "fleet-history": ["history_ms.p50", "compare_ms.p50", "report_ms.p50",
                      "report_json_ms.p50", "peak_rss_mib", "error_rate"],
    "scap-large": ["score_ms.p50", "peak_rss_mib", "error_rate"],
}


@pytest.fixture(autouse=True)
def work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    return tmp_path / "work"


def _run(workload: str, trace: bool, seed: int = 1) -> dict:
    return run.run(workload, seed, 0.05, trace, sizes=workloads.TINY)


def _printed(stdout: str) -> dict[str, str]:
    """Metric name -> unit, from the lines ``  name value unit n=N``."""
    printed = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[3].startswith("n="):
            printed[parts[0]] = parts[2]
    return printed


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(workload, trace, capsys):
    result = _run(workload, trace)
    printed = _printed(capsys.readouterr().out)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert printed[metric["name"]] == metric["unit"]
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        for name in OWN_METRICS[workload]:
            assert printed[name] == run.UNITS[name]
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_expected_composite_fails_every_score(monkeypatch):
    monkeypatch.setattr(formulas, "composite", lambda scores: 101.0)
    result = _run("ci-gate", trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2
    assert result["metrics"]["op_ms.p50"]["value"] == 0.0


def test_wrong_expected_delta_fails_compare(monkeypatch):
    original = formulas.decomposition
    monkeypatch.setattr(
        formulas, "decomposition", lambda a, b: (original(a, b)[0] + 1.0, original(a, b)[1])
    )
    result = _run("fleet-history", trace=True)
    assert not result["correct"] and result["failed"] >= 1


def test_missing_layer_fails_the_traced_run(monkeypatch):
    import auditscore.cli

    monkeypatch.delattr(auditscore.cli, "load_manifest")
    with pytest.raises(run.BenchError, match="load_manifest"):
        _run("scap-large", trace=True)


def _generate(workload: str, seed: int, directory: Path) -> dict[str, bytes]:
    directory.mkdir(parents=True)
    inputs = workloads.WORKLOADS[workload](directory, seed, workloads.TINY[workload])
    return {path.name: path.read_bytes() for path in inputs.files}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    assert _generate(workload, 7, tmp_path / "a") == _generate(workload, 7, tmp_path / "b")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_different_seeds_give_different_inputs(workload, tmp_path):
    first = _generate(workload, 7, tmp_path / "a")
    second = _generate(workload, 8, tmp_path / "b")
    assert first.keys() == second.keys()
    assert first != second


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ci-gate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
