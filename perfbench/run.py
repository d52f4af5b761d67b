#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the auditscore CLI.

    python3 perfbench/run.py --workload ci-gate --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client: the next CLI call starts
after the previous one has been reaped, as cron jobs and CI gates call
the tool. With ``--trace 0`` every operation is a child process,
``python3 -m auditscore.cli ...`` against this checkout's ``src/``, timed
from spawn to reap, with its peak RSS read from ``os.wait4``. With
``--trace 1`` the same argv runs in-process through
``auditscore.cli.main`` with spans around each layer (see tracing.py),
alternating with untraced in-process runs to measure the overhead.

Every operation's exit code and output is checked against values the
benchmark computes itself (see workloads.py); a failed operation counts
in ``failed`` and stays out of the latency samples. Every metric is
printed by name with its unit and sample count; the last line of stdout
is the JSON result, and ``.perfbench/`` receives the full results and
the spans of traced runs.
"""

from __future__ import annotations

import argparse
import gc
import io
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SPEC = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 3
PROBE_REPEATS = 7
MIB = 1024 * 1024

UNITS = {
    "setup_s": "s",
    "op_ms.p50": "ms",
    "peak_rss_mib": "MiB",
    "peak_rss_mib.p50": "MiB",
    "error_rate": "ratio",
    **{f"{kind}_ms.{q}": "ms" for kind in ("score", "history", "compare", "report", "report_json")
       for q in ("p50", "p90")},
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "parsers.xml_tokenize_ms": "ms",
    "parsers.bytes_in": "bytes",
    "parsers.rule_results": "count",
    "parsers.findings": "count",
    "parsers.trace_notes": "count",
    "parsers.trace_notes_emitted": "count",
    "parsers.trace_useful_ratio": "ratio",
    "parsers.peak_traced_mib": "MiB",
    "store.load_history_calls": "count",
    "store.bytes_read": "bytes",
    "store.records_decoded": "count",
    "store.records_used": "count",
    "store.decode_useful_ratio": "ratio",
    "store.lines_skipped": "count",
    "trace.op_ms": "ms",
    "trace.unspanned_ms": "ms",
    "trace.overhead_pct": "%",
    **{metric: "ms" for metric in tracing.SELF_TIME_METRICS.values()},
}

# Per-layer metrics taken from one traced pass.
PASS_METRICS = (
    *tracing.SELF_TIME_METRICS.values(),
    "parsers.bytes_in",
    "parsers.rule_results",
    "parsers.findings",
    "parsers.trace_notes",
    "parsers.trace_notes_emitted",
    "parsers.trace_useful_ratio",
    "store.load_history_calls",
    "store.bytes_read",
    "store.records_decoded",
    "store.records_used",
    "store.decode_useful_ratio",
    "store.lines_skipped",
    "trace.op_ms",
    "trace.unspanned_ms",
)


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (missing program, layer, ...)."""


def load_program():
    """Import auditscore from this checkout's ``src/`` and the harness modules."""
    if not (SRC / "auditscore" / "__init__.py").is_file():
        raise BenchError(f"no auditscore package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import auditscore

    if not Path(auditscore.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"auditscore imported from {auditscore.__file__}, not from {SRC}")
    import workloads

    return workloads


def child_env() -> dict[str, str]:
    """The caller's environment without its auditscore config or interpreter
    settings (such as PYTHONDONTWRITEBYTECODE or PYTHONUNBUFFERED), so that
    children run as an installed CLI does, with cached bytecode."""
    env = {
        k: v for k, v in os.environ.items()
        if k != "AUDITSCORE_CONFIG" and not (k.startswith("PYTHON") and k != "PYTHONHOME")
    }
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], env: dict, cwd: Path, stdout, stderr) -> tuple[int, float, float]:
    """Run one child to completion: exit code, wall ms spawn to reap, peak RSS MiB."""
    start = time.perf_counter_ns()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=env, cwd=cwd)
    _, status, usage = os.wait4(proc.pid, 0)
    wall_ms = (time.perf_counter_ns() - start) / 1e6
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall_ms, usage.ru_maxrss * 1024 / MIB


def check_child_imports(env: dict) -> None:
    """The children must import this checkout's auditscore, not an installed one."""
    found = subprocess.run(
        [sys.executable, "-c", "import auditscore; print(auditscore.__file__)"],
        env=env, cwd=WORK, capture_output=True, text=True, check=False,
    )
    path = found.stdout.strip()
    if found.returncode != 0 or not Path(path).resolve().is_relative_to(SRC):
        raise BenchError(f"children import auditscore from {path!r}, not from {SRC}")


class Runner:
    """Runs and checks operations, as children or in-process, and counts outcomes."""

    def __init__(self, env: dict) -> None:
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.out = WORK / "op.stdout"
        self.err = WORK / "op.stderr"

    def fail(self, op, reason: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED {op.kind} {' '.join(op.argv)}: {reason}", file=sys.stderr)

    def child(self, op) -> tuple[float, float] | None:
        """Wall ms and peak RSS MiB of a checked op, or None when it failed."""
        self.attempted += 1
        with open(self.out, "w+b") as out, open(self.err, "w+b") as err:
            code, wall_ms, rss = spawn(
                [sys.executable, "-m", "auditscore.cli", *op.argv], self.env, WORK, out, err
            )
            out.seek(0)
            err.seek(0)
            stdout = out.read().decode("utf-8", "replace")
            stderr = err.read().decode("utf-8", "replace")
        reason = op.check(code, stdout, stderr)
        if reason is not None:
            self.fail(op, reason)
            return None
        return wall_ms, rss

    def in_process(self, cli, op) -> tuple[float, str] | None:
        """In-process ms and captured stderr of a checked op, or None."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter_ns()
            code = cli.main(op.argv)
            elapsed_ms = (time.perf_counter_ns() - start) / 1e6
        reason = op.check(code, out.getvalue(), err.getvalue())
        if reason is not None:
            self.fail(op, reason)
            return None
        return elapsed_ms, err.getvalue()


def set_up(workloads, runner: Runner, name: str, seed: int, size: dict, repeats: int):
    """Generate the inputs and run one discarded warm-up op, ``repeats`` times.

    Returns the last inputs and each set-up's wall time in seconds.
    """
    times = []
    for repeat in range(repeats):
        directory = WORK / "inputs" / f"{name}-{repeat}"
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        start = time.perf_counter()
        inputs = workloads.WORKLOADS[name](directory, seed, size)
        runner.child(inputs.warmup)
        times.append(time.perf_counter() - start)
        if repeat < repeats - 1:
            shutil.rmtree(directory)
    return inputs, times


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: an observed sample, not an interpolation."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(runner: Runner, inputs, seconds: float, setup_times: list[float]) -> dict:
    """The closed loop of child processes; returns metric -> (value, n).

    No op starts after ``seconds`` once one whole pass has run.
    """
    samples: dict[str, list[float]] = {op.kind: [] for op in inputs.passes[0]}
    rss: list[float] = []
    deadline = time.perf_counter() + seconds
    for count, op in enumerate(itertools.chain.from_iterable(itertools.cycle(inputs.passes)), 1):
        result = runner.child(op)
        if result is not None:
            samples[op.kind].append(result[0])
            rss.append(result[1])
        if count >= len(inputs.passes[0]) and time.perf_counter() >= deadline:
            break
    metrics = {"setup_s": (statistics.median(setup_times), len(setup_times))}
    for kind, values in samples.items():
        if values:
            metrics[f"{kind}_ms.p50"] = (statistics.median(values), len(values))
        # A p90 needs at least ten samples beyond it.
        if len(values) >= 100:
            metrics[f"{kind}_ms.p90"] = (percentile(values, 0.9), len(values))
    # One op of each kind, in its median time. A kind without a successful
    # op makes the run incorrect; it is reported as zero, not as a gap.
    metrics["op_ms.p50"] = (
        sum(statistics.median(v) if v else 0.0 for v in samples.values()),
        min(len(v) for v in samples.values()),
    )
    # The highest child is printed, the median child is gated: compare's
    # peak flips between two levels from run to run (see README.md).
    metrics["peak_rss_mib"] = (max(rss) if rss else 0.0, len(rss))
    metrics["peak_rss_mib.p50"] = (statistics.median(rss) if rss else 0.0, len(rss))
    return metrics


def interpreter_probes(env: dict) -> dict:
    """Bare interpreter start and ``import auditscore.cli`` on top of it."""
    bare, imported = [], []
    for _ in range(PROBE_REPEATS):
        for argv, into in (([sys.executable, "-c", "pass"], bare),
                           ([sys.executable, "-c", "import auditscore.cli"], imported)):
            code, wall_ms, _ = spawn(argv, env, WORK, subprocess.DEVNULL, subprocess.DEVNULL)
            if code != 0:
                raise BenchError(f"{' '.join(argv[1:])} exited {code}")
            into.append(wall_ms)
    interpreter = statistics.median(bare)
    return {
        "cli.interpreter_ms": (interpreter, len(bare)),
        "cli.import_ms": (statistics.median(imported) - interpreter, len(imported)),
    }


def pass_counters(calls: list[tuple], stderr: str, records_used: int,
                  line_counts: dict) -> dict[str, float]:
    """Work counters of one traced pass, from the wrapped calls' arguments and results."""
    c: dict[str, float] = defaultdict(float)
    for key, span, args, kwargs, result in calls:
        if span in tracing.PARSER_SPANS:
            report, diagnostics = result
            c["parsers.bytes_in"] += len(args[0].encode("utf-8"))
            c["parsers.trace_notes"] += len(diagnostics.trace)
            if span == "parsers.xccdf":
                c["parsers.rule_results"] += (report.pass_count + report.fail_count
                                              + sum(diagnostics.excluded_results.values()))
            elif span == "parsers.nmap":
                c["parsers.findings"] += len(report.findings)
        elif span == "store.load_history":
            path = Path(args[0] if args else kwargs["path"])
            if path not in line_counts:
                text = path.read_text(encoding="utf-8")
                line_counts[path] = (len(text.encode("utf-8")),
                                     sum(1 for line in text.splitlines() if line.strip()))
            size, lines = line_counts[path]
            c["store.load_history_calls"] += 1
            c["store.bytes_read"] += size
            c["store.records_decoded"] += lines - result.skipped
            c["store.lines_skipped"] += result.skipped
    c["parsers.trace_notes_emitted"] = sum(
        1 for line in stderr.splitlines() if line.startswith("debug: ")
    )
    notes = c["parsers.trace_notes"]
    c["parsers.trace_useful_ratio"] = c["parsers.trace_notes_emitted"] / notes if notes else 0.0
    if c["store.records_decoded"]:
        c["store.records_used"] = records_used
        c["store.decode_useful_ratio"] = records_used / c["store.records_decoded"]
    return c


def traced_run(runner: Runner, inputs, seconds: float, spans_path: Path) -> dict:
    """Per-layer metrics: in-process passes, alternately traced and untraced.

    The layer numbers come from the traced pass with the median in-process
    time, so its self times plus the unspanned remainder add up to that
    pass's in-process time exactly.
    """
    import auditscore.cli as cli

    tracer = tracing.Tracer()
    tracer.install()  # fails loudly on a missing name before any op runs
    tracer.uninstall()
    untraced_ms: list[float] = []
    traced: list[tuple[float, dict]] = []
    xml_texts: list[str] = []
    line_counts: dict = {}
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        ops = inputs.passes[index % len(inputs.passes)]
        for with_spans in ((False, True) if index % 2 == 0 else (True, False)):
            first_span = len(tracer.spans)
            gc.collect()  # start each pass from a collected heap, as a new process does
            if with_spans:
                tracer.install()
            total, stderr, complete = 0.0, "", True
            try:
                for op in ops:
                    tracer.trace_id += 1
                    result = runner.in_process(cli, op)
                    if result is None:
                        complete = False
                        continue
                    total += result[0]
                    stderr += result[1]
            finally:
                tracer.uninstall()
            if not complete:
                tracer.calls.clear()
                continue
            if not with_spans:
                untraced_ms.append(total)
                continue
            tracing.require_called(inputs.required_layers, tracer.calls)
            if not xml_texts:
                xml_texts = [call[2][0] for call in tracer.calls
                             if call[1] in ("parsers.xccdf", "parsers.nmap")]
            spans = tracer.spans[first_span:]
            layers = {tracing.SELF_TIME_METRICS[name]: ms
                      for name, ms in tracing.self_times_ms(spans).items()}
            layers.update(pass_counters(tracer.calls, stderr,
                                        sum(op.records_used for op in ops), line_counts))
            layers["trace.op_ms"] = total
            layers["trace.unspanned_ms"] = total - tracing.root_time_ms(spans)
            traced.append((total, layers))
            tracer.calls.clear()
        index += 1
        if time.perf_counter() >= deadline:
            break
    if not traced or not untraced_ms:
        # Only failed ops stop a pass; the result is marked incorrect.
        return {name: (0.0, 0) for name in (*PASS_METRICS, "trace.overhead_pct",
                                            "parsers.xml_tokenize_ms", "parsers.peak_traced_mib")}

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as handle:
        for trace_id, span_id, parent_id, name, start, end in tracer.spans:
            handle.write(json.dumps({"trace_id": trace_id, "span_id": span_id,
                                     "parent_id": parent_id, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")

    traced.sort(key=lambda item: item[0])
    total, layers = traced[(len(traced) - 1) // 2]
    metrics = {name: (layers.get(name, 0.0), len(traced)) for name in PASS_METRICS}
    spanned = sum(layers.get(m, 0.0) for m in tracing.SELF_TIME_METRICS.values())
    if abs(spanned + layers["trace.unspanned_ms"] - total) > 1e-6:
        raise BenchError(f"self times {spanned} + remainder do not add up to {total}")
    traced_median = statistics.median(t for t, _ in traced)
    metrics["trace.overhead_pct"] = (
        (traced_median / statistics.median(untraced_ms) - 1.0) * 100.0, len(traced)
    )

    # The stdlib tokenizer alone on the same documents: the floor under
    # parsers.xccdf_ms + parsers.nmap_ms for a parser that builds a tree.
    tokenize = []
    for _ in range(3 if xml_texts else 0):
        start = time.perf_counter_ns()
        for text in xml_texts:
            ET.fromstring(text)
        tokenize.append((time.perf_counter_ns() - start) / 1e6)
    metrics["parsers.xml_tokenize_ms"] = (
        statistics.median(tokenize) if tokenize else 0.0, len(tokenize)
    )

    peak = 0.0
    if layers.get("parsers.bytes_in"):
        tracer.measure_memory = True
        tracer.install()
        try:
            for op in inputs.passes[0]:
                runner.in_process(cli, op)
        finally:
            tracer.uninstall()
            tracer.calls.clear()
        peak = max(tracer.parser_peaks, default=0) / MIB
    metrics["parsers.peak_traced_mib"] = (peak, 1 if peak else 0)
    return metrics


def print_metrics(metrics: dict) -> None:
    for metric, (value, n) in metrics.items():
        print(f"  {metric:<30} {value:>14.4f} {UNITS[metric]:<6} n={n}")


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    workloads = load_program()
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    size = (sizes or workloads.FULL)[workload]
    WORK.mkdir(exist_ok=True)
    env = child_env()
    check_child_imports(env)
    runner = Runner(env)
    print(f"perfbench {workload} seed={seed} seconds={seconds} trace={int(trace)}: "
          "closed loop, one client")
    inputs, setup_times = set_up(
        workloads, runner, workload, seed, size, 1 if trace else SETUP_REPEATS
    )
    try:
        if trace:
            metrics = interpreter_probes(env)
            try:
                metrics.update(traced_run(
                    runner, inputs, seconds, WORK / "spans" / f"{workload}-seed{seed}.jsonl"
                ))
            except tracing.LayerMissing as exc:
                raise BenchError(str(exc)) from None
            names = [m["name"] for m in spec["per_layer"]]
        else:
            metrics = measure(runner, inputs, seconds, setup_times)
            names = [m["name"] for m in spec["end_to_end"]]
    finally:
        shutil.rmtree(WORK / "inputs", ignore_errors=True)
    metrics["error_rate"] = (runner.failed / runner.attempted, runner.attempted)
    print_metrics(metrics)
    missing = [n for n in names if n not in metrics]
    if missing:
        raise BenchError(f"BENCHMARK.json names metrics this run did not produce: {missing}")
    results = WORK / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    results.parent.mkdir(exist_ok=True)
    results.write_text(json.dumps(
        {m: {"value": v, "unit": UNITS[m], "n": n} for m, (v, n) in metrics.items()}, indent=1
    ))
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": UNITS[n]} for n in names},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["ci-gate", "fleet-history", "scap-large"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
