"""Invoke the scanners on the local host and capture their reports.

The scan tools differ in how they emit reports: some write the file named
on their command line, others print to stdout. ``invoke_tool`` runs a
command template, enforces a timeout, and either locates the file the
tool wrote or writes the captured stdout to the expected path.

Several of the tools signal findings through nonzero exit codes (the file
integrity checkers return a bitmask of change classes, the SCAP evaluator
returns 2 when any rule fails), so each invocation carries its own set of
accepted exit codes; treating every nonzero exit as failure would
misclassify every useful integrity-check run.

File integrity databases must be initialized once, on the unmodified
system, and never silently rebuilt: reinitializing resets the baseline
and erases the very signal the checkers exist to provide. The explicit
init entry point therefore refuses to run when a database is already
present unless forced.
"""

from __future__ import annotations

import shlex
import subprocess
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .errors import RunnerError, ValidationError
from .model import ToolKind


@dataclass(frozen=True)
class ToolInvocation:
    """One external scan command and how to judge its outcome."""

    tool: ToolKind
    command_template: str
    output_path: Path
    timeout: float = 3600.0
    exit_code_policy: frozenset[int] = frozenset({0})

    def __post_init__(self):
        if self.timeout <= 0:
            raise ValidationError("VALUE_OUT_OF_RANGE", f"timeout must be > 0, got {self.timeout}")
        object.__setattr__(self, "output_path", Path(self.output_path))
        object.__setattr__(self, "exit_code_policy", frozenset(self.exit_code_policy))


@dataclass(frozen=True)
class InvocationResult:
    tool: ToolKind
    report_path: Path
    exit_code: int


@dataclass
class ScanOutcome:
    """Partial-failure result: report paths and errors, both by tool."""

    reports: dict[ToolKind, Path] = field(default_factory=dict)
    failures: dict[ToolKind, RunnerError] = field(default_factory=dict)


def _render_command(invocation: ToolInvocation, substitutions: Mapping[str, str]) -> list[str]:
    values = {"output": str(invocation.output_path), **substitutions}
    try:
        # ``{output.x}`` and ``{output[x]}`` fail as lookups, an open quote in shlex.
        argv = shlex.split(invocation.command_template.format(**values))
    except (KeyError, IndexError, ValueError, AttributeError, TypeError) as exc:
        raise RunnerError(
            "TEMPLATE_INVALID",
            f"{invocation.tool.value}: cannot render command template: {exc}",
        ) from exc
    if not argv:
        raise RunnerError("TEMPLATE_INVALID", f"{invocation.tool.value}: empty command")
    return argv


def invoke_tool(
    invocation: ToolInvocation, substitutions: Mapping[str, str] | None = None
) -> InvocationResult:
    """Run one scan command and return the path of its captured report.

    The template may reference ``{output}`` plus any supplied
    substitution (``{target}``, ``{datastream}``, ...). When the tool
    prints its report to stdout instead of writing ``{output}``, the
    captured stdout is written there. Raises ``TOOL_NOT_FOUND``,
    ``TIMEOUT_EXCEEDED`` (partial output discarded),
    ``UNEXPECTED_EXIT_CODE`` or ``OUTPUT_MISSING``.
    """
    argv = _render_command(invocation, substitutions or {})
    output_path = invocation.output_path
    output_path.parent.mkdir(parents=True, exist_ok=True)
    try:
        completed = subprocess.run(
            argv,
            capture_output=True,
            timeout=invocation.timeout,
            text=True,
            errors="replace",
        )
    except FileNotFoundError:
        raise RunnerError(
            "TOOL_NOT_FOUND", f"{invocation.tool.value}: executable {argv[0]!r} not found"
        ) from None
    except ValueError as exc:  # a NUL character in the command
        raise RunnerError(
            "TEMPLATE_INVALID", f"{invocation.tool.value}: cannot run command: {exc}"
        ) from None
    except subprocess.TimeoutExpired:
        output_path.unlink(missing_ok=True)
        raise RunnerError(
            "TIMEOUT_EXCEEDED",
            f"{invocation.tool.value}: no result within {invocation.timeout:g}s; "
            "partial output discarded",
        ) from None
    if completed.returncode not in invocation.exit_code_policy:
        stderr_tail = (completed.stderr or "").strip().splitlines()[-3:]
        detail = ("; " + " | ".join(stderr_tail)) if stderr_tail else ""
        raise RunnerError(
            "UNEXPECTED_EXIT_CODE",
            f"{invocation.tool.value}: exit code {completed.returncode} not in "
            f"{sorted(invocation.exit_code_policy)}{detail}",
        )
    if not output_path.exists():
        if completed.stdout:
            output_path.write_text(completed.stdout, encoding="utf-8")
        else:
            raise RunnerError(
                "OUTPUT_MISSING",
                f"{invocation.tool.value}: {output_path} was not written and the "
                "command produced no stdout",
            )
    return InvocationResult(invocation.tool, output_path, completed.returncode)


def orchestrate_scan(
    invocations: Sequence[ToolInvocation],
    parallel: bool = False,
    substitutions: Mapping[str, str] | None = None,
) -> ScanOutcome:
    """Run a set of scan commands, collecting successes and failures.

    One failing tool never aborts the scan; its error is recorded in the
    outcome instead. Sequential by default: the file integrity checkers
    are disk-I/O heavy and competing scans can be slower than serial
    ones, so parallelism is opt-in. Results are keyed in canonical tool
    order regardless of completion order.
    """
    seen: set[ToolKind] = set()
    for invocation in invocations:
        if invocation.tool in seen:
            raise RunnerError(
                "DUPLICATE_TOOL", f"{invocation.tool.value} appears more than once"
            )
        seen.add(invocation.tool)

    results: dict[ToolKind, InvocationResult | RunnerError] = {}

    def _run(invocation: ToolInvocation) -> None:
        try:
            results[invocation.tool] = invoke_tool(invocation, substitutions)
        except RunnerError as exc:
            results[invocation.tool] = exc

    if parallel and len(invocations) > 1:
        with ThreadPoolExecutor(max_workers=len(invocations)) as pool:
            list(pool.map(_run, invocations))
    else:
        for invocation in invocations:
            _run(invocation)

    outcome = ScanOutcome()
    for tool in ToolKind:
        if tool not in results:
            continue
        result = results[tool]
        if isinstance(result, RunnerError):
            outcome.failures[tool] = result
        else:
            outcome.reports[tool] = result.report_path
    return outcome


def init_integrity_database(
    invocation: ToolInvocation,
    database_path: Path | str,
    force: bool = False,
    substitutions: Mapping[str, str] | None = None,
) -> InvocationResult:
    """Initialize a file integrity baseline database, refusing to clobber one.

    Raises ``DATABASE_EXISTS`` when the database is already present and
    ``force`` is not set.
    """
    database_path = Path(database_path)
    if database_path.exists() and not force:
        raise RunnerError(
            "DATABASE_EXISTS",
            f"{invocation.tool.value}: {database_path} already exists; "
            "reinitializing would reset the baseline (use force to override)",
        )
    return invoke_tool(invocation, substitutions)
