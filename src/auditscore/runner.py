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

from pathlib import Path
from typing import Mapping, Sequence

from .errors import RunnerError, ValidationError
from .model import TOOL_KINDS, Frozen, ToolKind, Value

# One week; poll(2) takes an int of milliseconds, which ends at 24.8 days.
MAX_TIMEOUT = 7 * 24 * 3600.0


class ToolInvocation(Frozen):
    """One external scan command and how to judge its outcome."""

    __slots__ = ("tool", "command_template", "output_path", "timeout", "exit_code_policy")

    def __init__(
        self,
        tool: ToolKind,
        command_template: str,
        output_path: Path,
        timeout: float = 3600.0,
        exit_code_policy: frozenset[int] = frozenset({0}),
    ):
        # NaN fails the comparison too.
        if not 0 < timeout <= MAX_TIMEOUT:
            raise ValidationError(
                "VALUE_OUT_OF_RANGE",
                f"timeout must be greater than 0 and at most {MAX_TIMEOUT:g}, got {timeout}",
            )
        self._init(tool, command_template, Path(output_path), timeout, frozenset(exit_code_policy))


class InvocationResult(Frozen):
    __slots__ = ("report_path", "exit_code")

    def __init__(self, report_path: Path, exit_code: int):
        self._init(report_path, exit_code)


class ScanOutcome(Value):
    """Partial-failure result: report paths and errors, both by tool."""

    __slots__ = ("reports", "failures")

    def __init__(
        self,
        reports: dict[ToolKind, Path] | None = None,
        failures: dict[ToolKind, RunnerError] | None = None,
    ):
        self.reports = {} if reports is None else reports
        self.failures = {} if failures is None else failures


def _render_command(invocation: ToolInvocation, substitutions: Mapping[str, str]) -> list[str]:
    # shlex, subprocess and the thread pool are imported where they are
    # used: only ``run`` and ``init-integrity-db`` start processes, and
    # every other command would pay for loading them.
    import shlex

    values = {"output": str(invocation.output_path), **substitutions}
    try:
        # Split before filling in, so that each placeholder fills exactly one
        # argument. ``{output.x}`` and ``{output[x]}`` fail as lookups, an open
        # quote in shlex.
        argv = [token.format(**values) for token in shlex.split(invocation.command_template)]
    except (KeyError, IndexError, ValueError, AttributeError, TypeError) as exc:
        raise RunnerError(
            "TEMPLATE_INVALID",
            f"{invocation.tool.value}: cannot render command template: {exc}",
        ) from exc
    if not argv or not argv[0]:
        raise RunnerError("TEMPLATE_INVALID", f"{invocation.tool.value}: empty command")
    return argv


def invoke_tool(
    invocation: ToolInvocation, substitutions: Mapping[str, str] | None = None
) -> InvocationResult:
    """Run one scan command and return the path of its captured report.

    The template may reference ``{output}`` plus any supplied
    substitution (``{target}``, ``{datastream}``, ...). When the tool
    prints its report to stdout instead of writing ``{output}``, the
    captured stdout is written there. A report left at ``{output}`` by an
    earlier run is removed before the tool starts. Raises
    ``TOOL_NOT_FOUND``, ``TOOL_NOT_EXECUTABLE`` (the command exists but
    cannot be started), ``TIMEOUT_EXCEEDED`` (partial output discarded),
    ``UNEXPECTED_EXIT_CODE``, ``OUTPUT_MISSING`` or ``IO_FAILURE`` (the
    report cannot be removed or written).
    """
    import subprocess

    argv = _render_command(invocation, substitutions or {})
    output_path = invocation.output_path
    try:
        output_path.parent.mkdir(parents=True, exist_ok=True)
        output_path.unlink(missing_ok=True)
    except OSError as exc:
        raise RunnerError("IO_FAILURE", f"{invocation.tool.value}: {exc}") from None
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
    except OSError as exc:  # no execute permission, not a program, ...
        raise RunnerError(
            "TOOL_NOT_EXECUTABLE",
            f"{invocation.tool.value}: cannot execute {argv[0]!r}: {exc.strerror}",
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
        if not completed.stdout:
            raise RunnerError(
                "OUTPUT_MISSING",
                f"{invocation.tool.value}: {output_path} was not written and the "
                "command produced no stdout",
            )
        try:
            output_path.write_text(completed.stdout, encoding="utf-8")
        except OSError as exc:
            raise RunnerError("IO_FAILURE", f"{invocation.tool.value}: {exc}") from None
    return InvocationResult(output_path, completed.returncode)


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

    def attempt(invocation: ToolInvocation) -> InvocationResult | RunnerError:
        try:
            return invoke_tool(invocation, substitutions)
        except RunnerError as exc:
            return exc

    if parallel and len(invocations) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=len(invocations)) as pool:
            results = list(pool.map(attempt, invocations))
    else:
        results = list(map(attempt, invocations))

    by_tool = {invocation.tool: result for invocation, result in zip(invocations, results)}
    outcome = ScanOutcome()
    for tool in TOOL_KINDS:
        result = by_tool.get(tool)
        if isinstance(result, RunnerError):
            outcome.failures[tool] = result
        elif result is not None:
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
