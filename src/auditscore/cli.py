"""Command-line frontend: parse, score, compare, history, report, run.

Batch operation only; the consumers are administrators and CI pipelines.
Exit codes are stable across subcommands: 0 success, 2 input or
validation error, 3 composite below a requested threshold.

Machine-readable output (``--json``) for ``score`` is a single history
record line, so ``auditscore score --json >> history.jsonl`` produces a
file the ``history``/``compare``/``report`` subcommands can read back.

The CLI owns its process, so it alone sets the cyclic garbage collector's
policy; library modules never touch it. ``main`` pauses the collector for
one command and restores the caller's setting on every exit path. ``run``,
the process entry, freezes the heap before the process exits, so that
interpreter shutdown does not walk every live object again. A command's
bulk holds no reference cycles, so both skip passes that free nothing: on
``perfbench`` (seed 1, ``op_ms.p50``) the freeze saves about 5 ms on
scap-large and the pause about 3 ms on fleet-history (README has the runs).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .analysis import decompose_delta
from .config import CONFIG_ENV_VAR, AppConfig, load_config, load_manifest, load_weight_profile
from .errors import AuditError, ParseError, ValidationError
from .model import (
    TOOL_KINDS,
    CompositeAssessment,
    NormalizedScore,
    ToolKind,
    WeightProfile,
    raw_report_to_dict,
)
from .render import (
    format_assessment_text,
    format_compare_text,
    format_parse_text,
    compare_to_dict,
    render_report_json,
    render_report_markdown,
    render_report_text,
    text_line,
)
from .runner import init_integrity_database, orchestrate_scan
from .scoring import TOOLS, aggregate, normalize_report
from .store import HistoryLoad, HistoryRecord, append_record, load_history, record_to_json

_CLI_TOOL_NAMES = {tool.value.replace("_", "-"): tool for tool in ToolKind}


def _write(stream, lines: tuple[str, ...]) -> None:
    """Write each of ``lines`` to ``stream`` on one line, under the text line rule,
    and backslash-escape what it cannot encode; a reader that has gone is dropped."""
    encoding = stream.encoding or "utf-8"
    text = "".join(f"{text_line(line)}\n" for line in lines)
    try:
        print(text.encode(encoding, "backslashreplace").decode(encoding), end="", file=stream)
    except BrokenPipeError:
        _drop(stream)


def _out(*lines: str) -> None:
    """Write ``lines`` to stdout, each as one line."""
    _write(sys.stdout, lines)


def _err(*lines: str) -> None:
    """Write ``lines`` to stderr, each as one line."""
    _write(sys.stderr, lines)


def _drop(stream) -> None:
    """Send the rest of ``stream`` to the null device.

    The command carries on, and the interpreter's flush at exit cannot fail
    on the closed pipe (the "Note on SIGPIPE" in the ``signal`` docs).
    """
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _read_text(path: Path) -> str:
    # Decoded from the bytes, untranslated: a lone ``\r`` is a character of
    # its line, as it is to the parsers. A leading byte order mark is not report text.
    return path.read_bytes().decode("utf-8-sig", errors="replace")


def _score_report(
    tool: ToolKind, path: Path, firewall: bool | None, profile: WeightProfile, verbose: bool
) -> tuple[NormalizedScore, list[str]]:
    """Read, parse and normalize one report, printing its diagnostics first
    (trace notes only when ``verbose``, and only then built); returns the
    score (``raw`` is the parsed report) and the warnings."""
    source = str(path)
    report, diagnostics = TOOLS[tool].parse(_read_text(path), source, firewall, verbose)
    _err(*(f"warning: {source}: {warning}" for warning in diagnostics.warnings))
    _err(*(f"debug: {source}: {note}" for note in diagnostics.trace))
    return normalize_report(report, profile), diagnostics.warnings


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_parse(args: argparse.Namespace, config: AppConfig) -> int:
    override = {"auto": None, "active": True, "inactive": False}[args.firewall]
    score, warnings = _score_report(
        _CLI_TOOL_NAMES[args.tool], args.file, override, config.weights, args.verbose
    )
    if args.json:
        document = {
            "tool": score.tool.value,
            "source": str(args.file),
            "raw": raw_report_to_dict(score.raw),
            "score": score.value,
            "warnings": warnings,
        }
        _out(*json.dumps(document, indent=2).splitlines())
    else:
        _out(*format_parse_text(score, str(args.file)))
    return 0


def cmd_score(args: argparse.Namespace, config: AppConfig) -> int:
    if args.min_score is not None and not math.isfinite(args.min_score):
        # A NaN bound would pass every composite.
        raise ValidationError(
            "VALUE_OUT_OF_RANGE", f"--min-score must be finite, got {args.min_score}"
        )
    manifest = load_manifest(args.manifest)
    label = args.label or manifest.label or "assessment"
    host = args.host or manifest.host or os.uname().nodename
    scores: dict[ToolKind, NormalizedScore] = {}
    for tool, entry in manifest.entries.items():
        if entry.score is not None:
            scores[tool] = NormalizedScore(tool, entry.score, None)
        else:
            scores[tool], _ = _score_report(
                tool, entry.path, entry.firewall, config.weights, args.verbose
            )
    assessment = aggregate(scores, config.weights, label)
    record = HistoryRecord(assessment=assessment, host_label=host)
    if args.json:
        _out(record_to_json(record))
    else:
        _out(*format_assessment_text(assessment, host))
    if args.save or args.history:
        append_record(config.history_path, record)
        if not args.json:
            _out(f"appended to {config.history_path}")
    if args.min_score is not None and assessment.composite < args.min_score:
        _err(f"composite {assessment.composite:.2f} below required minimum {args.min_score:.2f}")
        return 3
    return 0


def _load_history(path: Path, **options) -> HistoryLoad:
    """``load_history(path, **options)``, warning of any skipped line."""
    loaded = load_history(path, **options)
    if loaded.skipped:
        _err(f"warning: skipped {loaded.skipped} corrupt line(s)")
    return loaded


def _latest_by_label(history_path: Path, labels: list[str]) -> list[HistoryRecord]:
    """The latest record of each label, in the order given, from one filtered read.

    The first label with no record raises ``UNKNOWN_LABEL``.
    """
    loaded = _load_history(history_path, newest_of=set(labels))
    latest = {record.assessment.label: record for record in loaded.records}
    for label in labels:
        if label not in latest:
            raise ValidationError(
                "UNKNOWN_LABEL", f"no assessment labeled {label!r} in {history_path}"
            )
    return [latest[label] for label in labels]


def _last_in_file(reference: str) -> CompositeAssessment:
    loaded = _load_history(Path(reference))
    if not loaded.records:
        raise ValidationError("UNKNOWN_LABEL", f"{reference}: file contains no parseable records")
    return loaded.records[-1].assessment


def cmd_compare(args: argparse.Namespace, config: AppConfig) -> int:
    # A reference names a record file when one exists there, else a stored
    # label; the history is read once, and only for labels.
    references = [args.from_ref, args.to_ref]
    labels = [reference for reference in references if not Path(reference).is_file()]
    labeled = dict(zip(labels, _latest_by_label(config.history_path, labels) if labels else ()))
    from_assessment, to_assessment = [
        labeled[reference].assessment if reference in labeled else _last_in_file(reference)
        for reference in references
    ]
    decomposition = decompose_delta(from_assessment, to_assessment)
    if args.json:
        _out(*json.dumps(compare_to_dict(decomposition), indent=2).splitlines())
    else:
        _out(*format_compare_text(decomposition))
    return 0


def cmd_history(args: argparse.Namespace, config: AppConfig) -> int:
    loaded = _load_history(config.history_path, host_filter=args.host)
    if args.json:
        for record in loaded.records:
            _out(record_to_json(record))
    else:
        for record in loaded.records:
            assessment = record.assessment
            # Escaped before it is padded, so that the column counts printed characters.
            _out(
                f"{text_line(assessment.label):<16} {assessment.timestamp.isoformat()} "
                f"composite={assessment.composite:.2f} host={record.host_label}"
            )
    return 0


def cmd_report(args: argparse.Namespace, config: AppConfig) -> int:
    records = _latest_by_label(config.history_path, args.labels)
    if args.format == "json":
        _out(*render_report_json(records).splitlines())
    elif args.format == "text":
        _out(*render_report_text(records, args.timestamps))
    else:
        _out(*render_report_markdown(records, args.timestamps))
    return 0


def cmd_run(args: argparse.Namespace, config: AppConfig) -> int:
    tools = [_CLI_TOOL_NAMES[name] for name in args.tools] if args.tools else list(TOOL_KINDS)
    outcome = orchestrate_scan(
        [config.checks[tool] for tool in tools],
        parallel=args.parallel,
        substitutions=config.substitutions,
    )
    for tool in TOOL_KINDS:
        if tool in outcome.reports:
            _out(f"{tool.value}: {outcome.reports[tool]}")
        elif tool in outcome.failures:
            error = outcome.failures[tool]
            _err(f"{tool.value}: FAILED [{error.code}] {error}")
    return 2 if outcome.failures else 0


def cmd_init_integrity_db(args: argparse.Namespace, config: AppConfig) -> int:
    tool = _CLI_TOOL_NAMES[args.tool]  # a choice, so it has an init invocation
    invocation, database = config.inits[tool]
    result = init_integrity_database(
        invocation, database, force=args.force, substitutions=config.substitutions
    )
    _out(f"{tool.value}: initialized (log: {result.report_path})")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------


# Options that several subcommands take; each declares only those it reads.
_SHARED_OPTIONS = {
    "--config": dict(type=Path, help=f"configuration file (default: ${CONFIG_ENV_VAR} if set)"),
    "--weights": dict(type=Path, help="weight profile file overriding the config"),
    "--json": dict(action="store_true", help="machine-readable output"),
    "--verbose": dict(action="store_true", help="print parser trace diagnostics to stderr"),
    "--history": dict(type=Path, help="history file overriding the config"),
}


def _add_shared_options(parser: argparse.ArgumentParser, *options: str) -> None:
    for option in options:
        parser.add_argument(option, **_SHARED_OPTIONS[option])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="auditscore",
        description=(
            "Parse security tool reports, normalize them to 0-100 scores, and "
            "aggregate a weighted composite."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse one report file and print its normalized score")
    _add_shared_options(p, "--config", "--weights", "--json", "--verbose")
    p.add_argument("--tool", required=True, choices=sorted(_CLI_TOOL_NAMES), help="report type")
    p.add_argument(
        "--firewall",
        choices=["auto", "active", "inactive"],
        default="auto",
        help="override firewall detection for vuln-scan reports",
    )
    p.add_argument("file", type=Path, help="report file to parse")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser(
        "score", help="parse a manifest of six reports, aggregate, and print the composite"
    )
    _add_shared_options(p, "--config", "--weights", "--json", "--verbose")
    p.add_argument("--manifest", required=True, type=Path, help="YAML file naming the six reports")
    p.add_argument("--label", default=None, help="assessment label (overrides manifest)")
    p.add_argument("--host", default=None, help="host label for history records")
    p.add_argument(
        "--min-score",
        type=float,
        default=None,
        help="exit with status 3 when the composite is below this threshold",
    )
    p.add_argument("--save", action="store_true", help="append the assessment to history")
    p.add_argument("--history", type=Path, help="history file (implies --save here)")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("compare", help="decompose the composite delta between two assessments")
    _add_shared_options(p, "--config", "--json", "--history")
    p.add_argument("from_ref", metavar="FROM", help="stored label or record file")
    p.add_argument("to_ref", metavar="TO", help="stored label or record file")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("history", help="list stored assessments")
    _add_shared_options(p, "--config", "--json", "--history")
    p.add_argument("--host", default=None, help="only records for this host label")
    p.set_defaults(func=cmd_history)

    p = sub.add_parser("report", help="render a score table with trends and change drivers")
    _add_shared_options(p, "--config", "--history")
    p.add_argument("labels", nargs="+", metavar="LABEL", help="stored labels, first to last")
    p.add_argument(
        "--format", choices=["markdown", "json", "text"], default="markdown", help="output format"
    )
    p.add_argument(
        "--timestamps", action="store_true", help="include record timestamps in the body"
    )
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("run", help="invoke the configured scan tools and capture reports")
    _add_shared_options(p, "--config")
    p.add_argument(
        "--tools",
        nargs="+",
        choices=sorted(_CLI_TOOL_NAMES),
        default=None,
        help="subset of tools to run (default: all six)",
    )
    p.add_argument("--parallel", action="store_true", help="run tools concurrently")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "init-integrity-db",
        help="initialize a file integrity baseline database (refuses to clobber one)",
    )
    _add_shared_options(p, "--config")
    p.add_argument(
        "--tool", required=True, help="file integrity checker to initialize",
        choices=sorted(name for name, tool in _CLI_TOOL_NAMES.items() if TOOLS[tool].init_command),
    )
    p.add_argument("--force", action="store_true", help="reinitialize even if a database exists")
    p.set_defaults(func=cmd_init_integrity_db)
    return parser


def main(argv: list[str] | None = None) -> int:
    collecting = gc.isenabled()
    gc.disable()
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exited:  # after --help, --version or a usage error
            code = exited.code
        else:
            config = load_config(args.config)
            # ``--history`` and ``--weights`` win over the config.
            if getattr(args, "history", None) is not None:
                config = config.replace(history_path=args.history)
            if getattr(args, "weights", None) is not None:
                config = config.replace(weights=load_weight_profile(args.weights))
            code = args.func(args, config)
        # Flush here, not at interpreter exit, so that a stdout that cannot
        # be written is reported like any other I/O failure; a reader that
        # has gone is not one.
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            _drop(sys.stdout)
        return code
    except ParseError as exc:
        _err(f"error[{exc.code}] {exc.location()}: {exc}")
        return 2
    except AuditError as exc:
        _err(f"error[{exc.code}]: {exc}")
        return 2
    except OSError as exc:
        _err(f"error[IO_FAILURE]: {exc}")
        return 2
    finally:
        if collecting:
            gc.enable()
        # After an error, drop what stdout cannot take, so that the
        # interpreter's flush at exit has nothing left to fail on.
        try:
            sys.stdout.flush()
        except OSError:
            _drop(sys.stdout)


def run() -> None:
    code = main()
    # Shutdown's full collections skip frozen objects; every file the
    # command wrote is closed already.
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    run()
