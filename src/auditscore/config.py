"""Configuration and score manifest loading: weight profiles, history
path, scan commands, and the tool-to-report map of ``score --manifest``.

Everything runs with zero configuration: the default weight profile is
embedded and the default scan commands cover stock installations of the
six tools. A YAML file (path via ``--config`` or the ``AUDITSCORE_CONFIG``
environment variable) overrides any subset; see docs/formats.md for the
schema.
"""

from __future__ import annotations

import math
import os
import socket
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Mapping

import yaml

from .errors import ValidationError
from .model import PENALTY_FIELDS, Severity, ToolKind, WeightProfile
from .runner import ToolInvocation
from .scoring import TOOLS

CONFIG_ENV_VAR = "AUDITSCORE_CONFIG"

DEFAULT_HISTORY_PATH = Path("auditscore-history.jsonl")
DEFAULT_OUTPUT_DIR = Path("scan-reports")
DEFAULT_TARGET = "127.0.0.1"
DEFAULT_DATASTREAM = "/usr/share/xml/scap/ssg/content/ssg-ubuntu2204-ds.xml"

DEFAULT_TIMEOUT = 3600.0
# One week; poll(2) takes an int of milliseconds, which ends at 24.8 days.
MAX_TIMEOUT = 7 * 24 * 3600.0


@dataclass(frozen=True)
class RunnerSettings:
    """Finished scan invocations: the defaults in ``TOOLS`` with the
    ``runner`` config section applied."""

    checks: Mapping[ToolKind, ToolInvocation]
    # Integrity checkers only: the init invocation and the database whose
    # presence blocks a re-init.
    inits: Mapping[ToolKind, tuple[ToolInvocation, Path]]
    substitutions: Mapping[str, str]


@dataclass(frozen=True)
class AppConfig:
    weights: WeightProfile
    history_path: Path
    runner: RunnerSettings


def _require_mapping(value: Any, context: str, code: str = "CONFIG_INVALID") -> Mapping:
    if not isinstance(value, Mapping):
        raise ValidationError(code, f"{context} must be a mapping")
    return value


def _reject_unknown(
    data: Mapping, allowed: set[str], context: str, code: str = "CONFIG_INVALID"
) -> None:
    unknown = sorted(str(key) for key in set(data) - allowed)
    if unknown:
        raise ValidationError(code, f"{context}: unknown key(s) {', '.join(unknown)}")


def _tool_by_name(name: Any, context: str, code: str = "CONFIG_INVALID") -> ToolKind:
    """The tool a config or manifest key names; ``-`` may stand for ``_``."""
    try:
        return ToolKind(str(name).replace("-", "_"))
    except ValueError:
        raise ValidationError(code, f"{context}: unknown tool {name!r}") from None


def _number(value: Any, kind: type, context: str, code: str = "CONFIG_INVALID") -> Any:
    """``kind(value)`` for a user-supplied number that is finite, is not a
    bool and, for ``int``, loses no fraction; anything else raises ``code``."""
    try:
        number = kind(value)
        if not isinstance(value, bool) and math.isfinite(number) and number == float(value):
            return number
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(code, f"{context} must be a finite {kind.__name__}, got {value!r}")


def weights_from_mapping(data: Any, context: str = "weights") -> WeightProfile:
    """Build a profile from a config mapping; defaults fill gaps."""
    data = _require_mapping(data, context)
    _reject_unknown(data, {"tool_weights", "severity_weights", *PENALTY_FIELDS}, context)
    defaults = WeightProfile()
    tool_weights = dict(defaults.tool_weights)
    for name, value in _require_mapping(data.get("tool_weights", {}), f"{context}.tool_weights").items():
        tool_weights[_tool_by_name(name, context)] = _number(
            value, float, f"{context}.tool_weights.{name}"
        )
    severity_weights = dict(defaults.severity_weights)
    for name, value in _require_mapping(
        data.get("severity_weights", {}), f"{context}.severity_weights"
    ).items():
        try:
            severity = Severity(str(name).lower())
        except ValueError:
            raise ValidationError(
                "CONFIG_INVALID", f"{context}: unknown severity {name!r}"
            ) from None
        severity_weights[severity] = _number(value, float, f"{context}.severity_weights.{name}")
    penalties = {
        name: _number(data.get(name, getattr(defaults, name)), float, f"{context}.{name}")
        for name in PENALTY_FIELDS
    }
    return WeightProfile(tool_weights, severity_weights, **penalties)


def load_weight_profile(path: Path | str) -> WeightProfile:
    """Load and validate a standalone weight profile file."""
    data = _load_yaml(Path(path))
    return weights_from_mapping(data, context=str(path))


def _load_yaml(path: Path, code: str = "CONFIG_INVALID") -> Any:
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as exc:
        raise ValidationError(code, f"cannot read {path}: {exc}") from exc
    try:
        return yaml.safe_load(text) or {}
    # A bad date or an integer of too many digits raises ValueError.
    except (yaml.YAMLError, ValueError) as exc:
        raise ValidationError(code, f"{path}: {exc}") from exc
    except RecursionError:
        raise ValidationError(code, f"{path}: nested too deeply") from None


def _runner_from_mapping(data: Mapping) -> RunnerSettings:
    _reject_unknown(data, {"output_dir", "target", "datastream", "tools", "init"}, "runner")
    output_dir = Path(str(data.get("output_dir", DEFAULT_OUTPUT_DIR)))
    checks = {
        tool: ToolInvocation(
            tool, spec.command, output_dir / spec.output_name, DEFAULT_TIMEOUT, spec.exit_codes
        )
        for tool, spec in TOOLS.items()
    }
    for name, entry in _require_mapping(data.get("tools", {}), "runner.tools").items():
        tool = _tool_by_name(name, "runner.tools")
        context = f"runner.tools.{name}"
        entry = _require_mapping(entry, context)
        _reject_unknown(entry, {"command", "timeout", "exit_codes", "output"}, context)
        base = checks[tool]
        exit_codes = entry.get("exit_codes", base.exit_code_policy)
        if not isinstance(exit_codes, (list, frozenset)):
            raise ValidationError("CONFIG_INVALID", f"{context}.exit_codes must be a list")
        timeout = _number(entry.get("timeout", base.timeout), float, f"{context}.timeout")
        if not 0 < timeout <= MAX_TIMEOUT:
            raise ValidationError(
                "CONFIG_INVALID",
                f"{context}.timeout must be greater than 0 and at most {MAX_TIMEOUT:g}, "
                f"got {timeout:g}",
            )
        checks[tool] = ToolInvocation(
            tool,
            str(entry.get("command", base.command_template)),
            output_dir / str(entry["output"]) if "output" in entry else base.output_path,
            timeout,
            frozenset(_number(code, int, f"{context}.exit_codes") for code in exit_codes),
        )
    # An init logs next to the reports, accepts only exit 0 and gets the
    # time its check command gets.
    hostname = socket.gethostname()
    inits = {
        tool: (
            ToolInvocation(
                tool,
                spec.init_command,
                output_dir / f"{tool.value}-init.log",
                checks[tool].timeout,
                frozenset({0}),
            ),
            Path(spec.database.format(hostname=hostname)),
        )
        for tool, spec in TOOLS.items()
        if spec.init_command
    }
    for name, entry in _require_mapping(data.get("init", {}), "runner.init").items():
        tool = _tool_by_name(name, "runner.init")
        context = f"runner.init.{name}"
        if tool not in inits:
            raise ValidationError(
                "CONFIG_INVALID", f"{context}: {tool.value} has no integrity database"
            )
        entry = _require_mapping(entry, context)
        _reject_unknown(entry, {"command", "database"}, context)
        invocation, database = inits[tool]
        command = str(entry.get("command", invocation.command_template))
        inits[tool] = (
            replace(invocation, command_template=command),
            Path(str(entry.get("database", database))),
        )
    substitutions = {
        "target": str(data.get("target", DEFAULT_TARGET)),
        "datastream": str(data.get("datastream", DEFAULT_DATASTREAM)),
    }
    return RunnerSettings(checks=checks, inits=inits, substitutions=substitutions)


def load_config(path: Path | str | None = None) -> AppConfig:
    """Load configuration from a file, the environment default, or defaults.

    Explicit ``path`` wins; otherwise the ``AUDITSCORE_CONFIG`` variable
    is consulted; with neither, the defaults apply, as for an empty file.
    """
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR, "").strip() or None
    data = {} if path is None else _require_mapping(_load_yaml(Path(path)), str(path))
    _reject_unknown(data, {"weights", "history", "runner"}, str(path))
    weights = weights_from_mapping(data.get("weights", {}))
    runner = _runner_from_mapping(_require_mapping(data.get("runner", {}), "runner"))
    history = Path(str(data.get("history", DEFAULT_HISTORY_PATH)))
    return AppConfig(weights=weights, history_path=history, runner=runner)


# ---------------------------------------------------------------------------
# Score manifest: maps each tool to a report file or a literal score
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ManifestEntry:
    path: Path | None = None
    score: float | None = None
    firewall: bool | None = None


@dataclass(frozen=True)
class Manifest:
    label: str | None
    host: str | None
    entries: Mapping[ToolKind, ManifestEntry]


def load_manifest(path: Path) -> Manifest:
    """Load a score manifest; report paths are relative to the manifest.

    Anything malformed, such as a literal score that is not a finite number,
    a firewall override that is not a bool, or a label or host that is a
    list or mapping, raises ``MANIFEST_INVALID``.
    """
    invalid = "MANIFEST_INVALID"
    data = _require_mapping(_load_yaml(path, invalid), f"{path}: manifest", invalid)
    _reject_unknown(data, {"label", "host", "reports"}, str(path), invalid)
    reports = _require_mapping(data.get("reports", {}), f"{path}: 'reports'", invalid)
    base = path.parent
    entries: dict[ToolKind, ManifestEntry] = {}
    for name, value in reports.items():
        tool = _tool_by_name(name, str(path), invalid)
        context = f"{path}: {name}"
        if isinstance(value, str):
            entries[tool] = ManifestEntry(path=base / value)
            continue
        if not isinstance(value, Mapping):
            raise ValidationError(invalid, f"{context}: entry must be a path string or a mapping")
        _reject_unknown(value, {"path", "score", "firewall"}, context, invalid)
        has_path = "path" in value
        if has_path == ("score" in value):
            raise ValidationError(
                invalid, f"{context}: exactly one of 'path' or 'score' is required"
            )
        firewall = value.get("firewall")
        if firewall is not None and not isinstance(firewall, bool):
            raise ValidationError(
                invalid, f"{context}: firewall must be true or false, got {firewall!r}"
            )
        if has_path:
            entries[tool] = ManifestEntry(path=base / str(value["path"]), firewall=firewall)
        else:
            score = _number(value["score"], float, f"{context}: score", invalid)
            entries[tool] = ManifestEntry(score=score, firewall=firewall)
    return Manifest(
        label=_manifest_name(data.get("label"), f"{path}: label"),
        host=_manifest_name(data.get("host"), f"{path}: host"),
        entries=entries,
    )


def _manifest_name(value: Any, context: str) -> str | None:
    """A manifest ``label``/``host``: a scalar, kept as its string form."""
    if isinstance(value, (Mapping, list, set)):
        raise ValidationError("MANIFEST_INVALID", f"{context} must be a scalar, got {value!r}")
    return None if value is None else str(value)
