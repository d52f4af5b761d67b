"""Configuration and score manifest loading: weight profiles, history
path, scan commands, and the tool-to-report map of ``score --manifest``.

Everything runs with zero configuration: the default weight profile is
embedded and the default scan commands cover stock installations of the
six tools. A YAML file (path via ``--config`` or the ``AUDITSCORE_CONFIG``
environment variable) overrides any subset; see docs/formats.md for the
schema.
"""

from __future__ import annotations

import functools
import math
import os
import reprlib
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from .errors import ValidationError
from .model import (
    DEFAULT_SEVERITY_WEIGHTS,
    DEFAULT_TOOL_WEIGHTS,
    PENALTY_FIELDS,
    Frozen,
    Severity,
    ToolKind,
    WeightProfile,
)
from .runner import ToolInvocation
from .scoring import TOOLS

CONFIG_ENV_VAR = "AUDITSCORE_CONFIG"

DEFAULT_HISTORY_PATH = Path("auditscore-history.jsonl")
DEFAULT_OUTPUT_DIR = Path("scan-reports")
DEFAULT_TARGET = "127.0.0.1"
DEFAULT_DATASTREAM = "/usr/share/xml/scap/ssg/content/ssg-ubuntu2204-ds.xml"


class AppConfig(Frozen):
    """Settings of one command; the scan invocations are the defaults in
    ``TOOLS`` with the ``runner`` config section applied."""

    __slots__ = ("weights", "history_path", "checks", "inits", "substitutions")

    def __init__(
        self,
        weights: WeightProfile,
        history_path: Path,
        checks: Mapping[ToolKind, ToolInvocation],
        # Integrity checkers only: the init invocation and the database whose
        # presence blocks a re-init.
        inits: Mapping[ToolKind, tuple[ToolInvocation, Path]],
        substitutions: Mapping[str, str],
    ):
        self._init(weights, history_path, checks, inits, substitutions)


# YAML values appear in messages through ``_show``: a short scalar exactly as
# ``repr`` shows it, anything longer or deeper cut short, since a few hundred
# bytes of YAML aliases can nest into a value of megabytes.
_SHORT = reprlib.Repr()
_SHORT.maxlevel = 2
_SHORT.maxlist = _SHORT.maxdict = _SHORT.maxset = 4
_SHORT.maxstring = _SHORT.maxlong = _SHORT.maxother = 60
_show = _SHORT.repr


def _invalid(message: str) -> ValidationError:
    """The error of every reader below; ``load_manifest`` recodes it."""
    return ValidationError("CONFIG_INVALID", message)


def _require_mapping(value: Any, context: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise _invalid(f"{context} must be a mapping")
    return value


def _reject_unknown(data: Mapping, allowed: set[str], context: str) -> None:
    unknown = sorted(str(key) for key in set(data) - allowed)
    if unknown:
        raise _invalid(f"{context}: unknown key(s) {', '.join(unknown)}")


def _tool_by_name(name: Any, context: str) -> ToolKind:
    """The tool a config or manifest key names; ``-`` may stand for ``_``."""
    try:
        return ToolKind(str(name).replace("-", "_"))
    except ValueError:
        raise _invalid(f"{context}: unknown tool {_show(name)}") from None


def _severity_by_name(name: Any, context: str) -> Severity:
    """The severity a ``severity_weights`` key names, in any case."""
    try:
        return Severity(str(name).lower())
    except ValueError:
        raise _invalid(f"{context}: unknown severity {_show(name)}") from None


def _entries(
    section: Mapping, key_of: Callable[[Any, str], Enum], context: str
) -> Iterator[tuple[Enum, Any, Any]]:
    """``(key, name, value)`` for each entry of a section keyed by tool or
    severity, ``key`` being ``key_of(name, context)``. Two names of one key
    (``vuln_scan`` and ``vuln-scan``) are invalid; neither wins."""
    seen: dict[Enum, Any] = {}
    for name, value in section.items():
        key = key_of(name, context)
        if key in seen:
            raise _invalid(
                f"{context}: {_show(seen[key])} and {_show(name)} both name {key.value}"
            )
        seen[key] = name
        yield key, name, value


def _text(value: Any, context: str) -> str:
    """A string setting: any scalar, kept as its string form; an empty value
    (YAML null), a list, a mapping or a set is invalid."""
    if value is None:
        raise _invalid(f"{context} must not be empty")
    if isinstance(value, (Mapping, list, set)):
        raise _invalid(f"{context} must be a scalar, got {_show(value)}")
    return str(value)


def _number(value: Any, kind: type, context: str) -> Any:
    """``kind(value)`` for a user-supplied number that is finite, is not a
    bool and, for ``int``, loses no fraction; anything else is invalid."""
    try:
        number = kind(value)
        if not isinstance(value, bool) and math.isfinite(number) and number == float(value):
            return number
    except (TypeError, ValueError, OverflowError):
        pass
    raise _invalid(f"{context} must be a finite {kind.__name__}, got {_show(value)}")


def weights_from_mapping(data: Any, context: str = "weights") -> WeightProfile:
    """Build a profile from a config mapping; defaults fill gaps."""
    data = _require_mapping(data, context)
    _reject_unknown(data, {"tool_weights", "severity_weights", *PENALTY_FIELDS}, context)
    tool_weights = dict(DEFAULT_TOOL_WEIGHTS)
    section = _require_mapping(data.get("tool_weights", {}), f"{context}.tool_weights")
    for tool, name, value in _entries(section, _tool_by_name, context):
        tool_weights[tool] = _number(value, float, f"{context}.tool_weights.{name}")
    severity_weights = dict(DEFAULT_SEVERITY_WEIGHTS)
    section = _require_mapping(data.get("severity_weights", {}), f"{context}.severity_weights")
    for severity, name, value in _entries(section, _severity_by_name, context):
        severity_weights[severity] = _number(value, float, f"{context}.severity_weights.{name}")
    penalties = {
        name: _number(data[name], float, f"{context}.{name}")
        for name in PENALTY_FIELDS
        if name in data
    }
    return WeightProfile(tool_weights, severity_weights, **penalties)


def load_weight_profile(path: Path | str) -> WeightProfile:
    """Load and validate a standalone weight profile file."""
    data = _load_yaml(Path(path))
    return weights_from_mapping(data, context=str(path))


@functools.cache
def _unique_key_loader():
    """PyYAML's safe loader, refusing a key given twice in one mapping.

    A plain YAML load keeps the last of two equal keys, so a repeated tool
    entry would silently replace the first. A key taken in through a ``<<``
    merge may still be overridden.
    """
    import yaml

    class UniqueKeyLoader(yaml.SafeLoader):
        def __init__(self, stream):
            super().__init__(stream)
            self._checked = set()

        def flatten_mapping(self, node):
            # Every mapping is flattened before it is built, and flattening
            # adds the merged keys to its own, so the check runs first.
            if node not in self._checked:
                self._checked.add(node)
                seen = set()
                for key_node, _ in node.value:
                    if key_node.tag == "tag:yaml.org,2002:merge":
                        continue
                    key = self.construct_object(key_node)
                    try:
                        repeated = key in seen
                        seen.add(key)
                    except TypeError:  # unhashable: the base loader reports it
                        continue
                    if repeated:
                        line = key_node.start_mark.line + 1
                        raise yaml.constructor.ConstructorError(
                            problem=f"repeated key {_show(key)} on line {line}"
                        )
            super().flatten_mapping(node)

    return UniqueKeyLoader


def _load_yaml(path: Path) -> Any:
    # Imported here: it costs about 20 ms, and most history commands read
    # no YAML file.
    import yaml

    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as exc:
        raise _invalid(f"cannot read {path}: {exc}") from exc
    try:
        return yaml.load(text, Loader=_unique_key_loader()) or {}
    # A bad date or an integer of too many digits raises ValueError.
    except (yaml.YAMLError, ValueError) as exc:
        raise _invalid(f"{path}: {exc}") from exc
    except RecursionError:
        raise _invalid(f"{path}: nested too deeply") from None


def _check(tool: ToolKind, entry: Any, output_dir: Path, context: str) -> ToolInvocation:
    """``tool``'s check invocation: its ``runner.tools`` entry over its
    defaults in ``TOOLS``; the default timeout is ``ToolInvocation``'s."""
    entry = _require_mapping(entry, context)
    _reject_unknown(entry, {"command", "timeout", "exit_codes", "output"}, context)
    spec = TOOLS[tool]
    exit_codes = entry.get("exit_codes", spec.exit_codes)
    if not isinstance(exit_codes, (list, frozenset)):
        raise _invalid(f"{context}.exit_codes must be a list")
    timeout = [_number(entry["timeout"], float, f"{context}.timeout")] if "timeout" in entry else []
    command = _text(entry.get("command", spec.command), f"{context}.command")
    output = output_dir / _text(entry.get("output", spec.output_name), f"{context}.output")
    codes = frozenset(_number(code, int, f"{context}.exit_codes") for code in exit_codes)
    try:  # ``ToolInvocation`` checks the timeout's range
        return ToolInvocation(tool, command, output, *timeout, exit_code_policy=codes)
    except ValidationError as exc:
        raise _invalid(f"{context}: {exc}") from None


def _runner_from_mapping(data: Any) -> tuple[Mapping, Mapping, Mapping]:
    """``AppConfig``'s ``checks``, ``inits`` and ``substitutions``. Entries are
    checked in the order of the file, ``tools`` first: the first bad one is named."""
    data = _require_mapping(data, "runner")
    _reject_unknown(data, {"output_dir", "target", "datastream", "tools", "init"}, "runner")
    output_dir = Path(_text(data.get("output_dir", DEFAULT_OUTPUT_DIR), "runner.output_dir"))
    section = _require_mapping(data.get("tools", {}), "runner.tools")
    checks = {
        tool: _check(tool, entry, output_dir, f"runner.tools.{name}")
        for tool, name, entry in _entries(section, _tool_by_name, "runner.tools")
    }
    checks = {tool: checks.get(tool) or _check(tool, {}, output_dir, "") for tool in TOOLS}
    hostname = os.uname().nodename
    init = {
        tool: {"command": spec.init_command, "database": spec.database.format(hostname=hostname)}
        for tool, spec in TOOLS.items()
        if spec.init_command
    }
    section = _require_mapping(data.get("init", {}), "runner.init")
    for tool, name, entry in _entries(section, _tool_by_name, "runner.init"):
        context = f"runner.init.{name}"
        if tool not in init:
            raise _invalid(f"{context}: {tool.value} has no integrity database")
        entry = _require_mapping(entry, context)
        _reject_unknown(entry, {"command", "database"}, context)
        for key in ("command", "database"):
            if key in entry:
                init[tool][key] = _text(entry[key], f"{context}.{key}")
    # An init logs next to the reports, accepts only exit 0 and gets the
    # time its check command gets.
    inits = {}
    for tool, entry in init.items():
        log = output_dir / f"{tool.value}-init.log"
        invocation = ToolInvocation(tool, entry["command"], log, checks[tool].timeout)
        inits[tool] = invocation, Path(entry["database"])
    substitutions = {
        "target": _text(data.get("target", DEFAULT_TARGET), "runner.target"),
        "datastream": _text(data.get("datastream", DEFAULT_DATASTREAM), "runner.datastream"),
    }
    return checks, inits, substitutions


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
    checks, inits, substitutions = _runner_from_mapping(data.get("runner", {}))
    history = Path(_text(data.get("history", DEFAULT_HISTORY_PATH), "history"))
    return AppConfig(weights, history, checks, inits, substitutions)


# ---------------------------------------------------------------------------
# Score manifest: maps each tool to a report file or a literal score
# ---------------------------------------------------------------------------


class ManifestEntry(Frozen):
    __slots__ = ("path", "score", "firewall")

    def __init__(
        self, path: Path | None = None, score: float | None = None, firewall: bool | None = None
    ):
        self._init(path, score, firewall)


class Manifest(Frozen):
    __slots__ = ("label", "host", "entries")

    def __init__(
        self, label: str | None, host: str | None, entries: Mapping[ToolKind, ManifestEntry]
    ):
        self._init(label, host, entries)


def load_manifest(path: Path) -> Manifest:
    """Load a score manifest; report paths are relative to the manifest.

    Anything malformed, such as a literal score that is not a finite number,
    a firewall override that is not a bool, or a label or host that is a
    list or mapping, raises ``MANIFEST_INVALID``.
    """
    try:
        return _manifest_from_file(path)
    except ValidationError as exc:
        raise ValidationError("MANIFEST_INVALID", str(exc)) from exc


def _manifest_from_file(path: Path) -> Manifest:
    """``load_manifest`` but for the error code."""
    data = _require_mapping(_load_yaml(path), f"{path}: manifest")
    _reject_unknown(data, {"label", "host", "reports"}, str(path))
    reports = _require_mapping(data.get("reports", {}), f"{path}: 'reports'")
    base = path.parent
    entries: dict[ToolKind, ManifestEntry] = {}
    for tool, name, value in _entries(reports, _tool_by_name, str(path)):
        context = f"{path}: {name}"
        if isinstance(value, str):
            entries[tool] = ManifestEntry(path=base / value)
            continue
        if not isinstance(value, Mapping):
            raise _invalid(f"{context}: entry must be a path string or a mapping")
        _reject_unknown(value, {"path", "score", "firewall"}, context)
        has_path = "path" in value
        if has_path == ("score" in value):
            raise _invalid(f"{context}: exactly one of 'path' or 'score' is required")
        firewall = value.get("firewall")
        if firewall is not None and not isinstance(firewall, bool):
            raise _invalid(f"{context}: firewall must be true or false, got {_show(firewall)}")
        if has_path:
            report = _text(value["path"], f"{context}: path")
            entries[tool] = ManifestEntry(path=base / report, firewall=firewall)
        else:
            score = _number(value["score"], float, f"{context}: score")
            entries[tool] = ManifestEntry(score=score, firewall=firewall)
    label, host = (
        None if data.get(key) is None else _text(data[key], f"{path}: {key}")
        for key in ("label", "host")
    )
    return Manifest(label=label, host=host, entries=entries)
