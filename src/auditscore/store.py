"""Append-only history of composite assessments, one JSON record per line.

A flat line-delimited file keeps the history diffable and dependency-free
at desk scale. Reads are lenient: corrupt or torn lines (including a
partial final line from an interrupted write) are skipped and counted,
never mis-parsed. A filtered read fully decodes only the lines it keeps.
Single-writer contract; concurrent readers are fine, cross-process locking
is out of scope.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection

from .errors import AuditError, StoreError
from .model import (
    CompositeAssessment,
    assessment_from_dict,
    assessment_label,
    assessment_to_dict,
)

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class HistoryRecord:
    assessment: CompositeAssessment
    host_label: str
    schema_version: int = SCHEMA_VERSION


@dataclass
class HistoryLoad:
    """Records in file order plus the number of skipped (corrupt) lines."""

    records: list[HistoryRecord] = field(default_factory=list)
    skipped: int = 0


def record_to_json(record: HistoryRecord) -> str:
    """One-line JSON form; floats keep full precision via repr round-trip."""
    payload = {
        "schema_version": record.schema_version,
        "host_label": record.host_label,
        "assessment": assessment_to_dict(record.assessment),
    }
    return json.dumps(payload, separators=(",", ":"))


def record_from_json(line: str) -> HistoryRecord:
    return _record_from_payload(json.loads(line))


def _record_from_payload(
    payload, host_filter: str | None = None, labels: Collection[str] | None = None
) -> HistoryRecord | None:
    """Decode one parsed line, or return None when the filters drop it.

    The schema version, host label and assessment label are checked on
    every line; the assessment is decoded only when the line is kept.
    """
    version = payload["schema_version"]
    if type(version) is not int or version < 1:  # a bool is not a version
        raise StoreError("SCHEMA_INVALID", f"record schema_version {version!r} is not 1 or more")
    if version > SCHEMA_VERSION:
        raise StoreError(
            "SCHEMA_TOO_NEW", f"record schema_version {version!r} > {SCHEMA_VERSION}"
        )
    host_label = payload["host_label"]
    if not isinstance(host_label, str):
        raise StoreError("HOST_LABEL_INVALID", f"host_label must be a string, got {host_label!r}")
    data = payload["assessment"]
    label = assessment_label(data)
    if (host_filter is not None and host_label != host_filter) or (
        labels is not None and label not in labels
    ):
        return None
    return HistoryRecord(
        assessment=assessment_from_dict(data),
        host_label=host_label,
        schema_version=version,
    )


def append_record(path: Path | str, record: HistoryRecord) -> None:
    """Append one record as a single flushed line; prior lines untouched."""
    try:
        line = record_to_json(record)
    except (TypeError, ValueError) as exc:
        raise StoreError("SERIALIZATION_FAILURE", str(exc)) from exc
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
    except OSError as exc:
        raise StoreError("IO_FAILURE", f"cannot append to {path}: {exc}") from exc


def load_history(
    path: Path | str,
    host_filter: str | None = None,
    labels: Collection[str] | None = None,
) -> HistoryLoad:
    """Read records in file order, optionally filtered by host and label.

    Every non-blank line must be JSON of a known schema version (an integer
    from 1 up) with a string host label and a string assessment label; a
    line that is not is skipped and counted in ``skipped``. Only lines that
    pass ``host_filter`` and ``labels`` are fully decoded, and one of them
    that fails (the wrong shape, broken invariants) is also skipped and
    counted, so an unfiltered read counts every corrupt line. An empty file
    yields an empty result.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise StoreError("IO_FAILURE", f"cannot read {path}: {exc}") from exc
    result = HistoryLoad()
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            record = _record_from_payload(json.loads(line), host_filter, labels)
        except (ValueError, KeyError, TypeError, AttributeError, AuditError):
            result.skipped += 1
            continue
        if record is not None:
            result.records.append(record)
    return result
