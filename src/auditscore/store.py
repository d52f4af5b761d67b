"""Append-only history of composite assessments, one JSON record per line.

A flat line-delimited file keeps the history diffable and dependency-free
at desk scale. A line ends at ``\\n`` (JSON Lines); a trailing ``\\r`` is
JSON whitespace. Reads are lenient: corrupt or torn lines (including a
partial final line from an interrupted write, and a line that is not
UTF-8) are skipped and counted, never mis-parsed. A filtered read fully
decodes only the lines it keeps.

Because the file only grows, a filtered read keeps a sidecar line index,
``<history>.idx``: the host and assessment labels of every checked line
of the prefix up to the last ``\\n``, valid only while the sha256 recorded
with it still matches that prefix and the index's own contents. The next
filtered read resumes the scan where the index ends. An index that this
module wrote never changes a result, and deleting it is always safe; one
owned by anyone but the reader or the history's owner is ignored.
Single-writer contract; concurrent readers are fine, cross-process
locking is out of scope.
"""

from __future__ import annotations

import contextlib
import json
import os
import stat
import tempfile
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

# Version of the ``<history>.idx`` layout and of the checks in ``_line_keys``
# whose outcome it stores; an index of another version is ignored.
_INDEX_FORMAT = 2

# What a corrupt line raises while it is decoded and checked; JSON nested
# deeper than the interpreter's recursion limit raises RecursionError.
_CORRUPT = (ValueError, KeyError, TypeError, AttributeError, RecursionError, AuditError)


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
    payload = json.loads(line)
    return _record_from_payload(payload, _line_keys(payload))


def _line_keys(payload) -> tuple[int, str, str]:
    """Check one parsed line's schema version, host label and assessment label.

    These are the checks every reader runs on every line; the rest of the
    assessment is left undecoded. The line index stores their outcome, so
    a change to them must bump ``_INDEX_FORMAT``.
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
    return version, host_label, assessment_label(payload["assessment"])


def _record_from_payload(payload, keys: tuple[int, str, str]) -> HistoryRecord:
    """Decode a parsed line; ``keys`` is what :func:`_line_keys` returned for it."""
    version, host_label, _ = keys
    return HistoryRecord(
        assessment=assessment_from_dict(payload["assessment"]),
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


@dataclass
class _LineIndex:
    """The checked lines of a history prefix of ``covered`` bytes.

    ``lines`` holds ``[offset, host_label, label]`` for each line that
    passed :func:`_line_keys`; ``skipped`` counts the lines that did not.
    ``digest`` is a sha256 object fed exactly the first ``covered`` bytes.
    """

    covered: int = 0
    skipped: int = 0
    lines: list = field(default_factory=list)
    digest: object = None


class _StaleIndex(Exception):
    """An index entry that does not describe the line at its offset."""


def _new_digest():
    # hashlib loads OpenSSL, about 4 MiB of RSS and 5 ms; imported here,
    # only filtered history reads pay for it, not every command.
    import hashlib

    return hashlib.sha256()


def _index_body(index: _LineIndex) -> bytes:
    return json.dumps(
        {
            "format": _INDEX_FORMAT,
            "schema_version": SCHEMA_VERSION,
            "covered": index.covered,
            "skipped": index.skipped,
            "lines": index.lines,
        },
        separators=(",", ":"),
    ).encode()


def _read_index(index_path: Path, data: bytes, owner: int) -> _LineIndex | None:
    """The index stored at ``index_path`` if it still describes a prefix of ``data``.

    Only a regular file owned by the reader or by the history's ``owner``
    is read; its first line must be the sha256 of the covered prefix
    followed by the rest of the index.
    """
    try:
        # Not following a symlink and not waiting on a FIFO.
        handle = os.open(index_path, os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK)
        try:
            info = os.fstat(handle)
            if not stat.S_ISREG(info.st_mode) or info.st_uid not in (os.geteuid(), owner):
                return None
            with os.fdopen(handle, "rb", closefd=False) as stream:
                expected, _, body = stream.read().partition(b"\n")
        finally:
            os.close(handle)
    except OSError:
        return None
    try:
        stored = json.loads(body)
        covered, skipped, lines = stored["covered"], stored["skipped"], stored["lines"]
        if (
            stored["format"] != _INDEX_FORMAT
            or stored["schema_version"] != SCHEMA_VERSION
            or type(covered) is not int
            or not 0 < covered <= len(data)
            or type(skipped) is not int
            or type(lines) is not list
        ):
            return None
        previous = -1
        for offset, host_label, label in lines:
            # Strictly increasing line starts inside the prefix.
            if not (
                type(offset) is int and previous < offset < covered
                and (offset == 0 or data[offset - 1] == 0x0A)
                and type(host_label) is str and type(label) is str
            ):
                return None
            previous = offset
    except _CORRUPT:
        return None
    digest = _new_digest()
    digest.update(memoryview(data)[:covered])
    check = digest.copy()
    check.update(body)
    if check.hexdigest().encode() != expected:
        return None
    return _LineIndex(covered, skipped, lines, digest)


def _write_index(
    index_path: Path, data: bytes, old: _LineIndex, new: _LineIndex, mode: int
) -> None:
    """Replace ``old`` with ``new`` atomically; a read that cannot write one is still correct.

    The new digest extends ``old.digest`` (if any) by the bytes the new
    index adds, so no byte is hashed twice in one read. Nothing is hashed
    or serialized when the directory takes no new file.
    """
    try:
        handle, temporary = tempfile.mkstemp(dir=index_path.parent, prefix=index_path.name + ".")
    except OSError:
        return
    try:
        with os.fdopen(handle, "wb") as stream:
            os.fchmod(handle, mode)
            digest = old.digest or _new_digest()
            digest.update(memoryview(data)[old.covered : new.covered])
            body = _index_body(new)
            digest.update(body)
            stream.write(digest.hexdigest().encode() + b"\n" + body)
        os.replace(temporary, index_path)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(temporary)


def _parse_line(line: bytes):
    """The JSON value of one line, or None for a blank one."""
    text = line.decode("utf-8")
    return json.loads(text) if text.strip() else None


def _line_spans(data: bytes, start: int):
    """Yield ``(start, end)`` of each line from ``start`` on; a line ends at ``\\n``."""
    while start < len(data):
        end = data.find(b"\n", start)
        if end < 0:
            end = len(data)
        yield start, end
        start = end + 1


def _scan(data: bytes, index: _LineIndex, wanted) -> tuple[HistoryLoad, _LineIndex]:
    """The records ``wanted(host_label, label)`` keeps, and the index of ``data``.

    Lines of the indexed prefix are decoded only when wanted; the rest of
    ``data`` is scanned. Raises :class:`_StaleIndex` when an indexed line
    does not pass the checks or keys its entry claims.
    """
    result = HistoryLoad(skipped=index.skipped)
    grown = _LineIndex(data.rfind(b"\n") + 1, index.skipped, list(index.lines))

    def keep(payload, keys: tuple[int, str, str]) -> None:
        try:
            result.records.append(_record_from_payload(payload, keys))
        except _CORRUPT:
            result.skipped += 1

    for start, host_label, label in index.lines:
        if wanted(host_label, label):
            try:
                payload = _parse_line(data[start : data.index(b"\n", start)])
                keys = _line_keys(payload)
            except _CORRUPT as exc:
                raise _StaleIndex(start) from exc
            if keys[1:] != (host_label, label):
                raise _StaleIndex(start)
            keep(payload, keys)
    for start, end in _line_spans(data, index.covered):
        complete = end < grown.covered  # a final line with no b"\n" may still grow
        try:
            payload = _parse_line(data[start:end])
            if payload is None:
                continue
            keys = _line_keys(payload)
        except _CORRUPT:
            result.skipped += 1
            grown.skipped += complete
            continue
        if complete:
            grown.lines.append([start, *keys[1:]])
        if wanted(*keys[1:]):
            keep(payload, keys)
    return result, grown


def load_history(
    path: Path | str,
    host_filter: str | None = None,
    labels: Collection[str] | None = None,
) -> HistoryLoad:
    """Read records in file order, optionally filtered by host and label.

    A line ends at ``\\n``. Every non-blank line must be UTF-8 JSON of a
    known schema version (an integer from 1 up) with a string host label
    and a string assessment label; a line that is not is skipped and
    counted in ``skipped``. Only lines that pass ``host_filter`` and
    ``labels`` are fully decoded, and one of them that fails (the wrong
    shape, broken invariants) is also skipped and counted, so an unfiltered
    read counts every corrupt line. An empty file yields an empty result.

    A filtered read of a regular file takes the checked lines of an
    unchanged prefix from the ``<history>.idx`` index, scans only the rest
    and extends the index; an unfiltered read scans the whole file and
    leaves the index alone. An index entry that does not match its line
    drops the index for a full scan.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            info = os.fstat(handle.fileno())
            data = handle.read()
    except OSError as exc:
        raise StoreError("IO_FAILURE", f"cannot read {path}: {exc}") from exc

    def wanted(host_label: str, label: str) -> bool:
        return (host_filter is None or host_label == host_filter) and (
            labels is None or label in labels
        )

    # The index sits next to a regular file named as such. A pipe or device
    # keeps no prefix between reads, and a symlink (``/dev/stdin`` too) would
    # put it in a directory the command was not given.
    filtered = host_filter is not None or labels is not None
    index_path = None
    if filtered and stat.S_ISREG(info.st_mode) and not path.is_symlink():
        index_path = path.with_name(path.name + ".idx")
    index = (index_path and _read_index(index_path, data, info.st_uid)) or _LineIndex()
    try:
        result, grown = _scan(data, index, wanted)
    except _StaleIndex:
        index = _LineIndex()
        result, grown = _scan(data, index, wanted)
    if index_path and grown.covered > index.covered:
        _write_index(index_path, data, index, grown, stat.S_IMODE(info.st_mode) & 0o666)
    return result
