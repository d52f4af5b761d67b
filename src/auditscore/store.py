"""Append-only history of composite assessments, one JSON record per line.

A flat line-delimited file keeps the history diffable and dependency-free
at desk scale. A line ends at ``\\n`` (JSON Lines); a trailing ``\\r`` is
JSON whitespace. Reads are lenient: corrupt or torn lines (including a
partial final line from an interrupted write, and a line that is not
UTF-8) are skipped and counted, never mis-parsed. :func:`load_history`
answers three questions: every record (``load_history(path)``, behind
``history``), one host's records (``host_filter=``, behind
``history --host``) and the newest record of some labels (``newest_of=``,
behind ``compare`` and ``report``). A filtered read fully decodes only
the lines it keeps.

Because the file only grows, a filtered read keeps a sidecar line index,
``<history>.idx``: the host and assessment labels of every checked line
of the prefix up to the last ``\\n``, valid only while the sha256 recorded
with it still matches that prefix. The next filtered read reads the
history once, hashes the prefix, scans only the tail after it and extends
the index. Once the history has settled (unchanged for ``_SETTLE_NS``), the
index also records its identity, and a read whose ``fstat`` finds the same
identity neither reads nor hashes the history: it reads an indexed line,
by its offset, only when it decodes it. An index that this module wrote
never changes a result, and deleting it is always safe; one owned by
anyone but the reader or the history's owner is ignored.
Appends hold an exclusive ``flock`` on the history, so concurrent writers
append whole lines in turn; readers take no lock.
"""

from __future__ import annotations

import contextlib
import json
import os
import stat
import time
from pathlib import Path
from typing import Collection

from .errors import AuditError, StoreError
from .model import (
    CompositeAssessment,
    Frozen,
    Value,
    assessment_from_dict,
    assessment_label,
    assessment_to_dict,
)

SCHEMA_VERSION = 1

# Version of the ``<history>.idx`` layout and of the checks in ``_line_keys``
# whose outcome it stores; an index of another version is ignored.
_INDEX_FORMAT = 3

# What a corrupt line raises while it is decoded and checked; JSON nested
# deeper than the interpreter's recursion limit raises RecursionError.
_CORRUPT = (ValueError, KeyError, TypeError, AttributeError, RecursionError, AuditError)


class HistoryRecord(Frozen):
    __slots__ = ("assessment", "host_label")

    def __init__(self, assessment: CompositeAssessment, host_label: str):
        self._init(assessment, _require_host_label(host_label))


def _require_host_label(host_label: object) -> str:
    if not isinstance(host_label, str):
        raise StoreError("HOST_LABEL_INVALID", f"host_label must be a string, got {host_label!r}")
    return host_label


class HistoryLoad(Value):
    """Records in file order plus the number of skipped (corrupt) lines."""

    __slots__ = ("records", "skipped")

    def __init__(self, records: list[HistoryRecord] | None = None, skipped: int = 0):
        self.records = [] if records is None else records
        self.skipped = skipped


def record_to_json(record: HistoryRecord) -> str:
    """One-line JSON form; floats keep full precision via repr round-trip."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "host_label": record.host_label,
        "assessment": assessment_to_dict(record.assessment),
    }
    return json.dumps(payload, separators=(",", ":"))


def _line_keys(payload) -> tuple[str, str]:
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
    return _require_host_label(payload["host_label"]), assessment_label(payload["assessment"])


def _record_from_payload(payload, keys: tuple[str, str]) -> HistoryRecord:
    """Decode a parsed line; ``keys`` is what :func:`_line_keys` returned for it."""
    host_label, _ = keys
    return HistoryRecord(assessment_from_dict(payload["assessment"]), host_label)


def append_record(path: Path | str, record: HistoryRecord) -> None:
    """Append one record as a single flushed line; prior bytes untouched.

    A regular file whose last line has no ``\\n`` (an interrupted write) gets
    one first, so the record does not join that line and get lost with it.
    An exclusive ``flock`` on a regular file, held from that check through
    the write and the ``fsync``, orders the appends of concurrent writers.
    """
    try:
        line = record_to_json(record)
    except (TypeError, ValueError) as exc:
        raise StoreError("SERIALIZATION_FAILURE", str(exc)) from exc
    path = Path(path)
    import fcntl  # imported here: only appends lock, so queries never load it

    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a+", encoding="utf-8") as handle:
            fd = handle.fileno()
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fcntl.flock(fd, fcntl.LOCK_EX)  # released when the file is closed
                size = os.fstat(fd).st_size
                if size and os.pread(fd, 1, size - 1) != b"\n":
                    line = "\n" + line
            handle.write(line + "\n")
            handle.flush()
            os.fsync(fd)
    except OSError as exc:
        raise StoreError("IO_FAILURE", f"cannot append to {path}: {exc}") from exc


class _StaleIndex(Exception):
    """An index entry that does not describe the line at its offset."""


# A read trusts an index without hashing the history when the history's
# identity is the one recorded, and records it only for a history whose
# ctime is more than this older than the start of the read. A file system
# keeps timestamps to its own granule (whole seconds on ext4 with 128-byte
# inodes), and the kernel stamps them from a clock that lags the reader's by
# up to a tick, so a change made later in the granule of the recorded ctime
# would keep that ctime and go unseen. With this bound at least the coarsest
# granule supported, such a change happened before the read began, so the
# index describes it; any later change gives the file a later ctime.
_SETTLE_NS = 2_000_000_000


def _identity(info: os.stat_result) -> list[int]:
    """What any change to a file changes: its ctime, at the least."""
    return [info.st_dev, info.st_ino, info.st_size, info.st_mtime_ns, info.st_ctime_ns]


def _new_digest():
    # hashlib loads OpenSSL, about 4 MiB of RSS and 5 ms; imported here,
    # only filtered reads of a changed history pay for it, not every command.
    import hashlib

    return hashlib.sha256()


def _checksum(body: bytes) -> bytes:
    """The CRC-32 of an index body, which catches damage without hashlib."""
    import binascii  # imported here: only index reads and writes use it

    return b"%08x" % binascii.crc32(body)


def _read_index(index_path: Path, history: os.stat_result) -> dict | None:
    """The index stored at ``index_path``, if it has the shape of one of a
    prefix of the history whose ``fstat`` is ``history``.

    The index is one JSON object: ``covered`` is the length of the prefix,
    up to a ``\\n``; ``lines`` holds ``[offset, host_label, label]`` for each
    of its lines that passed :func:`_line_keys`, and ``skipped`` counts those
    that did not; ``sha256`` is the hex digest of the prefix; ``identity`` is
    the :func:`_identity` of a settled history that the prefix is all of, or
    None. Only a regular file owned by the reader or by the history's owner
    is read; its first line must be the :func:`_checksum` of the rest, the
    body. Whether the index still describes the history is for the caller
    to check, by identity or by digest.
    """

    def opener(name: str, flags: int) -> int:
        # Not following a symlink and not waiting on a FIFO.
        return os.open(name, flags | os.O_NOFOLLOW | os.O_NONBLOCK)

    try:
        with open(index_path, "rb", opener=opener) as stream:
            info = os.fstat(stream.fileno())
            owners = (os.geteuid(), history.st_uid)
            if not stat.S_ISREG(info.st_mode) or info.st_uid not in owners:
                return None
            check, _, body = stream.read().partition(b"\n")
    except OSError:
        return None
    if check != _checksum(body):
        return None
    try:
        stored = json.loads(body)
        covered, skipped, lines = stored["covered"], stored["skipped"], stored["lines"]
        if (
            stored["format"] != _INDEX_FORMAT
            or stored["schema_version"] != SCHEMA_VERSION
            or type(covered) is not int
            or not 0 < covered <= history.st_size
            or type(skipped) is not int
            or type(lines) is not list
            or type(stored["sha256"]) is not str
            or "identity" not in stored
        ):
            return None
        previous = -1
        for offset, host_label, label in lines:
            # Strictly increasing offsets inside the prefix; that each one
            # starts a line is checked when its line is read.
            if not (
                type(offset) is int and previous < offset < covered
                and type(host_label) is str and type(label) is str
            ):
                return None
            previous = offset
    except _CORRUPT:
        return None
    return stored


def _write_index(index_path: Path, index: dict, digest, added, mode: int) -> None:
    """Store ``index`` atomically; a read that cannot write one is still correct.

    ``digest``, if not None, is a sha256 object fed the prefix already
    checked, and ``added`` is the rest of the prefix ``index`` covers, so no
    byte is hashed twice in one read. Nothing is hashed or serialized when
    the directory takes no new file.
    """
    import tempfile  # imported here: only index writes use it, and it loads shutil and random

    try:
        handle, temporary = tempfile.mkstemp(dir=index_path.parent, prefix=index_path.name + ".")
    except OSError:
        return
    try:
        with os.fdopen(handle, "wb") as stream:
            os.fchmod(handle, mode)
            digest = digest or _new_digest()
            digest.update(added)
            index["sha256"] = digest.hexdigest()
            body = json.dumps(index, separators=(",", ":")).encode()
            stream.write(_checksum(body) + b"\n" + body)
        os.replace(temporary, index_path)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(temporary)


def _parse_line(line: bytes):
    """The JSON value of one line, or None for a blank one."""
    text = line.decode("utf-8")
    return json.loads(text) if text.strip() else None


def _scan(
    data: bytes,
    fd: int,
    index: dict,
    host_filter: str | None,
    newest_of: Collection[str] | None,
) -> tuple[HistoryLoad, dict]:
    """The records a :func:`load_history` query keeps, and the index of the file.

    ``data`` is the whole file, or empty when a trusted index lets the read
    skip it; only its bytes after the prefix that ``index`` covers are
    scanned. One stream yields ``(start, stop, keys, parsed)`` for each
    wanted line, in file order: an indexed line with ``parsed`` None, to be
    taken from ``data`` or read from ``fd`` only if it is decoded, and a
    scanned line with the payload its scan parsed. Wanted lines are decoded
    in file order, or, with ``newest_of``, newest first until each label has
    a record, and older lines are not decoded; such a read holds the payload
    of only each label's newest line. Raises :class:`_StaleIndex` when a
    decoded indexed line does not start just after a ``\\n``, end at one, or
    pass the checks or have the keys its entry claims.
    """
    covered = index["covered"]
    result = HistoryLoad(skipped=index["skipped"])
    grown = dict(index, lines=list(index["lines"]))
    grown["covered"] = data.rfind(b"\n", covered) + 1 or covered  # just past the last b"\n"

    def wanted(host_label: str, label: str) -> bool:
        return (host_filter is None or host_label == host_filter) and (
            newest_of is None or label in newest_of
        )

    def stream():
        entries = index["lines"]
        for at, (start, host_label, label) in enumerate(entries):
            if wanted(host_label, label):
                stop = entries[at + 1][0] if at + 1 < len(entries) else covered
                yield start, stop, (host_label, label), None
        stop = covered
        while stop < len(data):
            start, stop = stop, data.find(b"\n", stop) + 1 or len(data)
            complete = stop <= grown["covered"]  # a final line with no b"\n" may grow
            try:
                parsed = _parse_line(data[start:stop])
                if parsed is None:
                    continue
                keys = _line_keys(parsed)
            except _CORRUPT:
                result.skipped += 1
                grown["skipped"] += complete
                continue
            if complete:
                grown["lines"].append([start, *keys])
            if wanted(*keys):
                yield start, stop, keys, parsed

    def decode(start: int, stop: int, keys: tuple[str, str], parsed) -> bool:
        """Add the record of a wanted line, or count the line as skipped.

        A line given no payload is taken up to ``stop``, for an indexed line
        the next entry's offset, from ``data`` or, if nothing was read, with
        ``pread``: it must follow a ``\\n``, end at one and have the keys it
        was listed with.
        """
        if parsed is None:
            before = max(start - 1, 0)
            chunk = data[before:stop] if data else os.pread(fd, stop - before, before)
            end = chunk.find(b"\n", start - before)
            try:
                parsed = _parse_line(chunk[start - before : end])
                if (start and chunk[:1] != b"\n") or end < 0 or _line_keys(parsed) != keys:
                    raise _StaleIndex(start)
            except _CORRUPT as exc:
                raise _StaleIndex(start) from exc
        try:
            result.records.append(_record_from_payload(parsed, keys))
        except _CORRUPT:
            result.skipped += 1
            return False
        return True

    if newest_of is None:
        for line in stream():
            decode(*line)
    else:
        # Each label's newest payload alone is held, for its first line newest
        # first; an older scanned line is parsed again if a newer one fails.
        lines, newest = [], {}
        for start, stop, keys, parsed in stream():
            lines.append((start, stop, keys))
            newest[keys[1]] = parsed
        done = set()
        for start, stop, keys in reversed(lines):
            if keys[1] not in done and decode(start, stop, keys, newest.pop(keys[1], None)):
                done.add(keys[1])
        result.records.reverse()
    return result, grown


def load_history(
    path: Path | str, host_filter: str | None = None, newest_of: Collection[str] | None = None
) -> HistoryLoad:
    """Read the records of ``path`` in file order: all, or those a query keeps.

    ``host_filter`` keeps the records of one host. ``newest_of`` keeps
    only the newest record of each label it names: their lines are decoded
    newest first, one that fails is skipped and counted and the next older
    line of its label is tried. Lines older than a label's newest record
    are not decoded, so one of them that would fail is not counted either.
    Given both, the newest records of those labels on that host are kept.

    A line ends at ``\\n``. Every non-blank line must be UTF-8 JSON of a
    known schema version (an integer from 1 up) with a string host label
    and a string assessment label; a line that is not is skipped and
    counted in ``skipped``. Only the lines a query keeps are fully decoded,
    and one of them that fails (the wrong shape, broken invariants) is also
    skipped and counted, so an unfiltered read counts every corrupt line.
    An empty file yields an empty result.

    A filtered read of a regular file takes the checked lines of an
    unchanged prefix from the ``<history>.idx`` index, scans only the rest
    and extends the index; of a settled file whose identity the index
    records, it reads only the lines it decodes, and any other read reads
    the file once. An unfiltered read scans the whole file and leaves the
    index alone. An index entry that does not match its line, found when
    the line is decoded, drops the index for a full scan.
    """
    path = Path(path)
    filtered = host_filter is not None or newest_of is not None
    began = time.time_ns()  # before the fstat and the read: see _SETTLE_NS
    try:
        with open(path, "rb") as handle:
            fd = handle.fileno()
            info = os.fstat(fd)
            # The index sits next to a regular file named as such. A pipe or
            # device keeps no prefix between reads, and a symlink
            # (``/dev/stdin`` too) would put it in a directory the command
            # was not given.
            index_path = None
            if filtered and stat.S_ISREG(info.st_mode) and not path.is_symlink():
                index_path = path.with_name(path.name + ".idx")
            unindexed = {
                "format": _INDEX_FORMAT,
                "schema_version": SCHEMA_VERSION,
                "identity": None,
                "sha256": None,
                "covered": 0,
                "skipped": 0,
                "lines": [],
            }
            index = (index_path and _read_index(index_path, info)) or unindexed
            # An index of this very file, unchanged since it settled, is
            # trusted: the history is neither read whole nor hashed.
            trusted = index["identity"] == _identity(info) and index["covered"] == info.st_size
            data = b"" if trusted else handle.read()
            digest = None
            if index["covered"] and not trusted:
                digest = _new_digest()
                digest.update(memoryview(data)[: index["covered"]])
                if digest.hexdigest() != index["sha256"]:
                    index, digest = unindexed, None
            try:
                result, grown = _scan(data, fd, index, host_filter, newest_of)
            except _StaleIndex:
                if trusted:
                    data = handle.read()
                index, digest, trusted = unindexed, None, False
                result, grown = _scan(data, fd, index, host_filter, newest_of)
    except OSError as exc:
        raise StoreError("IO_FAILURE", f"cannot read {path}: {exc}") from exc

    # Only a file that the scan covers to its end, last changed more than
    # _SETTLE_NS before the read began, gets its identity recorded; a read
    # that finds the file so settled since the index was written rewrites it.
    covered = index["covered"]
    settled = 0 < grown["covered"] == info.st_size and began - info.st_ctime_ns > _SETTLE_NS
    if index_path and (grown["covered"] > covered or (settled and not trusted)):
        grown["identity"] = _identity(info) if settled else None
        added = memoryview(data)[covered : grown["covered"]]
        _write_index(index_path, grown, digest, added, stat.S_IMODE(info.st_mode) & 0o666)
    return result
