import hashlib
import json
import os
import stat
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from auditscore import store
from auditscore.errors import AuditError, StoreError
from auditscore.model import WeightProfile
from auditscore.scoring import aggregate
from auditscore.store import (
    SCHEMA_VERSION,
    HistoryLoad,
    HistoryRecord,
    append_record,
    load_history,
    record_from_json,
    record_to_json,
)

from .strategies import FIXED_TIMESTAMP, full_assessments, six_scores


def _record(label="baseline", host="node-1", values=(59, 67.4, 83.4, 82.4, 57.8, 0)):
    assessment = aggregate(six_scores(list(values)), WeightProfile(), label, FIXED_TIMESTAMP)
    return HistoryRecord(assessment=assessment, host_label=host)


def test_append_then_load_single_record(tmp_path):
    path = tmp_path / "history.jsonl"
    record = _record()
    append_record(path, record)
    assert path.read_text().count("\n") == 1
    loaded = load_history(path)
    assert loaded.skipped == 0
    assert loaded.records == [record]


def test_appends_preserve_order(tmp_path):
    path = tmp_path / "history.jsonl"
    first = _record("baseline")
    second = _record("partial", values=(61, 69.8, 77.7, 78.0, 58.6, 47))
    append_record(path, first)
    append_record(path, second)
    loaded = load_history(path)
    assert [r.assessment.label for r in loaded.records] == ["baseline", "partial"]


def test_unwritable_path_is_io_failure(tmp_path):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("file, not dir")
    with pytest.raises(StoreError) as excinfo:
        append_record(blocker / "history.jsonl", _record())
    assert excinfo.value.code == "IO_FAILURE"


def test_missing_file_is_io_failure(tmp_path):
    with pytest.raises(StoreError) as excinfo:
        load_history(tmp_path / "absent.jsonl")
    assert excinfo.value.code == "IO_FAILURE"


def test_empty_file_loads_cleanly(tmp_path):
    path = tmp_path / "history.jsonl"
    path.write_text("")
    loaded = load_history(path)
    assert loaded.records == []
    assert loaded.skipped == 0


def test_corrupt_line_skipped_with_warning_count(tmp_path):
    path = tmp_path / "history.jsonl"
    append_record(path, _record())
    with open(path, "a") as handle:
        handle.write("{not json at all\n")
    append_record(path, _record("partial", values=(61, 69.8, 77.7, 78.0, 58.6, 47)))
    loaded = load_history(path)
    assert len(loaded.records) == 2
    assert loaded.skipped == 1


def test_torn_final_line_skipped(tmp_path):
    path = tmp_path / "history.jsonl"
    append_record(path, _record())
    full_line = record_to_json(_record("partial"))
    with open(path, "a") as handle:
        handle.write(full_line[: len(full_line) // 2])  # simulated torn write
    loaded = load_history(path)
    assert [r.assessment.label for r in loaded.records] == ["baseline"]
    assert loaded.skipped == 1


def test_newer_schema_records_are_skipped(tmp_path):
    path = tmp_path / "history.jsonl"
    payload = json.loads(record_to_json(_record()))
    payload["schema_version"] = SCHEMA_VERSION + 1
    path.write_text(json.dumps(payload) + "\n")
    loaded = load_history(path)
    assert loaded.records == []
    assert loaded.skipped == 1


def test_valid_json_with_broken_invariants_is_corrupt(tmp_path):
    path = tmp_path / "history.jsonl"
    payload = json.loads(record_to_json(_record()))
    payload["assessment"]["composite"] = 12.0  # no longer matches contributions
    path.write_text(json.dumps(payload) + "\n")
    loaded = load_history(path)
    assert loaded.records == []
    assert loaded.skipped == 1


@pytest.mark.parametrize(
    "path, value",
    [
        (("assessment", "scores"), []),
        (("assessment", "contributions"), []),
        (("assessment", "weights", "tool_weights"), [1]),
        (("assessment", "weights", "tool_weights"), {}),
        (("assessment", "weights", "tool_weights", "lynis"), None),
        (("assessment", "weights", "severity_weights", "high"), float("nan")),
        (("assessment", "weights", "port_penalty"), float("inf")),
        (("assessment", "scores", "lynis"), []),
        (("assessment", "label"), None),
        (("host_label",), [1, 2]),
        (("host_label",), None),
        (("schema_version",), True),
        (("schema_version",), 0),
        (("assessment", "scores", "aide", "raw", "added"), float("inf")),
        (("assessment", "scores", "aide", "raw", "added"), 11.0),
        # inf and -inf sum to NaN, which no tolerance check may let through
        (
            ("assessment", "contributions"),
            {"lynis": float("inf"), "openscap_standard": float("-inf"), "aide": 0.0,
             "tripwire": 0.0, "openscap_cis": 0.0, "vuln_scan": 0.0},
        ),
    ],
)
def test_wrong_shape_records_are_skipped(tmp_path, data_dir, path, value):
    payload = json.loads((data_dir / "history-v1.jsonl").read_text().splitlines()[0])
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    history = tmp_path / "history.jsonl"
    history.write_text(json.dumps(payload) + "\n")
    loaded = load_history(history)
    assert loaded.records == []
    assert loaded.skipped == 1


def test_history_written_by_earlier_release_reencodes_byte_identically(data_dir):
    lines = (data_dir / "history-v1.jsonl").read_text().splitlines()
    assert load_history(data_dir / "history-v1.jsonl").skipped == 0
    for line in lines:
        assert record_to_json(record_from_json(line)) == line


def test_host_filter(tmp_path):
    path = tmp_path / "history.jsonl"
    append_record(path, _record("baseline", host="alpha"))
    append_record(path, _record("partial", host="beta", values=(61, 69.8, 77.7, 78.0, 58.6, 47)))
    append_record(path, _record("full", host="alpha", values=(66, 77.3, 75.0, 77.7, 67.1, 47)))
    loaded = load_history(path, host_filter="alpha")
    assert [r.assessment.label for r in loaded.records] == ["baseline", "full"]


def test_round_trip_preserves_full_precision():
    record = _record()
    restored = record_from_json(record_to_json(record))
    assert restored == record
    assert restored.assessment.composite == record.assessment.composite


@given(assessment=full_assessments())
@settings(max_examples=60, deadline=None)
def test_round_trip_property_with_raw_reports(tmp_path_factory, assessment):
    path = tmp_path_factory.mktemp("store") / "history.jsonl"
    record = HistoryRecord(assessment=assessment, host_label="node")
    append_record(path, record)
    loaded = load_history(path)
    assert loaded.records[-1] == record


# Differential test of the filtered read: lines of every kind, for a few
# labels and hosts, read with and without each filter.
_HOSTS = ("alpha", "beta")
_LABELS = ("baseline", "partial", "full")


def _mutated(line, mutate):
    payload = json.loads(line)
    mutate(payload)
    return json.dumps(payload)


def _line(kind, label, host):
    valid = record_to_json(_record(label, host=host))
    if kind == "valid":
        return valid
    if kind == "blank":
        return "   "
    if kind == "torn":
        return valid[: len(valid) // 2]
    if kind == "garbage":
        return "~" + label + host
    if kind == "newer":
        return _mutated(valid, lambda p: p.update(schema_version=SCHEMA_VERSION + 1))
    if kind == "no-label":
        return _mutated(valid, lambda p: p["assessment"].update(label=None))
    if kind == "no-host":
        return _mutated(valid, lambda p: p.pop("host_label"))
    if kind == "list-host":
        return _mutated(valid, lambda p: p.update(host_label=[host]))
    if kind == "bool-version":
        return _mutated(valid, lambda p: p.update(schema_version=True))
    if kind == "too-deep":  # nested past the recursion limit
        return "[" * 10_000 + "]" * 10_000
    if kind == "deep-composite":
        return _mutated(valid, lambda p: p["assessment"].update(composite=12.0))
    assert kind == "deep-shape"
    return _mutated(valid, lambda p: p["assessment"].update(scores=[]))


_KINDS = (
    "valid",
    "blank",
    "torn",
    "garbage",
    "newer",
    "no-label",
    "no-host",
    "list-host",
    "bool-version",
    "too-deep",
    "deep-composite",
    "deep-shape",
)
_LINES = {
    (kind, label, host): _line(kind, label, host)
    for kind in _KINDS
    for label in _LABELS
    for host in _HOSTS
}


@given(
    lines=st.lists(st.sampled_from(sorted(_LINES)), max_size=15),
    host_filter=st.none() | st.sampled_from(_HOSTS + ("gamma",)),
    labels=st.none() | st.frozensets(st.sampled_from(_LABELS + ("absent",))),
)
@example(lines=[("too-deep", "full", "alpha")], host_filter="beta", labels=None)
@settings(max_examples=150, deadline=None)
def test_filtered_load_equals_unfiltered_load_then_filtered(
    tmp_path_factory, lines, host_filter, labels
):
    path = tmp_path_factory.mktemp("store") / "history.jsonl"
    path.write_text("".join(_LINES[key] + "\n" for key in lines))

    def kept(label, host):
        return (host_filter is None or host == host_filter) and (
            labels is None or label in labels
        )

    full = load_history(path)
    filtered = load_history(path, host_filter=host_filter, labels=labels)
    assert filtered.records == [
        r for r in full.records if kept(r.assessment.label, r.host_label)
    ]
    assert filtered.skipped <= full.skipped
    if host_filter is None and labels is None:
        assert filtered.skipped == full.skipped
    # Every corrupt line counts, except a deep-invalid one the filters drop.
    assert filtered.skipped == sum(
        kind not in ("valid", "blank") and (not kind.startswith("deep") or kept(label, host))
        for kind, label, host in lines
    )


def test_unicode_line_separator_inside_a_string_is_kept(tmp_path):
    # A raw U+2028 in a string is legal JSON; only b"\n" ends a line.
    payload = json.loads(record_to_json(_record(host="rack\u2028a")))
    path = tmp_path / "history.jsonl"
    path.write_text(json.dumps(payload, ensure_ascii=False) + "\n", encoding="utf-8")
    for host_filter in (None, "rack\u2028a"):
        loaded = load_history(path, host_filter=host_filter)
        assert [r.host_label for r in loaded.records] == ["rack\u2028a"]
        assert loaded.skipped == 0


# Differential test of the line index kept by filtered reads: after any
# sequence of appends, edits, truncations and index damage, every read
# equals a plain reader that keeps no index.
_CORRUPT = (ValueError, KeyError, TypeError, AttributeError, RecursionError, AuditError)


def _plain_load(path, host_filter=None, labels=None):
    result = HistoryLoad()
    for line in path.read_bytes().split(b"\n"):
        try:
            text = line.decode("utf-8")
            if not text.strip():
                continue
            payload = json.loads(text)
            version, host, label = (
                payload["schema_version"],
                payload["host_label"],
                payload["assessment"]["label"],
            )
            if not (type(version) is int and 1 <= version <= SCHEMA_VERSION):
                raise ValueError(version)
            if type(host) is not str or type(label) is not str:
                raise ValueError(host, label)
        except _CORRUPT:
            result.skipped += 1
            continue
        if (host_filter is None or host == host_filter) and (labels is None or label in labels):
            try:
                result.records.append(record_from_json(text))
            except _CORRUPT:
                result.skipped += 1
    return result


_READS = (
    (None, None),
    ("alpha", None),
    ("gamma", None),
    (None, frozenset({"baseline"})),
    ("beta", frozenset({"partial", "full"})),
)
_BYTE_LINES = {
    "not-utf8": b'\xff\xfe{"x":1}',
    "u2028": json.dumps(
        json.loads(_LINES["valid", "full", "alpha"]) | {"host_label": "al\u2028pha"},
        ensure_ascii=False,
    ).encode(),
    "crlf": _LINES["valid", "partial", "beta"].encode() + b"\r",
    "inner-cr": (_LINES["valid", "baseline", "alpha"] + "\r" + _LINES["valid", "full", "beta"])
    .encode(),
}
_APPENDS = sorted(key for key in _LINES if key[0] != "blank") + sorted(_BYTE_LINES)
_BAD_INDEXES = {
    "garbage": b"\x00\xff[",
    "empty": b"",
    "wrong-shape": b'[1, "a", null]',
    "too-deep": b"\n" + b"[" * 10_000,
}


def _reverse_keys(stored, data):
    # A permutation of the keys: any read it affects claims a line it does not want.
    keys = [entry[1:] for entry in stored["lines"]][::-1]
    stored["lines"] = [[entry[0], *key] for entry, key in zip(stored["lines"], keys)]


def _shift_offset(stored, data):
    stored["lines"][-1][0] += 1  # into the middle of a line


def _duplicate_entry(stored, data):
    stored["lines"].insert(0, stored["lines"][0])


def _count_one_more(stored, data):
    stored["skipped"] += 1
    stored["lines"].pop()


def _claim_a_skipped_line(stored, data):
    # An entry, wanted by host "alpha" reads, for a line that fails the checks.
    kept = {entry[0] for entry in stored["lines"]}
    starts = [0] + [i + 1 for i in range(stored["covered"] - 1) if data[i] == 10]
    for start in starts:
        if start not in kept and data[start:data.index(b"\n", start)].strip():
            stored["lines"] = sorted([*stored["lines"], [start, "alpha", "baseline"]])
            return


# Index entries that disagree with the file, under a digest recomputed over
# them ("forged-*", as if the index were written that way) or left as it was.
_EDITS = {
    "forged-keys": (_reverse_keys, True),
    "forged-offset": (_shift_offset, True),
    "forged-duplicate": (_duplicate_entry, True),
    "forged-corrupt": (_claim_a_skipped_line, True),
    "tampered": (_count_one_more, False),
}
_DAMAGE = (*_BAD_INDEXES, *_EDITS, "stale", "other-file", "other-schema", "directory", "fifo",
           "symlink")
_STEPS = st.one_of(
    st.tuples(st.just("read"), st.booleans()),
    st.tuples(st.just("append"), st.sampled_from(_APPENDS), st.booleans()),
    st.tuples(st.just("edit"), st.integers(0, 50)),
    st.tuples(st.just("truncate"), st.integers(0, 100)),
    st.tuples(st.just("damage"), st.sampled_from(_DAMAGE)),
)


def _drop_index(index):
    if index.is_dir() and not index.is_symlink():
        index.rmdir()
    else:
        index.unlink(missing_ok=True)


def _index_state(index):
    if index.is_symlink():
        return "symlink"
    if index.is_file():
        return index.read_bytes()
    return stat.S_IFMT(index.stat().st_mode) if index.exists() else None


def _line_bytes(key):
    return _BYTE_LINES[key] if key in _BYTE_LINES else _LINES[key].encode()


def _edit_index(path, index, edit, sign):
    load_history(path, labels={"full"})  # an index of the file as it is now
    if not index.is_file():
        return
    digest, _, body = index.read_bytes().partition(b"\n")
    stored = json.loads(body)
    if not stored["lines"]:
        return
    edit(stored, path.read_bytes())
    body = json.dumps(stored, separators=(",", ":")).encode()
    if sign:
        digest = hashlib.sha256(path.read_bytes()[: stored["covered"]] + body).hexdigest().encode()
    index.write_bytes(digest + b"\n" + body)


@given(steps=st.lists(_STEPS, min_size=1, max_size=10))
@example(steps=[("damage", "directory")])
@example(steps=[("damage", "other-schema")])
@example(
    steps=[("truncate", 0), ("append", ("newer", "full", "beta"), True), ("damage", "other-schema")]
)
@example(steps=[("damage", "fifo")])
@example(steps=[("damage", "too-deep")])
@example(steps=[("append", ("too-deep", "full", "alpha"), True), ("read", False)])
@example(steps=[("damage", "symlink")])
@example(steps=[("damage", "forged-keys")])
@example(steps=[("damage", "forged-offset")])
@example(steps=[("damage", "forged-duplicate")])
@example(steps=[("damage", "forged-corrupt")])
@example(steps=[("damage", "tampered")])
@example(steps=[("read", True), ("edit", 3)])
@settings(max_examples=100, deadline=None)
def test_indexed_reads_equal_a_plain_reader(tmp_path_factory, steps):
    directory = tmp_path_factory.mktemp("store")
    path = directory / "history.jsonl"
    index = directory / "history.jsonl.idx"
    # A line of every kind, some of each label and host.
    path.write_bytes(
        b"".join(_line_bytes(key) + b"\n" for key in sorted(_LINES)[::5] + sorted(_BYTE_LINES))
    )
    snapshots = []
    for step in steps:
        if step[0] == "read" and step[1]:  # cold: no index to start from
            _drop_index(index)
        elif step[0] == "append":
            with open(path, "ab") as handle:
                handle.write(_line_bytes(step[1]) + (b"\n" if step[2] else b""))
        elif step[0] == "edit":
            # Same length, so only the digest can tell the line changed.
            data = bytearray(path.read_bytes())
            starts = [0] + [i + 1 for i, byte in enumerate(data) if byte == 10][:-1]
            start = starts[step[1] % len(starts)] if data else 0
            host = data.find(b'"host_label":"alpha"', start)
            if 0 <= host < data.find(b"\n", start):
                data[host + 14 : host + 19] = b"gamma"
            elif start < len(data):
                data[start] = ord("~")
            path.write_bytes(bytes(data))
        elif step[0] == "truncate":
            data = path.read_bytes()
            path.write_bytes(data[: len(data) * step[1] // 100])
        elif step[1] in _BAD_INDEXES:
            _drop_index(index)
            index.write_bytes(_BAD_INDEXES[step[1]])
        elif step[1] == "stale" and snapshots:
            _drop_index(index)
            index.write_bytes(snapshots[0])
        elif step[1] == "other-file":
            # Shares a prefix with the history, then differs.
            other = directory / "other.jsonl"
            data = path.read_bytes()
            shared = data[: data.rfind(b"\n", 0, len(data) // 2) + 1]
            other.write_bytes(shared + _LINES["valid", "full", "beta"].encode() + b"\n")
            load_history(other, labels={"full"})
            _drop_index(index)
            if (directory / "other.jsonl.idx").exists():
                os.replace(directory / "other.jsonl.idx", index)
        elif step[1] == "other-schema":
            # Built while newer-schema lines counted as valid.
            _drop_index(index)
            with mock.patch.object(store, "SCHEMA_VERSION", SCHEMA_VERSION + 1):
                load_history(path, host_filter="alpha")
        elif step[1] in _EDITS:
            _edit_index(path, index, *_EDITS[step[1]])
        elif step[1] == "directory":
            _drop_index(index)
            index.mkdir()
        elif step[1] == "fifo":
            # Reading it would block until a writer comes.
            _drop_index(index)
            os.mkfifo(index)
        elif step[1] == "symlink":
            # To a valid index of the file; the reader does not follow it.
            load_history(path, labels={"full"})
            target = directory / "elsewhere.idx"
            if index.is_file():
                os.replace(index, target)
            _drop_index(index)
            index.symlink_to(target)
        before = _index_state(index)
        for host_filter, labels in _READS:
            loaded = load_history(path, host_filter=host_filter, labels=labels)
            expected = _plain_load(path, host_filter, labels)
            assert (loaded.records, loaded.skipped) == (expected.records, expected.skipped)
            if host_filter is None and labels is None:
                # An unfiltered read neither writes nor replaces the index.
                assert _index_state(index) == before
        if index.is_file() and not index.is_symlink():
            snapshots.append(index.read_bytes())


def _history(tmp_path, count=3):
    path = tmp_path / "history.jsonl"
    for number in range(count):
        append_record(path, _record(host=f"node-{number % 2}"))
    return path


def test_history_named_through_a_symlink_keeps_no_index(tmp_path):
    path = _history(tmp_path)
    link = tmp_path / "link.jsonl"
    link.symlink_to(path)
    assert len(load_history(link, host_filter="node-0").records) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["history.jsonl", "link.jsonl"]


def test_index_is_written_with_the_history_mode(tmp_path):
    path = _history(tmp_path)
    path.chmod(0o640)
    load_history(path, host_filter="node-0")
    assert stat.S_IMODE((tmp_path / "history.jsonl.idx").stat().st_mode) == 0o640


def test_reader_that_cannot_write_the_index_hashes_nothing(tmp_path):
    path = _history(tmp_path)
    with (
        mock.patch.object(store.tempfile, "mkstemp", side_effect=PermissionError),
        mock.patch.object(store, "_new_digest", side_effect=AssertionError("hashed")),
    ):
        assert len(load_history(path, host_filter="node-0").records) == 2
    assert not (tmp_path / "history.jsonl.idx").exists()


@pytest.mark.skipif(os.geteuid() != 0, reason="giving a file to another user needs root")
def test_index_owned_by_another_user_is_ignored(tmp_path):
    path = _history(tmp_path)
    index = tmp_path / "history.jsonl.idx"
    load_history(path, host_filter="node-0")
    # A valid index whose entries all claim another host: trusted, it would
    # hide the node-0 records.
    digest, _, body = index.read_bytes().partition(b"\n")
    stored = json.loads(body)
    for entry in stored["lines"]:
        entry[1] = "node-9"
    body = json.dumps(stored, separators=(",", ":")).encode()
    digest = hashlib.sha256(path.read_bytes()[: stored["covered"]] + body).hexdigest().encode()
    index.write_bytes(digest + b"\n" + body)
    os.chown(index, 12345, 12345)
    with mock.patch.object(store.os, "replace", side_effect=PermissionError):  # a sticky directory
        assert len(load_history(path, host_filter="node-0").records) == 2
