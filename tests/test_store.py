import contextlib
import fcntl
import hashlib
import json
import multiprocessing
import os
import stat
import time
import tracemalloc
import zlib
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from auditscore import store
from auditscore.errors import AuditError, StoreError
from auditscore.model import WeightProfile, assessment_from_dict
from auditscore.scoring import aggregate
from auditscore.store import (
    SCHEMA_VERSION,
    HistoryLoad,
    HistoryRecord,
    append_record,
    load_history,
    record_to_json,
)

from .conftest import SETTLE_NS, history_reads, settle
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


@pytest.mark.parametrize(
    "build, code",
    [
        (lambda: _record(label=7), "LABEL_INVALID"),
        (lambda: _record(host=None), "HOST_LABEL_INVALID"),
        (
            lambda: HistoryRecord(
                aggregate(six_scores([50] * 6), WeightProfile(), "x", "2026-01-01"), "node-1"
            ),
            "VALUE_WRONG_TYPE",
        ),
    ],
    ids=["label", "host_label", "timestamp"],
)
def test_record_no_read_could_load_is_refused(tmp_path, build, code):
    """Such a line would be skipped by every later read, or fail mid-append."""
    path = tmp_path / "history.jsonl"
    append_record(path, _record())
    before = path.read_bytes()
    with pytest.raises(AuditError) as excinfo:
        append_record(path, build())
    assert excinfo.value.code == code
    assert path.read_bytes() == before


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


def test_append_after_torn_final_line_keeps_new_record(tmp_path):
    path = tmp_path / "history.jsonl"
    append_record(path, _record())
    full_line = record_to_json(_record("partial"))
    with open(path, "a") as handle:
        handle.write(full_line[: len(full_line) // 2])  # simulated torn write
    append_record(path, _record("full"))
    loaded = load_history(path)
    assert [r.assessment.label for r in loaded.records] == ["baseline", "full"]
    assert loaded.skipped == 1


def _append_many(path, record, count):
    for _ in range(count):
        append_record(path, record)


def test_concurrent_writers_append_whole_lines_and_no_blank_one(tmp_path, data_dir):
    # Unlocked, a writer's last-byte check can see another writer's append
    # in flight and write a "\n" of its own before its record.
    record = load_history(data_dir / "history-v1.jsonl").records[0]  # a fleet-sized line
    path = tmp_path / "history.jsonl"
    context = multiprocessing.get_context("fork")
    writers = [context.Process(target=_append_many, args=(path, record, 150)) for _ in range(4)]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(timeout=60)
        if writer.is_alive():
            writer.kill()
    assert [writer.exitcode for writer in writers] == [0] * 4
    lines = path.read_bytes().split(b"\n")
    assert lines.pop() == b""
    assert [line for line in lines if not line.strip()] == []
    loaded = load_history(path)
    assert (len(loaded.records), loaded.skipped) == (600, 0)


def test_append_that_cannot_lock_the_history_writes_nothing(tmp_path, monkeypatch):
    path = tmp_path / "history.jsonl"
    append_record(path, _record())
    before = path.read_bytes()

    def refuse(fd, operation):
        raise OSError(37, "No locks available")

    monkeypatch.setattr(fcntl, "flock", refuse)
    with pytest.raises(StoreError) as excinfo:
        append_record(path, _record("partial"))
    assert excinfo.value.code == "IO_FAILURE"
    assert path.read_bytes() == before


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
        # Stored fields are checked, never coerced: bool("no") is true and
        # true passes for the number 1.
        (("assessment", "scores", "vuln_scan", "raw", "findings", 0, "confirmed"), "yes"),
        (("assessment", "scores", "vuln_scan", "raw", "firewall_active"), "no"),
        (("assessment", "scores", "lynis", "raw", "hardening_index"), 59.0),
        (("assessment", "scores", "lynis", "raw", "hardening_index"), True),
        (("assessment", "scores", "vuln_scan", "raw", "findings", 0, "port"), 22.0),
        (("assessment", "scores", "vuln_scan", "raw", "findings", 0, "port"), True),
        (("assessment", "scores", "lynis", "value"), True),
        (("assessment", "weights", "port_penalty"), True),
        (("assessment", "weights", "severity_weights", "high"), True),
        (("assessment", "scores", "vuln_scan", "raw", "findings", 0, "identifier"), 7),
        (("assessment", "scores", "vuln_scan", "raw", "findings", 5, "cvss"), True),
        (("assessment", "scores", "vuln_scan", "raw", "findings", 5, "description"), 7),
        # A score's raw report must be one of its own tool.
        (("assessment", "scores", "aide", "raw"), {"kind": "lynis", "hardening_index": 59}),
        (("assessment", "scores", "openscap_cis", "raw", "profile"), "standard"),
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


def _without_each_key(node):
    """A copy of ``node`` for each mapping key in it, at any depth, that lacks it."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(node, dict):
            yield {name: node[name] for name in node if name != key}
        if isinstance(value, (dict, list)):
            for spoiled in _without_each_key(value):
                copy = node.copy()
                copy[key] = spoiled
                yield copy


@given(assessment=full_assessments(), host=st.sampled_from(["node-1", ""]))
@settings(deadline=None)
def test_a_record_that_lacks_any_key_it_is_written_with_is_skipped(
    tmp_path_factory, assessment, host
):
    """Every key of a written record is required: one line per key, each
    lacking that key, are all skipped and counted, read whole or by host."""
    valid = record_to_json(HistoryRecord(assessment, host))
    spoiled = list(_without_each_key(json.loads(valid)))
    history = tmp_path_factory.mktemp("store") / "history.jsonl"
    history.write_text("".join(json.dumps(payload) + "\n" for payload in spoiled))
    for loaded in (load_history(history), load_history(history, host_filter=host)):
        assert (loaded.records, loaded.skipped) == ([], len(spoiled))


def _boolean_composite(assessment: dict) -> None:
    # true sums as 1: a composite of true and one contribution of true agree.
    assessment["composite"] = True
    assessment["contributions"] = {tool: tool == "lynis" for tool in assessment["contributions"]}


def _composite_and_lynis_raised(assessment: dict) -> None:
    # The sum still matches the composite, but Lynis no longer gives weight * score.
    assessment["composite"] += 5
    assessment["contributions"]["lynis"] += 5


@pytest.mark.parametrize("spoil", [_boolean_composite, _composite_and_lynis_raised])
@pytest.mark.parametrize("filtered", [False, True], ids=["unfiltered", "newest_of"])
def test_composite_that_does_not_follow_from_its_scores_is_skipped(
    tmp_path, data_dir, spoil, filtered
):
    valid, *_ = (data_dir / "history-v1.jsonl").read_text().splitlines()
    payload = json.loads(valid)
    spoil(payload["assessment"])
    history = tmp_path / "history.jsonl"
    history.write_text(valid + "\n" + json.dumps(payload) + "\n")
    loaded = load_history(history, newest_of={"baseline"} if filtered else None)
    assert [record_to_json(record) for record in loaded.records] == [valid]
    assert loaded.skipped == 1


@pytest.mark.parametrize(
    "tool, key",
    [("aide", "added"), ("tripwire", "objects_scanned"), ("openscap_cis", "pass_count"),
     ("vuln_scan", "filtered_ports")],
)
def test_stored_count_past_the_model_bound_is_skipped(tmp_path, data_dir, tool, key):
    payload = json.loads((data_dir / "history-v1.jsonl").read_text().splitlines()[0])
    payload["assessment"]["scores"][tool]["raw"][key] = 10**18 + 1
    history = tmp_path / "history.jsonl"
    history.write_text(json.dumps(payload) + "\n")
    loaded = load_history(history)
    assert (loaded.records, loaded.skipped) == ([], 1)


_UNKNOWN_NAMES = ["nosuch", ["lynis"], 7]


@pytest.mark.parametrize("name", _UNKNOWN_NAMES, ids=repr)
@pytest.mark.parametrize(
    "where",
    [
        ("assessment", "scores", "lynis", "tool"),
        ("assessment", "scores", "vuln_scan", "raw", "findings", 0, "severity"),
        ("assessment", "scores", "openscap_cis", "raw", "profile"),
        ("assessment", "scores", "lynis"),
        ("assessment", "contributions", "lynis"),
        ("assessment", "weights", "tool_weights", "lynis"),
        ("assessment", "weights", "severity_weights", "high"),
    ],
)
def test_unknown_tool_severity_or_profile_name_is_skipped(tmp_path, data_dir, where, name):
    """A stored name is a value (``tool``, ``severity``, ``profile``) or a
    mapping key; a key is added next to the known ones, which stay."""
    payload = json.loads((data_dir / "history-v1.jsonl").read_text().splitlines()[0])
    node = payload
    for key in where[:-1]:
        node = node[key]
    if where[-1] in ("tool", "severity", "profile"):
        node[where[-1]] = name
    else:
        node[str(name)] = node[where[-1]]  # JSON keys are strings
    history = tmp_path / "history.jsonl"
    history.write_text(json.dumps(payload) + "\n")
    loaded = load_history(history)
    assert (loaded.records, loaded.skipped) == ([], 1)


def test_history_written_by_earlier_release_reencodes_byte_identically(data_dir):
    lines = (data_dir / "history-v1.jsonl").read_text().splitlines()
    loaded = load_history(data_dir / "history-v1.jsonl")
    assert loaded.skipped == 0
    assert [record_to_json(record) for record in loaded.records] == lines


def test_host_filter(tmp_path):
    path = tmp_path / "history.jsonl"
    append_record(path, _record("baseline", host="alpha"))
    append_record(path, _record("partial", host="beta", values=(61, 69.8, 77.7, 78.0, 58.6, 47)))
    append_record(path, _record("full", host="alpha", values=(66, 77.3, 75.0, 77.7, 67.1, 47)))
    loaded = load_history(path, host_filter="alpha")
    assert [r.assessment.label for r in loaded.records] == ["baseline", "full"]


def test_round_trip_preserves_full_precision(tmp_path):
    record = _record()
    append_record(tmp_path / "history.jsonl", record)
    [restored] = load_history(tmp_path / "history.jsonl").records
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


# Differential test of the filtered reads: lines of every kind, for a few
# labels and hosts, read with and without each query.
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
    labels=st.frozensets(st.sampled_from(_LABELS + ("absent",))),
)
@example(lines=[("too-deep", "full", "alpha")], host_filter="beta", labels=frozenset())
@settings(max_examples=150, deadline=None)
def test_filtered_load_equals_unfiltered_load_then_filtered(
    tmp_path_factory, lines, host_filter, labels
):
    path = tmp_path_factory.mktemp("store") / "history.jsonl"
    path.write_text("".join(_LINES[key] + "\n" for key in lines))

    def on_host(host):
        return host_filter is None or host == host_filter

    full = load_history(path)
    filtered = load_history(path, host_filter=host_filter)
    assert filtered.records == [r for r in full.records if on_host(r.host_label)]
    assert filtered.skipped <= full.skipped
    if host_filter is None:
        assert filtered.skipped == full.skipped
    # Every corrupt line counts, except a deep-invalid one the filter drops.
    assert filtered.skipped == sum(
        kind not in ("valid", "blank") and (not kind.startswith("deep") or on_host(host))
        for kind, label, host in lines
    )
    # A newest-only read keeps the last record of each label; of the lines
    # of its labels (on the host), it decodes each label's newest first,
    # down to the first that is valid, so only deep-invalid lines newer than
    # it count.
    newest = load_history(path, host_filter=host_filter, newest_of=labels)
    kept = [record for record in filtered.records if record.assessment.label in labels]
    last = {record.assessment.label: at for at, record in enumerate(kept)}
    assert newest.records == [
        record for at, record in enumerate(kept) if last[record.assessment.label] == at
    ]
    found, deep_newer = set(), 0
    for kind, label, host in reversed(lines):
        if on_host(host) and label in labels and label not in found:
            if kind == "valid":
                found.add(label)
            deep_newer += kind.startswith("deep")
    shallow = sum(
        kind not in ("valid", "blank") and not kind.startswith("deep") for kind, _, _ in lines
    )
    assert newest.skipped == shallow + deep_newer


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


def _plain_load(path, host_filter=None, newest_of=None):
    result = HistoryLoad()
    decoded = []  # (label, record or None if it fails) of each line the query keeps
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
        if (host_filter is None or host == host_filter) and (
            newest_of is None or label in newest_of
        ):
            try:
                record = HistoryRecord(assessment_from_dict(payload["assessment"]), host)
            except _CORRUPT:
                record = None
            decoded.append((label, record))
    if newest_of is not None:
        # Newest first: lines older than a label's newest record are not decoded.
        newest = {}
        for label, record in reversed(decoded):
            if label in newest:
                continue
            if record is None:
                result.skipped += 1
            else:
                newest[label] = record
        result.records = list(newest.values())[::-1]
    else:
        result.records = [record for _, record in decoded if record is not None]
        result.skipped += len(decoded) - len(result.records)
    return result


# (host_filter, newest_of) of each read. A newest-only read checks only
# the index entries of the lines it decodes, so a forged entry for an older
# line can hide a record from it; the newest-only reads come after a read of
# each host, which between them check every entry a forged index can swap.
_READS = (
    (None, None),
    ("alpha", None),
    ("gamma", None),
    ("beta", None),
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


def _drop_identity(stored, data):
    del stored["identity"]


def _point_inside_a_line(stored, data):
    # An entry, with its keys, for the valid record after the "\r" of the
    # "inner-cr" line, which no reader may take for a line of its own.
    start = data.find(b"\r{") + 1
    try:
        payload = json.loads(data[start : data.index(b"\n", start)])
        keys = [payload["host_label"], payload["assessment"]["label"]]
    except _CORRUPT:
        return
    if 0 < start < stored["covered"]:
        stored["lines"] = sorted([*stored["lines"], [start, *keys]])


# Index entries that disagree with the file, under a checksum recomputed over
# them ("forged-*", as if the index were written that way) or left as it was.
_EDITS = {
    "forged-keys": (_reverse_keys, True),
    "forged-offset": (_shift_offset, True),
    "forged-inner": (_point_inside_a_line, True),
    "forged-duplicate": (_duplicate_entry, True),
    "forged-corrupt": (_claim_a_skipped_line, True),
    "forged-no-identity": (_drop_identity, True),
    "tampered": (_count_one_more, False),
}
_DAMAGE = (*_BAD_INDEXES, *_EDITS, "stale", "other-file", "other-schema", "directory", "fifo",
           "symlink")
_STEPS = st.one_of(
    st.tuples(st.just("read"), st.booleans()),
    st.tuples(st.just("append"), st.sampled_from(_APPENDS), st.booleans()),
    st.tuples(st.just("edit"), st.integers(0, 50), st.booleans()),
    st.tuples(st.just("truncate"), st.integers(0, 100)),
    st.tuples(st.just("damage"), st.sampled_from(_DAMAGE)),
    st.just(("settle",)),
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


def _checksum(body):
    return b"%08x" % zlib.crc32(body)


def _edit_index(path, index, edit, sign):
    load_history(path, newest_of={"full"})  # an index of the file as it is now
    if not index.is_file():
        return
    data = path.read_bytes()
    check, _, body = index.read_bytes().partition(b"\n")
    try:
        stored = json.loads(body)
        described = stored["sha256"] == hashlib.sha256(data[: stored["covered"]]).hexdigest()
    except _CORRUPT:
        return
    # A file with no complete line gets no index, so the one left may be of
    # an earlier file, or not an index at all: there is nothing to edit.
    if check != _checksum(body) or not described or not stored["lines"]:
        return
    edit(stored, data)
    body = json.dumps(stored, separators=(",", ":")).encode()
    if sign:
        check = _checksum(body)
    index.write_bytes(check + b"\n" + body)


def _each_damage_on_a_settled_history(test):
    """An example of each damage case after a "settle" step: the damaged
    index meets a read that would trust an undamaged one."""
    for damage in _DAMAGE:
        test = example(steps=[("settle",), ("damage", damage)])(test)
    return test


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
@example(steps=[("read", True), ("edit", 3, False)])
@example(steps=[("append", ("valid", "full", "beta"), False)])
@example(steps=[("read", False), ("truncate", 0), ("damage", "forged-corrupt")])
@example(steps=[("truncate", 0), ("damage", "garbage"), ("damage", "forged-keys")])
@example(steps=[("settle",), ("edit", 3, True)])
@example(steps=[("settle",), ("edit", 8, True), ("settle",), ("edit", 8, True)])
@example(steps=[("settle",), ("append", ("valid", "full", "beta"), True), ("settle",)])
@example(steps=[("settle",), ("append", ("valid", "partial", "alpha"), False), ("settle",)])
@example(steps=[("settle",), ("append", ("garbage", "full", "beta"), True), ("damage", "stale")])
@example(steps=[("settle",), ("truncate", 60), ("settle",), ("damage", "forged-offset")])
@_each_damage_on_a_settled_history
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
            # Same length, so only the digest can tell the line changed; with
            # the modification time put back, only the ctime of the identity.
            data = bytearray(path.read_bytes())
            starts = [0] + [i + 1 for i, byte in enumerate(data) if byte == 10][:-1]
            start = starts[step[1] % len(starts)] if data else 0
            host = data.find(b'"host_label":"alpha"', start)
            if 0 <= host < data.find(b"\n", start):
                data[host + 14 : host + 19] = b"gamma"
            elif start < len(data):
                data[start] = ord("~")
            times = path.stat()
            path.write_bytes(bytes(data))
            if step[2]:
                os.utime(path, ns=(times.st_atime_ns, times.st_mtime_ns))
        elif step[0] == "settle":
            while time.time_ns() - path.stat().st_ctime_ns <= SETTLE_NS:
                time.sleep(SETTLE_NS / 4e9)
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
            load_history(other, newest_of={"full"})
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
            load_history(path, newest_of={"full"})
            target = directory / "elsewhere.idx"
            if index.is_file():
                os.replace(index, target)
            _drop_index(index)
            index.symlink_to(target)
        before = _index_state(index)
        edited = step[0] == "edit"
        settling = (
            mock.patch.object(store, "_SETTLE_NS", SETTLE_NS)
            if step[0] == "settle"
            else contextlib.nullcontext()
        )
        for host_filter, newest_of in _READS:
            hashing = mock.patch.object(store, "_new_digest", wraps=store._new_digest)
            with settling, hashing as hashed:
                loaded = load_history(path, host_filter=host_filter, newest_of=newest_of)
            expected = _plain_load(path, host_filter, newest_of)
            assert (loaded.records, loaded.skipped) == (expected.records, expected.skipped)
            if host_filter is None and newest_of is None:
                # An unfiltered read neither writes nor replaces the index.
                assert _index_state(index) == before
            elif edited:
                # The edit changed the ctime, so the next filtered read does
                # not trust an index written before it: it hashes the history.
                assert hashed.called or b"\n" not in path.read_bytes()
                edited = False
        data = path.read_bytes()
        if step[0] == "settle" and data.endswith(b"\n") and index.is_file():
            # The reads recorded the history's identity, or trusted it.
            body = index.read_bytes().partition(b"\n")[2]
            assert json.loads(body)["identity"] == store._identity(path.stat())
        if index.is_file() and not index.is_symlink():
            snapshots.append(index.read_bytes())


def test_newest_only_read_checks_each_index_entry_it_decodes(tmp_path):
    path = tmp_path / "history.jsonl"
    path.write_text("".join(_LINES["valid", "full", host] + "\n" for host in ("alpha", "beta")))
    # Each entry claims the host of the other line.
    _edit_index(path, tmp_path / "history.jsonl.idx", _reverse_keys, True)
    loaded = load_history(path, host_filter="beta", newest_of={"full"})
    assert [record.host_label for record in loaded.records] == ["beta"]
    assert loaded == _plain_load(path, "beta", {"full"})


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
        mock.patch("tempfile.mkstemp", side_effect=PermissionError),
        mock.patch.object(store, "_new_digest", side_effect=AssertionError("hashed")),
    ):
        assert len(load_history(path, host_filter="node-0").records) == 2
    assert not (tmp_path / "history.jsonl.idx").exists()


def _labelled_history(tmp_path):
    """Labels baseline, partial and full on alpha and beta, then a torn line."""
    path = tmp_path / "history.jsonl"
    for label in ("baseline", "partial", "full"):
        for host in ("alpha", "beta"):
            append_record(path, _record(label=label, host=host))
    with open(path, "a") as handle:
        handle.write("{torn\n")
    return path


def test_format_3_index_in_the_earlier_key_order_is_trusted_and_written_alike(
    tmp_path, monkeypatch
):
    path = _labelled_history(tmp_path)
    settle(path, monkeypatch)
    data = path.read_bytes()
    lines, skipped, offset = [], 0, 0
    for line in data.split(b"\n")[:-1]:
        try:
            payload = json.loads(line)
            lines.append([offset, payload["host_label"], payload["assessment"]["label"]])
        except ValueError:
            skipped += 1
        offset += len(line) + 1
    # Written field by field, in the order format 3 has always had.
    body = json.dumps(
        {
            "format": 3,
            "schema_version": 1,
            "identity": store._identity(path.stat()),
            "sha256": hashlib.sha256(data).hexdigest(),
            "covered": len(data),
            "skipped": skipped,
            "lines": lines,
        },
        separators=(",", ":"),
    ).encode()
    index = tmp_path / "history.jsonl.idx"
    index.write_bytes(_checksum(body) + b"\n" + body)
    with mock.patch.object(store, "_new_digest", side_effect=AssertionError("hashed")):
        for host_filter, newest_of in _READS[1:]:
            loaded = load_history(path, host_filter=host_filter, newest_of=newest_of)
            assert loaded == _plain_load(path, host_filter, newest_of)
    assert index.read_bytes() == _checksum(body) + b"\n" + body
    # The index a read writes for the same file is that same index.
    index.unlink()
    load_history(path, host_filter="alpha")
    assert index.read_bytes() == _checksum(body) + b"\n" + body
    assert store._read_index(index, path.stat()) == json.loads(body)


def test_unterminated_last_line_is_skipped_and_indexed_once_it_ends(tmp_path, monkeypatch):
    # A writer may still be appending the last line when a filtered read
    # meets it. The read counts it as skipped, but neither indexes it nor
    # records the history's identity, so the read after the line ends
    # loads its record and counts nothing for it.
    path = tmp_path / "history.jsonl"
    append_record(path, _record("baseline"))
    append_record(path, _record("partial", values=(61, 69.8, 77.7, 78.0, 58.6, 47)))
    line = record_to_json(_record("full", values=(70, 75, 80, 85, 60, 50))) + "\n"
    complete = path.stat().st_size
    with open(path, "a") as handle:
        handle.write(line[: len(line) // 2])
    settle(path, monkeypatch)  # settled enough to record, were its last line whole
    index = tmp_path / "history.jsonl.idx"

    def stored():
        return json.loads(index.read_bytes().partition(b"\n")[2])

    loaded = load_history(path, newest_of={"baseline", "full"})
    assert ([r.assessment.label for r in loaded.records], loaded.skipped) == (["baseline"], 1)
    first = stored()
    assert (first["covered"], first["skipped"], first["identity"]) == (complete, 0, None)
    assert [entry[2] for entry in first["lines"]] == ["baseline", "partial"]
    with open(path, "a") as handle:
        handle.write(line[len(line) // 2 :])
    loaded = load_history(path, newest_of={"baseline", "full"})
    assert ([r.assessment.label for r in loaded.records], loaded.skipped) == (
        ["baseline", "full"],
        0,
    )
    second = stored()
    assert (second["covered"], second["skipped"]) == (path.stat().st_size, 0)
    assert second["lines"] == [*first["lines"], [complete, "node-1", "full"]]


@pytest.mark.parametrize(
    "host_filter, newest_of, parses",
    [("alpha", None, 4), (None, {"baseline", "full"}, 2), ("beta", {"partial", "full"}, 3)],
    ids=["host", "newest", "host-newest"],
)
def test_filtered_read_after_an_append_parses_only_the_new_line_and_the_kept_ones(
    tmp_path, monkeypatch, host_filter, newest_of, parses
):
    path = _labelled_history(tmp_path)
    settle(path, monkeypatch)
    load_history(path, host_filter="alpha")  # an index that records the identity
    append_record(path, _record(label="full", host="alpha", values=(60, 70, 80, 80, 60, 10)))
    data = path.read_bytes()
    appended = data.splitlines()[-1]
    expected = _plain_load(path, host_filter, newest_of)
    parsed = []
    parse = store._parse_line

    def counting(line):
        parsed.append(bytes(line))
        return parse(line)

    monkeypatch.setattr(store, "_parse_line", counting)
    with history_reads() as reads:
        loaded = load_history(path, host_filter=host_filter, newest_of=newest_of)
    assert loaded == expected
    # Besides the new line, which is scanned, only the lines of the records
    # kept are parsed, each once: a kept new line is decoded from its scan.
    kept = {record_to_json(record).encode() for record in loaded.records}
    assert {line.rstrip(b"\n") for line in parsed} == kept | {appended}
    assert len(parsed) == parses
    # The history is read once, to check the digest and scan the new line;
    # the kept indexed lines are taken from those bytes, not read again.
    assert reads == [("read", len(data))]


def test_tail_that_one_pread_cannot_return_is_read_whole(tmp_path, monkeypatch):
    # One pread returns at most 0x7ffff000 bytes on Linux, so a tail that
    # long cannot come from one pread at the tail's offset. No read makes
    # one: the tail comes from the one read of the whole history.
    path = _labelled_history(tmp_path)
    load_history(path, host_filter="alpha")
    covered = path.stat().st_size
    append_record(path, _record(label="full", host="alpha", values=(60, 70, 80, 80, 60, 10)))
    pread = os.pread
    at_tail = []

    def recorded(fd, size, offset):
        at_tail.append(offset == covered)
        return pread(fd, size, offset)

    monkeypatch.setattr(store.os, "pread", recorded)
    for host_filter, newest_of in (("alpha", None), (None, {"full"})):
        loaded = load_history(path, host_filter=host_filter, newest_of=newest_of)
        assert loaded == _plain_load(path, host_filter, newest_of)
    assert not any(at_tail)


@pytest.mark.skipif(os.geteuid() != 0, reason="giving a file to another user needs root")
def test_index_owned_by_another_user_is_ignored(tmp_path):
    path = _history(tmp_path)
    index = tmp_path / "history.jsonl.idx"
    load_history(path, host_filter="node-0")
    # A valid index whose entries all claim another host: trusted, it would
    # hide the node-0 records.
    _, _, body = index.read_bytes().partition(b"\n")
    stored = json.loads(body)
    for entry in stored["lines"]:
        entry[1] = "node-9"
    body = json.dumps(stored, separators=(",", ":")).encode()
    index.write_bytes(_checksum(body) + b"\n" + body)
    os.chown(index, 12345, 12345)
    with mock.patch.object(store.os, "replace", side_effect=PermissionError):  # a sticky directory
        assert len(load_history(path, host_filter="node-0").records) == 2


def test_newest_first_read_with_no_index_holds_one_payload_per_label(tmp_path, monkeypatch):
    """With no usable index (here, a symlinked path) a newest-first read
    scans every line but holds the parsed payload of only the newest line
    of each label; an older line is parsed again only when every newer
    line of its label fails to decode."""
    path = tmp_path / "history.jsonl"
    line = record_to_json(_record(label="only"))
    payload = json.loads(line)
    payload["assessment"]["composite"] = 12.0  # the keys, but broken invariants
    broken = json.dumps(payload)
    lines = 2_000
    path.write_text((line + "\n") * (lines - 2) + (broken + "\n") * 2)
    link = tmp_path / "link.jsonl"
    link.symlink_to(path)
    expected = _plain_load(path, None, {"only"})
    parsed = []
    parse = store._parse_line

    def counting(line):
        parsed.append(len(line))
        return parse(line)

    monkeypatch.setattr(store, "_parse_line", counting)
    tracemalloc.start()
    try:
        loaded = load_history(link, newest_of={"only"})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded == expected
    assert loaded.skipped == 2
    # The file's bytes and a few offsets per line, not a payload per line
    # (about seven times the file's size).
    assert peak < 3 * path.stat().st_size
    # Each line once in the scan, then the older broken line and the kept
    # line once more.
    assert len(parsed) == lines + 2


def test_each_read_reads_the_history_whole_at_most_once(tmp_path, monkeypatch):
    """A read that trusts the index reads only the lines it decodes. Any
    other read, the full scan after a stale index included, calls ``read``
    once; no read reads the indexed prefix or the tail by offset."""
    path = _labelled_history(tmp_path)
    index = tmp_path / "history.jsonl.idx"
    preads = []

    def reads_whole(times):
        with history_reads() as reads:
            loaded = load_history(path, host_filter="alpha")
        assert loaded == _plain_load(path, "alpha")
        assert [size for kind, size in reads if kind == "read"] == [path.stat().st_size] * times
        preads.extend(size for kind, size in reads if kind == "pread")

    appended = _record(label="full", host="alpha", values=(60, 70, 80, 80, 60, 10))
    reads_whole(1)  # cold
    reads_whole(1)  # hashed: the history has not settled
    append_record(path, appended)
    reads_whole(1)  # appended
    append_record(path, appended)
    load_history(path, host_filter="alpha")
    _edit_index(path, index, _reverse_keys, True)
    reads_whole(1)  # hashed, then a full scan of the same bytes: the entries are stale
    settle(path, monkeypatch)
    load_history(path, host_filter="alpha")  # records the identity
    reads_whole(0)  # trusted
    _edit_index(path, index, _reverse_keys, True)
    reads_whole(1)  # trusted, then a full scan: the entries are stale
    longest = max(map(len, path.read_bytes().split(b"\n")))
    assert preads and max(preads) < 3 * longest


def test_newest_first_read_through_a_pipe_falls_back_to_an_older_line(tmp_path):
    """A pipe cannot be read by offset: when the newest line of a label
    fails to decode, the older line comes from the bytes already read."""
    line = record_to_json(_record(label="only"))
    payload = json.loads(line)
    payload["assessment"]["composite"] = 12.0  # the keys, but broken invariants
    reader, writer = os.pipe()
    try:
        os.write(writer, (line + "\n" + json.dumps(payload) + "\n").encode())
        os.close(writer)
        loaded = load_history(f"/dev/fd/{reader}", newest_of={"only"})
    finally:
        os.close(reader)
    assert loaded.records == [_record(label="only")]
    assert loaded.skipped == 1
