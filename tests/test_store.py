import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from auditscore.errors import StoreError
from auditscore.model import WeightProfile
from auditscore.scoring import aggregate
from auditscore.store import (
    SCHEMA_VERSION,
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
