"""The exit-code contract, for any input bytes, one property test per subcommand.

Whatever reports, manifests, configs, weights and history files a command
is given (including bytes that are not UTF-8, directories where files
belong, huge numbers, XML entities and deep nesting), it exits 0, 2 or 3,
never prints a traceback, and never prints a non-finite number.
"""

from __future__ import annotations

import re
import stat
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from auditscore.cli import main
from auditscore.errors import ParseError
from auditscore.model import (
    AideReport,
    LynisReport,
    ScapProfile,
    ScapReport,
    Severity,
    TripwireReport,
    VulnFinding,
    VulnReport,
    WeightProfile,
)
from auditscore.parsers import parse_aide, parse_lynis, parse_nmap, parse_tripwire, parse_xccdf
from auditscore.scoring import aggregate, normalize_report
from auditscore.store import HistoryRecord, record_to_json

from .conftest import DATA_DIR
from .strategies import FIXED_TIMESTAMP, six_scores

# No max_examples: the hypothesis profile in use sets it.
_contract = settings(
    deadline=None,
    suppress_health_check=[
        HealthCheck.function_scoped_fixture,
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
    ],
)

_NON_FINITE = re.compile(r"(?i)(?<![\w.])[-+]?(?:nan|inf|infinity)(?!\w)")

# Numbers as they may be spelled in a report, a YAML file or a JSON line.
_ODD_NUMBERS = (
    "9" * 5000,
    "1" + "0" * 400,
    "1e999",
    "-1e999",
    "1.0e+999",
    "1e308",
    "1.0e+7",
    "2147483648",
    "4e-324",
    "-0",
    "-1",
    ".nan",
    ".inf",
    "-.inf",
    "NaN",
    "Infinity",
    "-Infinity",
    "0x1f",
    "1_000",
    "1,000,000",
    "٣",
)
_numbers = st.one_of(
    st.integers(0, 120).map(str),
    st.integers(-10, 10**7).map(str),
    st.floats().map(repr),
    st.sampled_from(_ODD_NUMBERS),
)
_odd_values = st.sampled_from(["true", "null", "''", "x", "[1, 2]", "{a: 1}", "2001-13-45", '"\\0"'])
_scalars = st.one_of(_numbers, _odd_values)
# Labels and hosts are names, printed as given, so none is spelled like a
# non-finite number.
_names = st.one_of(st.integers(-10, 10**7).map(str), st.sampled_from(_ODD_NUMBERS[:4]), _odd_values)


def _deep(opening: str, closing: str, depth: int) -> str:
    return opening * depth + closing * depth


@st.composite
def _bytes_of(draw, text):
    """``text`` as bytes, or a mangled form of it."""
    data = text.encode() if isinstance(text, str) else text
    how = draw(st.sampled_from(["keep", "keep", "keep", "truncate", "not-utf8", "binary"]))
    if how == "truncate":
        return data[: draw(st.integers(0, len(data)))]
    if how == "not-utf8":
        at = draw(st.integers(0, len(data)))
        return data[:at] + b"\xff\xfe\xc3" + data[at:]
    if how == "binary":
        return draw(st.binary(max_size=64))
    return data


_FIXTURES = {
    "lynis": "lynis-baseline.dat",
    "openscap-standard": "oscap-standard-baseline.xml",
    "aide": "aide-baseline.txt",
    "tripwire": "tripwire-baseline.txt",
    "openscap-cis": "oscap-cis-baseline.xml",
    "vuln-scan": "nmap-baseline.xml",
}
_XCCDF_RESULTS = ["pass", "fail", "fixed", "error", "notapplicable", "bogus", "", "&e;", "&nope;"]
_DOCTYPE = '<!DOCTYPE r [<!ENTITY e "pass"><!ENTITY f "&e;&e;&e;&e;&e;&e;&e;&e;">]>'


@st.composite
def _reports(draw, tool: str):
    """Report bytes for ``tool`` (a CLI tool name): a template, a fixture or junk."""

    def n():
        return draw(_numbers)

    kind = draw(st.sampled_from(["template", "template", "fixture", "deep"]))
    if kind == "fixture":
        return draw(_bytes_of((DATA_DIR / _FIXTURES[tool]).read_bytes()))
    if tool == "lynis":
        text = f"hardening_index={n()}\n" * draw(st.integers(1, 2))
        deep = text + _deep("[", "]", 5000)
    elif tool.startswith("openscap"):
        results = "".join(
            f"<rule-result idref='r{i}'><result>{value}</result></rule-result>"
            for i, value in enumerate(draw(st.lists(st.sampled_from(_XCCDF_RESULTS), max_size=4)))
        )
        text = _DOCTYPE + "<Benchmark>" + f"<TestResult>{results}</TestResult>" * draw(
            st.integers(1, 2)
        ) + "</Benchmark>"
        deep = "<a>" * 50_000 + f"<TestResult>{results}</TestResult>" + "</a>" * 50_000
    elif tool == "aide":
        text = f"Added entries: {n()}\nRemoved entries: {n()}\nChanged entries: {n()}\n"
        deep = _deep("(", ")", 50_000)
    elif tool == "tripwire":
        text = f"Total objects scanned: {n()}\nTotal violations found: {n()}\n"
        deep = _deep("{", "}", 50_000)
    else:
        script = f"CVE-2021-1234 {n()}&#10;CVSS: {n()}&#10;Risk factor: High&#10;VULNERABLE"
        text = (
            f"{_DOCTYPE}<nmaprun><host><ports>"
            f"<port portid='{n()}'><state state='open'/><script id='s' output='{script}'/></port>"
            f"<extraports state='filtered' count='{n()}'/></ports>"
            f"<hostscript><script id='h' output='&f; VULNERABLE'/></hostscript></host></nmaprun>"
        )
        deep = "<nmaprun>" + "<host>" * 50_000 + "</host>" * 50_000 + "</nmaprun>"
    return draw(_bytes_of(deep if kind == "deep" else text))


_LIBRARY_PARSERS = {
    "lynis": parse_lynis,
    "openscap-standard": lambda text, source, **options: parse_xccdf(
        text, ScapProfile.STANDARD, source, **options
    ),
    "aide": parse_aide,
    "tripwire": parse_tripwire,
    "openscap-cis": lambda text, source, **options: parse_xccdf(
        text, ScapProfile.CIS, source, **options
    ),
    "vuln-scan": parse_nmap,
}
# A CVE finding on a port the model refuses.
_PORT_70000 = (
    b"<nmaprun><host><ports><port protocol='tcp' portid='70000'><state state='open'/>"
    b"<script id='vulners' output='CVE-2021-1234 9.8'/></port></ports></host></nmaprun>"
)


@given(
    report=st.sampled_from(sorted(_FIXTURES)).flatmap(
        lambda tool: st.tuples(st.just(tool), _reports(tool))
    ),
    trace=st.booleans(),
)
@example(report=("vuln-scan", _PORT_70000), trace=False)
@_contract
def test_library_parse_contract(report, trace):
    """Called directly, as a library caller would, a parser raises nothing but a
    ``ParseError`` naming the report, whatever report the CLI could be given."""
    tool, data = report
    try:
        _LIBRARY_PARSERS[tool](data.decode("utf-8", errors="replace"), "report", trace=trace)
    except ParseError as exc:
        assert exc.source == "report"


@st.composite
def _yaml_file(draw, body: str):
    """YAML bytes: ``body`` or a mangled form of it, now and then nested 300 deep.

    PyYAML's time grows fast with depth, so deep files are rare here, and
    files nested past the recursion limit (which hypothesis raises while a
    test runs) have their own tests in test_cli.py.
    """
    if draw(st.sampled_from(range(10))) == 9:
        return ("label: " + _deep("[", "]", 300)).encode()
    return draw(_bytes_of(body))


@st.composite
def _weights_yaml(draw) -> str:
    weights = {tool.value: str(weight) for tool, weight in WeightProfile().tool_weights.items()}
    for tool in draw(st.lists(st.sampled_from(sorted(weights)), max_size=2)):
        weights[tool] = draw(_numbers)
    lines = ["tool_weights: {" + ", ".join(f"{k}: {v}" for k, v in weights.items()) + "}"]
    for key in draw(st.lists(st.sampled_from(["port_penalty", "high", "bogus"]), max_size=2)):
        value = draw(_scalars)
        lines.append(f"severity_weights: {{high: {value}}}" if key == "high" else f"{key}: {value}")
    return "\n".join(lines) + "\n"


# Valid history lines, and numbers in them to spoil: two with literal
# scores, one with the raw reports of every tool.
_RAW = (
    LynisReport(59),
    ScapReport(ScapProfile.STANDARD, 29, 14),
    AideReport(11, 0, 35),
    TripwireReport(76472, 13459),
    ScapReport(ScapProfile.CIS, 137, 100),
    VulnReport(3, 0, False, (VulnFinding("CVE-2021-1234", Severity.HIGH, False, 7.5, 22),)),
)
_RECORD_LINES = [
    record_to_json(HistoryRecord(aggregate(scores, WeightProfile(), label, FIXED_TIMESTAMP), host))
    for label, host, scores in [
        ("baseline", "a", {score.tool: score for score in map(normalize_report, _RAW)}),
        ("partial", "b", six_scores((70, 80, 60.5, 90, 65, 40))),
        ("full", "a", six_scores((85, 95.2, 40, 99.9, 88, 75))),
    ]
]
_JSON_NUMBER = re.compile(r"(?<=[:\[,])-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
_JSON_TOKENS = ["NaN", "Infinity", "-Infinity", "1e999", "-1e999", "9" * 5000, "1e308", "-1",
                "0", "100.5", "true", "null", '"x"', "[]", "{}"]


@st.composite
def _history_line(draw) -> bytes:
    line = draw(st.sampled_from(_RECORD_LINES))
    kinds = ["valid", "valid", "spoiled", "spoiled", "deep", "junk", "surrogate"]
    kind = draw(st.sampled_from(kinds))
    if kind == "surrogate":
        # A label or host that JSON takes but a strict UTF-8 stdout cannot write.
        key = draw(st.sampled_from(['"label":"', '"host_label":"']))
        start = line.index(key) + len(key)
        line = line[:start] + "\\ud800x" + line[line.index('"', start) :]
    elif kind == "spoiled":
        spans = [m.span() for m in _JSON_NUMBER.finditer(line)]
        for start, end in sorted(draw(st.sets(st.sampled_from(spans), max_size=3)), reverse=True):
            line = line[:start] + draw(st.sampled_from(_JSON_TOKENS)) + line[end:]
    elif kind == "deep":
        line = _deep("[", "]", 10_000)
    elif kind == "junk":
        return draw(_bytes_of(line))
    return line.encode()


_histories = st.lists(_history_line(), max_size=6).map(lambda lines: b"\n".join(lines) + b"\n")


def _put(directory: Path, name: str, data: bytes | None) -> Path:
    """Write ``data`` to ``directory/name``; ``None`` makes a directory there."""
    path = directory / name
    if data is None:
        path.mkdir()
    else:
        path.write_bytes(data)
    return path


def _maybe_dir(strategy):
    """``strategy``, or now and then ``None``: a directory where a file belongs."""
    return st.integers(0, 4).flatmap(lambda n: strategy if n else st.none())


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """A new directory per example, and the command runs in it.

    Configs name paths relative to it, so mangled bytes cannot point a
    write outside it. No config comes from the environment and no scanner
    is on ``PATH``: a config that loses its fake command must not run a
    real scan or initialize a real database.
    """
    monkeypatch.delenv("AUDITSCORE_CONFIG", raising=False)
    monkeypatch.setenv("PATH", str(tmp_path))

    def new() -> Path:
        directory = Path(tempfile.mkdtemp(dir=tmp_path))
        monkeypatch.chdir(directory)
        return directory

    return new


def _check(capsys, argv: list[str]) -> None:
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2, 3), (code, err)
    assert "Traceback" not in err and "Exception ignored" not in err
    assert not _NON_FINITE.search(out), out
    # The one line that prints a number on stderr.
    gate = [line for line in err.splitlines() if line.startswith("composite ")]
    assert not _NON_FINITE.search("\n".join(gate)), gate


@st.composite
def _config_args(draw, directory: Path, weights: bool = True) -> list[str]:
    """``--config`` and, when asked for, ``--weights`` arguments, or none."""
    args = []
    if draw(st.booleans()):
        body = "weights:\n  " + draw(_weights_yaml()).replace("\n", "\n  ") if weights else ""
        args += ["--config", str(_put(directory, "config.yaml", draw(_maybe_dir(_yaml_file(body)))))]
    if weights and draw(st.booleans()):
        data = draw(_maybe_dir(_yaml_file(draw(_weights_yaml()))))
        args += ["--weights", str(_put(directory, "weights.yaml", data))]
    return args


_TOOLS = sorted(_FIXTURES)


@given(data=st.data())
@_contract
def test_parse_contract(capsys, workdir, data):
    directory = workdir()
    tool = data.draw(st.sampled_from(_TOOLS))
    report = _put(directory, "report", data.draw(_maybe_dir(_reports(tool))))
    argv = ["parse", "--tool", tool, *data.draw(_config_args(directory))]
    argv += data.draw(st.sampled_from([[], ["--json"], ["--verbose"]]))
    argv += ["--firewall", data.draw(st.sampled_from(["auto", "active", "inactive"]))]
    _check(capsys, argv + [str(report)])


@given(data=st.data())
@_contract
def test_score_contract(capsys, workdir, data):
    directory = workdir()
    entries = []
    # Spoil at most two entries, so that some manifests score.
    spoiled = data.draw(st.sets(st.sampled_from(_TOOLS), max_size=2))
    for tool in _TOOLS:
        name = tool.replace("-", "_")
        if tool not in spoiled:
            valid = data.draw(st.sampled_from([str(DATA_DIR / _FIXTURES[tool]), "{score: 50}"]))
            entries.append(f"  {name}: {valid}")
            continue
        form = data.draw(st.sampled_from(["path", "path", "mapping", "score", "absent"]))
        if form in ("path", "mapping"):
            _put(directory, name, data.draw(_maybe_dir(_reports(tool))))
        if form == "path":
            entries.append(f"  {name}: {name}")
        elif form == "mapping":
            entries.append(f"  {name}: {{path: {name}, firewall: {data.draw(_scalars)}}}")
        elif form == "score":
            entries.append(f"  {name}: {{score: {data.draw(_numbers)}}}")
    body = (
        f"label: {data.draw(_names)}\nhost: {data.draw(_names)}\n"
        "reports:\n" + "\n".join(entries) + "\n"
    )
    manifest = _put(directory, "manifest.yaml", data.draw(_maybe_dir(_yaml_file(body))))
    argv = ["score", "--manifest", str(manifest), *data.draw(_config_args(directory))]
    argv += data.draw(st.sampled_from([[], ["--json"], ["--verbose"]]))
    if data.draw(st.booleans()):
        argv += ["--min-score", data.draw(st.sampled_from(["60", "nan", "inf", "1e999"]) | _numbers)]
    if data.draw(st.booleans()):
        history = _put(directory, "history.jsonl", data.draw(_maybe_dir(_histories)))
        argv += ["--history", str(history)]
    _check(capsys, argv)


_LABELS = ["baseline", "partial", "full", "absent"]


def _history_args(data, directory: Path) -> list[str]:
    history = _put(directory, "history.jsonl", data.draw(_maybe_dir(_histories)))
    return ["--history", str(history), *data.draw(_config_args(directory, weights=False))]


@given(data=st.data())
@_contract
def test_compare_contract(capsys, workdir, data):
    directory = workdir()
    references = []
    for side in ("from", "to"):
        if data.draw(st.booleans()):
            references.append(data.draw(st.sampled_from(_LABELS)))
        else:
            references.append(str(_put(directory, side, data.draw(_maybe_dir(_histories)))))
    argv = ["compare", *references, *_history_args(data, directory)]
    _check(capsys, argv + data.draw(st.sampled_from([[], ["--json"]])))


@given(data=st.data())
@_contract
def test_history_contract(capsys, workdir, data):
    argv = ["history", *_history_args(data, workdir())]
    argv += data.draw(st.sampled_from([[], ["--json"]]))
    argv += data.draw(st.sampled_from([[], ["--host", "a"], ["--host", "z"]]))
    _check(capsys, argv)


@given(data=st.data())
@_contract
def test_report_contract(capsys, workdir, data):
    labels = data.draw(st.lists(st.sampled_from(_LABELS), min_size=1, max_size=4))
    argv = ["report", *labels, *_history_args(data, workdir())]
    argv += ["--format", data.draw(st.sampled_from(["markdown", "json", "text"]))]
    _check(capsys, argv + data.draw(st.sampled_from([[], ["--timestamps"]])))


def _fake_tool(directory: Path, output: bytes, exit_code: int) -> Path:
    source = _put(directory, "tool-output", output)
    tool = directory / "fake-tool"
    tool.write_text(f"#!/bin/sh\n/bin/cat '{source}' > \"$1\"\nexit {exit_code}\n")
    tool.chmod(tool.stat().st_mode | stat.S_IEXEC)
    return tool


_COMMAND_TAILS = ["{output}", "{output}", "{output} {target}", "{output.x}", "{output[a]}",
                  "{nope}", "'{output}", "{output}\\0"]


@given(data=st.data())
@_contract
def test_run_contract(capsys, workdir, data):
    directory = workdir()
    tool = _fake_tool(directory, data.draw(_reports("lynis")), data.draw(st.integers(0, 3)))
    command = f"{tool} {data.draw(st.sampled_from(_COMMAND_TAILS))}"
    body = (
        f"runner:\n  output_dir: reports\n  target: {data.draw(_scalars)}\n"
        f"  tools:\n    lynis:\n      command: \"{command}\"\n"
        f"      timeout: {data.draw(st.sampled_from(['5', '30']) | _numbers)}\n"
        f"      exit_codes: [0, {data.draw(_scalars)}]\n"
        f"      output: {data.draw(st.sampled_from(['out.dat', 'a/b.dat', 'null', '[1]']))}\n"
    )
    config = _put(directory, "config.yaml", data.draw(_bytes_of(body)))
    argv = ["run", "--config", str(config), "--tools", "lynis"]
    _check(capsys, argv + data.draw(st.sampled_from([[], ["--parallel"]])))


@given(data=st.data())
@_contract
def test_init_integrity_db_contract(capsys, workdir, data):
    directory = workdir()
    tool = _fake_tool(directory, b"written\n", data.draw(st.integers(0, 2)))
    if data.draw(st.booleans()):
        _put(directory, "aide.db", data.draw(st.sampled_from([b"old", None])))
    command = f"{tool} {data.draw(st.sampled_from(_COMMAND_TAILS))}"
    body = (
        "runner:\n  output_dir: reports\n"
        f"  tools:\n    aide:\n      timeout: {data.draw(st.sampled_from(['5', '30']) | _numbers)}\n"
        f"  init:\n    aide:\n      command: \"{command}\"\n      database: aide.db\n"
    )
    config = _put(directory, "config.yaml", data.draw(_bytes_of(body)))
    argv = ["init-integrity-db", "--config", str(config), "--tool", "aide"]
    _check(capsys, argv + data.draw(st.sampled_from([[], ["--force"]])))
