from collections import Counter
from pathlib import Path

import pytest

from auditscore.config import load_config
from auditscore.errors import ValidationError
from auditscore.model import ToolKind, WeightProfile
from auditscore.runner import ToolInvocation

_EVERY_RUNNER_KEY = """\
runner:
  output_dir: /srv/reports
  target: 10.0.0.5
  datastream: /srv/ssg-ds.xml
  tools:
    lynis:
      command: "lynis audit system --report-file {output}"
      timeout: 120
      exit_codes: [0, 1]
      output: lynis.dat
    aide: {timeout: 60}
    vuln-scan: {output: nmap/scan.xml}
  init:
    aide:
      command: "aide --init --config /etc/aide.conf"
      database: /srv/aide.db
    tripwire: {database: /srv/tripwire.twd}
"""


def _config_file(tmp_path, text):
    path = tmp_path / "config.yaml"
    path.write_text(text)
    return path


def test_every_runner_key_applies_over_the_tool_defaults(tmp_path):
    config = load_config(_config_file(tmp_path, _EVERY_RUNNER_KEY))
    reports = Path("/srv/reports")
    oscap = (
        "oscap xccdf eval --profile xccdf_org.ssgproject.content_profile_{}"
        " --results {{output}} {{datastream}}"
    )
    assert config.checks == {
        ToolKind.LYNIS: ToolInvocation(
            ToolKind.LYNIS,
            "lynis audit system --report-file {output}",
            reports / "lynis.dat",
            120.0,
            frozenset({0, 1}),
        ),
        ToolKind.OPENSCAP_STANDARD: ToolInvocation(
            ToolKind.OPENSCAP_STANDARD,
            oscap.format("standard"),
            reports / "openscap-standard.xml",
            3600.0,
            frozenset({0, 2}),
        ),
        ToolKind.AIDE: ToolInvocation(
            ToolKind.AIDE, "aide --check", reports / "aide-check.txt", 60.0, frozenset(range(8))
        ),
        ToolKind.TRIPWIRE: ToolInvocation(
            ToolKind.TRIPWIRE,
            "tripwire --check",
            reports / "tripwire-check.txt",
            3600.0,
            frozenset(range(8)),
        ),
        ToolKind.OPENSCAP_CIS: ToolInvocation(
            ToolKind.OPENSCAP_CIS,
            oscap.format("cis_level1_server"),
            reports / "openscap-cis.xml",
            3600.0,
            frozenset({0, 2}),
        ),
        ToolKind.VULN_SCAN: ToolInvocation(
            ToolKind.VULN_SCAN,
            "nmap -sV --script vuln -oX {output} {target}",
            reports / "nmap" / "scan.xml",
            3600.0,
            frozenset({0}),
        ),
    }
    # An init logs next to the reports, accepts only exit 0 and gets its
    # check's timeout.
    assert config.inits == {
        ToolKind.AIDE: (
            ToolInvocation(
                ToolKind.AIDE,
                "aide --init --config /etc/aide.conf",
                reports / "aide-init.log",
                60.0,
                frozenset({0}),
            ),
            Path("/srv/aide.db"),
        ),
        ToolKind.TRIPWIRE: (
            ToolInvocation(
                ToolKind.TRIPWIRE,
                "tripwire --init",
                reports / "tripwire-init.log",
                3600.0,
                frozenset({0}),
            ),
            Path("/srv/tripwire.twd"),
        ),
    }
    assert config.substitutions == {"target": "10.0.0.5", "datastream": "/srv/ssg-ds.xml"}


@pytest.fixture
def built(monkeypatch):
    """How many times each class is built, counted at its ``__init__``."""
    counts = Counter()
    for cls in (ToolInvocation, WeightProfile):

        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


@pytest.mark.parametrize(
    "text",
    [
        None,
        "runner:\n  tools:\n    lynis: {timeout: 5}\n  init:\n    aide: {command: aide -i}\n",
        _EVERY_RUNNER_KEY,
        "weights:\n  tool_weights: {lynis: 0.25, vuln_scan: 0.1}\n  port_penalty: 2\n",
    ],
    ids=["defaults", "one-tool-and-one-init", "every-runner-key", "weights"],
)
def test_load_config_builds_each_invocation_and_the_profile_once(tmp_path, built, text):
    load_config(None if text is None else _config_file(tmp_path, text))
    # Six checks, two inits and one weight profile.
    assert built == {"ToolInvocation": 8, "WeightProfile": 1}


_BAD_TIMEOUT = "runner.tools.{}: timeout must be greater than 0 and at most 604800, got -1.0"
_TIMEOUT_TEXT = "runner.tools.{}.timeout must be a finite float, got 'soon'"


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "runner:\n  tools:\n    vuln_scan: {timeout: -1}\n    lynis: {timeout: soon}\n",
            _BAD_TIMEOUT.format("vuln_scan"),
        ),
        (
            "runner:\n  tools:\n    lynis: {timeout: soon}\n    vuln_scan: {timeout: -1}\n",
            _TIMEOUT_TEXT.format("lynis"),
        ),
        (
            "runner:\n  init:\n    aide: {command: null}\n  tools:\n    lynis: {timeout: -1}\n",
            _BAD_TIMEOUT.format("lynis"),
        ),
        (
            "runner:\n  init:\n    lynis: {command: x}\n  tools:\n    aide: {timeout: soon}\n",
            _TIMEOUT_TEXT.format("aide"),
        ),
    ],
    ids=["range-first", "type-first", "tools-over-init", "tools-over-init-tool"],
)
def test_of_two_bad_runner_entries_the_first_is_named(tmp_path, text, message):
    # Entries are checked in the order of the file, runner.tools before
    # runner.init wherever each stands.
    with pytest.raises(ValidationError) as raised:
        load_config(_config_file(tmp_path, text))
    assert (raised.value.code, str(raised.value)) == ("CONFIG_INVALID", message)
