"""Seeded inputs, operations and output checks of the three workloads.

Every input file is written by the program's own public writers
(``auditscore.reportgen.render_*`` for scanner reports,
``auditscore.store.record_to_json`` for history lines) from raw metrics
drawn here from a ``random.Random`` seeded by the workload name and the
seed, so the same seed gives byte-identical files. The expected value of
every output is computed by :mod:`formulas` from those raw metrics.

An operation is one CLI call, ``auditscore <argv>``. Its check returns
``None`` when the exit code and the output match the expectation, else a
one-line reason.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Callable

import formulas

from auditscore.model import (
    AideReport,
    CompositeAssessment,
    LynisReport,
    NormalizedScore,
    ScapProfile,
    ScapReport,
    Severity,
    ToolKind,
    TripwireReport,
    VulnFinding,
    VulnReport,
    WeightProfile,
)
from auditscore.reportgen import (
    assigned_port_ids,
    render_aide,
    render_lynis,
    render_nmap,
    render_tripwire,
    render_xccdf,
)
from auditscore.store import HistoryRecord, record_to_json

Check = Callable[[int, str, str], "str | None"]

SCORE_TOLERANCE = 1e-9  # full-precision JSON values
DISPLAY_TOLERANCE = 0.005 + 1e-9  # values printed with two decimals


@dataclass
class Op:
    """One CLI call. ``kind`` names its latency metric (``<kind>_ms``)."""

    kind: str
    argv: list[str]
    check: Check
    # History records that reach the output; the base of
    # ``store.decode_useful_ratio`` in the traced run.
    records_used: int = 0


@dataclass
class Inputs:
    files: list[Path]
    warmup: Op
    # One pass of the workload's closed loop; the loop cycles through them.
    passes: list[list[Op]]
    # Wrapped layer functions each traced pass must call at least once.
    required_layers: tuple[str, ...] = field(default_factory=tuple)


def _near(got: float, want: float, tolerance: float) -> bool:
    return abs(got - want) <= tolerance


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _write(path: Path, text: str, files: list[Path]) -> None:
    path.write_text(text, encoding="utf-8")
    files.append(path)


# ---------------------------------------------------------------------------
# Scanner reports (ci-gate, scap-large)
# ---------------------------------------------------------------------------


def _cvss(rng: random.Random) -> float:
    return rng.randint(1, 100) / 10


def _finding(identifier: str, cvss: float, port: int | None, description: str = "") -> VulnFinding:
    return VulnFinding(
        identifier, Severity(formulas.severity_of(cvss)), False, cvss, port, description
    )


def _xccdf(rng: random.Random, profile: ScapProfile, rules: int) -> tuple[ScapReport, dict[str, int]]:
    """``rules`` rule results, about a tenth of them notapplicable/notselected."""
    excluded = {
        "notapplicable": rng.randint(rules // 40, rules // 15),
        "notselected": rng.randint(rules // 60, rules // 25),
    }
    evaluated = rules - sum(excluded.values())
    failed = rng.randint(evaluated // 8, evaluated // 3)
    return ScapReport(profile, evaluated - failed, failed), excluded


def _expected_scores(raws: dict) -> dict[str, float]:
    """The six normalized scores of raw reports keyed by tool name."""
    standard, cis, aide, tripwire, vuln = (
        raws[tool] for tool in ("openscap_standard", "openscap_cis", "aide", "tripwire", "vuln_scan")
    )
    return {
        "lynis": float(raws["lynis"].hardening_index),
        "openscap_standard": formulas.scap_score(standard.pass_count, standard.fail_count),
        "aide": formulas.aide_score(aide.added, aide.removed, aide.changed),
        "tripwire": formulas.tripwire_score(tripwire.objects_scanned, tripwire.violations),
        "openscap_cis": formulas.scap_score(cis.pass_count, cis.fail_count),
        "vuln_scan": formulas.vuln_score(
            vuln.open_ports,
            vuln.filtered_ports,
            [f.severity.value for f in vuln.findings if not f.confirmed],
            vuln.confirmed_count,
        ),
    }


def _write_reports(
    directory: Path,
    rng: random.Random,
    size: dict,
    label: str,
    host: str,
    files: list[Path],
) -> dict[str, float]:
    """Write six reports plus ``manifest.yaml``; return the expected scores."""
    lynis = LynisReport(rng.randint(40, 90))
    standard, standard_excluded = _xccdf(rng, ScapProfile.STANDARD, size["standard_rules"])
    cis, cis_excluded = _xccdf(rng, ScapProfile.CIS, size["cis_rules"])
    aide = AideReport(rng.randint(0, 40), rng.randint(0, 10), rng.randint(1, 200))
    objects = rng.randint(60_000, 90_000)
    tripwire = TripwireReport(objects, rng.randint(0, objects // 4))

    ports = assigned_port_ids(size["open_ports"])
    findings = []
    for port in ports:
        for _ in range(size["cves_per_port"]):
            identifier = f"CVE-{rng.randint(2015, 2025)}-{len(findings) + 10000}"
            findings.append(_finding(identifier, _cvss(rng), port))
    confirmed = 0
    if size["confirmed_findings"]:
        findings.append(
            VulnFinding("http-outdated-banner", Severity.LOW, True, None, ports[-1],
                        "server banner discloses product versions")
        )
        confirmed = 1
    vuln = VulnReport(
        open_ports=len(ports),
        filtered_ports=size["filtered_ports"],
        firewall_active=size["filtered_ports"] >= formulas.FIREWALL_FILTERED_THRESHOLD,
        findings=tuple(findings),
        confirmed_count=confirmed,
    )

    raws = {"lynis": lynis, "openscap_standard": standard, "aide": aide,
            "tripwire": tripwire, "openscap_cis": cis, "vuln_scan": vuln}
    reports = {
        "lynis": ("lynis-report.dat", render_lynis(lynis, host)),
        "openscap_standard": ("openscap-standard.xml", render_xccdf(standard, standard_excluded)),
        "aide": ("aide-check.txt", render_aide(aide)),
        "tripwire": ("tripwire-check.txt", render_tripwire(tripwire)),
        "openscap_cis": ("openscap-cis.xml", render_xccdf(cis, cis_excluded)),
        "vuln_scan": ("nmap-scan.xml", render_nmap(vuln)),
    }
    for name, text in reports.values():
        _write(directory / name, text, files)
    manifest = [f"label: {label}", f"host: {host}", "reports:"]
    manifest += [f"  {tool}: {name}" for tool, (name, _) in reports.items()]
    _write(directory / "manifest.yaml", "\n".join(manifest) + "\n", files)
    return _expected_scores(raws)


SCORE_LAYERS = (
    "cli.main",
    "cli.load_manifest",
    "cli._read_text",
    "config.load_config",
    "parsers.parse_lynis",
    "parsers.parse_xccdf",
    "parsers.parse_aide",
    "parsers.parse_tripwire",
    "parsers.parse_nmap",
    "scoring.normalize_report",
    "scoring.aggregate",
    "store.record_to_json",
)


def ci_gate(directory: Path, seed: int, size: dict) -> Inputs:
    """Six small reports; ``score --history H --min-score T`` with text output."""
    rng = _rng("ci-gate", seed)
    files: list[Path] = []
    label, host = f"ci-{seed}", f"ci-runner-{seed % 97:02d}"
    scores = _write_reports(directory, rng, size, label, host, files)
    composite = formulas.composite(scores)
    threshold = round(composite - rng.uniform(1.0, 10.0), 2)
    history = directory / "history.jsonl"

    def check(code: int, stdout: str, stderr: str) -> str | None:
        if code != 0:
            return f"exit {code}, want 0 (composite {composite:.2f} >= {threshold}): {stderr[-200:]!r}"
        rows = {}
        for line in stdout.splitlines():
            parts = line.split()
            if len(parts) >= 2 and parts[0] in scores:
                rows[parts[0]] = float(parts[1])
            elif line.startswith("composite: "):
                rows["composite"] = float(line.split()[1])
        for tool, want in [*scores.items(), ("composite", composite)]:
            if tool not in rows or not _near(rows[tool], want, DISPLAY_TOLERANCE):
                return f"{tool} printed {rows.get(tool)}, want {want:.2f}"
        if f"appended to {history}" not in stdout:
            return "no 'appended to' line"
        return None

    op = Op(
        "score",
        ["score", "--manifest", str(directory / "manifest.yaml"),
         "--history", str(history), "--min-score", f"{threshold}"],
        check,
    )
    return Inputs(
        files, op, [[op]], SCORE_LAYERS + ("store.append_record", "render.format_assessment_text")
    )


def scap_large(directory: Path, seed: int, size: dict) -> Inputs:
    """A large CIS and Standard XCCDF and a large scan; ``score --json``."""
    rng = _rng("scap-large", seed)
    files: list[Path] = []
    label, host = f"scap-{seed}", f"scap-host-{seed % 97:02d}"
    scores = _write_reports(directory, rng, size, label, host, files)
    composite = formulas.composite(scores)
    findings = size["open_ports"] * size["cves_per_port"] + size["confirmed_findings"]

    def check(code: int, stdout: str, stderr: str) -> str | None:
        if code != 0:
            return f"exit {code}, want 0: {stderr[-200:]!r}"
        try:
            assessment = json.loads(stdout)["assessment"]
        except (ValueError, KeyError) as exc:
            return f"stdout is not a history record: {exc}"
        if not _near(assessment["composite"], composite, SCORE_TOLERANCE):
            return f"composite {assessment['composite']!r}, want {composite!r}"
        for tool, want in scores.items():
            got = assessment["scores"][tool]["value"]
            if not _near(got, want, SCORE_TOLERANCE):
                return f"{tool} score {got!r}, want {want!r}"
        got_findings = len(assessment["scores"]["vuln_scan"]["raw"]["findings"])
        if got_findings != findings:
            return f"{got_findings} findings, want {findings}"
        return None

    op = Op("score", ["score", "--manifest", str(directory / "manifest.yaml"), "--json"], check)
    return Inputs(files, op, [[op]], SCORE_LAYERS)


# ---------------------------------------------------------------------------
# Fleet history
# ---------------------------------------------------------------------------

_PROFILE = WeightProfile()
_TOOL_KINDS = {tool.value: tool for tool in ToolKind}


def _fleet_findings(rng: random.Random) -> dict[int, list[VulnFinding]]:
    """Open-port count -> the findings a host with that many open ports can
    carry: 100 per port, one in ten confirmed by a state marker. Hosts of
    one fleet share their CVEs, as real fleets do."""
    ports = assigned_port_ids(4)
    pool = []
    for port in ports:
        for index in range(100):
            if index % 10 == 0:
                pool.append(VulnFinding(f"http-vuln-{port}-{index}", Severity.MEDIUM, True, None,
                                        port, "state marker reports a vulnerable service"))
            else:
                identifier = f"CVE-{rng.randint(2015, 2025)}-{rng.randint(1000, 99999)}"
                pool.append(_finding(identifier, _cvss(rng), port, "outdated service banner"))
    return {count: [f for f in pool if f.port in ports[:count]] for count in range(1, 5)}


def _fleet_record(
    rng: random.Random,
    label: str,
    host: str,
    timestamp: datetime,
    size: dict,
    pool: dict[int, list[VulnFinding]],
) -> tuple[str, dict[str, float]]:
    open_ports = rng.randint(1, 4)
    findings = rng.sample(
        pool[open_ports], rng.randint(size["findings"] - 4, size["findings"] + 4)
    )
    confirmed = sum(1 for f in findings if f.confirmed)
    filtered = rng.choice((0, rng.randint(1_000, 65_000)))
    raws = {
        "lynis": LynisReport(rng.randint(30, 95)),
        "openscap_standard": ScapReport(ScapProfile.STANDARD, rng.randint(20, 60), rng.randint(1, 30)),
        "aide": AideReport(rng.randint(0, 40), rng.randint(0, 10), rng.randint(0, 300)),
        "tripwire": TripwireReport(80_000, rng.randint(0, 20_000)),
        "openscap_cis": ScapReport(ScapProfile.CIS, rng.randint(100, 220), rng.randint(5, 120)),
        "vuln_scan": VulnReport(open_ports, filtered, filtered >= 100, tuple(findings), confirmed),
    }
    scores = _expected_scores(raws)
    contributions = formulas.contributions(scores)
    assessment = CompositeAssessment(
        label=label,
        timestamp=timestamp,
        scores={
            _TOOL_KINDS[tool]: NormalizedScore(_TOOL_KINDS[tool], scores[tool], raws[tool])
            for tool in formulas.TOOLS
        },
        weights=_PROFILE,
        composite=sum(contributions.values()),
        contributions={_TOOL_KINDS[tool]: contributions[tool] for tool in formulas.TOOLS},
    )
    return record_to_json(HistoryRecord(assessment, host)), scores


def _corrupt_line(rng: random.Random, valid: str, kind: int) -> str:
    """A torn write, a garbage line, or a record from a newer schema."""
    if kind == 0:
        return valid[: rng.randint(1, len(valid) - 2)]
    if kind == 1:
        return "~" + "".join(rng.choice("abcdefghijklmnopqrstuvwxyz =:") for _ in range(60))
    return valid.replace('"schema_version":1', '"schema_version":99', 1)


def fleet_history(directory: Path, seed: int, size: dict) -> Inputs:
    """A fleet history with ~1% corrupt lines; history/compare/report queries."""
    rng = _rng("fleet-history", seed)
    hosts = [f"node-{index:02d}" for index in range(size["hosts"])]
    labels = [f"w{index:03d}" for index in range(size["labels"])]
    start = datetime(2026, 1, 5, tzinfo=timezone.utc)
    lines: list[str] = []
    host_rows: dict[str, list[tuple[str, float]]] = {host: [] for host in hosts}
    last_scores: dict[str, dict[str, float]] = {}
    pool = _fleet_findings(rng)
    for week, label in enumerate(labels):
        order = hosts[:]
        rng.shuffle(order)
        for minute, host in enumerate(order):
            line, scores = _fleet_record(
                rng, label, host, start + timedelta(weeks=week, minutes=minute), size, pool
            )
            lines.append(line)
            host_rows[host].append((label, formulas.composite(scores)))
            last_scores[label] = scores
    corrupt = max(1, len(lines) // 100)
    for kind, position in enumerate(sorted(rng.sample(range(len(lines)), corrupt), reverse=True)):
        lines.insert(position, _corrupt_line(rng, lines[position], kind % 3))
    path = directory / "history.jsonl"
    files: list[Path] = []
    _write(path, "\n".join(lines) + "\n", files)
    history = ["--history", str(path)]
    skipped_warning = f"warning: skipped {corrupt} corrupt line(s)"

    def history_op(host: str) -> Op:
        want = host_rows[host]

        def check(code: int, stdout: str, stderr: str) -> str | None:
            if code != 0:
                return f"exit {code}: {stderr[-200:]!r}"
            if skipped_warning not in stderr:
                return f"stderr lacks {skipped_warning!r}: {stderr[-200:]!r}"
            rows = stdout.splitlines()
            if len(rows) != len(want):
                return f"{len(rows)} rows for {host}, want {len(want)}"
            for row, (label, composite) in zip(rows, want):
                parts = row.split()
                if (parts[0] != label or parts[-1] != f"host={host}"
                        or not _near(float(parts[2].split("=")[1]), composite, DISPLAY_TOLERANCE)):
                    return f"row {row!r}, want {label} composite={composite:.2f}"
            return None

        return Op("history", ["history", "--host", host, *history], check, len(want))

    def compare_op(before: str, after: str) -> Op:
        total, dominant = formulas.decomposition(last_scores[before], last_scores[after])

        def check(code: int, stdout: str, stderr: str) -> str | None:
            if code != 0:
                return f"exit {code}: {stderr[-200:]!r}"
            document = json.loads(stdout)
            if not _near(document["total_delta"], total, SCORE_TOLERANCE):
                return f"total_delta {document['total_delta']!r}, want {total!r}"
            if document["dominant_tool"] != dominant:
                return f"dominant {document['dominant_tool']}, want {dominant}"
            return None

        return Op("compare", ["compare", before, after, "--json", *history], check, 2)

    def report_ops(chosen: list[str]) -> list[Op]:
        composites = [formulas.composite(last_scores[label]) for label in chosen]
        total, _ = formulas.decomposition(last_scores[chosen[0]], last_scores[chosen[-1]])

        def check_markdown(code: int, stdout: str, stderr: str) -> str | None:
            if code != 0:
                return f"exit {code}: {stderr[-200:]!r}"
            row = next((r for r in stdout.splitlines() if r.startswith("| **Composite** |")), None)
            if row is None:
                return "no composite row"
            cells = [cell.strip().strip("*") for cell in row.strip("|").split("|")][1:]
            for cell, want in zip(cells, composites):
                if not _near(float(cell), want, DISPLAY_TOLERANCE):
                    return f"composite cell {cell}, want {want:.2f}"
            return None

        def check_json(code: int, stdout: str, stderr: str) -> str | None:
            if code != 0:
                return f"exit {code}: {stderr[-200:]!r}"
            document = json.loads(stdout)
            if document["labels"] != chosen:
                return f"labels {document['labels']}, want {chosen}"
            for record, want in zip(document["records"], composites):
                if not _near(record["assessment"]["composite"], want, SCORE_TOLERANCE):
                    return f"composite {record['assessment']['composite']!r}, want {want!r}"
            got = document["decomposition"]["total_delta"]
            if not _near(got, total, SCORE_TOLERANCE):
                return f"total_delta {got!r}, want {total!r}"
            return None

        return [
            Op("report", ["report", *chosen, *history], check_markdown, len(chosen)),
            Op("report_json", ["report", *chosen, "--format", "json", *history],
               check_json, len(chosen)),
        ]

    passes = []
    for _ in range(16):
        before, after = rng.sample(labels, 2)
        chosen = sorted(rng.sample(labels, 3))
        passes.append(
            [history_op(rng.choice(hosts)), compare_op(before, after), *report_ops(chosen)]
        )
    return Inputs(
        files,
        history_op(hosts[0]),
        passes,
        (
            "cli.main",
            "config.load_config",
            "store.load_history",
            "store.record_to_json",
            "analysis.decompose_delta",
            "analysis.trend_series",
            "analysis.rank_contributions",
            "render.compare_to_dict",
            "render.render_report_markdown",
            "render.render_report_json",
        ),
    )


WORKLOADS = {"ci-gate": ci_gate, "fleet-history": fleet_history, "scap-large": scap_large}

# Input sizes. FULL is what the benchmark measures; TINY keeps the
# benchmark's own tests fast.
FULL = {
    "ci-gate": dict(standard_rules=120, cis_rules=250, open_ports=3, cves_per_port=2,
                    confirmed_findings=1, filtered_ports=0),
    "scap-large": dict(standard_rules=6_000, cis_rules=60_000, open_ports=50, cves_per_port=20,
                       confirmed_findings=0, filtered_ports=65_000),
    # 5,000 records, not the 10,000 first planned: at 10,000 a 30 s run holds
    # two or three samples of each command, and the ten-run spread reached 0.32.
    "fleet-history": dict(hosts=50, labels=100, findings=10),
}
TINY = {
    "ci-gate": FULL["ci-gate"],
    "scap-large": dict(standard_rules=60, cis_rules=300, open_ports=3, cves_per_port=2,
                       confirmed_findings=0, filtered_ports=500),
    "fleet-history": dict(hosts=3, labels=6, findings=10),
}
