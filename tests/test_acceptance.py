"""Acceptance suite: golden reproduction vectors and randomized property sweeps.

Each test prints one ``[acceptance] <criterion>: PASS`` line (visible with
``pytest -s``); a failing criterion prints FAIL and the assertion detail.
Golden values are frozen from the recorded three-level hardening study and
the two deployment case studies; tolerances are pinned here, not tuned.
"""

import json
import random
from contextlib import contextmanager

import pytest

from auditscore.analysis import decompose_delta
from auditscore.cli import main
from auditscore.model import (
    AideReport,
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
    classify_severity,
)
from auditscore.parsers import (
    parse_aide,
    parse_lynis,
    parse_nmap,
    parse_tripwire,
    parse_xccdf,
)
from auditscore.reportgen import (
    assigned_port_ids,
    render_aide,
    render_lynis,
    render_nmap,
    render_tripwire,
    render_xccdf,
)
from auditscore.scoring import (
    aggregate,
    normalize_aide,
    normalize_report,
    normalize_scap,
)
from auditscore.store import HistoryRecord, append_record, load_history

from .strategies import FIXED_TIMESTAMP, six_scores

SEED = 20251002

THREE_LEVELS = {
    "baseline": [59, 67.4, 83.4, 82.4, 57.8, 0],
    "partial": [61, 69.8, 77.7, 78.0, 58.6, 47],
    "full": [66, 77.3, 75.0, 77.7, 67.1, 47],
}
EXPECTED_COMPOSITES = {"baseline": 58.34, "partial": 64.80, "full": 68.17}

CASE_STUDIES = {
    "basic-web-server": {
        "before": ([58, 67.4, 52.6, 55.2, 57.4, 0], 49.36),
        "after": ([65, 77.3, 52.6, 51.9, 66.3, 0], 53.53),
        "gain_percent": 8.4,
    },
    "dvwa-server": {
        "before": ([60, 60.5, 84.2, 88.6, 57.0, 81], 70.55),
        "after": ([67, 70.5, 73.8, 72.0, 66.3, 94], 73.20),
        "gain_percent": 3.8,
    },
}


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


def _assess(label, values, profile=None):
    return aggregate(six_scores(values), profile or WeightProfile(), label, FIXED_TIMESTAMP)


def test_c1_composite_reproduction():
    with criterion("1 composite reproduction (58.34 / 64.80 / 68.17)"):
        for label, values in THREE_LEVELS.items():
            composite = _assess(label, values).composite
            assert composite == pytest.approx(EXPECTED_COMPOSITES[label], abs=0.01), label


def test_c2_aide_formula_reproduction():
    with criterion("2 logarithmic integrity scoring (46/171/317 changes)"):
        for total, expected in [(46, 83.4), (171, 77.7), (317, 75.0)]:
            value = normalize_aide(AideReport(total, 0, 0)).value
            assert value == pytest.approx(expected, abs=0.05), total


def test_c3_decomposition_reproduction():
    with criterion("3 delta decomposition (vuln +7.05, 71.7% share)"):
        decomposition = decompose_delta(
            _assess("baseline", THREE_LEVELS["baseline"]),
            _assess("full", THREE_LEVELS["full"]),
        )
        assert decomposition.per_tool_delta[ToolKind.VULN_SCAN] == pytest.approx(7.05, abs=0.01)
        assert decomposition.dominant_tool is ToolKind.VULN_SCAN
        assert decomposition.dominant_share * 100 == pytest.approx(71.7, abs=0.1)
        expected = {
            ToolKind.OPENSCAP_CIS: 1.86,
            ToolKind.OPENSCAP_STANDARD: 1.49,
            ToolKind.LYNIS: 1.40,
            ToolKind.TRIPWIRE: -0.71,
            ToolKind.AIDE: -1.26,
        }
        for tool, value in expected.items():
            assert decomposition.per_tool_delta[tool] == pytest.approx(value, abs=0.01), tool


def test_c4_scap_normalization():
    with criterion("4 SCAP normalization (29/43 and 137/237)"):
        standard = normalize_scap(ScapReport(ScapProfile.STANDARD, 29, 14)).value
        cis = normalize_scap(ScapReport(ScapProfile.CIS, 137, 100)).value
        assert standard == pytest.approx(67.4, abs=0.05)
        assert cis == pytest.approx(57.8, abs=0.05)


def test_c5_end_to_end_fixture_pipeline(capsys, data_dir):
    with criterion("5 end-to-end pipeline over six report fixtures"):
        code = main(
            ["score", "--manifest", str(data_dir / "manifest-baseline.yaml"), "--json"]
        )
        out = capsys.readouterr().out
        assert code == 0
        record = json.loads(out)
        composite = record["assessment"]["composite"]
        assert composite == pytest.approx(58.34, abs=0.01)
        # every parser ran: each score carries raw metrics from its file
        raws = {
            name: entry["raw"]["kind"]
            for name, entry in record["assessment"]["scores"].items()
        }
        assert raws == {
            "lynis": "lynis",
            "openscap_standard": "scap",
            "aide": "aide",
            "tripwire": "tripwire",
            "openscap_cis": "scap",
            "vuln_scan": "vuln",
        }


# ---------------------------------------------------------------------------
# Criterion 6: randomized property sweeps (seeded, deterministic)
# ---------------------------------------------------------------------------


def _random_finding(rng: random.Random, port_pool) -> VulnFinding:
    confirmed = rng.random() < 0.4
    cve_shaped = True if not confirmed else rng.random() < 0.5
    identifier = (
        f"CVE-{rng.randint(1999, 2026)}-{rng.randint(1000, 99999)}"
        if cve_shaped
        else f"script-{rng.randint(0, 999)}"
    )
    cvss = round(rng.uniform(0, 10), 1) if rng.random() < 0.6 else None
    severity = classify_severity(cvss) if cvss is not None else rng.choice(list(Severity))
    port = rng.choice(port_pool) if port_pool and rng.random() < 0.5 else None
    return VulnFinding(identifier, severity, confirmed, cvss, port, "generated finding")


def _random_vuln(rng: random.Random) -> VulnReport:
    open_ports = rng.randint(0, 6)
    pool = assigned_port_ids(open_ports)
    findings = tuple(_random_finding(rng, pool) for _ in range(rng.randint(0, 8)))
    return VulnReport(
        open_ports=open_ports,
        filtered_ports=rng.choice([0, 1, 50, 200, 65534]),
        firewall_active=rng.random() < 0.5,
        findings=findings,
        confirmed_count=sum(1 for f in findings if f.confirmed),
    )


def _random_raw(rng: random.Random, kind: int):
    if kind == 0:
        return LynisReport(rng.randint(0, 100))
    if kind == 1:
        passed, failed = rng.randint(0, 500), rng.randint(0, 500)
        if passed + failed == 0:
            failed = 1
        return ScapReport(rng.choice(list(ScapProfile)), passed, failed)
    if kind == 2:
        return AideReport(rng.randint(0, 10**6), rng.randint(0, 10**6), rng.randint(0, 10**6))
    if kind == 3:
        objects = rng.randint(1, 10**7)
        return TripwireReport(objects, rng.randint(0, objects))
    return _random_vuln(rng)


def _random_profile(rng: random.Random) -> WeightProfile:
    shares = [rng.uniform(0.01, 10.0) for _ in range(6)]
    total = sum(shares)
    return WeightProfile(
        tool_weights={tool: share / total for tool, share in zip(ToolKind, shares)}
    )


def test_c6a_clamping_over_randomized_inputs():
    with criterion("6a scores and composites within [0, 100] over 10,000 inputs"):
        rng = random.Random(SEED)
        profile = WeightProfile()
        values = []
        composites = 0
        for index in range(10_000):
            raw = _random_raw(rng, index % 5)
            score = normalize_report(raw, profile)
            assert 0.0 <= score.value <= 100.0, raw
            values.append(score.value)
            if len(values) >= 6:
                batch, values = values[:6], values[6:]
                assessment = aggregate(
                    six_scores(batch), _random_profile(rng), "sweep", FIXED_TIMESTAMP
                )
                assert 0.0 <= assessment.composite <= 100.0
                composites += 1
        assert composites >= 1600


def test_c6b_monotonicity_of_normalizers():
    with criterion("6b monotonicity of each normalizer"):
        rng = random.Random(SEED + 1)
        profile = WeightProfile()
        for _ in range(600):
            total = rng.randint(0, 10**5)
            extra = rng.randint(1, 10**4)
            assert (
                normalize_report(AideReport(total + extra, 0, 0)).value
                <= normalize_report(AideReport(total, 0, 0)).value
            )

            objects = rng.randint(1, 10**6)
            violations = rng.randint(0, objects)
            more = min(objects, violations + rng.randint(1, 1000))
            assert (
                normalize_report(TripwireReport(objects, more)).value
                <= normalize_report(TripwireReport(objects, violations)).value
            )

            passed, failed = rng.randint(0, 500), rng.randint(1, 500)
            assert (
                normalize_report(ScapReport(ScapProfile.CIS, passed + extra, failed)).value
                >= normalize_report(ScapReport(ScapProfile.CIS, passed, failed)).value
            )

            base = _random_vuln(rng)
            more_ports = VulnReport(
                base.open_ports + rng.randint(1, 5),
                base.filtered_ports,
                base.firewall_active,
                base.findings,
                base.confirmed_count,
            )
            assert (
                normalize_report(more_ports, profile).value
                <= normalize_report(base, profile).value
            )
            extra_finding = VulnFinding(
                "CVE-1999-12345", Severity.CRITICAL, confirmed=False
            )
            more_findings = VulnReport(
                base.open_ports,
                base.filtered_ports,
                base.firewall_active,
                base.findings + (extra_finding,),
                base.confirmed_count,
            )
            assert (
                normalize_report(more_findings, profile).value
                <= normalize_report(base, profile).value
            )
            more_confirmed = VulnReport(
                base.open_ports,
                base.filtered_ports,
                base.firewall_active,
                base.findings + (VulnFinding("c", Severity.LOW, confirmed=True),),
                base.confirmed_count + 1,
            )
            assert (
                normalize_report(more_confirmed, profile).value
                <= normalize_report(base, profile).value
            )


def test_c6c_aggregate_linearity():
    with criterion("6c composite shifts by weight times score delta"):
        rng = random.Random(SEED + 2)
        for _ in range(1000):
            profile = _random_profile(rng)
            values = [rng.uniform(0, 100) for _ in range(6)]
            index = rng.randrange(6)
            delta = rng.uniform(-values[index], 100 - values[index])
            shifted = list(values)
            shifted[index] += delta
            before = aggregate(six_scores(values), profile, "a", FIXED_TIMESTAMP)
            after = aggregate(six_scores(shifted), profile, "b", FIXED_TIMESTAMP)
            tool = list(ToolKind)[index]
            expected = profile.tool_weights[tool] * delta
            assert abs((after.composite - before.composite) - expected) <= 1e-9


def test_c6d_decomposition_totals():
    with criterion("6d decomposition total equals composite difference (1e-9)"):
        rng = random.Random(SEED + 3)
        for _ in range(1000):
            profile = _random_profile(rng)
            a = aggregate(
                six_scores([rng.uniform(0, 100) for _ in range(6)]),
                profile,
                "a",
                FIXED_TIMESTAMP,
            )
            b = aggregate(
                six_scores([rng.uniform(0, 100) for _ in range(6)]),
                profile,
                "b",
                FIXED_TIMESTAMP,
            )
            decomposition = decompose_delta(a, b)
            assert abs(decomposition.total_delta - (b.composite - a.composite)) <= 1e-9
            assert abs(
                decomposition.total_delta
                - sum(decomposition.per_tool_delta[tool] for tool in ToolKind)
            ) <= 1e-9


def _random_full_assessment(rng: random.Random, label: str):
    profile = WeightProfile()
    raws = [
        LynisReport(rng.randint(0, 100)),
        ScapReport(ScapProfile.STANDARD, rng.randint(0, 300), rng.randint(1, 300)),
        AideReport(rng.randint(0, 1000), rng.randint(0, 1000), rng.randint(0, 1000)),
        TripwireReport(10_000, rng.randint(0, 10_000)),
        ScapReport(ScapProfile.CIS, rng.randint(0, 300), rng.randint(1, 300)),
        _random_vuln(rng),
    ]
    scores = {}
    for raw in raws:
        score = normalize_report(raw, profile)
        scores[score.tool] = score
    return aggregate(scores, profile, label, FIXED_TIMESTAMP)


def test_c6e_history_round_trip(tmp_path):
    with criterion("6e history round-trip equality at full precision"):
        rng = random.Random(SEED + 4)
        path = tmp_path / "history.jsonl"
        records = []
        for index in range(40):
            assessment = _random_full_assessment(rng, f"sweep-{index}")
            record = HistoryRecord(assessment=assessment, host_label=f"host-{index % 3}")
            append_record(path, record)
            records.append(record)
        loaded = load_history(path)
        assert loaded.skipped == 0
        assert loaded.records == records
        for stored, original in zip(loaded.records, records):
            assert stored.assessment.composite == original.assessment.composite


def test_c6f_parser_determinism_and_round_trips(data_dir):
    with criterion("6f parser determinism and generator round-trips"):
        fixture_parsers = [
            ("lynis-baseline.dat", parse_lynis),
            ("aide-baseline.txt", parse_aide),
            ("tripwire-baseline.txt", parse_tripwire),
            ("nmap-baseline.xml", parse_nmap),
        ]
        for name, parse in fixture_parsers:
            text = (data_dir / name).read_text()
            assert parse(text)[0] == parse(text)[0]
        cis_text = (data_dir / "oscap-cis-baseline.xml").read_text()
        assert (
            parse_xccdf(cis_text, ScapProfile.CIS)[0]
            == parse_xccdf(cis_text, ScapProfile.CIS)[0]
        )

        rng = random.Random(SEED + 5)
        for _ in range(120):
            lynis = LynisReport(rng.randint(0, 100))
            assert parse_lynis(render_lynis(lynis))[0] == lynis

            scap = ScapReport(rng.choice(list(ScapProfile)), rng.randint(0, 80), rng.randint(0, 80))
            if scap.pass_count + scap.fail_count == 0:
                scap = ScapReport(scap.profile, 1, 0)
            assert parse_xccdf(render_xccdf(scap), scap.profile)[0] == scap

            aide = AideReport(rng.randint(0, 10**5), rng.randint(0, 10**5), rng.randint(0, 10**5))
            assert parse_aide(render_aide(aide))[0] == aide

            objects = rng.randint(1, 10**7)
            tripwire = TripwireReport(objects, rng.randint(0, objects))
            assert parse_tripwire(render_tripwire(tripwire))[0] == tripwire

            vuln = _random_vuln(rng)
            parsed, _ = parse_nmap(
                render_nmap(vuln), firewall_override=vuln.firewall_active
            )
            key = lambda f: (f.identifier, f.port or 0, f.confirmed, f.cvss or -1)
            assert parsed.open_ports == vuln.open_ports
            assert parsed.filtered_ports == vuln.filtered_ports
            assert parsed.confirmed_count == vuln.confirmed_count
            assert sorted(parsed.findings, key=key) == sorted(vuln.findings, key=key)


def test_c7_case_study_regression_vectors():
    with criterion("7 case-study vectors (+8.4% and +3.8%)"):
        for name, study in CASE_STUDIES.items():
            before_values, before_expected = study["before"]
            after_values, after_expected = study["after"]
            before = _assess(f"{name}-before", before_values)
            after = _assess(f"{name}-after", after_values)
            assert before.composite == pytest.approx(before_expected, abs=0.01), name
            assert after.composite == pytest.approx(after_expected, abs=0.01), name
            gain = (after.composite - before.composite) / before.composite * 100.0
            assert gain == pytest.approx(study["gain_percent"], abs=0.1), name
