#!/usr/bin/env python3
"""Write a set of synthetic scan reports plus a manifest for CLI demos.

Creates one report file per tool in the target directory (default
``./sample-reports``) along with ``manifest.yaml``, so the scoring
pipeline can be exercised without any of the six scanners installed:

    python scripts/make_sample_reports.py demo/
    auditscore score --manifest demo/manifest.yaml
"""

import argparse
from pathlib import Path

from auditscore.model import (
    AideReport,
    LynisReport,
    ScapProfile,
    ScapReport,
    Severity,
    ToolKind,
    TripwireReport,
    VulnFinding,
    VulnReport,
)
from auditscore.reportgen import (
    render_aide,
    render_lynis,
    render_nmap,
    render_tripwire,
    render_xccdf,
)
from auditscore.scoring import TOOLS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "directory", nargs="?", default=Path("sample-reports"), type=Path
    )
    args = parser.parse_args()
    target = args.directory
    target.mkdir(parents=True, exist_ok=True)

    findings = (
        VulnFinding("CVE-2023-38408", Severity.CRITICAL, cvss=9.8, port=22),
        VulnFinding("CVE-2023-51385", Severity.HIGH, cvss=8.1, port=22),
        VulnFinding(
            "http-outdated-banner",
            Severity.LOW,
            confirmed=True,
            port=80,
            description="server banner discloses product versions",
        ),
    )
    reports = {
        ToolKind.LYNIS: render_lynis(LynisReport(62)),
        ToolKind.OPENSCAP_STANDARD: render_xccdf(ScapReport(ScapProfile.STANDARD, 31, 12)),
        ToolKind.AIDE: render_aide(AideReport(8, 1, 40)),
        ToolKind.TRIPWIRE: render_tripwire(TripwireReport(76_472, 12_010)),
        ToolKind.OPENSCAP_CIS: render_xccdf(
            ScapReport(ScapProfile.CIS, 141, 96), excluded={"notapplicable": 10}
        ),
        ToolKind.VULN_SCAN: render_nmap(
            VulnReport(
                open_ports=2,
                filtered_ports=0,
                firewall_active=False,
                findings=findings,
                confirmed_count=1,
            )
        ),
    }
    # Each report under the name ``run`` gives it by default, so the manifest
    # scores the reports that ``run`` captures as well.
    manifest = ["label: sample", "host: demo-host", "reports:"]
    for tool, text in reports.items():
        name = TOOLS[tool].output_name
        (target / name).write_text(text)
        print(f"wrote {target / name}")
        manifest.append(f"  {tool.value}: {name}")
    (target / "manifest.yaml").write_text("\n".join([*manifest, ""]))
    print(f"wrote {target / 'manifest.yaml'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
