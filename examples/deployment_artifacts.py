#!/usr/bin/env python
"""Deployment artifacts: persist a trained scrubber, export filters.

Production deployment needs two artifacts besides the running model:

1. a **versioned model file** — the fitted scrubber (curated rules, WoE
   tables, preprocessing, classifier) serialised to plain JSON, so it
   can be shipped, diffed and audited without pickle;
2. **installable filters** — accepted tagging rules rendered as BGP
   FlowSpec (RFC 8955) for the route server and as generic ACL lines
   for legacy devices, scoped to the victims the model flags.

Run:  python examples/deployment_artifacts.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import IXP_SE, IXPFabric, IXPScrubber, WorkloadGenerator, balance
from repro.bgp.prefix import Prefix
from repro.core.persistence import load_scrubber, save_scrubber
from repro.core.rules.export import export_acl, to_flowspec


def main() -> None:
    print("=== Training ===")
    fabric = IXPFabric(IXP_SE)
    capture = WorkloadGenerator(fabric).generate(0, 3)
    balanced = balance(capture.labeled_flows(), np.random.default_rng(5))
    scrubber = IXPScrubber().fit(balanced.flows)
    print(f"{len(scrubber.accepted_rules)} accepted rules, "
          f"{sum(len(t.values) for t in scrubber.woe.tables.values()):,} WoE entries")

    with tempfile.TemporaryDirectory() as tmp:
        model_path = Path(tmp) / "ixp-se-scrubber-v1.json"
        print("\n=== 1. Persisting the model ===")
        save_scrubber(scrubber, model_path)
        size_kb = model_path.stat().st_size / 1024
        print(f"wrote {model_path.name} ({size_kb:.0f} KiB, plain JSON)")

        restored = load_scrubber(model_path)
        data = scrubber.aggregate_flows(balanced.flows)
        identical = np.array_equal(
            restored.predict_aggregated(data), scrubber.predict_aggregated(data)
        )
        print(f"reloaded model reproduces predictions bit-for-bit: {identical}")

    print("\n=== 2. Exporting filters for a detected attack ===")
    verdicts = scrubber.predict_flows(balanced.flows)
    detection = max((v for v in verdicts if v.is_ddos), key=lambda v: v.score)
    acls = scrubber.generate_acls([detection])
    victim = Prefix.host(detection.target_ip)
    print(f"victim {victim}, score {detection.score:.3f}, "
          f"{len(acls)} matching accepted rule(s)")

    print("\nBGP FlowSpec (discard at the route server):")
    for rule in acls[:3]:
        print("  " + to_flowspec(rule, destination=victim).render())

    print("\nRate-limit variant (1 Mbit/s):")
    for rule in acls[:1]:
        print("  " + to_flowspec(rule, destination=victim, rate_limit_bps=1_000_000).render())

    print("\nGeneric ACL lines:")
    for line in export_acl(acls[:3]):
        print("  " + line)


if __name__ == "__main__":
    main()
