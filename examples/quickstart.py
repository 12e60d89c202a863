#!/usr/bin/env python
"""Quickstart: train an IXP Scrubber on synthetic IXP traffic.

Walks the full pipeline of the paper on a small vantage point:

1. simulate an IXP workload (benign + DDoS + blackholing BGP feed),
2. derive crowdsourced labels from the blackhole announcements,
3. balance the dataset (paper §3),
4. fit the two-step model (rule mining + WoE + gradient-boosted trees),
5. classify per-target records and print verdicts, ACLs, and a local
   explanation for one detection.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    IXP_SE,
    IXPFabric,
    IXPScrubber,
    WorkloadGenerator,
    balance,
    explain_record,
)
from repro.netflow.record import int_to_ip


def main() -> None:
    print("=== 1. Simulating the vantage point (IXP-SE, 3 days) ===")
    fabric = IXPFabric(IXP_SE)
    capture = WorkloadGenerator(fabric).generate(start_day=0, n_days=3)
    share = capture.bin_stats.blackhole_share()
    print(f"flows recorded:        {len(capture.flows):,}")
    print(f"BGP updates:           {len(capture.updates):,}")
    print(f"attack events:         {len(capture.events):,}")
    print(f"blackholed traffic:    median {np.median(share):.4%} of bytes/min")

    print("\n=== 2-3. Labeling from blackholes + balancing ===")
    labeled = capture.labeled_flows()
    balanced = balance(labeled, np.random.default_rng(0))
    report = balanced.report
    print(f"labeled blackhole flows: {int(labeled.blackhole.sum()):,}")
    print(f"balanced dataset:        {len(balanced.flows):,} flows "
          f"({balanced.blackhole_share:.1%} blackhole)")
    print(f"data reduction:          {report.reduction:.2%}")
    print(f"flows/IP correlation:    r = {report.pearson_r():.2f}")

    print("\n=== 4. Fitting the two-step scrubber ===")
    scrubber = IXPScrubber()
    scrubber.fit(balanced.flows)
    print(f"tagging rules mined:     {len(scrubber.rule_set)} "
          f"({len(scrubber.accepted_rules)} accepted)")
    for rule in scrubber.accepted_rules[:3]:
        print("  " + rule.describe())

    print("\n=== 5. Classifying per-target records ===")
    verdicts = scrubber.predict_flows(balanced.flows)
    positives = [v for v in verdicts if v.is_ddos]
    print(f"records classified:      {len(verdicts):,}")
    print(f"DDoS verdicts:           {len(positives):,}")
    acls = scrubber.generate_acls(verdicts)
    print(f"ACLs to install:         {len(acls)}")

    # Explain the most confident detection.
    data = scrubber.aggregate_flows(balanced.flows)
    scores = scrubber.score_aggregated(data)
    top = int(np.argmax(scores))
    explanation = explain_record(
        data, top, scrubber.woe, float(scores[top]), rules=scrubber.accepted_rules
    )
    print("\n=== Local explanation of the top detection ===")
    print(explanation.summary())

    victim = int_to_ip(int(data.targets[top]))
    print(f"\nOperator action: rate-limit or drop traffic to {victim} "
          f"using the {len(explanation.matched_rules)} matched ACL(s).")


if __name__ == "__main__":
    main()
