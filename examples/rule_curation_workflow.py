#!/usr/bin/env python
"""Operator rule-curation workflow (paper §5.1, Fig. 6).

Shows the Step-1 lifecycle end to end:

1. mine association rules from balanced blackholing data (FP-Growth),
2. minimise the candidate set with Algorithm 1,
3. render the operator-facing table (the Fig. 6 UI, in text form),
4. simulate an operator review and score the accepted ACLs,
5. export the curated set to JSON (the paper's released format) and
   merge a fresh mining round into it — declined rules stay gone.

Run:  python examples/rule_curation_workflow.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import IXP_CE1, IXPFabric, WorkloadGenerator, balance
from repro.core.rules import (
    OperatorProfile,
    RuleSet,
    RuleStatus,
    coverage,
    curate,
    dump_rules,
    load_rules,
    mine_rules,
    minimize_rules,
)


def print_rule_table(rules: RuleSet, limit: int = 8) -> None:
    """Text rendering of the Fig. 6 curation UI."""
    header = f"{'id':>8s}  {'proto':>5s}  {'port_src':>9s}  {'port_dst':>24s}  {'pkt size':>12s}  {'conf':>6s}  {'supp':>7s}  status"
    print(header)
    print("-" * len(header))
    ordered = sorted(rules, key=lambda r: -r.support)[:limit]
    for r in ordered:
        dst = r.port_dst.render() if r.port_dst else "*"
        if len(dst) > 24:
            dst = dst[:21] + "..."
        size = f"({r.packet_size[0]},{r.packet_size[1]}]" if r.packet_size else "*"
        src = r.port_src.render() if r.port_src else "*"
        print(
            f"{r.rule_id:>8s}  {r.protocol if r.protocol is not None else '*':>5}  "
            f"{src:>9s}  {dst:>24s}  {size:>12s}  {r.confidence:6.3f}  "
            f"{r.support:7.4f}  {r.status.value}"
        )


def main() -> None:
    print("=== Mining tagging rules from IXP-CE1 blackholing data ===")
    fabric = IXPFabric(IXP_CE1)
    capture = WorkloadGenerator(fabric).generate(0, 3)
    balanced = balance(capture.labeled_flows(), np.random.default_rng(1))

    mining = mine_rules(balanced.flows, min_confidence=0.8)
    print(f"association rules (c >= 0.8):   {mining.n_rules}")
    print(f"with blackhole consequent:      {len(mining.blackhole_rules)}")
    minimized = minimize_rules(mining.blackhole_rules)
    print(f"after Algorithm 1 (Lc=Ls=0.01): {len(minimized)}")

    staged = RuleSet.from_mining(minimized, mining.encoder)
    print("\n=== Curation UI (top rules by support) ===")
    print_rule_table(staged)

    print("\n=== Simulated operator review ===")
    operator = OperatorProfile("operator-1", error_rate=0.04, confidence_threshold=0.92)
    curated, seconds = curate(staged, operator, np.random.default_rng(42))
    accepted = curated.accepted()
    print(f"accepted {len(accepted)}/{len(curated)} rules in {seconds / 60:.1f} min")

    scores = coverage(accepted, balanced.flows)
    print(f"ACL coverage on labeled data: {scores['attack_dropped']:.1%} of attack "
          f"flows dropped, {scores['benign_dropped']:.2%} of benign flows dropped")

    print("\n=== Export, fresh mining round, merge ===")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "curated-rules.json"
        dump_rules(curated, path)
        print(f"exported {len(curated)} rules to {path.name} "
              f"({path.stat().st_size} bytes)")

        restored = load_rules(path)
        fresh_capture = WorkloadGenerator(fabric).generate(3, 2)
        fresh_balanced = balance(
            fresh_capture.labeled_flows(), np.random.default_rng(2)
        )
        fresh_mining = mine_rules(fresh_balanced.flows, encoder=mining.encoder)
        fresh = RuleSet.from_mining(
            minimize_rules(fresh_mining.blackhole_rules), mining.encoder
        )
        merged = restored.merge(fresh)
        new_staged = [
            r for r in merged.staged() if r.rule_id not in restored
        ]
        declined_kept = all(
            merged.get(r.rule_id).status == RuleStatus.DECLINE
            for r in restored.declined()
        )
        print(f"fresh mining round produced {len(fresh)} rules; "
              f"{len(new_staged)} genuinely new (staged for review)")
        print(f"previously declined rules stayed declined: {declined_kept}")


if __name__ == "__main__":
    main()
