"""Step 1: rule tagging — ARM mining, minimisation, curation, matching."""

from repro.core.rules.export import (
    FlowSpecRule,
    export_acl,
    export_flowspec,
    to_acl_line,
    to_flowspec,
)
from repro.core.rules.curation import (
    DEFAULT_COHORT,
    OperatorProfile,
    StudyResult,
    curate,
    run_study,
)
from repro.core.rules.items import (
    ATTRIBUTES,
    LABEL_BENIGN,
    LABEL_BLACKHOLE,
    OTHER,
    ItemEncoder,
    packet_size_bin_label,
    parse_packet_size_bin,
)
from repro.core.rules.matcher import (
    CompiledMatcher,
    coverage,
    match_any,
    match_matrix,
    matched_rule_ids,
    rule_mask,
)
from repro.core.rules.minimize import minimize_rules
from repro.core.rules.mining import (
    AssociationRule,
    MiningResult,
    mine_rules,
)
from repro.core.rules.model import (
    PortMatch,
    RuleSet,
    RuleStatus,
    TaggingRule,
    tagging_rule_from_association,
)
from repro.core.rules.serialization import (
    dump_rules,
    load_rules,
    rule_from_dict,
    rule_to_dict,
)

__all__ = [
    "ATTRIBUTES",
    "FlowSpecRule",
    "export_acl",
    "export_flowspec",
    "to_acl_line",
    "to_flowspec",
    "AssociationRule",
    "CompiledMatcher",
    "DEFAULT_COHORT",
    "ItemEncoder",
    "LABEL_BENIGN",
    "LABEL_BLACKHOLE",
    "MiningResult",
    "OTHER",
    "OperatorProfile",
    "PortMatch",
    "RuleSet",
    "RuleStatus",
    "StudyResult",
    "TaggingRule",
    "coverage",
    "curate",
    "dump_rules",
    "load_rules",
    "match_any",
    "match_matrix",
    "matched_rule_ids",
    "mine_rules",
    "minimize_rules",
    "packet_size_bin_label",
    "parse_packet_size_bin",
    "rule_from_dict",
    "rule_mask",
    "rule_to_dict",
    "run_study",
    "tagging_rule_from_association",
]
