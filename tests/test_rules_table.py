"""The rule table, cube to curated rule set, against the object pipeline
of ``tests/reference_rules.py``: same rule ids, order, confidence,
support and status, the same counts, and the same ``rules.*`` counters."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.rules.items import HeaderTable
from repro.core.rules.mining import mine_rules
from repro.core.scrubber import IXPScrubber, ScrubberConfig
from repro.obs import names
from repro.obs.registry import MetricRegistry
from tests.reference_rules import reference_rule_set

#: Few values per attribute, so that itemsets repeat and metrics tie.
PROTOCOLS = (6, 17, 47)
PORTS = (0, 53, 123, 443, 1900, 40000, 65535)


@st.composite
def header_tables(draw) -> HeaderTable:
    n = draw(st.integers(0, 40))
    src_port = draw(st.lists(st.sampled_from(PORTS), min_size=n, max_size=n))
    dst_port = draw(st.lists(st.sampled_from(PORTS), min_size=n, max_size=n))
    protocol = draw(st.lists(st.sampled_from(PROTOCOLS), min_size=n, max_size=n))
    if draw(st.booleans()):
        # The protocol follows the source port: every rule on a port has
        # an extension by the protocol with the same confidence and
        # support, which the antecedent order alone breaks.
        protocol = [PROTOCOLS[port % 3] for port in src_port]
    size_bin = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))  # 0: no packets
    blackhole = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    count = draw(st.lists(st.integers(1, 30), min_size=n, max_size=n))
    as_int = lambda values: np.array(values, dtype=np.int64)  # noqa: E731
    return HeaderTable(
        as_int(protocol), as_int(src_port), as_int(dst_port), np.array(size_bin, dtype=np.float64),
        np.array(blackhole, dtype=bool), as_int(count),
    )


configs = st.builds(
    ScrubberConfig,
    min_support=st.sampled_from((0.0005, 0.02, 0.1)),
    min_confidence=st.sampled_from((0.0, 0.5, 0.8, 1.0)),
    confidence_loss=st.sampled_from((0.0, 0.01, 0.05)),
    support_loss=st.sampled_from((0.0, 0.01, 0.05)),
    auto_accept_rules=st.booleans(),
)


def _fields(rules):
    return [(r.rule_id, r.confidence, r.support, r.status) for r in rules]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(header_tables(), configs)
def test_table_pipeline_equals_object_pipeline(headers, config):
    expected, blackhole, n_rules, n_itemsets = reference_rule_set(headers, config)
    registry = MetricRegistry()
    with obs.use_registry(registry):
        got = IXPScrubber(config).mine_tagging_rules(headers)
    assert _fields(got) == _fields(expected)
    assert list(got) == expected
    result = mine_rules(headers, config.min_support, config.min_confidence)
    assert result.blackhole_rules == blackhole
    assert (result.n_rules, result.n_frequent_itemsets) == (n_rules, n_itemsets)
    counters = {
        names.C_RULES_TRANSACTIONS: headers.n_flows,
        names.C_RULES_DISTINCT_TRANSACTIONS: len(result.encoder.transactions(headers)),
        names.C_RULES_FREQUENT_ITEMSETS: n_itemsets,
        names.C_RULES_GENERATED: n_rules,
        names.C_RULES_BLACKHOLE: len(blackhole),
    }
    assert {name: registry.counter(name).value for name in counters} == counters


def test_an_antecedent_sorts_after_its_tied_extension():
    """Every flow on source port 123 is UDP: ``{port_src=123}`` and
    ``{port_src=123, protocol=17}`` tie on confidence and support, and
    the longer one comes first, as ``,`` sorts before ``]``."""
    headers = HeaderTable(
        np.array([17, 6]), np.array([123, 443]), np.array([80, 80]),
        np.array([5.0, 2.0]), np.array([True, False]), np.array([30, 10]),
    )
    rules = mine_rules(headers).blackhole_rules
    short = next(i for i, r in enumerate(rules) if r.antecedent == {("port_src", 123)})
    longer = next(
        i for i, r in enumerate(rules) if r.antecedent == {("port_src", 123), ("protocol", 17)}
    )
    assert (rules[short].confidence, rules[short].support) == (
        rules[longer].confidence, rules[longer].support
    )
    assert longer < short
