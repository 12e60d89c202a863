"""Tests for vectorised rule matching and JSON serialisation."""

import pickle
import warnings

import numpy as np
import pytest

from repro.core.features.aggregation import aggregate
from repro.core.rules import matcher
from repro.core.rules.matcher import (
    CompiledMatcher,
    coverage,
    match_any,
    match_matrix,
    matched_rule_ids,
    rule_mask,
)
from repro.core.rules.model import PortMatch, RuleSet, RuleStatus, TaggingRule
from repro.core.rules.serialization import (
    dump_rules,
    load_rules,
    rule_from_dict,
    rule_to_dict,
)
from repro.netflow.dataset import FlowDataset
from tests import strategies
from tests.conftest import make_flow
from tests.reference_aggregate import reference_aggregate


@pytest.fixture
def ntp_rule():
    return TaggingRule(
        rule_id="ntp00001",
        confidence=0.976,
        support=0.026,
        protocol=17,
        port_src=PortMatch(values=frozenset({123})),
        packet_size=(400, 500),
        status=RuleStatus.ACCEPT,
        notes="NTP reflection with typical size.",
    )


@pytest.fixture
def fragment_rule():
    return TaggingRule(
        rule_id="frag0001",
        confidence=0.99,
        support=0.05,
        protocol=17,
        port_src=PortMatch(values=frozenset({0})),
        port_dst=PortMatch(values=frozenset({0})),
        status=RuleStatus.ACCEPT,
    )


class TestMatching:
    def test_rule_mask_matches_scalar(self, handmade_flows, ntp_rule):
        mask = rule_mask(ntp_rule, handmade_flows)
        for i in range(len(handmade_flows)):
            record = handmade_flows.record(i)
            assert mask[i] == ntp_rule.matches_record(
                record.protocol, record.src_port, record.dst_port, record.packet_size
            )

    def test_negated_port_mask(self, handmade_flows):
        rule = TaggingRule(
            rule_id="neg", confidence=0.9, support=0.1,
            port_dst=PortMatch(values=frozenset({5555, 6666}), negated=True),
        )
        mask = rule_mask(rule, handmade_flows)
        assert mask.sum() == len(handmade_flows) - 2

    def test_match_matrix_shape(self, handmade_flows, ntp_rule, fragment_rule):
        matrix = match_matrix([ntp_rule, fragment_rule], handmade_flows)
        assert matrix.shape == (len(handmade_flows), 2)

    def test_match_matrix_empty_rules(self, handmade_flows):
        assert match_matrix([], handmade_flows).shape == (len(handmade_flows), 0)

    def test_match_any(self, handmade_flows, ntp_rule, fragment_rule):
        any_mask = match_any([ntp_rule, fragment_rule], handmade_flows)
        matrix = match_matrix([ntp_rule, fragment_rule], handmade_flows)
        np.testing.assert_array_equal(any_mask, matrix.any(axis=1))

    def test_matched_rule_ids(self, handmade_flows, ntp_rule, fragment_rule):
        ids = matched_rule_ids([ntp_rule, fragment_rule], handmade_flows)
        assert len(ids) == len(handmade_flows)
        # Flow 0 is an NTP attack flow at 468 bytes.
        assert "ntp00001" in ids[0]
        # Flow 7 is a fragment flow (src/dst port 0).
        assert "frag0001" in ids[7]

    def test_coverage(self, handmade_flows, ntp_rule, fragment_rule):
        scores = coverage([ntp_rule, fragment_rule], handmade_flows)
        assert 0.0 <= scores["attack_dropped"] <= 1.0
        assert scores["benign_dropped"] == 0.0
        assert scores["attack_dropped"] > 0.0


def _unpacked(compiled: CompiledMatcher, flows: FlowDataset) -> np.ndarray:
    """``flow_words`` back as an (n_flows, n_rules) boolean matrix."""
    words = np.ascontiguousarray(compiled.flow_words(flows).T)
    bits = np.unpackbits(
        words.view(np.uint8), axis=1, count=len(compiled.rules), bitorder="little"
    )
    return bits.astype(bool)


class TestCompiledMatcher:
    @pytest.mark.parametrize("n_rules", [0, 1, 63, 64, 65, 130])
    def test_bit_equal_to_match_matrix(self, n_rules):
        """Wildcards, negated sets, sizes on bin edges; every word boundary."""
        for seed in range(3):
            rng = strategies.rng_for(1000 * n_rules + seed)
            rules = strategies.header_rules(rng, n_rules)
            flows = strategies.flows(rng, n_flows=600)
            n = len(flows)
            # Mean sizes exactly on every edge a rule can have, and
            # header values at both ends of their ranges.
            packets = rng.integers(1, 9, size=n)
            flows = FlowDataset({
                **flows.to_columns(),
                "packets": packets,
                "bytes": packets * rng.choice(np.arange(0, 1900, 50), size=n),
                "protocol": rng.choice((0, 6, 17, 255), size=n),
                "src_port": rng.choice((0, 19, 53, 123, 4242, 65535), size=n),
                "dst_port": rng.choice((0, 80, 443, 161, 4242, 65535), size=n),
            })
            compiled = CompiledMatcher(rules)
            expected = match_matrix(rules, flows)
            assert expected.any() or n_rules == 0
            np.testing.assert_array_equal(_unpacked(compiled, flows), expected)
            ids = [rule.rule_id for rule in rules]
            tags = compiled.tags(compiled.flow_words(flows))
            assert tags == [tuple(ids[k] for k in np.flatnonzero(row)) for row in expected]

    def test_size_equal_to_low_and_high(self):
        rule = TaggingRule(rule_id="bin", confidence=0.9, support=0.1, packet_size=(400, 500))
        flows = FlowDataset.from_records([
            make_flow(time=0, packets=2, bytes_=800),   # == low: outside
            make_flow(time=0, packets=2, bytes_=801),
            make_flow(time=0, packets=2, bytes_=1000),  # == high: inside
            make_flow(time=0, packets=2, bytes_=1001),
        ])
        expected = [[False], [True], [True], [False]]
        assert match_matrix([rule], flows).tolist() == expected
        assert _unpacked(CompiledMatcher([rule]), flows).tolist() == expected

    def test_tagging_evaluates_no_rule_on_flows(self, monkeypatch):
        """Rule-count independence as a count, not a timing.

        Compiling evaluates each rule on one value per header class;
        tagging a 5000-flow chunk then evaluates nothing, the first time
        or the second, for 40 rules or for 130.
        """
        rows: list[int] = []
        field_masks = matcher._field_masks

        def counting(rule, columns):
            rows.append(sum(len(column) for column in columns))
            return field_masks(rule, columns)

        monkeypatch.setattr(matcher, "_field_masks", counting)
        rng = strategies.rng_for(5000)
        flows = strategies.flows(rng, n_flows=5000, n_targets=40)
        for n_rules in (40, 130):
            rules = strategies.header_rules(rng, n_rules)
            named = [
                {r.protocol for r in rules if r.protocol is not None},
                {v for r in rules if r.port_src for v in r.port_src.values},
                {v for r in rules if r.port_dst for v in r.port_dst.values},
                {e for r in rules if r.packet_size for e in r.packet_size},
            ]
            rows.clear()
            compiled = CompiledMatcher(rules)
            # Per field: one class per named value and one for the rest.
            assert rows == [sum(len(values) + 1 for values in named)] * n_rules
            rows.clear()
            first = compiled.tags(compiled.flow_words(flows))
            second = compiled.tags(compiled.flow_words(flows))
            assert rows == [] and first == second
            assert any(first)

    def test_flows_without_packets_match_no_size_rule(self):
        """Zero packets used to mean 0/0: a RuntimeWarning, an error under -W error."""
        sized = TaggingRule(rule_id="sized", confidence=0.9, support=0.1, packet_size=(-100, 100))
        plain = TaggingRule(rule_id="plain", confidence=0.9, support=0.1, protocol=17)
        columns = FlowDataset.from_records([
            make_flow(time=0, dst_ip=1, packets=1, bytes_=50),
            make_flow(time=1, dst_ip=1, packets=1, bytes_=50),
            make_flow(time=2, dst_ip=2, packets=1, bytes_=50),
        ]).to_columns()
        columns["packets"] = np.array([1, 0, 0])
        columns["bytes"] = np.array([50, 0, 700])  # 50.0, 0/0, 700/0
        flows = FlowDataset(columns)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert flows.packet_size.tolist() == [50.0, 0.0, 0.0]
            assert rule_mask(sized, flows).tolist() == [True, False, False]
            assert rule_mask(plain, flows).tolist() == [True, True, True]
            compiled = CompiledMatcher([sized, plain])
            np.testing.assert_array_equal(
                _unpacked(compiled, flows), match_matrix([sized, plain], flows)
            )
            data = aggregate(flows, rules=[sized, plain])
        assert data.rule_tags == [("sized", "plain"), ("plain",)]
        expected = reference_aggregate(flows, rules=[sized, plain])
        assert data.rule_tags == expected.rule_tags
        for name, column in data.metrics.items():
            assert column.tobytes() == expected.metrics[name].tobytes()

    def test_is_stale_follows_the_rule_set(self, ntp_rule, fragment_rule):
        compiled = CompiledMatcher([ntp_rule, fragment_rule])
        assert not compiled.is_stale([ntp_rule, fragment_rule])
        assert compiled.is_stale([ntp_rule])
        assert compiled.is_stale([fragment_rule, ntp_rule])
        assert compiled.is_stale([ntp_rule, fragment_rule.with_status(RuleStatus.DECLINE)])

    def test_port_match_pickles_without_derived_state(self, handmade_flows, ntp_rule):
        before = len(pickle.dumps(ntp_rule))
        rule_mask(ntp_rule, handmade_flows)
        CompiledMatcher([ntp_rule]).flow_words(handmade_flows)
        assert len(pickle.dumps(ntp_rule)) == before
        assert set(vars(ntp_rule.port_src)) == {"values", "negated"}


class TestSerialization:
    def test_dict_roundtrip(self, ntp_rule):
        assert rule_from_dict(rule_to_dict(ntp_rule)) == ntp_rule

    def test_wildcards_roundtrip(self):
        rule = TaggingRule(rule_id="x", confidence=0.9, support=0.1, protocol=17)
        restored = rule_from_dict(rule_to_dict(rule))
        assert restored.port_src is None
        assert restored.packet_size is None

    def test_negated_set_notation(self, handmade_flows):
        rule = TaggingRule(
            rule_id="x", confidence=0.9, support=0.1,
            port_dst=PortMatch(values=frozenset({0, 17, 19}), negated=True),
        )
        data = rule_to_dict(rule)
        assert data["port_dst"] == "~{0,17,19}"
        assert rule_from_dict(data) == rule

    def test_file_roundtrip(self, tmp_path, ntp_rule, fragment_rule):
        path = tmp_path / "rules.json"
        dump_rules([ntp_rule, fragment_rule], path)
        restored = load_rules(path)
        assert len(restored) == 2
        assert restored.get("ntp00001") == ntp_rule

    def test_status_preserved(self, tmp_path, ntp_rule):
        path = tmp_path / "rules.json"
        dump_rules([ntp_rule], path)
        assert load_rules(path).get("ntp00001").status == RuleStatus.ACCEPT

    def test_rejects_non_array(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"id": "x"}')
        with pytest.raises(ValueError):
            load_rules(path)

    @pytest.mark.parametrize("protocol", [-1, 256, 300])
    def test_rejects_protocol_out_of_range(self, tmp_path, ntp_rule, protocol):
        """The compiled matcher indexes a 256-entry table by protocol."""
        path = tmp_path / "rules.json"
        dump_rules([ntp_rule], path)
        path.write_text(path.read_text().replace('"protocol": 17', f'"protocol": {protocol}'))
        with pytest.raises(ValueError, match="protocol out of range"):
            load_rules(path)
        with pytest.raises(ValueError, match="protocol out of range"):
            TaggingRule(rule_id="p", confidence=0.9, support=0.1, protocol=protocol)

    def test_accepts_integer_port(self):
        rule = rule_from_dict(
            {
                "id": "y",
                "protocol": 17,
                "port_src": 123,
                "port_dst": "*",
                "packet_size": "*",
                "confidence": 0.95,
                "antecedent_support": 0.01,
            }
        )
        assert rule.port_src == PortMatch(values=frozenset({123}))
