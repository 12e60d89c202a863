"""Tests for item encoding (flows -> ARM transactions)."""

import numpy as np
import pytest

from repro import obs
from repro.core.rules import items, mining
from repro.core.rules.items import (
    ItemEncoder,
    LABEL_BENIGN,
    LABEL_BLACKHOLE,
    OTHER,
    packet_size_bin_label,
    parse_packet_size_bin,
)
from repro.netflow.dataset import FlowDataset
from repro.obs import names
from repro.obs.registry import MetricRegistry
from tests import strategies
from tests.conftest import make_flow
from tests.reference_items import deduplicate, reference_encode


class TestPacketSizeBins:
    def test_bin_label(self):
        assert packet_size_bin_label(468.0) == "(400,500]"

    def test_boundary_is_inclusive_upper(self):
        assert packet_size_bin_label(500.0) == "(400,500]"
        assert packet_size_bin_label(500.1) == "(500,600]"

    def test_small_sizes(self):
        assert packet_size_bin_label(64.0) == "(0,100]"

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            packet_size_bin_label(0.0)

    def test_parse_roundtrip(self):
        assert parse_packet_size_bin("(400,500]") == (400, 500)

    def test_parse_malformed(self):
        with pytest.raises(ValueError):
            parse_packet_size_bin("[400,500)")


class TestItemEncoder:
    def test_fit_identifies_popular_ports(self):
        flows = FlowDataset.from_records(
            [make_flow(src_port=123, dst_port=9000 + i) for i in range(50)]
            + [make_flow(src_port=53, dst_port=80) for _ in range(50)]
        )
        encoder = ItemEncoder.fit(flows, top_k=5)
        assert 123 in encoder.src_ports and 53 in encoder.src_ports

    def test_ties_at_the_top_k_cut_go_to_the_lowest_ports(self):
        # Sixty ports tie at two flows each across the cut: the order
        # must not depend on the sort kernel numpy dispatches per CPU.
        flows = FlowDataset.from_records(
            [make_flow(src_port=53, dst_port=80) for _ in range(10)]
            + [make_flow(src_port=53, dst_port=port) for port in range(1059, 999, -1)] * 2
        )
        encoder = ItemEncoder.fit(flows, top_k=5)
        assert encoder.dst_ports == {80, 1000, 1001, 1002, 1003}

    def test_rare_ports_become_other(self):
        flows = FlowDataset.from_records(
            [make_flow(src_port=123, dst_port=10000 + i) for i in range(100)]
        )
        encoder = ItemEncoder.fit(flows, top_k=3, min_share=0.05)
        transactions = encoder.encode(flows)
        dst_values = {dict(t)["port_dst"] for t in transactions}
        assert dst_values == {OTHER}

    def test_encode_structure(self, handmade_flows):
        encoder = ItemEncoder.fit(handmade_flows)
        transactions = encoder.encode(handmade_flows)
        assert len(transactions) == len(handmade_flows)
        attributes = [a for a, _ in transactions[0]]
        assert attributes == ["protocol", "port_src", "port_dst", "packet_size"]

    def test_encode_labeled_appends_class(self, handmade_flows):
        encoder = ItemEncoder.fit(handmade_flows)
        transactions = encoder.encode_labeled(handmade_flows)
        labels = [t[-1] for t in transactions]
        assert labels.count(LABEL_BLACKHOLE) == int(handmade_flows.blackhole.sum())
        assert labels.count(LABEL_BENIGN) == int((~handmade_flows.blackhole).sum())

    def test_empty_flows(self):
        encoder = ItemEncoder.fit(FlowDataset.empty())
        assert encoder.src_ports == frozenset()


def _header_flows(src_port, dst_port, protocol, packets, bytes_, blackhole) -> FlowDataset:
    n = len(src_port)
    return FlowDataset({
        "time": np.arange(n),
        "src_ip": np.full(n, 0x0A000001),
        "dst_ip": np.full(n, 0x0A000002),
        "src_port": src_port,
        "dst_port": dst_port,
        "protocol": protocol,
        "packets": packets,
        "bytes": bytes_,
        "src_mac": np.ones(n),
        "blackhole": blackhole,
    })


def _edge_flows() -> FlowDataset:
    """Both ends of every header field's range, twice over, in an order
    that makes first occurrence differ from sorted order."""
    ulp = 2**44  # bytes / packets == nextafter(500.0, inf): one ulp past the edge
    packets = [1, 1, ulp, 1, 0, 0, 3, 1, 1, 1, ulp, 0]
    bytes_ = [500, 70_000, 500 * ulp + 1, 100, 0, 700, 1, 500, 70_000, 501, 500 * ulp + 1, 0]
    flows = _header_flows(
        src_port=[65535, 0, 123, 123, 0, 65535, 53, 65535, 0, 123, 123, 0],
        dst_port=[0, 65535, 0, 65535, 80, 80, 0, 0, 65535, 4444, 0, 80],
        protocol=[255, 0, 17, 17, 0, 255, 6, 255, 0, 17, 17, 0],
        packets=packets,
        bytes_=bytes_,
        blackhole=[True, False, True, True, False, True, False, True, True, False, True, False],
    )
    assert flows.packet_size[2] == np.nextafter(500.0, np.inf)
    return flows


class TestColumnarEncoding:
    """`encode` / `encode_labeled` / `transactions` against the per-flow
    loops of `tests/reference_items.py`."""

    @staticmethod
    def _assert_equal_to_loops(encoder: ItemEncoder, flows: FlowDataset) -> None:
        assert encoder.encode(flows) == reference_encode(encoder, flows)
        labeled = encoder.encode_labeled(flows)
        assert labeled == reference_encode(encoder, flows, labeled=True)
        transactions = encoder.transactions(flows)
        assert transactions == deduplicate(labeled)  # order included
        assert sum(weight for _, weight in transactions) == len(flows)

    def test_random_flows(self):
        for seed in range(8):
            flows = strategies.flows(strategies.rng_for(seed), n_flows=600)
            self._assert_equal_to_loops(ItemEncoder.fit(flows), flows)
            self._assert_equal_to_loops(ItemEncoder.fit(flows, top_k=3, min_share=0.05), flows)

    def test_field_range_ends_and_bin_edges(self):
        flows = _edge_flows()
        for src_ports, dst_ports in (
            ({0, 65535}, {0, 65535}),  # the range ends in the vocabulary
            ({123, 53}, {80}),  # ... and out of it
            ((), ()),  # every port OTHER
        ):
            self._assert_equal_to_loops(
                ItemEncoder(frozenset(src_ports), frozenset(dst_ports)), flows
            )
        encoder = ItemEncoder(frozenset(), frozenset())
        sizes = [dict(t).get("packet_size") for t in encoder.encode(flows)]
        assert sizes[:7] == [
            "(400,500]", "(69900,70000]", "(500,600]", "(0,100]", None, None, "(0,100]"
        ]
        assert {dict(t)["port_src"] for t in encoder.encode(flows)} == {OTHER}

    def test_empty_input(self):
        for encoder in (ItemEncoder.fit(FlowDataset.empty()), ItemEncoder(frozenset({53}), frozenset({80}))):
            self._assert_equal_to_loops(encoder, FlowDataset.empty())
            assert encoder.transactions(FlowDataset.empty()) == []

    def test_builds_tuples_for_distinct_transactions_only(self, monkeypatch):
        """Mining cost follows the distinct data, as a count, not a timing:
        20 000 flows of 300 header combinations build 300 tuples."""
        rng = strategies.rng_for(300)
        combos = np.array([
            (protocol, src, dst, size)
            for protocol in (6, 17, 47)
            for src in (53, 123, 161, 389, 1900)
            for dst in (80, 443, 8080, 3074, 27015)
            for size in (64, 468, 1000, 1400)
        ])
        assert len(combos) == 300
        picks = np.concatenate([np.arange(300), rng.integers(0, 300, size=19_700)])
        rng.shuffle(picks)
        protocol, src, dst, size = combos[picks].T
        flows = _header_flows(
            src_port=src, dst_port=dst, protocol=protocol,
            packets=np.full(20_000, 2), bytes_=2 * size, blackhole=src == 123,
        )
        built: list[int] = []
        rows = items._rows

        def counting(*args):
            out = rows(*args)
            built.append(len(out))
            return out

        monkeypatch.setattr(items, "_rows", counting)
        registry = MetricRegistry()
        with obs.use_registry(registry):
            result = mining.mine_rules(flows)
        assert built == []  # mined as integer codes: no transaction becomes a tuple
        assert len(result.encoder.transactions(flows)) == 300
        assert built == [300]
        assert result.n_transactions == 20_000
        assert registry.counter(names.C_RULES_TRANSACTIONS).value == 20_000
        assert registry.counter(names.C_RULES_DISTINCT_TRANSACTIONS).value == 300
        assert any(("port_src", 123) in r.antecedent for r in result.blackhole_rules)


class TestDeduplicate:
    def test_collapses_identical(self):
        t = (("protocol", 17), ("port_src", 123))
        weighted = deduplicate([t, t, t])
        assert len(weighted) == 1
        assert weighted[0][1] == 3

    def test_order_insensitive(self):
        a = (("protocol", 17), ("port_src", 123))
        b = (("port_src", 123), ("protocol", 17))
        weighted = deduplicate([a, b])
        assert len(weighted) == 1 and weighted[0][1] == 2

    def test_distinct_kept(self):
        a = (("protocol", 17),)
        b = (("protocol", 6),)
        assert len(deduplicate([a, b])) == 2
