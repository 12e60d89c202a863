"""Unit tests for the scalar flow record model and address helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.netflow.record import (
    FlowRecord,
    int_to_ip,
    ip_to_int,
)
from tests.conftest import make_flow


class TestIpConversion:
    def test_known_address(self):
        assert ip_to_int("10.0.0.1") == 0x0A000001

    def test_roundtrip_known(self):
        assert int_to_ip(ip_to_int("192.168.17.3")) == "192.168.17.3"

    def test_int_passthrough(self):
        assert ip_to_int(42) == 42

    def test_int_out_of_range(self):
        with pytest.raises(ValueError):
            ip_to_int(2**32)

    def test_malformed_string(self):
        with pytest.raises(Exception):
            ip_to_int("not.an.ip.addr")

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_roundtrip_property(self, value):
        assert ip_to_int(int_to_ip(value)) == value


class TestFlowRecord:
    def test_packet_size(self):
        flow = make_flow(packets=10, bytes_=5000)
        assert flow.packet_size == 500.0

    def test_rejects_zero_packets(self):
        with pytest.raises(ValueError):
            make_flow(packets=0)

    def test_rejects_zero_bytes(self):
        with pytest.raises(ValueError):
            make_flow(bytes_=0)

    def test_rejects_bad_port(self):
        with pytest.raises(ValueError):
            make_flow(src_port=70000)

    def test_protocol_name(self):
        assert make_flow(protocol=17).protocol_name == "UDP"
        assert make_flow(protocol=6).protocol_name == "TCP"
        assert make_flow(protocol=99).protocol_name == "99"

    def test_describe_mentions_blackhole(self):
        assert "blackholed" in make_flow(blackhole=True).describe()
        assert "blackholed" not in make_flow(blackhole=False).describe()

    def test_frozen(self):
        flow = make_flow()
        with pytest.raises(Exception):
            flow.time = 5  # type: ignore[misc]
