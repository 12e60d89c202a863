"""Tests for IPv4 prefixes."""

import pytest

from repro.bgp.prefix import Prefix
from repro.netflow.record import ip_to_int


class TestPrefix:
    def test_parse_with_length(self):
        p = Prefix.parse("10.1.0.0/16")
        assert p.network == ip_to_int("10.1.0.0")
        assert p.length == 16

    def test_parse_bare_address_is_host(self):
        assert Prefix.parse("10.0.0.1").length == 32

    def test_parse_masks_host_bits(self):
        p = Prefix.parse("10.1.2.3/16")
        assert p.network == ip_to_int("10.1.0.0")

    def test_host_constructor(self):
        p = Prefix.host("192.0.2.1")
        assert p.length == 32 and p.contains(ip_to_int("192.0.2.1"))

    def test_rejects_host_bits(self):
        with pytest.raises(ValueError):
            Prefix(network=ip_to_int("10.0.0.1"), length=24)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            Prefix(network=0, length=33)

    def test_contains(self):
        p = Prefix.parse("10.1.0.0/16")
        assert p.contains(ip_to_int("10.1.255.255"))
        assert not p.contains(ip_to_int("10.2.0.0"))

    def test_default_route_contains_everything(self):
        p = Prefix(network=0, length=0)
        assert p.contains(0) and p.contains(2**32 - 1)

    def test_covers(self):
        outer = Prefix.parse("10.0.0.0/8")
        inner = Prefix.parse("10.1.0.0/16")
        assert outer.covers(inner)
        assert not inner.covers(outer)
        assert outer.covers(outer)

    def test_str(self):
        assert str(Prefix.parse("10.1.0.0/16")) == "10.1.0.0/16"

    def test_ordering_stable(self):
        a = Prefix.parse("10.0.0.0/8")
        b = Prefix.parse("10.1.0.0/16")
        assert sorted([b, a]) == [a, b]
