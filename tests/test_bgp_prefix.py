"""Tests for IPv4 prefixes and the longest-prefix-match trie."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.prefix import Prefix, PrefixTrie
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


class TestPrefixTrie:
    def test_insert_and_lookup(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "outer")
        trie.insert(Prefix.parse("10.1.0.0/16"), "inner")
        match = trie.longest_match(ip_to_int("10.1.2.3"))
        assert match is not None
        prefix, value = match
        assert value == "inner" and prefix.length == 16

    def test_longest_match_falls_back(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "outer")
        match = trie.longest_match(ip_to_int("10.200.0.1"))
        assert match is not None and match[1] == "outer"

    def test_no_match(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), 1)
        assert trie.longest_match(ip_to_int("11.0.0.1")) is None

    def test_remove(self):
        trie = PrefixTrie()
        p = Prefix.parse("10.0.0.0/8")
        trie.insert(p, 1)
        assert trie.remove(p)
        assert len(trie) == 0
        assert not trie.covers(ip_to_int("10.0.0.1"))

    def test_remove_missing_returns_false(self):
        trie = PrefixTrie()
        assert not trie.remove(Prefix.parse("10.0.0.0/8"))

    def test_replace_value(self):
        trie = PrefixTrie()
        p = Prefix.parse("10.0.0.0/8")
        trie.insert(p, "a")
        trie.insert(p, "b")
        assert len(trie) == 1
        assert trie.longest_match(ip_to_int("10.0.0.1"))[1] == "b"

    def test_default_route(self):
        trie = PrefixTrie()
        trie.insert(Prefix(network=0, length=0), "default")
        assert trie.longest_match(12345)[1] == "default"

    def test_items_roundtrip(self):
        trie = PrefixTrie()
        prefixes = [
            Prefix.parse("10.0.0.0/8"),
            Prefix.parse("10.1.0.0/16"),
            Prefix.parse("192.0.2.1/32"),
        ]
        for i, p in enumerate(prefixes):
            trie.insert(p, i)
        assert {p for p, _ in trie.items()} == set(prefixes)


@settings(max_examples=50, deadline=None)
@given(
    prefixes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**32 - 1),
            st.integers(min_value=0, max_value=32),
        ),
        min_size=1,
        max_size=20,
    ),
    address=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_trie_matches_linear_scan(prefixes, address):
    """LPM result equals the brute-force most-specific containing prefix."""
    trie = PrefixTrie()
    normalized = []
    for network, length in prefixes:
        mask = Prefix._mask_for(length)
        p = Prefix(network=network & mask, length=length)
        trie.insert(p, str(p))
        normalized.append(p)
    containing = [p for p in normalized if p.contains(address)]
    match = trie.longest_match(address)
    if not containing:
        assert match is None
    else:
        best_length = max(p.length for p in containing)
        assert match is not None
        assert match[0].length == best_length
        assert match[0].contains(address)
