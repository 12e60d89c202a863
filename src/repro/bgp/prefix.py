"""IPv4 prefixes and longest-prefix matching.

Blackholing announcements carry IP prefixes (usually host routes, /32,
but covering prefixes occur in practice); matching sampled flows against
the set of currently blackholed prefixes is a longest-prefix-match (LPM)
problem. :class:`PrefixTrie` implements it as a binary trie.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, Optional, TypeVar

from repro.netflow.record import int_to_ip, ip_to_int

V = TypeVar("V")


@dataclass(frozen=True, order=True)
class Prefix:
    """An IPv4 prefix, stored as (network uint32, length)."""

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise ValueError(f"prefix length out of range: {self.length}")
        if not 0 <= self.network <= 0xFFFFFFFF:
            raise ValueError(f"network out of range: {self.network}")
        if self.network & ~self.mask:
            raise ValueError(
                f"host bits set in {int_to_ip(self.network)}/{self.length}"
            )

    @property
    def mask(self) -> int:
        """The network mask as a uint32 value."""
        if self.length == 0:
            return 0
        return (0xFFFFFFFF << (32 - self.length)) & 0xFFFFFFFF

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"a.b.c.d/len"`` (or a bare address, implying /32)."""
        if "/" in text:
            address, _, length_text = text.partition("/")
            length = int(length_text)
        else:
            address, length = text, 32
        return cls(network=ip_to_int(address) & cls._mask_for(length), length=length)

    @staticmethod
    def _mask_for(length: int) -> int:
        if not 0 <= length <= 32:
            raise ValueError(f"prefix length out of range: {length}")
        if length == 0:
            return 0
        return (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF

    @classmethod
    def host(cls, address: int | str) -> "Prefix":
        """The /32 host route for ``address``."""
        return cls(network=ip_to_int(address), length=32)

    def contains(self, address: int) -> bool:
        """True if ``address`` falls inside this prefix."""
        return (address & self.mask) == self.network

    def covers(self, other: "Prefix") -> bool:
        """True if this prefix covers ``other`` (equal or less specific)."""
        return self.length <= other.length and other.network & self.mask == self.network

    def __str__(self) -> str:
        return f"{int_to_ip(self.network)}/{self.length}"


class _TrieNode(Generic[V]):
    __slots__ = ("children", "value", "terminal")

    def __init__(self) -> None:
        self.children: list[Optional[_TrieNode[V]]] = [None, None]
        self.value: Optional[V] = None
        self.terminal = False


class PrefixTrie(Generic[V]):
    """A binary trie mapping IPv4 prefixes to values, with LPM lookup."""

    def __init__(self) -> None:
        self._root: _TrieNode[V] = _TrieNode()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def insert(self, prefix: Prefix, value: V) -> None:
        """Insert ``prefix`` (replacing any existing value)."""
        node = self._root
        for depth in range(prefix.length):
            bit = (prefix.network >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                child = _TrieNode()
                node.children[bit] = child
            node = child
        if not node.terminal:
            self._size += 1
        node.terminal = True
        node.value = value

    def remove(self, prefix: Prefix) -> bool:
        """Remove ``prefix``; returns True if it was present."""
        path: list[tuple[_TrieNode[V], int]] = []
        node = self._root
        for depth in range(prefix.length):
            bit = (prefix.network >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                return False
            path.append((node, bit))
            node = child
        if not node.terminal:
            return False
        node.terminal = False
        node.value = None
        self._size -= 1
        # Prune now-empty branches.
        for parent, bit in reversed(path):
            child = parent.children[bit]
            if child is not None and not child.terminal and child.children == [None, None]:
                parent.children[bit] = None
            else:
                break
        return True

    def longest_match(self, address: int) -> Optional[tuple[Prefix, V]]:
        """Return the most specific (prefix, value) covering ``address``."""
        node = self._root
        best: Optional[tuple[int, V]] = None
        network = 0
        if node.terminal:
            best = (0, node.value)  # type: ignore[arg-type]
        for depth in range(32):
            bit = (address >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                break
            network |= bit << (31 - depth)
            node = child
            if node.terminal:
                best = (depth + 1, node.value)  # type: ignore[arg-type]
        if best is None:
            return None
        length, value = best
        mask = Prefix._mask_for(length)
        return Prefix(network=network & mask, length=length), value

    def covers(self, address: int) -> bool:
        """True if any stored prefix contains ``address``."""
        return self.longest_match(address) is not None

    def items(self) -> list[tuple[Prefix, V]]:
        """All stored (prefix, value) pairs in network order."""
        out: list[tuple[Prefix, V]] = []

        def walk(node: _TrieNode[V], network: int, depth: int) -> None:
            if node.terminal:
                mask = Prefix._mask_for(depth)
                out.append((Prefix(network=network & mask, length=depth), node.value))  # type: ignore[arg-type]
            for bit in (0, 1):
                child = node.children[bit]
                if child is not None:
                    walk(child, network | (bit << (31 - depth)), depth + 1)

        walk(self._root, 0, 0)
        return out
