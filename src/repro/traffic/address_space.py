"""Synthetic IPv4 address-space allocation.

All generated traffic draws addresses from disjoint, documented blocks so
that datasets remain self-describing: victims, reflectors, benign servers
and benign clients can be told apart when debugging, and per-region
reflector pools are guaranteed (mostly) disjoint — mirroring the low
cross-IXP reflector overlap the paper measures in Fig. 12 (middle).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.netflow.record import ip_to_int


#: Knuth's multiplicative constant: an odd number, hence a bijection on
#: uint32 under multiplication mod 2^32.
_SCATTER_MULTIPLIER = 2654435761
_SCATTER_INVERSE = pow(_SCATTER_MULTIPLIER, -1, 2**32)


def scatter_address(values: np.ndarray | int) -> np.ndarray | int:
    """Bijectively scatter uint32 addresses across the whole IPv4 space."""
    if isinstance(values, (int, np.integer)):
        return (int(values) * _SCATTER_MULTIPLIER) & 0xFFFFFFFF
    values = np.asarray(values, dtype=np.uint64)
    return ((values * _SCATTER_MULTIPLIER) & 0xFFFFFFFF).astype(np.uint32)


def unscatter_address(values: np.ndarray | int) -> np.ndarray | int:
    """Inverse of :func:`scatter_address`."""
    if isinstance(values, (int, np.integer)):
        return (int(values) * _SCATTER_INVERSE) & 0xFFFFFFFF
    values = np.asarray(values, dtype=np.uint64)
    return ((values * _SCATTER_INVERSE) & 0xFFFFFFFF).astype(np.uint32)


@dataclass(frozen=True)
class AddressBlock:
    """A block of IPv4 addresses, contiguous or scattered.

    With ``scattered=False`` the block is the contiguous range
    ``[base, base + size)`` — appropriate for *destination* space, where
    real prefixes are contiguous. With ``scattered=True`` the block's
    addresses are the bijective scatter of that range across the whole
    IPv4 space — appropriate for *source* populations (reflectors, CDN
    servers, clients, bots), whose members are interleaved in reality.
    Scattering keeps distinct blocks disjoint (the map is a bijection)
    while ensuring an address's numeric value does not encode its role —
    without this, interval-splitting models can read "is a reflector"
    straight off the raw address (see the E-ABL encoding ablation).
    """

    base: int
    size: int
    scattered: bool = False

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("block size must be positive")
        if self.base + self.size > 2**32:
            raise ValueError("block exceeds IPv4 space")

    def sample(self, rng: np.random.Generator, n: int, replace: bool = True) -> np.ndarray:
        """Draw ``n`` addresses uniformly from the block."""
        if not replace and n > self.size:
            raise ValueError("cannot sample more unique addresses than block size")
        if replace:
            offsets = rng.integers(0, self.size, size=n)
        else:
            offsets = rng.choice(self.size, size=n, replace=False)
        raw = (self.base + offsets).astype(np.uint32)
        return scatter_address(raw) if self.scattered else raw

    def contains(self, address: int) -> bool:
        if self.scattered:
            address = int(unscatter_address(int(address)))
        return self.base <= address < self.base + self.size


# Fixed synthetic allocation plan. Blocks are /12-sized unless noted.
_BLOCK = 1 << 20

#: Victim space: IXP member customer addresses that attacks target.
#: Contiguous — real member prefixes are, and blackhole covering
#: prefixes rely on that locality.
VICTIMS = AddressBlock(ip_to_int("10.0.0.0"), _BLOCK)

#: Benign server space (content, CDN caches, mail, DNS resolvers).
SERVERS = AddressBlock(ip_to_int("20.0.0.0"), _BLOCK, scattered=True)

#: Benign client space (eyeball networks).
CLIENTS = AddressBlock(ip_to_int("30.0.0.0"), 4 * _BLOCK, scattered=True)

#: Reflector space; carved into per-region sub-blocks by region index.
REFLECTORS = AddressBlock(ip_to_int("100.0.0.0"), 16 * _BLOCK, scattered=True)


def region_reflector_block(region: int, n_regions: int = 16) -> AddressBlock:
    """The reflector sub-block for ``region`` (0-based, scattered)."""
    if not 0 <= region < n_regions:
        raise ValueError(f"region index out of range: {region}")
    size = REFLECTORS.size // n_regions
    return AddressBlock(REFLECTORS.base + region * size, size, scattered=True)
