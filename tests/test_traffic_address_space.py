"""Tests for synthetic address-space allocation."""

import numpy as np
import pytest

from repro.traffic.address_space import (
    CLIENTS,
    REFLECTORS,
    SERVERS,
    SPOOFED,
    VICTIMS,
    AddressBlock,
    region_reflector_block,
    scatter_address,
    unscatter_address,
)


class TestAddressBlock:
    def test_sample_within_block(self, rng):
        block = AddressBlock(1000, 100)
        samples = block.sample(rng, 500)
        assert ((samples >= 1000) & (samples < 1100)).all()

    def test_sample_without_replacement_unique(self, rng):
        block = AddressBlock(1000, 100)
        samples = block.sample(rng, 100, replace=False)
        assert len(np.unique(samples)) == 100

    def test_sample_without_replacement_overflow(self, rng):
        with pytest.raises(ValueError):
            AddressBlock(0, 10).sample(rng, 11, replace=False)

    def test_contains(self):
        block = AddressBlock(1000, 100)
        assert block.contains(1000) and block.contains(1099)
        assert not block.contains(999) and not block.contains(1100)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            AddressBlock(0, 0)

    def test_rejects_overflow(self):
        with pytest.raises(ValueError):
            AddressBlock(2**32 - 1, 2)


class TestScattering:
    def test_scatter_is_bijective(self):
        values = np.arange(0, 2**20, 977, dtype=np.uint32)
        roundtrip = unscatter_address(scatter_address(values))
        np.testing.assert_array_equal(roundtrip, values)

    def test_scalar_roundtrip(self):
        assert unscatter_address(scatter_address(12345)) == 12345

    def test_scattered_block_membership(self, rng):
        block = AddressBlock(1000, 100, scattered=True)
        samples = block.sample(rng, 200)
        assert all(block.contains(int(s)) for s in samples)

    def test_scattered_blocks_stay_disjoint(self, rng):
        a = AddressBlock(0, 1000, scattered=True)
        b = AddressBlock(1000, 1000, scattered=True)
        samples_a = a.sample(rng, 500)
        assert not any(b.contains(int(s)) for s in samples_a)

    def test_scattered_addresses_not_contiguous(self, rng):
        """The point of scattering: role is not an address interval."""
        block = AddressBlock(1000, 10000, scattered=True)
        samples = np.sort(block.sample(rng, 500).astype(np.uint64))
        span = int(samples[-1] - samples[0])
        assert span > 2**30  # spread across the IPv4 space

    def test_source_blocks_scattered_victims_not(self):
        assert not VICTIMS.scattered
        for block in (SERVERS, CLIENTS, REFLECTORS, SPOOFED):
            assert block.scattered


class TestAllocationPlan:
    def test_blocks_disjoint(self):
        blocks = [VICTIMS, SERVERS, CLIENTS, REFLECTORS, SPOOFED]
        for i, a in enumerate(blocks):
            for b in blocks[i + 1 :]:
                assert a.base + a.size <= b.base or b.base + b.size <= a.base

    def test_region_blocks_partition_reflectors(self):
        regions = [region_reflector_block(i) for i in range(16)]
        assert regions[0].base == REFLECTORS.base
        for a, b in zip(regions, regions[1:]):
            assert a.base + a.size == b.base
        last = regions[-1]
        assert last.base + last.size == REFLECTORS.base + REFLECTORS.size

    def test_region_out_of_range(self):
        with pytest.raises(ValueError):
            region_reflector_block(16)
