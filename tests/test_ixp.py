"""Tests for the IXP substrate: members, profiles, fabric."""

import numpy as np
import pytest

from repro.ixp.fabric import IXPFabric
from repro.ixp.member import MemberAS, MemberRole
from repro.ixp.profiles import ALL_PROFILES, IXP_CE1, IXPProfile, profile_by_name


class TestMember:
    def test_rejects_bad_asn(self):
        with pytest.raises(ValueError):
            MemberAS(asn=0, mac=1, role=MemberRole.EYEBALL)

    def test_rejects_bad_mac(self):
        with pytest.raises(ValueError):
            MemberAS(asn=1, mac=2**48, role=MemberRole.EYEBALL)


class TestProfiles:
    def test_all_five_sites(self):
        names = {p.name for p in ALL_PROFILES}
        assert names == {"IXP-CE1", "IXP-US1", "IXP-SE", "IXP-US2", "IXP-CE2"}

    def test_ordering_largest_first(self):
        scales = [p.traffic_scale for p in ALL_PROFILES]
        assert scales == sorted(scales, reverse=True)

    def test_lookup(self):
        assert profile_by_name("IXP-CE1") is IXP_CE1

    def test_lookup_unknown(self):
        with pytest.raises(KeyError):
            profile_by_name("IXP-XX")

    def test_seconds_per_day(self, tiny_profile):
        assert tiny_profile.seconds_per_day == tiny_profile.bins_per_day * 60

    def test_validation(self):
        with pytest.raises(ValueError):
            IXPProfile(
                name="x", region=0, n_members=0, traffic_scale=1,
                attacks_per_day=1, attack_intensity=1,
                benign_flows_per_target=1, benign_targets_per_minute=1,
            )


class TestFabric:
    def test_member_count(self, tiny_fabric, tiny_profile):
        assert len(tiny_fabric.members) == tiny_profile.n_members

    def test_member_macs_unique(self, tiny_fabric):
        macs = tiny_fabric.member_macs
        assert len(np.unique(macs)) == len(macs)

    def test_deterministic(self, tiny_profile):
        a = IXPFabric(tiny_profile)
        b = IXPFabric(tiny_profile)
        assert a.members == b.members

    def test_customer_spaces_disjoint_per_region(self):
        spaces = [IXPFabric(p).customer_space for p in ALL_PROFILES]
        for i, a in enumerate(spaces):
            for b in spaces[i + 1 :]:
                assert a.base + a.size <= b.base or b.base + b.size <= a.base

    def test_some_members_do_not_adhere(self):
        """Non-adherence is what makes blackholed traffic observable."""
        fabric = IXPFabric(IXP_CE1)
        adherence = [m.adheres_to_blackholing for m in fabric.members]
        assert not all(adherence)
        assert any(adherence)
