"""Tests for attack event rendering."""

import numpy as np
import pytest

from repro.bgp.community import BLACKHOLE
from repro.bgp.messages import Announcement, Withdrawal
from repro.bgp.prefix import Prefix
from repro.netflow.fields import PORT_FRAGMENT, PROTO_UDP
from repro.traffic.attacks import AttackEvent, AttackGenerator
from repro.traffic.reflectors import ReflectorPool
from repro.traffic.vectors import DNS, LDAP, NTP


@pytest.fixture
def generator():
    return AttackGenerator(ReflectorPool(region=0, seed=1))


def event(**overrides):
    defaults = dict(
        victim=0x0A000001,
        vectors=(NTP,),
        start=0,
        end=600,
        flows_per_minute=60.0,
    )
    defaults.update(overrides)
    return AttackEvent(**defaults)


class TestAttackEvent:
    def test_rejects_zero_duration(self):
        with pytest.raises(ValueError):
            event(start=10, end=10)

    def test_rejects_no_vectors(self):
        with pytest.raises(ValueError):
            event(vectors=())

    def test_rejects_bad_intensity(self):
        with pytest.raises(ValueError):
            event(flows_per_minute=0)

    def test_rejects_mismatched_weights(self):
        with pytest.raises(ValueError):
            event(vectors=(NTP, DNS), vector_weights=(1.0,))

    def test_weights_default_uniform(self):
        weights = event(vectors=(NTP, DNS)).weights()
        np.testing.assert_allclose(weights, [0.5, 0.5])

    def test_weights_normalised(self):
        weights = event(vectors=(NTP, DNS), vector_weights=(3.0, 1.0)).weights()
        np.testing.assert_allclose(weights, [0.75, 0.25])


class TestBlackholeUpdates:
    def test_times_derive_from_the_event(self):
        """Field for field what the e2e benchmark's attack schedule
        renders by hand: announce ``reaction_delay`` in, withdraw
        ``hold`` after the end, the origin as the whole AS path."""
        attack = event(start=1000, end=1480, reaction_delay=37)
        prefix = Prefix.host(attack.victim)
        assert attack.blackhole_updates(prefix, 64512, hold=30, horizon=86400) == [
            Announcement(
                prefix=prefix, origin_asn=64512, time=1037,
                as_path=(64512,), communities=frozenset({BLACKHOLE}),
            ),
            Withdrawal(prefix=prefix, origin_asn=64512, time=1510),
        ]

    def test_horizon_cuts_like_the_capture_does(self):
        attack = event(start=1000, end=1480, reaction_delay=37)
        prefix = Prefix.host(attack.victim)
        assert attack.blackhole_updates(prefix, 64512, hold=30, horizon=1037) == []
        (lone,) = attack.blackhole_updates(prefix, 64512, hold=30, horizon=1510)
        assert isinstance(lone, Announcement)

    def test_unblackholed_attack_renders_nothing(self):
        attack = event(blackholed=False)
        assert attack.blackhole_updates(Prefix.host(attack.victim), 64512, hold=30) == []

    def test_as_path_and_covering_prefix_pass_through(self):
        attack = event()
        covering = Prefix(network=attack.victim & 0xFFFFFFF0, length=28)
        announce, withdraw = attack.blackhole_updates(
            covering, 64501, hold=60, as_path=(65010, 64501)
        )
        assert announce.prefix == withdraw.prefix == covering
        assert announce.as_path == (65010, 64501)
        assert (announce.time, withdraw.time) == (120, 660)  # default 120 s reaction


class TestGeneration:
    def test_flow_count_near_expectation(self, generator, rng):
        flows = generator.generate(rng, event(flows_per_minute=120.0, end=1200))
        expected = 120 * 20
        assert 0.8 * expected < len(flows) < 1.2 * expected

    def test_all_flows_to_victim(self, generator, rng):
        flows = generator.generate(rng, event())
        assert (flows.dst_ip == 0x0A000001).all()

    def test_ntp_signature(self, generator, rng):
        flows = generator.generate(rng, event(vectors=(NTP,), flows_per_minute=200))
        non_fragment = flows.select(flows.src_port != PORT_FRAGMENT)
        assert (non_fragment.src_port == 123).all()
        assert (non_fragment.protocol == PROTO_UDP).all()
        assert abs(np.median(non_fragment.packet_size) - NTP.packet_size_mean) < 60

    def test_fragments_present_for_fragmenting_vector(self, generator, rng):
        flows = generator.generate(rng, event(vectors=(LDAP,), flows_per_minute=300))
        fragment_share = (flows.src_port == PORT_FRAGMENT).mean()
        assert 0.2 < fragment_share < 0.5  # LDAP fragment_fraction = 0.35
        fragments = flows.select(flows.src_port == PORT_FRAGMENT)
        assert (fragments.dst_port == PORT_FRAGMENT).all()
        assert np.median(fragments.packet_size) > 1200

    def test_no_fragments_for_ntp(self, generator, rng):
        flows = generator.generate(rng, event(vectors=(NTP,), flows_per_minute=300))
        assert (flows.src_port == 123).all()

    def test_window_clipping(self, generator, rng):
        flows = generator.generate(
            rng, event(start=0, end=600), window_start=120, window_end=180
        )
        assert (flows.time >= 120).all() and (flows.time < 180).all()

    def test_empty_window(self, generator, rng):
        flows = generator.generate(
            rng, event(start=0, end=600), window_start=700, window_end=800
        )
        assert len(flows) == 0

    def test_multi_vector_mix(self, generator, rng):
        flows = generator.generate(
            rng,
            event(vectors=(NTP, DNS), vector_weights=(1.0, 1.0), flows_per_minute=400),
        )
        ports = set(np.unique(flows.src_port).tolist())
        assert 123 in ports and 53 in ports

    def test_sources_are_reflectors(self, generator, rng):
        pool = ReflectorPool(region=0, seed=1)
        flows = generator.generate(rng, event(vectors=(NTP,), flows_per_minute=200))
        non_fragment = flows.select(flows.src_port != PORT_FRAGMENT)
        assert np.isin(non_fragment.src_ip, pool.reflectors(NTP)).all()

    def test_flows_not_prelabeled(self, generator, rng):
        flows = generator.generate(rng, event())
        assert not flows.blackhole.any()
