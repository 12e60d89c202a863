"""Tests for BGP update messages."""

import pytest

from repro.bgp.community import BLACKHOLE, Community
from repro.bgp.messages import Announcement, Withdrawal, blackhole_updates
from repro.bgp.prefix import Prefix


def ann(prefix="10.0.0.1/32", origin=64512, time=0, blackhole=True):
    communities = frozenset({BLACKHOLE}) if blackhole else frozenset()
    return Announcement(
        prefix=Prefix.parse(prefix),
        origin_asn=origin,
        time=time,
        as_path=(origin,),
        communities=communities,
    )


class TestAnnouncement:
    def test_is_blackhole(self):
        assert ann(blackhole=True).is_blackhole
        assert not ann(blackhole=False).is_blackhole

    def test_operator_community_is_blackhole(self):
        update = Announcement(
            prefix=Prefix.parse("10.0.0.1/32"),
            origin_asn=64512,
            time=0,
            communities=frozenset({Community(64512, 666)}),
        )
        assert update.is_blackhole

    def test_rejects_bad_origin(self):
        with pytest.raises(ValueError):
            ann(origin=0)

    def test_rejects_inconsistent_as_path(self):
        with pytest.raises(ValueError):
            Announcement(
                prefix=Prefix.parse("10.0.0.1/32"),
                origin_asn=64512,
                time=0,
                as_path=(64512, 64513),
            )


class TestBlackholeUpdates:
    """The one renderer of the announce/withdraw pair."""

    PREFIX = Prefix.parse("10.0.0.1/32")

    def test_pair_defaults_to_the_origin_announcing_itself(self):
        announce, withdraw = blackhole_updates(self.PREFIX, 64512, 100, 400)
        assert announce == Announcement(
            prefix=self.PREFIX, origin_asn=64512, time=100,
            as_path=(64512,), communities=frozenset({BLACKHOLE}),
        )
        assert announce.is_blackhole
        assert withdraw == Withdrawal(prefix=self.PREFIX, origin_asn=64512, time=400)

    def test_explicit_as_path_must_still_end_at_the_origin(self):
        announce, _ = blackhole_updates(
            self.PREFIX, 64512, 100, 400, as_path=(65010, 64512)
        )
        assert announce.as_path == (65010, 64512)
        with pytest.raises(ValueError):
            blackhole_updates(self.PREFIX, 64512, 100, 400, as_path=(65010, 64513))

    @pytest.mark.parametrize("horizon", [100, 99])
    def test_announcement_at_or_past_the_horizon_renders_nothing(self, horizon):
        assert blackhole_updates(self.PREFIX, 64512, 100, 400, horizon=horizon) == []

    @pytest.mark.parametrize("horizon", [400, 101])
    def test_withdrawal_at_or_past_the_horizon_leaves_the_blackhole_open(self, horizon):
        updates = blackhole_updates(self.PREFIX, 64512, 100, 400, horizon=horizon)
        assert [type(u) for u in updates] == [Announcement]
        assert len(blackhole_updates(self.PREFIX, 64512, 100, 400, horizon=401)) == 2

    def test_covering_prefix_passes_through(self):
        covering = Prefix.parse("10.0.0.16/28")
        announce, withdraw = blackhole_updates(covering, 64512, 0, 60)
        assert announce.prefix == withdraw.prefix == covering
