"""Tests for BGP update messages."""

import pytest

from repro.bgp.community import BLACKHOLE, Community
from repro.bgp.messages import Announcement
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
