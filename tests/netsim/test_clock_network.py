"""Tests for the campaign clock, address space, and CT log."""

import datetime as dt
import ipaddress
import random

import pytest

from repro.netsim import AddressSpace, CampaignClock, CtLog
from repro.netsim.clock import CAMPAIGN_MONTHS, CAMPAIGN_START
from repro.netsim.network import subnet24
from repro.x509 import CertificateAuthority, KeyFactory, Name

UTC = dt.timezone.utc


class TestCampaignClock:
    def test_default_window(self):
        clock = CampaignClock()
        assert clock.start == CAMPAIGN_START
        assert clock.months == CAMPAIGN_MONTHS
        months = list(clock)
        assert months[0].label == "2022-05"
        assert months[-1].label == "2024-03"
        assert len(months) == 23

    def test_month_boundaries(self):
        clock = CampaignClock()
        feb = next(m for m in clock if m.label == "2024-02")
        assert feb.days == 29  # 2024 is a leap year

    def test_year_rollover(self):
        clock = CampaignClock()
        assert clock.month(7).label == "2022-12"
        assert clock.month(8).label == "2023-01"

    def test_out_of_range(self):
        clock = CampaignClock(months=3)
        with pytest.raises(IndexError):
            clock.month(3)
        with pytest.raises(ValueError):
            CampaignClock(months=0)

    def test_sample_instant_within_month(self):
        clock = CampaignClock()
        rng = random.Random(1)
        window = clock.month(5)
        for _ in range(50):
            instant = window.sample_instant(rng)
            assert window.start <= instant < window.end

    def test_month_of(self):
        clock = CampaignClock()
        assert clock.month_of(dt.datetime(2022, 5, 15, tzinfo=UTC)) == 0
        assert clock.month_of(dt.datetime(2024, 3, 31, tzinfo=UTC)) == 22
        assert clock.month_of(dt.datetime(2020, 1, 1, tzinfo=UTC)) is None


class TestAddressSpace:
    def test_internal_external_disjoint(self):
        space = AddressSpace(seed=1)
        internal = space.internal_ip("server-a")
        external = space.external_ip("site-b")
        assert space.is_internal(internal)
        assert not space.is_internal(external)

    def test_stable_assignment(self):
        space = AddressSpace(seed=1)
        assert space.internal_ip("x") == space.internal_ip("x")
        assert space.external_ip("y") == space.external_ip("y")

    def test_distinct_keys_distinct_ips(self):
        space = AddressSpace(seed=1)
        ips = {space.internal_ip(f"host-{i}") for i in range(100)}
        assert len(ips) == 100

    def test_prefix_selection(self):
        space = AddressSpace(seed=1)
        health = space.internal_ip("records", prefix_index=1)
        assert health.startswith("10.32.")

    def test_ephemeral_port_range(self):
        space = AddressSpace(seed=1)
        for _ in range(100):
            assert 32768 <= space.ephemeral_port() <= 60999

    def test_subnet24(self):
        assert subnet24("10.16.3.77") == "10.16.3.0/24"
        assert subnet24("198.18.0.200") == "198.18.0.0/24"

    def test_subnet24_matches_ipaddress(self):
        rng = random.Random(24)
        for _ in range(2000):
            if rng.random() < 0.5:
                ip = str(ipaddress.IPv4Address(rng.getrandbits(32)))
                expected = ipaddress.ip_network(f"{ip}/24", strict=False)
            else:
                ip = str(ipaddress.IPv6Address(rng.getrandbits(128)))
                expected = ipaddress.ip_network(f"{ip}/56", strict=False)
            assert subnet24(ip) == str(expected)

    @pytest.mark.parametrize(
        "ip",
        ["01.2.3.4", "1.2.3.04", "256.1.1.1", "1.2.3.1000", "\u0661.2.3.4",
         " 1.2.3.4", "1.2.3.4\n", "1.2.3", "1.2.3.4.5", "1..3.4", "", "::g"],
    )
    def test_subnet24_rejects_like_ipaddress(self, ip):
        with pytest.raises(ValueError) as stdlib:
            ipaddress.ip_address(ip)
        with pytest.raises(ValueError) as ours:
            subnet24(ip)
        assert str(ours.value) == str(stdlib.value)


class TestCtLog:
    @pytest.fixture()
    def ca(self):
        return CertificateAuthority.create_root(
            Name.build(common_name="CT Test CA", organization="CT Org"),
            KeyFactory(mode="sim", seed=4),
        )

    def test_submit_and_lookup(self, ca):
        ct = CtLog()
        cert, _ = ca.issue(
            Name.build(common_name="example.com"),
            now=dt.datetime(2023, 1, 1, tzinfo=UTC),
        )
        ct.submit("example.com", cert)
        assert ct.knows_domain("EXAMPLE.COM")
        assert ct.issuers_for("example.com") == [ca.name.rfc4514()]
        assert ct.has_issuer("example.com", ca.name.rfc4514())
        assert len(ct) == 1

    def test_unknown_domain(self):
        ct = CtLog()
        assert not ct.knows_domain("nope.example")
        assert ct.issuers_for("nope.example") == []

    def test_multiple_issuers_deduped(self, ca):
        ct = CtLog()
        now = dt.datetime(2023, 1, 1, tzinfo=UTC)
        first, _ = ca.issue(Name.build(common_name="example.com"), now=now)
        second, _ = ca.issue(Name.build(common_name="example.com"), now=now)
        ct.submit("example.com", first)
        ct.submit("example.com", second)
        assert len(ct.issuers_for("example.com")) == 1
        assert len(ct) == 2
