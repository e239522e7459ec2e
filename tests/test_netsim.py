"""Unit tests for the network substrate (DNS, flows, IP allocation)."""

import datetime

import pytest

from repro.common.rng import DeterministicRNG
from repro.netsim.dns import DnsZone, PassiveDns, Resolver
from repro.netsim.flows import FlowLog, FlowRecord
from repro.netsim.ipspace import IpAllocator

D = datetime.date


@pytest.fixture
def zone():
    z = DnsZone()
    z.add_a("pool.minexmr.com", "10.1.1.1")
    z.add_cname("xt.freebuf.info", "pool.minexmr.com")
    return z


class TestResolution:
    def test_direct_a(self, zone):
        result = Resolver(zone).resolve("pool.minexmr.com", D(2018, 6, 1))
        assert result.ip == "10.1.1.1"
        assert result.cname_chain == []

    def test_cname_chain(self, zone):
        result = Resolver(zone).resolve("xt.freebuf.info", D(2018, 6, 1))
        assert result.ip == "10.1.1.1"
        assert result.cname_chain == ["pool.minexmr.com"]

    def test_unknown_name(self, zone):
        result = Resolver(zone).resolve("nonexistent.example", D(2018, 6, 1))
        assert not result.resolved

    def test_case_insensitive(self, zone):
        result = Resolver(zone).resolve("POOL.MINEXMR.COM", D(2018, 6, 1))
        assert result.ip == "10.1.1.1"

    def test_time_versioned_records(self):
        zone = DnsZone()
        zone.add_a("a.example", "10.0.0.1", valid_to=D(2018, 1, 1))
        zone.add_a("a.example", "10.0.0.2", valid_from=D(2018, 1, 2))
        resolver = Resolver(zone)
        assert resolver.resolve("a.example", D(2017, 6, 1)).ip == "10.0.0.1"
        assert resolver.resolve("a.example", D(2018, 6, 1)).ip == "10.0.0.2"

    def test_cname_rotation(self):
        """The alibuf.com case: one alias fronting two pools over time."""
        zone = DnsZone()
        zone.add_a("crypto-pool.fr", "10.2.2.2")
        zone.add_a("pool.minexmr.com", "10.1.1.1")
        zone.add_cname("x.alibuf.com", "crypto-pool.fr",
                       valid_to=D(2018, 4, 5))
        zone.add_cname("x.alibuf.com", "pool.minexmr.com",
                       valid_from=D(2018, 4, 6))
        resolver = Resolver(zone)
        assert resolver.resolve("x.alibuf.com", D(2018, 1, 1)).ip == "10.2.2.2"
        assert resolver.resolve("x.alibuf.com", D(2018, 6, 1)).ip == "10.1.1.1"

    def test_cname_loop_terminates(self):
        zone = DnsZone()
        zone.add_cname("a.example", "b.example")
        zone.add_cname("b.example", "a.example")
        result = Resolver(zone).resolve("a.example", D(2018, 1, 1))
        assert not result.resolved


class TestPassiveDns:
    def test_history_includes_expired(self):
        zone = DnsZone()
        zone.add_a("pool.a", "10.0.0.1")
        zone.add_a("pool.b", "10.0.0.2")
        zone.add_cname("alias.x", "pool.a", valid_to=D(2017, 1, 1))
        zone.add_cname("alias.x", "pool.b", valid_from=D(2017, 1, 2))
        pdns = PassiveDns(zone)
        assert pdns.ever_cname_targets("alias.x") == ["pool.a", "pool.b"]

    def test_unknown_name_empty(self, zone):
        assert PassiveDns(zone).history("none.example") == []


class TestFlows:
    def test_stratum_filter(self):
        log = FlowLog()
        log.record(FlowRecord("pool.x", "10.0.0.1", 4444, "stratum",
                              login="W1"))
        log.record(FlowRecord("web.x", "10.0.0.2", 80, "http"))
        assert len(log) == 2
        assert len(log.stratum_flows()) == 1
        assert log.stratum_flows()[0].login == "W1"


class TestIpAllocator:
    def test_unique(self):
        alloc = IpAllocator(DeterministicRNG(1))
        ips = {alloc.allocate() for _ in range(100)}
        assert len(ips) == 100

    def test_owner_stability(self):
        alloc = IpAllocator(DeterministicRNG(1))
        assert alloc.allocate("pool:x") == alloc.allocate("pool:x")

    def test_pin(self):
        alloc = IpAllocator(DeterministicRNG(1))
        assert alloc.pin("host:usa138", "221.9.251.236") == "221.9.251.236"
        assert alloc.owner_ip("host:usa138") == "221.9.251.236"

    def test_pin_validates(self):
        alloc = IpAllocator(DeterministicRNG(1))
        with pytest.raises(ValueError):
            alloc.pin("x", "999.999.1.1")

    def test_unknown_owner_raises(self):
        alloc = IpAllocator(DeterministicRNG(1))
        with pytest.raises(KeyError):
            alloc.owner_ip("nobody")

    def test_within_base_net(self):
        alloc = IpAllocator(DeterministicRNG(1), base_net="192.0.2.0/24")
        for _ in range(20):
            assert alloc.allocate().startswith("192.0.2.")
