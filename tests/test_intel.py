"""Unit tests for the VT / HA threat-intelligence substrates."""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.intel.ha import HaService
from repro.intel.vt import AV_VENDORS, AvReport, VtService
from repro.sandbox.emulator import SandboxReport
from repro.netsim.flows import FlowRecord

D = datetime.date


def report(sha="s1", n_detections=12, label="Trojan.CoinMiner.xx",
           detected_on=D(2018, 1, 1), **kwargs):
    detections = {
        vendor: (label, detected_on)
        for vendor in AV_VENDORS[:n_detections]
    }
    return AvReport(sha256=sha, detections=detections, **kwargs)


class TestAvReport:
    def test_positives(self):
        assert report(n_detections=15).positives() == 15

    def test_positives_grow_over_time(self):
        detections = {
            AV_VENDORS[0]: ("Miner.x", D(2018, 1, 1)),
            AV_VENDORS[1]: ("Miner.y", D(2018, 6, 1)),
        }
        r = AvReport(sha256="s", detections=detections)
        assert r.positives(D(2018, 3, 1)) == 1
        assert r.positives(D(2018, 12, 1)) == 2
        assert r.positives() == 2

    def test_miner_label_count(self):
        assert report(n_detections=11).miner_label_count() == 11
        generic = report(label="Trojan.Generic.abc")
        assert generic.miner_label_count() == 0

    def test_miner_label_variants(self):
        for label in ["Win32.BitcoinMiner.x", "Riskware.CoinMine",
                      "Trojan.Cryptonight"]:
            assert report(label=label).miner_label_count() > 0


class TestVtService:
    def test_store_and_get(self):
        vt = VtService()
        vt.add_report(report())
        assert vt.get_report("s1").sha256 == "s1"
        assert vt.get_report("missing") is None
        assert len(vt) == 1

    def test_rate_limit(self):
        """The paper's '~19?' artifact: queries fail past the limit."""
        vt = VtService(rate_limit=2)
        vt.add_report(report())
        assert vt.get_report("s1") is not None
        assert vt.get_report("s1") is not None
        assert vt.get_report("s1") is None

    def test_children_of(self):
        vt = VtService()
        vt.add_report(report("parent"))
        vt.add_report(report("child", parents=["parent"]))
        assert vt.children_of("parent") == ["child"]
        assert vt.children_of("child") == []

    def test_children_of_returns_a_fresh_list(self):
        vt = VtService()
        vt.add_report(report("child", parents=["parent"]))
        vt.children_of("parent").append("junk")
        assert vt.children_of("parent") == ["child"]


#: report hashes "h0".."h5" plus "u0"/"u1", which never get a report
_HASHES = [f"h{i}" for i in range(6)] + ["u0", "u1"]

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 5),
                  st.lists(st.sampled_from(_HASHES), max_size=5)),
        st.just(("query",)),
    ),
    max_size=30,
)


class TestChildrenOfIndex:
    """``children_of`` against a brute-force scan of the same reports."""

    @staticmethod
    def _assert_matches_scan(vt, reports):
        for sha in _HASHES:
            expected = [r.sha256 for r in reports.values()
                        if sha in r.parents]
            assert vt.children_of(sha) == expected, sha

    @settings(max_examples=200, deadline=None)
    @given(_OPS)
    def test_equals_brute_force_scan(self, ops):
        """Duplicate, self and unknown parents; reports replaced through
        ``add_report`` and added after ``children_of`` calls."""
        vt = VtService()
        reports = {}  # same replace-in-place order as the service
        for op in ops:
            if op[0] == "add":
                sha = f"h{op[1]}"
                reports[sha] = report(sha, parents=list(op[2]))
                vt.add_report(reports[sha])
            else:
                self._assert_matches_scan(vt, reports)
        self._assert_matches_scan(vt, reports)


class TestHaService:
    def _report(self, sha="h1", host="pool.minexmr.com"):
        r = SandboxReport(sample_sha256=sha)
        r.flows.record(FlowRecord(host, "10.0.0.1", 4444, "stratum",
                                  login="W"))
        return r

    def test_publish_and_get(self):
        ha = HaService()
        ha.publish(self._report())
        assert ha.get_report("h1") is not None
        assert "h1" in ha
        assert len(ha) == 1
