"""Unit tests for the blockchain substrate (emission, PoW, BTC ledger)."""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.btc_ledger import BtcLedger, OpaqueLedger, Transaction
from repro.chain.emission import (
    EmissionSchedule,
    MONERO_EMISSION,
    network_hashrate_hs,
)
from repro.chain.pow import ALGO_BY_ERA, algo_at, max_era_for_software
from repro.common.errors import ReproError
from tests.reference_emission import TAIL_REWARD_ATOMIC, supply_table

D = datetime.date


class TestEmission:
    def test_zero_before_genesis(self):
        assert MONERO_EMISSION.circulating_supply(D(2013, 1, 1)) == 0.0

    def test_supply_monotone(self):
        dates = [D(2015, 1, 1), D(2016, 1, 1), D(2017, 1, 1),
                 D(2018, 1, 1), D(2019, 1, 1)]
        supplies = [MONERO_EMISSION.circulating_supply(d) for d in dates]
        assert supplies == sorted(supplies)
        assert supplies[0] > 0

    def test_supply_matches_real_monero_apr_2019(self):
        """~16.9M XMR circulating when the paper's polling ended."""
        supply = MONERO_EMISSION.circulating_supply(D(2019, 4, 30))
        assert 16.0e6 < supply < 17.5e6

    def test_paper_headline_fraction(self):
        """741K XMR must be ~4.4% of supply (paper: 4.37%)."""
        fraction = MONERO_EMISSION.fraction_of_supply(741_000,
                                                      D(2019, 4, 30))
        assert 0.040 < fraction < 0.047

    def test_block_reward_decreasing(self):
        r2015 = MONERO_EMISSION.block_reward(D(2015, 1, 1))
        r2018 = MONERO_EMISSION.block_reward(D(2018, 1, 1))
        assert r2015 > r2018 > 0.6

    def test_daily_emission_consistency(self):
        day = D(2018, 6, 1)
        assert MONERO_EMISSION.daily_emission(day) == pytest.approx(
            MONERO_EMISSION.block_reward(day) * 720)

    def test_fraction_of_zero_supply(self):
        schedule = EmissionSchedule()
        assert schedule.fraction_of_supply(10, D(2010, 1, 1)) == 0.0


class TestEmissionOracle:
    """The remainder integration equals the block-by-block recurrence."""

    def test_monero_table_matches_recurrence(self):
        schedule = EmissionSchedule()
        schedule._extend_to(2100)
        assert schedule._supply_by_day == supply_table(2100)

    def test_tail_floor_crossing_matches_recurrence(self):
        """A small ``total`` reaches the 0.6 XMR floor on day 338."""
        total = 5 * 10 ** 17
        schedule = EmissionSchedule(total_atomic=total)
        schedule._extend_to(500)
        table = schedule._supply_by_day
        assert table == supply_table(500, total_atomic=total)
        daily = [b - a for a, b in zip(table, table[1:])]
        tail_day = 720 * TAIL_REWARD_ATOMIC
        assert daily[337] > tail_day and daily[338] == tail_day
        assert daily[-1] == tail_day

    def test_pinned_headline_values(self):
        """Exact values of the seed's integration; the headline's basis."""
        MONERO_EMISSION._extend_to(1838)
        assert MONERO_EMISSION._supply_by_day[1838] == \
            16968615828710106832
        assert MONERO_EMISSION._day_index(D(2019, 4, 30)) == 1838
        assert MONERO_EMISSION.fraction_of_supply(
            741_000, D(2019, 4, 30)) == 0.04366885357533186

    @settings(max_examples=60, deadline=None)
    @given(st.integers(10 ** 12, 2 ** 64 - 1), st.integers(1, 24),
           st.integers(1, 50),
           st.lists(st.integers(0, 120), min_size=1, max_size=6))
    def test_incremental_equals_one_shot(self, total, speed, blocks,
                                         targets):
        incremental = EmissionSchedule(total_atomic=total,
                                       emission_speed=speed,
                                       blocks_per_day=blocks)
        for target in targets:
            incremental._extend_to(target)
        one_shot = EmissionSchedule(total_atomic=total,
                                    emission_speed=speed,
                                    blocks_per_day=blocks)
        one_shot._extend_to(max(targets))
        expected = supply_table(max(targets), total_atomic=total,
                                emission_speed=speed,
                                blocks_per_day=blocks)
        assert incremental._supply_by_day == expected
        assert one_shot._supply_by_day == expected


class TestHashrate:
    def test_positive_everywhere(self):
        for year in range(2014, 2020):
            assert network_hashrate_hs(D(year, 6, 1)) > 0

    def test_fork_drop_april_2018(self):
        """ASIC expulsion: hashrate halves across the April 2018 fork."""
        before = network_hashrate_hs(D(2018, 4, 4))
        after = network_hashrate_hs(D(2018, 4, 8))
        assert after < before * 0.6

    def test_growth_2016_to_2018(self):
        assert network_hashrate_hs(D(2018, 1, 1)) > \
            10 * network_hashrate_hs(D(2016, 1, 1))

    def test_clamps_outside_range(self):
        assert network_hashrate_hs(D(2010, 1, 1)) == \
            network_hashrate_hs(D(2014, 1, 1))

    def test_equals_per_call_interpolation_bit_for_bit(self):
        """The hoisted anchors give the seed's floats on every day."""
        import bisect
        import math

        from repro.chain.emission import _HASHRATE_ANCHORS

        def per_call(when):
            dates = [d for d, _ in _HASHRATE_ANCHORS]
            if when <= dates[0]:
                return _HASHRATE_ANCHORS[0][1]
            if when >= dates[-1]:
                return _HASHRATE_ANCHORS[-1][1]
            idx = bisect.bisect_right(dates, when)
            d0, h0 = _HASHRATE_ANCHORS[idx - 1]
            d1, h1 = _HASHRATE_ANCHORS[idx]
            span = (d1 - d0).days or 1
            frac = (when - d0).days / span
            return math.exp(math.log(h0)
                            + frac * (math.log(h1) - math.log(h0)))

        day = D(2014, 1, 1)
        while day <= D(2020, 3, 1):
            assert network_hashrate_hs(day) == per_call(day), day
            day += datetime.timedelta(days=1)


class TestPow:
    def test_four_eras(self):
        assert [a.name for a in ALGO_BY_ERA] == \
            ["cn/0", "cn/1", "cn/2", "cn/r"]

    def test_algo_at_fork_dates(self):
        assert algo_at(D(2018, 4, 5)).name == "cn/0"
        assert algo_at(D(2018, 4, 6)).name == "cn/1"
        assert algo_at(D(2018, 10, 18)).name == "cn/2"
        assert algo_at(D(2019, 3, 9)).name == "cn/r"

    def test_software_era(self):
        assert max_era_for_software(D(2017, 6, 1)) == 0
        assert max_era_for_software(D(2018, 6, 1)) == 1
        assert max_era_for_software(D(2019, 4, 1)) == 3


class TestBtcLedger:
    def test_balance_received(self):
        ledger = BtcLedger()
        ledger.payout("t1", D(2014, 1, 1), "pool:50btc", "w1", 1.5)
        ledger.payout("t2", D(2014, 2, 1), "pool:50btc", "w1", 0.5)
        assert ledger.balance_received("w1") == pytest.approx(2.0)
        assert ledger.balance_received("unknown") == 0.0

    def test_transactions_of_dedup(self):
        ledger = BtcLedger()
        tx = Transaction("t1", D(2014, 1, 1), ("w1",), (("w1", 1.0),))
        ledger.append(tx)
        assert len(ledger.transactions_of("w1")) == 1

    def test_cospend_clustering(self):
        """Huang et al.'s common-input heuristic."""
        ledger = BtcLedger()
        ledger.append(Transaction("t1", D(2014, 1, 1), ("a", "b"),
                                  (("x", 1.0),)))
        ledger.append(Transaction("t2", D(2014, 1, 2), ("b", "c"),
                                  (("y", 1.0),)))
        ledger.append(Transaction("t3", D(2014, 1, 3), ("d",),
                                  (("z", 1.0),)))
        clusters = {frozenset(c) for c in ledger.cluster_by_cospend()}
        assert frozenset({"a", "b", "c"}) in clusters
        assert frozenset({"d"}) in clusters

    def test_pool_inputs_not_clustered(self):
        ledger = BtcLedger()
        # two wallets paid by the same pool must NOT merge
        ledger.payout("t1", D(2014, 1, 1), "pool:x", "w1", 1.0)
        ledger.payout("t2", D(2014, 1, 1), "pool:x", "w2", 1.0)
        clusters = {frozenset(c) for c in ledger.cluster_by_cospend()}
        assert frozenset({"w1", "w2"}) not in clusters


class TestOpaqueLedger:
    """Monero-style opacity: the Huang methodology must fail (§VII)."""

    def test_all_queries_raise(self):
        ledger = OpaqueLedger()
        with pytest.raises(ReproError):
            ledger.balance_received("w")
        with pytest.raises(ReproError):
            ledger.transactions_of("w")
        with pytest.raises(ReproError):
            ledger.cluster_by_cospend()
