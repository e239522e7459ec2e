"""The generator's inlined draw kernels against their plain oracles.

Each kernel must return exactly what the implementation in
``tests/reference_generator.py`` returns and leave the random generator
in exactly the same state (``random.Random.getstate()``), so every later
draw, and with it every generated world, stays bit-identical.
"""

import datetime
import math
import struct
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.binfmt.codegen import pseudo_code
from repro.binfmt.entropy import looks_obfuscated, shannon_entropy
from repro.common.rng import DeterministicRNG
from repro.corpus import distributions as dist
from repro.corpus import generator as gen
from repro.pools.pool import BanPolicy, MiningPool, PoolConfig
from tests import reference_generator as ref

seeds = st.integers(min_value=0, max_value=2 ** 64 - 1)


def _pair(seed):
    return DeterministicRNG(seed, "kernel"), DeterministicRNG(seed, "kernel")


class TestPseudoCode:
    @given(size=st.integers(min_value=0, max_value=5000), seed=seeds)
    @settings(max_examples=60, deadline=None)
    # 1, 24, 191 and 192 bytes straddle one block and the smallest
    # library; 2880, 3071, 3072 and 3264 give 15, 15, 16 and 17 blocks,
    # where the block pick's getrandbits width steps from 4 to 5 bits.
    @example(size=1, seed=0)
    @example(size=24, seed=1)
    @example(size=191, seed=2)
    @example(size=192, seed=3)
    @example(size=2880, seed=4)
    @example(size=3071, seed=5)
    @example(size=3072, seed=6)
    @example(size=3264, seed=7)
    @example(size=-1, seed=8)
    def test_same_bytes_and_state(self, size, seed):
        mine, theirs = _pair(seed)
        assert pseudo_code(mine, size) == ref.pseudo_code(theirs, size)
        assert mine._random.getstate() == theirs._random.getstate()


class TestRandomBytes:
    @given(n=st.integers(min_value=-3, max_value=600), seed=seeds)
    @settings(max_examples=60, deadline=None)
    @example(n=0, seed=0)
    @example(n=1, seed=1)
    def test_randbytes_same_bytes_and_state(self, n, seed):
        mine, theirs = _pair(seed)
        assert mine.randbytes(n) == ref.randbytes(theirs, n)
        assert mine._random.getstate() == theirs._random.getstate()

    @given(n=st.integers(min_value=-3, max_value=600), seed=seeds)
    @settings(max_examples=60, deadline=None)
    @example(n=0, seed=0)
    @example(n=2, seed=1)
    def test_hexbytes_same_text_and_state(self, n, seed):
        mine, theirs = _pair(seed)
        assert mine.hexbytes(n) == ref.hexbytes(theirs, n)
        assert mine._random.getstate() == theirs._random.getstate()

    def test_empty_request_draws_nothing(self):
        mine, theirs = _pair(11)
        assert mine.randbytes(0) == b"" and mine.hexbytes(0) == ""
        assert mine._random.getstate() == theirs._random.getstate()


class TestVtLabelDraw:
    @given(seed=seeds, draws=st.integers(min_value=1, max_value=20))
    @settings(max_examples=60, deadline=None)
    def test_hex2_equals_hexbytes_2(self, seed, draws):
        mine, theirs = _pair(seed)
        for _ in range(draws):
            assert (gen._hex2(mine._random.getrandbits(64))
                    == ref.hexbytes(theirs, 2))
        assert mine._random.getstate() == theirs._random.getstate()


class TestSubstream:
    labels = st.text(max_size=12)

    @given(seed=seeds, label=labels, child=labels, grandchild=labels)
    @settings(max_examples=60, deadline=None)
    def test_same_seed_label_and_state(self, seed, label, child,
                                       grandchild):
        parent = DeterministicRNG(seed, label)
        mine = parent.substream(child)
        theirs = ref.substream(parent, child)
        assert (mine.seed, mine.label) == (theirs.seed, theirs.label)
        assert mine._random.getstate() == theirs._random.getstate()
        # a grandchild derives from the child's own seed and label
        assert (mine.substream(grandchild)._random.getstate()
                == ref.substream(theirs, grandchild)._random.getstate())

    def test_draws_do_not_move_children(self):
        parent = DeterministicRNG(5, "p")
        before = parent.substream("c")._random.getstate()
        parent.random()
        assert parent.substream("c")._random.getstate() == before


#: every constant (population, cum_weights) table the generator picks
#: from, beside the raw weights the picks were drawn with before
_GENERATOR_TABLES = [
    (gen._PPI_NAMES, gen._PPI_CUM, [w for _, w in dist.PPI_WEIGHTS]),
    (gen._STOCK_TOOL_NAMES, gen._STOCK_TOOL_CUM,
     [w for _, w in dist.STOCK_TOOL_WEIGHTS]),
    (gen._PACKER_NAMES, gen._PACKER_CUM,
     [w for _, w in dist.PACKER_WEIGHTS]),
    (gen._WALLET_COUNTS, gen._WALLET_COUNT_CUM,
     [w for _, w in dist.WALLETS_PER_CAMPAIGN_P]),
    (gen._XMR_POOL_NAMES, gen._XMR_POOL_CUM,
     [w for _, w in dist.XMR_POOL_WEIGHTS]),
    (gen._EMAIL_POOL_NAMES, gen._EMAIL_POOL_CUM,
     [w for _, w in dist.EMAIL_POOL_WEIGHTS]),
    (gen._HOSTING_NAMES, gen._HOSTING_CUM,
     [w for _, w, _ in dist.HOSTING_DOMAINS]),
    (gen._BTC_YEARS, gen._BTC_YEAR_CUM,
     list(dist.BTC_SAMPLES_PER_YEAR.values())),
    (gen._ALT_YEARS, gen._ALT_YEAR_CUM, [0.1, 0.5, 0.35, 0.05]),
    (gen._EMAIL_YEARS, gen._EMAIL_YEAR_CUM, [0.05, 0.1, 0.2, 0.45, 0.2]),
    (gen._UNKNOWN_YEARS, gen._UNKNOWN_YEAR_CUM, [0.2, 0.5, 0.3]),
    (gen._SOURCES, gen._SOURCE_CUM, [0.61, 0.385, 0.004, 0.001]),
] + [
    (years, cum, list(band.values()))
    for (years, cum), band in zip(gen._BAND_START_YEARS,
                                  dist.BAND_START_YEAR)
]


class TestCumWeightsPick:
    @given(weights=st.lists(
               st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
               min_size=1, max_size=30).filter(lambda w: sum(w) > 0),
           seed=seeds, picks=st.integers(min_value=1, max_value=10))
    @settings(max_examples=80, deadline=None)
    def test_same_picks_and_state(self, weights, seed, picks):
        mine, theirs = _pair(seed)
        seq = list(range(len(weights)))
        cum = list(accumulate(weights))
        for _ in range(picks):
            assert (mine.choices(seq, cum_weights=cum)[0]
                    == ref.weighted_pick(theirs, seq, weights))
        assert mine._random.getstate() == theirs._random.getstate()

    @pytest.mark.parametrize("table", range(len(_GENERATOR_TABLES)))
    @given(seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_generator_tables(self, table, seed):
        population, cum, weights = _GENERATOR_TABLES[table]
        assert len(population) == len(cum) == len(weights)
        mine, theirs = _pair(seed)
        for _ in range(50):
            assert (mine.choices(population, cum_weights=cum)[0]
                    == ref.weighted_pick(theirs, population, weights))
        assert mine._random.getstate() == theirs._random.getstate()


def _uniform(distinct: int, copies: int = 3) -> bytes:
    """Every one of ``distinct`` byte values ``copies`` times."""
    return bytes(range(256 - distinct, 256)) * copies


class TestLooksObfuscated:
    # 2 ** 7.5 is 181.02: a uniform body needs 182 distinct values to
    # cross the paper's threshold, and 181 fall just short of it.
    @given(data=st.one_of(
               st.binary(max_size=3000),
               st.builds(lambda n, k, tail: _uniform(n, k) + tail,
                         st.integers(min_value=1, max_value=256),
                         st.integers(min_value=1, max_value=6),
                         st.binary(max_size=40))),
           threshold=st.one_of(st.just(7.5),
                               st.floats(min_value=-1.0, max_value=9.0)))
    @settings(max_examples=150, deadline=None)
    @example(data=b"", threshold=7.5)
    @example(data=b"", threshold=-1.0)
    @example(data=b"\x07" * 9, threshold=0.0)
    @example(data=_uniform(181), threshold=7.5)
    @example(data=_uniform(182), threshold=7.5)
    @example(data=_uniform(256), threshold=7.5)
    @example(data=_uniform(256), threshold=8.0)
    @example(data=_uniform(181), threshold=math.log2(181))
    @example(data=_uniform(182), threshold=math.log2(182))
    def test_same_verdict(self, data, threshold):
        assert (looks_obfuscated(data, threshold)
                == ref.looks_obfuscated(data, threshold))

    def test_threshold_straddles_181_and_182_values(self):
        assert not looks_obfuscated(_uniform(181))
        assert looks_obfuscated(_uniform(182))
        assert looks_obfuscated(_uniform(256))

    @given(size=st.integers(min_value=1, max_value=5000), seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_same_verdict_on_sample_bodies(self, size, seed):
        body = pseudo_code(DeterministicRNG(seed), size)
        assert looks_obfuscated(body) == ref.looks_obfuscated(body, 7.5)


class TestShannonEntropy:
    @given(data=st.binary(max_size=5000))
    @settings(max_examples=80, deadline=None)
    @example(data=b"")
    @example(data=b"\x00")
    @example(data=bytes(range(256)) * 3)
    @example(data=bytes(range(255, -1, -1)) + b"\x00" * 17)
    def test_bit_identical(self, data):
        assert (struct.pack("<d", shannon_entropy(data))
                == struct.pack("<d", ref.shannon_entropy(data)))

    @given(size=st.integers(min_value=1, max_value=5000), seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_bit_identical_on_sample_bodies(self, size, seed):
        body = pseudo_code(DeterministicRNG(seed), size)
        assert (struct.pack("<d", shannon_entropy(body))
                == struct.pack("<d", ref.shannon_entropy(body)))


_DAY0 = datetime.date(2018, 1, 1)

credits = st.tuples(
    st.just("credit"),
    st.integers(min_value=0, max_value=2),            # wallet
    st.integers(min_value=0, max_value=400),          # day offset
    st.floats(min_value=0.0, max_value=5e6, allow_nan=False),
    st.one_of(st.integers(min_value=-2, max_value=6),  # src_ips, in
              st.integers(min_value=0, max_value=400)),  # any order
)
reports = st.tuples(st.just("report"), st.integers(0, 2),
                    st.integers(0, 400))
logins = st.tuples(st.just("login"), st.integers(0, 2),
                   st.integers(0, 255))


def _ledger(pool):
    # The reference keeps one bulk:{id}:{i} string per bulk connection in
    # src_ips; production keeps only wire IPs there and counts the bulk
    # ones, so the ledgers agree on the wire IPs and the distinct total.
    return {
        wallet: (sorted(ip for ip in account.src_ips
                        if not ip.startswith("bulk:")),
                 pool.distinct_connections(wallet),
                 account.banned, account.banned_on, account.payments,
                 account.balance, account.hashes, account.last_share,
                 account.hashrate_history)
        for wallet, account in pool._accounts.items()
    }


class TestBulkIpLedger:
    @given(ops=st.lists(st.one_of(credits, reports, logins), max_size=60),
           proactive=st.booleans(),
           threshold=st.integers(min_value=0, max_value=300))
    @settings(max_examples=80, deadline=None)
    @example(ops=[("credit", 0, 0, 1e6, 1), ("credit", 0, 1, 1e6, 3),
                  ("credit", 0, 2, 1e6, 4), ("credit", 0, 3, 1e6, 2),
                  ("credit", 0, 4, 1e6, 5)],
             proactive=True, threshold=4)
    def test_same_ledger_as_readding_every_ip(self, ops, proactive,
                                              threshold):
        config = PoolConfig("p", exposes_hashrate_history=True,
                            ban_policy=BanPolicy(
                                proactive=proactive,
                                min_connections_to_ban=threshold))
        mine, theirs = MiningPool(config), ref.ReferenceMiningPool(config)
        for op in ops:
            wallet = f"W{op[1]}"
            day = _DAY0 + datetime.timedelta(days=op[2])
            if op[0] == "credit":
                assert (mine.credit_mining_day(wallet, day, op[3], op[4])
                        == theirs.credit_mining_day(wallet, day, op[3],
                                                    op[4]))
            elif op[0] == "report":
                assert (mine.report_wallet(wallet, day)
                        == theirs.report_wallet(wallet, day))
            else:
                ip = f"10.0.0.{op[2] % 256}"
                assert (mine.on_login(wallet, "xmrig", ip)
                        == theirs.on_login(wallet, "xmrig", ip))
            assert _ledger(mine) == _ledger(theirs)
