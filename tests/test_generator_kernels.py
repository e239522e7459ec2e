"""The generator's inlined draw kernels against their plain oracles.

Each kernel must return exactly what the implementation in
``tests/reference_generator.py`` returns and leave the random generator
in exactly the same state (``random.Random.getstate()``), so every later
draw, and with it every generated world, stays bit-identical.
"""

import datetime
import struct

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.binfmt.codegen import pseudo_code
from repro.binfmt.entropy import shannon_entropy
from repro.common.rng import DeterministicRNG
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
    return {
        wallet: (list(account.src_ips), pool.distinct_connections(wallet),
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
