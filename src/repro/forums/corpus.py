"""Synthetic underground-forum corpus generator.

Thread volume per coin-year follows the shape of the paper's Fig. 1:
Bitcoin dominates early and declines after 2014; Litecoin and Dogecoin
spike briefly around 2013-2014; Monero rises from its 2014 launch and is
the most-discussed mining coin by 2017-2018; Zcash and Ethereum hold
small shares late in the window.
"""

import datetime
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.rng import DeterministicRNG
from repro.common.simtime import Date

#: Relative topic weight per coin per year (unnormalised), hand-shaped
#: to Fig. 1 of the paper.
_COIN_YEAR_WEIGHTS: Dict[str, Dict[int, float]] = {
    "Bitcoin": {2012: 0.38, 2013: 0.40, 2014: 0.33, 2015: 0.26,
                2016: 0.22, 2017: 0.15, 2018: 0.10},
    "Monero": {2014: 0.02, 2015: 0.08, 2016: 0.14, 2017: 0.28, 2018: 0.36},
    "ZCash": {2016: 0.03, 2017: 0.05, 2018: 0.04},
    "Ethereum": {2016: 0.04, 2017: 0.08, 2018: 0.06},
    "Litecoin": {2012: 0.04, 2013: 0.12, 2014: 0.10, 2015: 0.05,
                 2016: 0.03, 2017: 0.03, 2018: 0.02},
    "Dogecoin": {2013: 0.08, 2014: 0.11, 2015: 0.03, 2016: 0.02,
                 2017: 0.01, 2018: 0.01},
}

_THREADS_PER_YEAR = 400  # baseline forum activity per year at scale 1.0

_OFFER_TEMPLATES = [
    ("[SELL] Silent {coin} miner, encrypted, idle mining", "miner_sale", 35.0, 12.0),
    ("{coin} miner builder service - custom pool/currency", "builder", 13.0, 3.0),
    ("Free {coin} miner - 2% dev fee to cover the time coding", "free_miner", 0.0, 0.0),
    ("[WTS] Full {coin} botnet package: setup + miner + proxy", "package", 200.0, 80.0),
    ("Private pool, no ban by multiple connections", "pool_offer", 50.0, 25.0),
]

_DISCUSSION_TEMPLATES = [
    "Which pools don't ban botnets? ({coin})",
    "How to set up a mining proxy for >2K bots",
    "Best trade-off hashrate vs detection for {coin}",
    "Miner detected by AV after pool ban - need re-obfuscation",
    "Looking for partners, I have installs ({coin})",
]


__all__ = [
    "ForumCorpus",
    "ForumPost",
    "ForumThread",
    "generate_forum_corpus",
]


@dataclass(frozen=True)
class ForumPost:
    """One post inside a thread."""

    author: str
    body: str
    posted_on: Date


@dataclass
class ForumThread:
    """One forum thread."""

    thread_id: int
    title: str
    coin: str
    category: str            # "offer" | "discussion"
    offer_kind: Optional[str]
    price_usd: Optional[float]
    created_on: Date
    posts: List[ForumPost] = field(default_factory=list)


@dataclass
class ForumCorpus:
    """The generated corpus."""

    threads: List[ForumThread] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.threads)


def generate_forum_corpus(rng: DeterministicRNG,
                          scale: float = 1.0,
                          years: Optional[List[int]] = None) -> ForumCorpus:
    """Generate the forum corpus at a volume ``scale``."""
    stream = rng.substream("forums")
    corpus = ForumCorpus()
    thread_id = 0
    for year in years or range(2012, 2019):
        # Mining threads are a fraction of overall forum volume; the
        # remainder are unrelated threads we do not generate.
        for coin, weights in _COIN_YEAR_WEIGHTS.items():
            weight = weights.get(year, 0.0)
            count = stream.poisson(weight * _THREADS_PER_YEAR * scale)
            for _ in range(count):
                thread_id += 1
                corpus.threads.append(
                    _make_thread(stream, thread_id, coin, year)
                )
    return corpus


def _make_thread(rng: DeterministicRNG, thread_id: int, coin: str,
                 year: int) -> ForumThread:
    day = datetime.date(year, rng.randint(1, 12), rng.randint(1, 28))
    is_offer = rng.bernoulli(0.35)
    author = "user" + rng.hexbytes(4)
    if is_offer:
        template, kind, mean_price, sigma = rng.choice(_OFFER_TEMPLATES)
        price = None
        if mean_price > 0:
            price = max(1.0, rng.gauss(mean_price, sigma))
        title = template.format(coin=coin)
        body = (f"Selling for {coin}. "
                + (f"Price: ${price:.0f}. " if price else "Free, 2% fee. ")
                + "Escrow accepted. PM me.")
        thread = ForumThread(thread_id, title, coin, "offer", kind, price,
                             day)
    else:
        title = rng.choice(_DISCUSSION_TEMPLATES).format(coin=coin)
        body = ("The best option is to use a proxy and you can use any "
                "pool. Contact me for PM, I am willing to help.")
        thread = ForumThread(thread_id, title, coin, "discussion", None,
                             None, day)
    thread.posts.append(ForumPost(author, body, day))
    for _ in range(rng.poisson(3.0)):
        thread.posts.append(ForumPost(
            "user" + rng.hexbytes(4),
            rng.choice([
                "In my pool there is no ban by multiple connections.",
                "Use less than 2K bots for a long-lasting strategy.",
                "Miner is free, we charge a fee of 2% to cover the time coding.",
                "Vouch, bought last week, FUD against all AVs.",
            ]),
            day,
        ))
    return thread
