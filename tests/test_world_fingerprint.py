"""One pinned fingerprint of a whole generated world.

The measurement suites compare drivers against each other on the same
world, so a generator change that shifts a single random draw leaves
them green: every driver sees the same shifted world.  This test pins
the world itself.  It hashes, for seed 2019 at the smoke scale (0.004):

* every sample's ``sha256`` and raw bytes, in emission order;
* every VT report's detections (vendor, label, date), in report order;
* every pool account's payments, distinct connections and ban day.

A change that is meant to alter the world must re-pin the constant and
say why; a speed-up of the generator must leave it as it is.
"""

import hashlib

from repro.corpus.generator import generate_world
from repro.corpus.model import ScenarioConfig

#: SHA-256 of the seed-2019, scale-0.004 world described above.
WORLD_FINGERPRINT = (
    "ded4fe7bb19a37de1347be4b69e9c71ef2239706bc3058d22f20badd613baa06")


def world_fingerprint(world) -> str:
    """SHA-256 over the samples, VT detections and pool ledgers."""
    digest = hashlib.sha256()

    def put(*fields) -> None:
        for value in fields:
            data = value if isinstance(value, bytes) else repr(value).encode()
            digest.update(len(data).to_bytes(8, "little"))
            digest.update(data)

    for sample in world.samples:
        put("sample", sample.sha256, sample.raw)
    for report in world.vt.reports():
        put("report", report.sha256)
        for vendor, (label, day) in report.detections.items():
            put(vendor, label, day.isoformat())
    for pool in world.pool_directory.pools():
        for identifier in pool.known_wallets():
            account = pool._accounts[identifier]
            put("account", pool.config.name, identifier,
                pool.distinct_connections(identifier),
                account.banned_on and account.banned_on.isoformat())
            for day, amount in account.payments:
                put(day.isoformat(), amount)
    return digest.hexdigest()


def test_smoke_world_fingerprint_is_pinned():
    world = generate_world(ScenarioConfig(seed=2019, scale=0.004))
    assert world_fingerprint(world) == WORLD_FINGERPRINT
