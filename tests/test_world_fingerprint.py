"""One pinned fingerprint of a whole generated world.

The measurement suites compare drivers against each other on the same
world, so a generator change that shifts a single random draw leaves
them green: every driver sees the same shifted world.  These tests pin
the world itself, for seed 2019 at the smoke scale (0.004) and at the
benchmark scale (0.06, the 9,380-sample world).  Each hashes:

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

#: The same hash of the seed-2019, scale-0.06 world.  At this size the
#: world holds rare cases the small one may lack: two of the 3,170
#: unpacked bodies the VT model tests exceed 7.5 bits of entropy, and
#: 142 of 646 pool accounts pass their pool's ban threshold.
WORLD_FINGERPRINT_006 = (
    "0a409b9137e7367993acb7aaa0171d917d333ae80adb55293483a34eeeef7422")


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


def test_benchmark_world_fingerprint_is_pinned():
    world = generate_world(ScenarioConfig(seed=2019, scale=0.06))
    assert world_fingerprint(world) == WORLD_FINGERPRINT_006
