"""One pinned fingerprint of a whole batch measurement result.

The batch pipeline and the checkpointed ingestion service run one
per-sample fold and one result tail, so the suites that compare them
compare that code with itself, and the e2e digest leaves enrichment
out.  This test pins the result itself.  It hashes, for seed 2019 at
the smoke scale (0.004):

* every kept record, in result order;
* every sanity verdict, sorted by hash;
* every wallet profile, in result order;
* the Table III funnel;
* the proxy IPs, sorted;
* every field of every campaign except its record list, in campaign
  order (enrichment annotations included).

A change that is meant to alter what the methodology measures must
re-pin the constant and say why; a refactor or a speed-up of any stage
must leave it as it is.
"""

import dataclasses
import hashlib

from repro.core.aggregation import Campaign
from repro.core.pipeline import MeasurementPipeline
from repro.corpus.generator import generate_world
from repro.corpus.model import ScenarioConfig

#: SHA-256 of the seed-2019, scale-0.004 batch result described above.
RESULT_FINGERPRINT = (
    "f7e50de2a6efe7b11ebede48a5d8b78824494bbe622251efebf535b304d3d7e0")

#: every campaign field the fingerprint covers (all but ``records``)
_CAMPAIGN_FIELDS = tuple(f.name for f in dataclasses.fields(Campaign)
                         if f.name != "records")


def result_fingerprint(result) -> str:
    """SHA-256 over records, verdicts, profiles, funnel, proxies and
    campaigns."""
    digest = hashlib.sha256()

    def put(*fields) -> None:
        for value in fields:
            data = repr(value).encode()
            digest.update(len(data).to_bytes(8, "little"))
            digest.update(data)

    for record in result.records:
        put("record", record)
    for sha in sorted(result.verdicts):
        put("verdict", result.verdicts[sha])
    for identifier, profile in result.profiles.items():
        put("profile", identifier, profile)
    put("stats", result.stats)
    put("proxies", sorted(result.proxy_ips))
    for campaign in result.campaigns:
        put("campaign", *(getattr(campaign, name)
                          for name in _CAMPAIGN_FIELDS))
    return digest.hexdigest()


def test_smoke_result_fingerprint_is_pinned():
    world = generate_world(ScenarioConfig(seed=2019, scale=0.004))
    result = MeasurementPipeline(world).run()
    assert result_fingerprint(result) == RESULT_FINGERPRINT
