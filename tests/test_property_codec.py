"""Property tests: the checkpoint encoder writes the dict encoders' text.

``repro.ingest.codec.encode`` must produce, for every record, verdict,
outcome and funnel, exactly ``json.dumps(reference_encoder(value),
sort_keys=True)`` (the dict encoders in ``tests/reference_codec.py``),
so checkpoints written before and after the switch are the same bytes;
and the text must decode back to an equal value.
"""

import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import PipelineStats, SampleOutcome
from repro.core.records import MinerRecord
from repro.core.sanity import SanityVerdict
from repro.ingest.checkpoint import _write_state
from repro.ingest.codec import (
    Encoded,
    decode_outcome,
    decode_record,
    decode_stats,
    decode_verdict,
    encode,
)
from tests.reference_codec import reference_encoder

texts = st.text(max_size=12) | st.sampled_from(["", "é", "矿工", " "])
optional_texts = st.none() | texts
text_lists = st.lists(texts, max_size=4)
ints = st.integers() | st.integers(min_value=2 ** 63, max_value=2 ** 200)
floats = st.floats(allow_nan=False) | st.sampled_from(
    [0.1, 1e-300, -0.0, 5e-324, 1.7976931348623157e308])

records = st.builds(
    MinerRecord,
    sha256=texts, pool=optional_texts, url_pool=optional_texts,
    user=optional_texts, password=optional_texts,
    nthreads=st.none() | ints, agent=optional_texts,
    dst_ip=optional_texts, dst_port=st.none() | ints, dns_rr=text_lists,
    source=texts, first_seen=st.none() | st.dates(), itw_urls=text_lists,
    packer=optional_texts, positives=ints,
    type=st.sampled_from(["Miner", "Ancillary"]),
    identifiers=text_lists,
    identifier_coins=st.lists(optional_texts, max_size=4),
    parents=text_lists, dropped=text_lists, cname_aliases=text_lists,
    proxy_ips=text_lists, entropy=floats, obfuscated=st.booleans(),
    used_dynamic=st.booleans(), used_static=st.booleans())

verdicts = st.builds(
    SanityVerdict,
    sha256=texts, is_executable=st.booleans(), is_malware=st.booleans(),
    is_miner=st.booleans(), used_wallet_exception=st.booleans(),
    whitelisted_tool=st.booleans(), reasons=optional_texts)

outcomes = st.builds(
    SampleOutcome,
    index=ints, sha256=texts,
    kind=st.sampled_from(["nonexec", "deferred", "rejected", "miner",
                          "clean", "exception", "recovered"]),
    verdict=st.none() | verdicts, record=st.none() | records,
    has_network=st.booleans(), used_static=st.booleans())

stats = st.builds(
    PipelineStats,
    collected=ints, executables=ints, malware=ints, miners=ints,
    ancillaries=ints, wallet_exception_hits=ints,
    by_source=st.dictionaries(texts, ints, max_size=4),
    sandbox_analyses=ints, network_analyses=ints, binary_analyses=ints)


def reference_text(value) -> str:
    return json.dumps(reference_encoder(value), sort_keys=True)


class TestEncoderMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(records)
    def test_record(self, record):
        text = encode(record)
        assert text == reference_text(record)
        assert decode_record(json.loads(text)) == record

    @settings(max_examples=100, deadline=None)
    @given(verdicts)
    def test_verdict(self, verdict):
        text = encode(verdict)
        assert text == reference_text(verdict)
        assert decode_verdict(json.loads(text)) == verdict

    @settings(max_examples=150, deadline=None)
    @given(outcomes)
    def test_outcome(self, outcome):
        text = encode(outcome)
        assert text == reference_text(outcome)
        assert decode_outcome(json.loads(text)) == outcome

    @settings(max_examples=100, deadline=None)
    @given(stats)
    def test_stats(self, funnel):
        text = encode(funnel)
        assert text == reference_text(funnel)
        assert decode_stats(json.loads(text)) == funnel

    @settings(max_examples=50, deadline=None)
    @given(st.lists(records, max_size=4), st.lists(verdicts, max_size=4),
           stats)
    def test_streamed_snapshot(self, kept, checked, funnel):
        """A snapshot streamed with pre-encoded elements is the text of
        one ``json.dumps`` over the reference dicts."""
        out = io.StringIO()
        _write_state(out, {
            "records": [Encoded(encode(record)) for record in kept],
            "verdicts": checked, "stats": funnel, "cursor": len(kept)})
        assert out.getvalue() == json.dumps({
            "records": [reference_encoder(record) for record in kept],
            "verdicts": [reference_encoder(v) for v in checked],
            "stats": reference_encoder(funnel), "cursor": len(kept)},
            sort_keys=True)
