"""The batched CTPH kernel against the per-byte oracle.

``compute_many`` hashes a list of inputs in groups of concatenated
bytes; each result must equal ``tests/reference_ctph.reference`` of its
input alone, whatever the input's neighbours, its position or the group
budget that splits the list.
"""

import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzzyhash import ctph
from tests import reference_ctph as ref


def _random_bytes(seed: int, size: int, alphabet: int = 256) -> bytes:
    rng = random.Random(seed)
    return bytes(rng.choices(range(alphabet), k=size))


inputs = st.one_of(
    st.just(b""),
    st.binary(min_size=1, max_size=6),
    st.binary(max_size=63),
    st.builds(lambda byte, size: bytes([byte]) * size,
              st.integers(0, 255), st.integers(0, 10240)),
    st.builds(_random_bytes, st.integers(0, 2**32), st.integers(0, 10240),
              st.integers(1, 4)),
    st.builds(_random_bytes, st.integers(0, 2**32), st.integers(0, 10240)),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(inputs, max_size=8), st.integers(1, 24 * 1024))
def test_compute_many_equals_reference(datas, budget):
    """Any list, split into groups at any budget, hashes as each input
    does alone."""
    expected = [ref.reference(data) for data in datas]
    with mock.patch.object(ctph, "_GROUP_BYTES", budget):
        assert ctph.compute_many(datas) == expected
    assert ctph.compute_many(datas) == expected
    assert [ctph.compute(data) for data in datas] == expected


@settings(max_examples=20, deadline=None)
@given(st.lists(inputs, min_size=1, max_size=8), st.randoms())
def test_result_ignores_neighbours_and_position(datas, rng):
    order = list(range(len(datas)))
    rng.shuffle(order)
    hashed = ctph.compute_many(datas)
    assert ctph.compute_many([datas[i] for i in order]) == \
        [hashed[i] for i in order]


def test_groups_at_the_real_budget():
    """A list larger than one group: every group boundary falls between
    two whole inputs, and the lanes of a full group run in numpy."""
    datas = [_random_bytes(seed, 9000 + 37 * seed, 1 + seed % 256)
             for seed in range(ctph._GROUP_BYTES // 9000 + 8)]
    assert len(ctph._group_bounds([len(d) for d in datas])) > 1
    assert ctph.compute_many(datas) == [ctph.compute(d) for d in datas]


def test_compute_many_of_nothing():
    assert ctph.compute_many([]) == []


# Inputs whose last five bytes hash back to the FNV seed and follow a
# block boundary, so their tail adds no character: the block-size
# search must hash the tail to read the signature length right.
_TAIL_AT_64 = bytes.fromhex(
    "5ebe0bd08495c1dae5f4287b331327e070d557a57f8ef40e3e773b43dba94c43"
    "9bdfd4a4bb7e0acc852b3057d6c9890a50e8dce9f1c2c2cc3baec89fe95f4512"
    "1340881b54aaec8469bb089a6f4b0c165eb044190b02c052304673fdb5fcad48"
    "42f76e770862f6cabb7ddfa07c6abd14939ae555108bbc3b29c3b0537e698e82"
    "a35d662a86fda715859595f597ca86006d2aa20891334fbe461108fae380bb14"
    "d769adc0491cc7a088adfa4dfcd442ed96b8d637cbcbfcc77822")
_TAIL_AT_15 = bytes(120) + bytes.fromhex(
    "64d9d260af2fef0391f108d11891ee5607e829b30181b950631e3bd87e8d34a1"
    "da8828f298db4d47d6f284a81a02639a68816535d2f9e1b16a42a735879d402e"
    "d29831c4e188c6201f76e82b53ee99b1069e94f6b0b59693")


def test_tail_hashing_to_the_seed_keeps_64_characters():
    """64 blocks and a seed-hashing tail: 64 characters, so the search
    keeps block size 3 (counting the tail would grow it to 6)."""
    data = _TAIL_AT_64
    assert ref.fnv_span(data, len(data) - 5, len(data)) == ctph._FNV_INIT
    assert len(ref.piecewise_signature(data[:-5], 3)) == 64
    assert len(ref.piecewise_signature(data, 3)) == 64
    assert ref.reference(data).blocksize == 3
    assert ctph.compute(data) == ref.reference(data)


def test_tail_hashing_to_the_seed_leaves_15_characters():
    """15 blocks at size 6 and a seed-hashing tail: 15 characters, so
    the search shrinks to size 3 (counting the tail would stop at 6)."""
    data = _TAIL_AT_15
    assert ref.fnv_span(data, len(data) - 5, len(data)) == ctph._FNV_INIT
    assert len(ref.piecewise_signature(data, 6)) == 15
    assert ref.reference(data).blocksize == 3
    assert ctph.compute(data) == ref.reference(data)


def test_rolling_value_past_32_bits():
    """``h1 + h2 + h3`` exceeds 32 bits when ``h3`` is near ``2**32``:
    each window's last byte carries out of the 32 bits, which moves
    it across a multiple of 3 and so decides whether it closes a
    block that the trailing zero bytes make visible."""
    for window in ("d0fc78fab8b616", "04f9df19d9a8a3", "f159dd5e3f7cd5"):
        data = bytes.fromhex(window) + bytes(8)
        assert ctph.compute(data) == ref.reference(data)
        assert ctph.compute_many([b"x" * 5, data]) == \
            [ref.reference(b"x" * 5), ref.reference(data)]
