"""``decode_batch`` inflates per row and reduces each image shape in one
batched pass; it must be ``Table.equals`` the per-image reference loop
(``tests/decode_reference.py``) on every mix of rows, good and bad."""

from unittest import mock

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecg_feature_engineering_ray.functions import codec
from ecg_feature_engineering_ray.functions.codec import ahash64, encode_image, phash64
from ecg_feature_engineering_ray.sources.fixture import SCHEMA
from ecg_feature_engineering_ray.stages import decode
from ecg_feature_engineering_ray.stages.decode import decode_batch

from . import decode_reference as ref

SHAPES = [(1, 1), (7, 7), (33, 57), (8, 8), (64, 64), (128, 128)]


def _pixels(mode: str, h: int, w: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if mode == "flat":
        return np.full((h, w, 3), rng.integers(0, 256), dtype=np.uint8)
    if mode == "two_tone":  # blocks of two values: many block sums on or near the mean
        tones = rng.integers(0, 256, size=2).astype(np.uint8)
        return tones[rng.integers(0, 2, size=(h, w, 1))].repeat(3, axis=2)
    return rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)


def _flip(ph: int, bits: int, seed: int) -> int:
    """``ph`` with ``bits`` distinct bits flipped, as a signed int64."""
    pos = np.random.default_rng(seed).choice(64, size=bits, replace=False)
    mask = int(sum(1 << int(p) for p in pos))
    return int(np.array([(ph & (2**64 - 1)) ^ mask], dtype=np.uint64).view(np.int64)[0])


@st.composite
def rows(draw):
    kind = draw(st.sampled_from(["good", "good", "good", "bad_magic", "truncated", "bad_length",
                                 "null", "fmt_mismatch", "bad_code", "empty"]))
    h, w = draw(st.sampled_from(SHAPES))
    fmt = draw(st.sampled_from(["png", "jpeg"]))
    seed = draw(st.integers(0, 2**16))
    px = _pixels(draw(st.sampled_from(["noise", "flat", "two_tone"])), h, w, seed)
    if kind == "empty":
        px = px[:0]
    blob = encode_image(px, fmt)
    decoded = ref.decode_image(blob)[0]
    stored = ref.phash64(decoded) if min(h, w) >= 8 and kind != "empty" else 0
    if draw(st.booleans()):  # a planted or lossy-drifted stored hash
        stored = _flip(stored, draw(st.sampled_from([1, 6, 7])), seed)
    if kind == "bad_magic":
        blob = b"XXXX" + blob[4:]
    elif kind == "truncated":
        blob = blob[: max(9, len(blob) // 2)]
    elif kind == "bad_length":  # the header's h disagrees with the payload
        blob = blob[:4] + bytes([blob[4]]) + (h + 1).to_bytes(2, "little") + blob[7:]
    elif kind == "bad_code":
        blob = blob[:4] + b"\x07" + blob[5:]
    elif kind == "fmt_mismatch":
        fmt = "jpeg" if fmt == "png" else "png"
    return {"image_id": f"img{seed:08d}", "bytes": None if kind == "null" else blob,
            "w": w, "h": h, "fmt": fmt, "caption": kind, "phash": stored, "ts": seed}


def _table(rs: list[dict], n_chunks: int) -> pa.Table:
    cols = {k: [r[k] for r in rs] for k in SCHEMA.names}
    t = pa.table(cols, schema=SCHEMA) if rs else SCHEMA.empty_table()
    cut = max(1, -(-len(rs) // n_chunks))
    return pa.concat_tables([t.slice(i, cut) for i in range(0, len(rs), cut)] or [t])


@settings(max_examples=200, deadline=None)
@given(rs=st.lists(rows(), max_size=12), n_chunks=st.integers(1, 3),
       verify_roundtrip=st.booleans(), verify_phash=st.booleans(),
       chunk_bytes=st.sampled_from([codec.CHUNK_BYTES, 1, 20_000]))
def test_decode_batch_equals_the_per_image_reference(rs, n_chunks, verify_roundtrip,
                                                     verify_phash, chunk_bytes):
    batch = _table(rs, n_chunks)
    with mock.patch.object(decode, "CHUNK_BYTES", chunk_bytes):
        got = decode_batch(batch, verify_roundtrip=verify_roundtrip, verify_phash=verify_phash)
    want = ref.reference_decode_batch(batch, verify_roundtrip=verify_roundtrip,
                                      verify_phash=verify_phash)
    assert got.equals(want), (got.to_pydict(), want.to_pydict())


def _row(px, enc="png", stored=0, **columns):
    """One input row of ``px`` encoded as ``enc``; ``columns`` override."""
    h, w, _ = px.shape
    r = {"image_id": "img00000000", "bytes": encode_image(px, enc), "w": w, "h": h,
         "fmt": enc, "caption": "c", "phash": stored, "ts": 0}
    return {**r, **columns}


def test_edge_rows_keep_the_reference_outcomes():
    """A sub-8-px image is dropped when it must be hashed, kept (psnr_ok
    False) when its fmt check already failed; lossy rows pass at Hamming
    distance 6 and fail at 7."""
    rng = np.random.default_rng(3)
    tiny = rng.integers(0, 256, size=(7, 7, 3), dtype=np.uint8)
    big = rng.integers(0, 256, size=(64, 64, 3), dtype=np.uint8)
    ph = ref.phash64(ref.decode_image(encode_image(big, "jpeg"))[0])
    batch = _table([
        _row(tiny, "png"),                               # hashed → dropped
        _row(tiny, "png", fmt="jpeg"),                   # fmt mismatch → kept
        _row(big, "jpeg", stored=_flip(ph, 6, 1)),
        _row(big, "jpeg", stored=_flip(ph, 7, 1)),
    ], 1)
    for verify_roundtrip in (False, True):
        got = decode_batch(batch, verify_roundtrip=verify_roundtrip)
        assert got.equals(ref.reference_decode_batch(batch, verify_roundtrip=verify_roundtrip))
        assert got.column("psnr_ok").to_pylist() == [False, True, False]
    kept = decode_batch(batch, verify_phash=False)
    assert kept.num_rows == 4 and kept.column("psnr_ok").to_pylist() == [True, False, True, True]


def test_every_row_failing_returns_the_schema_with_no_rows():
    good = _table([_row(np.zeros((8, 8, 3), np.uint8))], 1)
    bad = _table([_row(np.zeros((8, 8, 3), np.uint8), bytes=b"EFR1"),
                  _row(np.zeros((8, 8, 3), np.uint8), bytes=None)], 2)
    out = decode_batch(bad)
    assert out.num_rows == 0
    assert out.schema == decode_batch(good).schema


def test_a_null_stored_phash_fails_only_its_own_row():
    """A row with no stored phash to check is dropped; the other rows keep
    their exact int64 comparison (a nullable column read through float64
    would round every other hash in the batch)."""
    px = np.random.default_rng(1).integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
    batch = _table([_row(px, stored=phash64(px)), _row(px, stored=None)], 1)
    out = decode_batch(batch)
    assert out.num_rows == 1 and out.column("psnr_ok").to_pylist() == [True]
    assert decode_batch(batch, verify_phash=False).num_rows == 2


def test_verify_phash_false_hashes_nothing(monkeypatch):
    def boom(images):
        raise AssertionError("aHash taken with verify_phash=False")

    monkeypatch.setattr(decode, "ahash64", boom)
    px = np.random.default_rng(0).integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
    batch = _table([_row(px), _row(px, "jpeg")], 1)
    got = decode_batch(batch, verify_phash=False)
    assert got.equals(ref.reference_decode_batch(batch, verify_phash=False))


def _two_tone_tie() -> np.ndarray:
    """64×64 two-tone image: block columns 0–2 all a, 5–7 all b, and 3–4
    half a, half b — blocks 3 and 4 sum to exactly the mean of all blocks."""
    cols = np.full(64, 200, np.uint8)
    cols[:24] = 10
    cols[24:28] = 10
    cols[32:36] = 10
    return np.broadcast_to(cols[None, :, None], (64, 64, 3)).copy()


@pytest.mark.parametrize("px", [np.full((64, 64, 3), 137, np.uint8),
                                np.zeros((33, 57, 3), np.uint8),
                                _two_tone_tie()],
                         ids=["flat", "black", "two_tone_tie"])
def test_exact_ties_take_the_float_formula(px, monkeypatch):
    calls = []
    float_hash = codec._ahash_float
    monkeypatch.setattr(codec, "_ahash_float", lambda p: calls.append(1) or float_hash(p))
    assert phash64(px) == ref.phash64(px)
    assert calls, "a block on the mean must be decided by the float formula"


@settings(max_examples=100, deadline=None)
@given(shape=st.sampled_from([(8, 8), (9, 17), (33, 57), (64, 64), (128, 40)]),
       k=st.integers(1, 5), levels=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_ahash64_equals_the_float_formula(shape, k, levels, seed):
    """Few-valued images put block means on or next to their mean."""
    rng = np.random.default_rng(seed)
    tones = rng.integers(0, 256, size=levels).astype(np.uint8)
    imgs = tones[rng.integers(0, levels, size=(k, *shape, 3))]
    assert ahash64(imgs).tolist() == [ref.phash64(p) for p in imgs]
