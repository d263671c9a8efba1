"""Image decode/validate stage — a stateless batch function run as tasks.

Decode holds no state, so it runs as plain Ray tasks: :func:`decode_stage`
maps :func:`decode_batch` with ``batch_size=None`` and no concurrency cap,
which Ray fuses into the read task.  Over :func:`~..sources.readers.read_events`
that is one read→decode task per fragment, streaming 256-row batches; the
image payload never becomes an object-store block, and the decoded output is
one small block per fragment.

Input: the raw event table (input_hint schema).  Output: the SHUFFLE-SAFE
projection — ``bytes`` is decoded, validated and REDUCED to derived scalar
channels here so the image payload never enters a shuffle (SURVEY.md §7.4):

    image_id, ts, caption, phash, fmt, w, h,
    v              — mean decoded luminance in [0,1]  (the 'signal value')
    v_r, v_g, v_b  — per-channel means (≙ the reference's 12 per-lead
                     signals, extract_LONG.py:46-51 — one derived series per
                     channel for multi-channel feature families)
    psnr_ok  — per-row invariant: bitwise roundtrip (png) / PSNR≥40 dB (jpeg)

Rows failing decode are dropped; the dropped count is rows in minus rows
out (reference analog: error-index accumulators,
preprocess-300hz.py:188-288).

A batch is decoded as arrays.  Only the per-image work runs per row: the
header, the inflate, the length check and (with ``verify_roundtrip``) the
re-encode check.  The inflated images are then grouped by shape, joined into
one ``(k, h, w, 3)`` view per group, and reduced with one call for the
derived scalars and one aHash call per group (``codec.image_scalars``,
``codec.ahash64``), in pieces of about ``CHUNK_BYTES`` so a batch of large
images holds little at once.  On small images numpy's per-call cost was as large as the inflate,
which is now most of the kernel.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np
import pyarrow as pa

from ray.data import Dataset

from ..functions.codec import (
    CHUNK_BYTES,
    ahash64,
    decode_image,
    encode_image,
    image_scalars,
    inflate_image,
    psnr,
)
from ..functions.hashing import popcount64

PSNR_MIN_DB = 40.0
PHASH_MAX_HAMMING_LOSSY = 6  # aHash bits near the mean can flip under quantization


def _blob_views(col: pa.ChunkedArray) -> list[memoryview]:
    """Zero-copy views of a binary column's values (a null reads as empty,
    which fails decode like any bad payload) — no per-row bytes copies."""
    views: list[memoryview] = []
    for chunk in col.chunks:
        if len(chunk) == 0:
            continue
        _, offsets, data = chunk.buffers()
        width = np.int64 if pa.types.is_large_binary(chunk.type) else np.int32
        off = np.frombuffer(offsets, dtype=width)[chunk.offset: chunk.offset + len(chunk) + 1]
        # Arrow exports signed bytes ('b'); as 'B' a view compares equal to bytes
        buf = memoryview(data).cast("B") if data is not None else memoryview(b"")
        views += [buf[a:b] for a, b in zip(off[:-1].tolist(), off[1:].tolist())]
    return views


def decode_batch(
    batch: pa.Table,
    verify_roundtrip: bool = True,
    verify_phash: bool = True,
    psnr_min_db: float = PSNR_MIN_DB,
) -> pa.Table:
    """Decode ``bytes``, validate invariants, derive v; drop undecodable rows.

    Per-row checks (input_hint invariants): container decodes; lossless rows
    round-trip bitwise / lossy rows within PSNR bound; the stored ``phash``
    matches the aHash recomputed from the decoded pixels (content-integrity
    check — a corrupted payload with an intact header fails here).  A row
    that fails the format or round-trip check keeps ``psnr_ok`` False and is
    not hashed; a row whose aHash cannot be taken (an image under 8×8 px) is
    dropped.

    ``verify_roundtrip`` re-encodes to prove CANONICAL encoding — an extra
    invariant beyond corruption detection (zlib's adler32 already fails
    loudly on corrupt payloads at decode).  It costs a full zlib compress per
    image (>50% of stage CPU), so throughput pipelines disable it and rely on
    decode + phash content verification (the reference's load path has no
    roundtrip either, resample.py:10-52).
    """
    blobs = _blob_views(batch.column("bytes"))
    fmts = batch.column("fmt").to_pylist()
    n = batch.num_rows
    scalars = np.empty((n, 4))
    ok = np.zeros(n, dtype=bool)
    keep = np.zeros(n, dtype=bool)
    hashed = np.zeros(n, dtype=bool)
    ph = np.zeros(n, dtype=np.int64)
    groups: dict[tuple[int, int], tuple[list[int], list[bytes]]] = {}

    def flush() -> None:
        # one join, one scalar pass and one aHash pass per image shape
        for (h, w), (rows, raws) in groups.items():
            idx = np.array(rows)
            imgs = np.frombuffer(b"".join(raws), dtype=np.uint8).reshape(len(rows), h, w, 3)
            scalars[idx] = image_scalars(imgs)
            keep[idx] = True
            need = ok[idx]  # a row that failed its checks is not hashed
            if not verify_phash or not need.any():
                continue
            try:
                ph[idx[need]] = ahash64(imgs if need.all() else imgs[need])
                hashed[idx[need]] = True
            except ValueError:  # too small for the 8×8 block grid
                keep[idx[need]] = False
        groups.clear()

    pending = 0
    for i, (blob, fmt) in enumerate(zip(blobs, fmts)):
        try:
            raw, h, w, dec_fmt = inflate_image(blob)
        except ValueError:
            continue
        if h * w == 0:  # an empty image has no mean
            continue
        if not verify_roundtrip:
            ok[i] = dec_fmt == fmt
        else:
            px = np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3)
            if fmt == "png":
                # lossless: re-encode must be byte-identical
                ok[i] = dec_fmt == "png" and encode_image(px, "png") == blob
            else:
                # lossy: decode(encode(decode)) within PSNR bound
                px2, _ = decode_image(encode_image(px, "jpeg"))
                ok[i] = dec_fmt == "jpeg" and psnr(px, px2) >= psnr_min_db
        rows, raws = groups.setdefault((h, w), ([], []))
        rows.append(i)
        raws.append(raw)
        pending += len(raw)
        if pending >= CHUNK_BYTES:
            flush()
            pending = 0
    flush()

    if hashed.any():
        stored = batch.column("phash").combine_chunks()
        keep &= ~hashed | np.asarray(stored.is_valid())  # no stored hash to check
        stored_ph = np.asarray(stored.fill_null(0))
        lossless = np.array([f == "png" for f in fmts], dtype=bool)
        # lossy: decoded pixels may flip near-threshold bits
        match = np.where(lossless, ph == stored_ph,
                         popcount64(ph ^ stored_ph) <= PHASH_MAX_HAMMING_LOSSY)
        ok &= ~hashed | match
    out = pa.table(
        {
            "image_id": batch.column("image_id"),
            "ts": batch.column("ts"),
            "caption": batch.column("caption"),
            "phash": batch.column("phash"),
            "fmt": batch.column("fmt"),
            "w": batch.column("w"),
            "h": batch.column("h"),
            "v": pa.array(scalars[:, 0], pa.float64()),
            "v_r": pa.array(scalars[:, 1], pa.float64()),
            "v_g": pa.array(scalars[:, 2], pa.float64()),
            "v_b": pa.array(scalars[:, 3], pa.float64()),
            "psnr_ok": pa.array(ok, pa.bool_()),
        }
    )
    return out if keep.all() else out.filter(pa.array(keep))


class DecodeValidate:
    """:func:`decode_batch` with its options bound, callable on one batch
    (the in-process codec probes build one directly)."""

    def __init__(self, psnr_min_db: float = PSNR_MIN_DB, verify_phash: bool = True,
                 verify_roundtrip: bool = True):
        self.psnr_min_db = psnr_min_db
        self.verify_phash = verify_phash
        self.verify_roundtrip = verify_roundtrip

    def __call__(self, batch: pa.Table) -> pa.Table:
        return decode_batch(batch, self.verify_roundtrip, self.verify_phash, self.psnr_min_db)


def decode_then(batch: pa.Table, then: Callable[[pa.Table], pa.Table],
                verify_roundtrip: bool = True) -> pa.Table:
    """Decode one batch and apply ``then`` to the decoded rows."""
    return then(decode_batch(batch, verify_roundtrip))


def decode_stage(
    ds: Dataset,
    concurrency: int | tuple[int, int] | None = None,
    batch_size: int | None = None,
    verify_roundtrip: bool = True,
    then: Callable[[pa.Table], pa.Table] | None = None,
) -> Dataset:
    """Decode the raw event rows of ``ds`` in stateless tasks.

    ``then`` (optional) runs on each decoded batch inside the same task —
    the flagship tags its event rows there, so only the tagged projection
    leaves the task.

    ``concurrency`` and ``batch_size`` are accepted for older callers and
    size nothing: a cap on the map would stop Ray fusing it with the read
    (fused task maps need equal caps), and so would a batch size (Ray keeps
    a read apart from a map that re-batches its rows).  The task count
    follows the input's blocks and a batch is one streamed block — 256 rows
    over :func:`~..sources.readers.read_events`.
    """
    fn = (functools.partial(decode_batch, verify_roundtrip=verify_roundtrip) if then is None
          else functools.partial(decode_then, then=then, verify_roundtrip=verify_roundtrip))
    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
