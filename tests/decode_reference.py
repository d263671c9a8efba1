"""The per-image reference for ``decode.decode_batch``: each row decoded,
checked and reduced on its own, with the float-mean kernels every stored
fixture phash and derived value was first made with, frozen here.  The
engine inflates per row and then reduces each image shape in one pass; the
property test in ``test_decode_batch.py`` holds it to this loop."""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pyarrow as pa

from ecg_feature_engineering_ray.functions.codec import MAGIC, encode_image, psnr
from ecg_feature_engineering_ray.stages.decode import (
    PHASH_MAX_HAMMING_LOSSY,
    PSNR_MIN_DB,
    _blob_views,
)


def decode_image(data) -> tuple[np.ndarray, str]:
    if data[:4] != MAGIC:
        raise ValueError("bad magic — not an EFR1 container")
    code, h, w = struct.unpack("<BHH", data[4:9])
    raw = zlib.decompress(data[9:])
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3)
    return pixels, {0: "png", 1: "jpeg"}[code]


def derive_scalars(pixels: np.ndarray) -> tuple[float, float, float, float]:
    n = pixels.shape[0] * pixels.shape[1]
    f = pixels.reshape(-1, 3)
    s0, s1, s2 = (int(f[:, c].sum(dtype=np.int64)) for c in range(3))
    return (s0 + s1 + s2) / (n * 3) / 255.0, s0 / n / 255.0, s1 / n / 255.0, s2 / n / 255.0


def phash64(pixels: np.ndarray) -> int:
    h, w, _ = pixels.shape
    g = (pixels[:, :, 0].astype(np.uint16) + pixels[:, :, 1] + pixels[:, :, 2]) / 3.0
    bh, bw = max(h // 8, 1), max(w // 8, 1)
    g = g[: bh * 8, : bw * 8].reshape(8, bh, 8, bw).mean(axis=(1, 3))
    bits = (g > g.mean()).astype(np.uint64).ravel()
    weights = np.uint64(1) << np.arange(63, -1, -1, dtype=np.uint64)
    val = np.uint64(np.bitwise_or.reduce(bits * weights))
    return int(val.astype(np.int64))


def hamming64(a: int, b: int) -> int:
    return bin((a ^ b) & ((1 << 64) - 1)).count("1")


def reference_decode_batch(batch: pa.Table, verify_roundtrip: bool = True,
                           verify_phash: bool = True,
                           psnr_min_db: float = PSNR_MIN_DB) -> pa.Table:
    blobs = _blob_views(batch.column("bytes"))
    fmts = batch.column("fmt").to_pylist()
    stored_ph = np.asarray(batch.column("phash").combine_chunks())
    n = batch.num_rows
    v, vr, vg, vb = (np.empty(n) for _ in range(4))
    ok = np.zeros(n, dtype=bool)
    for i, (blob, fmt) in enumerate(zip(blobs, fmts)):
        try:
            px, dec_fmt = decode_image(blob)
            v[i], vr[i], vg[i], vb[i] = derive_scalars(px)
            if not verify_roundtrip:
                ok[i] = dec_fmt == fmt
            elif fmt == "png":
                ok[i] = dec_fmt == "png" and encode_image(px, "png") == blob
            else:
                px2, _ = decode_image(encode_image(px, "jpeg"))
                ok[i] = dec_fmt == "jpeg" and psnr(px, px2) >= psnr_min_db
            if ok[i] and verify_phash:
                ph = phash64(px)
                if fmt == "png":
                    ok[i] = ph == int(stored_ph[i])
                else:
                    ok[i] = hamming64(ph, int(stored_ph[i])) <= PHASH_MAX_HAMMING_LOSSY
        except Exception:
            v[i] = np.nan
    out = pa.table(
        {
            "image_id": batch.column("image_id"),
            "ts": batch.column("ts"),
            "caption": batch.column("caption"),
            "phash": batch.column("phash"),
            "fmt": batch.column("fmt"),
            "w": batch.column("w"),
            "h": batch.column("h"),
            "v": pa.array(v, pa.float64()),
            "v_r": pa.array(vr, pa.float64()),
            "v_g": pa.array(vg, pa.float64()),
            "v_b": pa.array(vb, pa.float64()),
            "psnr_ok": pa.array(ok, pa.bool_()),
        }
    )
    keep = ~np.isnan(v)
    return out if keep.all() else out.filter(pa.array(keep))
