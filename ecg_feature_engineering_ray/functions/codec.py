"""Deterministic image codec (PIL-free container stand-in).

The north-star input table carries images as opaque ``bytes`` with a ``fmt``
column ('png' = lossless, 'jpeg' = lossy).  Real PNG/JPEG libraries are not
in this container, so the engine ships its own deterministic codec with the
SAME invariant surface the spec demands (BASELINE.json input_hint):

- fmt='png'  → zlib-compressed raw RGB; decode is **bitwise** exact.
- fmt='jpeg' → quantized (step=2) + zlib; decode is lossy with
  **PSNR ≥ 40 dB** guaranteed (uniform quantization error ≤ 1 LSB →
  MSE ≤ 1/3 → PSNR ≥ 10·log10(255²·3) ≈ 53 dB).

Container layout (little-endian): magic ``b'EFR1'`` | fmt u8 (0=png,1=jpeg)
| h u16 | w u16 | zlib(payload).  The codec is the pluggable seam where a
real image library would slot in (see stages/decode.py).

Reference analog: WFDB/.mat signal loading + ADC-gain normalization
(/root/reference/resample.py:10-52, extract_HRV.py:29-33).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

MAGIC = b"EFR1"
_FMT_CODE = {"png": 0, "jpeg": 1}
_FMT_NAME = {0: "png", 1: "jpeg"}
JPEG_QUANT_STEP = 2
# Pixel bytes one call of the batched kernels (image_scalars, ahash64) is
# given at a time: callers cut larger sets of images into pieces of about
# this size, so the joined copy and the partial sums stay small.  At 512 KiB
# a decode process peaks where the per-image loop did, and 2 MiB was no
# faster (one pit_stream fragment in 256-row batches).
CHUNK_BYTES = 512 << 10
# The uint8 re-quantization below ((p//q)*q + q//2) is overflow-free only
# when the top bin's center fits in a byte; q=2 satisfies it, but e.g. q=5
# gives 255+2=257 and would WRAP in uint8.  Guard statically so a future
# constant change fails at import, not by corrupting payloads.
assert (255 // JPEG_QUANT_STEP) * JPEG_QUANT_STEP + JPEG_QUANT_STEP // 2 <= 255, (
    "JPEG_QUANT_STEP would overflow uint8 re-quantization — widen the dtype"
)


def encode_image(pixels: np.ndarray, fmt: str) -> bytes:
    """Encode an (h, w, 3) uint8 array. 'png' lossless, 'jpeg' lossy (quantized)."""
    assert pixels.dtype == np.uint8 and pixels.ndim == 3 and pixels.shape[2] == 3
    h, w, _ = pixels.shape
    if fmt == "jpeg":
        q = JPEG_QUANT_STEP
        # uint8 arithmetic: (p//q)*q + q//2 ≤ 255 — no int32 temporary
        payload = (pixels // q) * q + q // 2
    elif fmt == "png":
        payload = pixels
    else:
        raise ValueError(f"unknown fmt {fmt!r}")
    header = MAGIC + struct.pack("<BHH", _FMT_CODE[fmt], h, w)
    return header + zlib.compress(payload.tobytes(), level=1)


def inflate_image(data) -> tuple[bytes, int, int, str]:
    """Container bytes → (raw RGB bytes, h, w, fmt name).  Raises
    ``ValueError`` on a bad magic or short header, an unknown fmt code, a
    corrupt zlib stream, or an inflated length other than h·w·3."""
    if len(data) < 9 or data[:4] != MAGIC:
        raise ValueError("bad magic — not an EFR1 container")
    code, h, w = struct.unpack("<BHH", data[4:9])
    if code not in _FMT_NAME:
        raise ValueError(f"unknown fmt code {code}")
    try:
        raw = zlib.decompress(data[9:])
    except zlib.error as e:
        raise ValueError(f"corrupt payload: {e}") from e
    if len(raw) != h * w * 3:
        raise ValueError(f"payload of {len(raw)} bytes is not {h}x{w}x3")
    return raw, h, w, _FMT_NAME[code]


def decode_image(data: bytes) -> tuple[np.ndarray, str]:
    """Decode container bytes → ((h, w, 3) uint8 pixels, fmt name)."""
    raw, h, w, fmt = inflate_image(data)
    return np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3), fmt


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB between two uint8 images.

    Integer diff/square (exact in int32), f64 accumulator only — avoids
    full-image float64 temporaries (DRAM-bandwidth ceiling under 24-way
    actor concurrency; bitwise-identical result)."""
    d = a.astype(np.int16) - b
    mse = np.mean(d.astype(np.int32) ** 2, dtype=np.float64)
    if mse == 0:
        return float("inf")
    return float(10.0 * np.log10(255.0**2 / mse))


def image_scalars(images: np.ndarray) -> np.ndarray:
    """(k, 4) float64 (v, v_r, v_g, v_b) of k (h, w, 3) uint8 images: v is
    the mean luminance / 255, v_r..v_b the per-channel means / 255.

    The channel sums are exact integers: rows are added first, as whole
    contiguous rows into per-column partial sums (uint16 while 255·h fits),
    and only the (k, w, 3) partials are then reduced per channel — numpy
    reduces a short strided axis slowly, a long contiguous one fast.  Each
    value is then the correctly rounded quotient followed by the one
    division by 255, bitwise the float-mean forms (``px.mean() / 255``,
    ``px.mean(axis=(0, 1)) / 255``)."""
    k, h, w, _ = images.shape
    cols = images.reshape(k, h, w * 3).sum(axis=1, dtype=np.uint16 if h <= 257 else np.uint32)
    sums = cols.reshape(k, w, 3).sum(axis=1, dtype=np.int64).astype(np.float64)
    out = np.empty((k, 4))
    out[:, 0] = sums.sum(axis=1) / (h * w * 3) / 255.0
    out[:, 1:] = sums / (h * w) / 255.0
    return out


def derive_scalars(pixels: np.ndarray) -> tuple[float, float, float, float]:
    """(v, v_r, v_g, v_b) of one (h, w, 3) image: the one-image case of
    :func:`image_scalars`."""
    return tuple(image_scalars(pixels[None])[0].tolist())


def _ahash_float(pixels: np.ndarray) -> int:
    """aHash by the float formula every stored fixture phash was made with:
    8×8 block means of the (R+G+B)/3 grayscale plane, each compared with
    their mean, packed MSB first into a signed int64."""
    h, w, _ = pixels.shape
    g = (pixels[:, :, 0].astype(np.uint16) + pixels[:, :, 1] + pixels[:, :, 2]) / 3.0
    bh, bw = max(h // 8, 1), max(w // 8, 1)
    g = g[: bh * 8, : bw * 8].reshape(8, bh, 8, bw).mean(axis=(1, 3))
    bits = (g > g.mean()).astype(np.uint64).ravel()
    weights = np.uint64(1) << np.arange(63, -1, -1, dtype=np.uint64)
    val = np.uint64(np.bitwise_or.reduce(bits * weights))
    return int(val.astype(np.int64))


def ahash64(images: np.ndarray) -> np.ndarray:
    """(k,) int64 aHash of k (h, w, 3) uint8 images (h, w ≥ 8): the 64-bit
    perceptual-hash stand-in, an 8×8 mean-threshold bitmap of the
    downsampled grayscale image (aHash — public algorithm).

    Bitwise equal to :func:`_ahash_float`, which defines the values.  Here a
    block's bit is decided on the exact integer block sums T of R+G+B:
    block mean > mean of the block means ⇔ 64·T_b > ΣT.  The float formula
    rounds once per grayscale pixel, once per addition of a block's m
    pixels and of the 64 block means, and once per division, so each of
    its means is within (m + 65)·2⁻⁵³ relative of the exact one and it can
    only decide a block differently when |64·T_b − ΣT| ≤ 2(m + 65)·2⁻⁵³·ΣT.
    An image with a block that close to the mean (an exact tie among them)
    is hashed by the float formula itself; twice that margin is used."""
    k, h, w, _ = images.shape
    if h < 8 or w < 8:
        raise ValueError(f"aHash needs an 8x8 block grid, got a {h}x{w} image")
    bh, bw = h // 8, w // 8
    x = images[:, : bh * 8, : bw * 8].reshape(k, 8, bh, bw * 8 * 3)
    rows = x.sum(axis=2, dtype=np.uint16 if bh <= 257 else np.uint32)
    t = rows.reshape(k, 64, bw * 3).sum(axis=2, dtype=np.int64)
    total = t.sum(axis=1, keepdims=True)
    d = 64 * t - total
    out = np.packbits(d > 0, axis=1).view(">i8").ravel().astype(np.int64)
    near = (np.abs(d) <= 4 * (bh * bw + 65) * 2.0**-53 * total).any(axis=1)
    for j in np.flatnonzero(near).tolist():
        out[j] = _ahash_float(images[j])
    return out


def phash64(pixels: np.ndarray) -> int:
    """aHash of one (h, w, 3) image: the one-image case of :func:`ahash64`."""
    return int(ahash64(pixels[None])[0])


def resize_nearest(pixels: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Deterministic nearest-neighbor resize (multimodal transform stage)."""
    h, w, _ = pixels.shape
    ri = (np.arange(out_h) * h // out_h).clip(0, h - 1)
    ci = (np.arange(out_w) * w // out_w).clip(0, w - 1)
    return pixels[ri][:, ci]
