"""Codec invariants from BASELINE.json input_hint: bitwise for lossless,
PSNR >= 40 dB for lossy, exact caption round-trip through the pipeline."""

import numpy as np

from ecg_feature_engineering_ray.functions.codec import (
    decode_image,
    derive_scalars,
    encode_image,
    phash64,
    psnr,
    resize_nearest,
)


def _img(seed=0, h=48, w=64):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)


def test_png_bitwise_roundtrip():
    px = _img(1)
    dec, fmt = decode_image(encode_image(px, "png"))
    assert fmt == "png"
    assert np.array_equal(dec, px)


def test_jpeg_psnr_at_least_40db():
    for seed in range(5):
        px = _img(seed)
        dec, fmt = decode_image(encode_image(px, "jpeg"))
        assert fmt == "jpeg"
        assert psnr(px, dec) >= 40.0, psnr(px, dec)


def test_decode_is_deterministic():
    px = _img(7)
    b1 = encode_image(px, "jpeg")
    b2 = encode_image(px, "jpeg")
    assert b1 == b2
    d1, _ = decode_image(b1)
    d2, _ = decode_image(b2)
    assert np.array_equal(d1, d2)


def test_phash_and_luminance_stable():
    px = _img(3)
    assert phash64(px) == phash64(px.copy())
    assert 0.0 <= derive_scalars(px)[0] <= 1.0


def test_resize_shapes():
    px = _img(4, 64, 64)
    out = resize_nearest(px, 32, 16)
    assert out.shape == (32, 16, 3)


def test_fast_kernels_bitwise_equal_reference_forms():
    """The integer-sum kernels (derive_scalars, phash64's integer block
    sums) must be BITWISE equal to the float-mean reference forms they
    replaced — stored fixture phashes and 6-dp-rounded oracle hashes both
    depend on exact values.  Covers odd shapes (non-multiple-of-8,
    single-pixel) and constant images (exact tie in the aHash threshold)."""
    shapes = [(48, 64), (32, 32), (128, 128), (33, 57), (8, 8), (1, 1), (7, 129)]
    for seed, (h, w) in enumerate(shapes):
        px = _img(seed, h, w)
        # reference forms (the pre-optimization implementations, verbatim)
        ref_v = float(px.mean() / 255.0)
        m = px.mean(axis=(0, 1), dtype=np.float64) / 255.0
        ref_ch = (float(m[0]), float(m[1]), float(m[2]))
        assert derive_scalars(px) == (ref_v, *ref_ch)
        if h >= 8 and w >= 8:  # aHash needs a full 8×8 block grid
            g = px.mean(axis=2, dtype=np.float64)
            bh, bw = max(h // 8, 1), max(w // 8, 1)
            gb = g[: bh * 8, : bw * 8].reshape(8, bh, 8, bw).mean(axis=(1, 3))
            bits = (gb > gb.mean()).astype(np.uint64).ravel()
            weights = np.uint64(1) << np.arange(63, -1, -1, dtype=np.uint64)
            ref_ph = int(np.uint64(np.bitwise_or.reduce(bits * weights)).astype(np.int64))
            assert phash64(px) == ref_ph
    # constant image: every block mean ties the global mean exactly
    flat = np.full((64, 64, 3), 137, np.uint8)
    assert phash64(flat) == 0
    assert derive_scalars(flat) == (137 / 255.0,) * 4
