"""Kernel-level invariants: wavelet perfect reconstruction, stat formula
spot-checks against straightforward (independent) implementations."""

import numpy as np
import pytest

from ecg_feature_engineering_ray.functions import entropy, spectral, stats, wavelet


@pytest.mark.parametrize("order", [6, 7])
@pytest.mark.parametrize("n", [64, 257, 1700])
def test_wavelet_roundtrip(order, n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=n)
    coeffs = wavelet.wavedec(x, order, 5)
    rec = wavelet.waverec(coeffs, order, out_len=n)
    m = n - (n % 2)  # odd tails are sample-extended before transform
    assert np.allclose(rec[:m], x[:m], atol=1e-9)


def test_wavelet_stat_short_series_is_zero():
    assert np.all(wavelet.wavelet_stat(np.ones(100)) == 0.0)
    assert len(wavelet.wavelet_stat_names()) == 48


def test_denoise_removes_trend_and_keeps_length():
    rng = np.random.default_rng(0)
    n = 4096
    x = np.linspace(0, 10, n) + np.sin(np.linspace(0, 60 * np.pi, n))
    out = wavelet.wt_denoise(x)
    assert out.shape == x.shape
    # baseline (approximation band) removed → mean near zero vs original mean 5
    assert abs(out.mean()) < 0.5


def test_zero_crossings_simple():
    assert stats.zero_crossings(np.array([1.0, -1.0, 1.0, -1.0])) == 3
    assert stats.zero_crossings(np.array([1.0, 2.0, 3.0])) == 0
    assert stats.zero_crossings(np.array([1.0, 0.0, -1.0])) == 1
    assert stats.zero_crossings(np.array([0.0, -1.0, 1.0])) == 1  # a leading zero is no crossing


def test_feature_row_zero_cross_after_exact_mean():
    """v = [1, 0, 2]: the first value equals the prefix mean, so v − mean
    starts with an exact zero, which is not a crossing."""
    from ecg_feature_engineering_ray.pipelines.features import PIT_FEATURE_NAMES, pit_feature_vector

    from .oracle import oracle_feature_row

    ts = np.array([0, 1_000_000, 2_000_000], dtype=np.int64)
    v = np.array([1.0, 0.0, 2.0])
    row = dict(zip(PIT_FEATURE_NAMES, pit_feature_vector({"ts": ts, "v": v})))
    assert row["v_zero_cross"] == oracle_feature_row(ts, v)["v_zero_cross"] == 1


def test_zigzag_simple():
    assert stats.zigzag(np.array([0.0, 1.0, 0.0, 1.0, 0.0])) == 3
    assert stats.zigzag(np.arange(5.0)) == 0


def test_skew_kurtosis_match_moment_formulas():
    rng = np.random.default_rng(1)
    x = rng.normal(2.0, 3.0, 500)
    m = x - x.mean()
    skew_ref = np.mean(m**3) / np.mean(m**2) ** 1.5
    kurt_ref = np.mean(m**4) / np.mean(m**2) ** 2 - 3
    assert np.isclose(stats.skewness(x), skew_ref)
    assert np.isclose(stats.kurtosis(x), kurt_ref)


def test_rmssd_pnn():
    d = np.array([10.0, -20.0, 30.0, -40.0])
    assert np.isclose(stats.rmssd(d), np.sqrt(np.mean(d**2)))
    assert np.isclose(stats.pnn_fraction(d, 25.0), 0.5)


def test_rolling_median3():
    x = np.array([5.0, 1.0, 4.0, 2.0, 9.0])
    out = stats.rolling_median3(x)
    assert out[0] == 5.0 and out[-1] == 9.0
    assert np.allclose(out[1:-1], [4.0, 2.0, 4.0])


def test_bin_stat_first_match_semantics():
    # reference-width check: 16+16+10+10 = 52 features (QRS_features.py:261-294)
    names = stats.bin_stat_names()
    assert len(names) == 52
    # value 250 strictly exceeds edge 248 first (descending two-sided scan);
    # 248 exactly does NOT exceed 248 → falls to edge 244
    out = stats.bin_stat(np.array([250.0]))
    assert out[names.index("bin1_cnt_248")] == 1
    assert out[names.index("bin1_cnt_244")] == 0
    assert out[names.index("bin2_cnt_248")] == 1
    out = stats.bin_stat(np.array([248.0]))
    assert out[names.index("bin1_cnt_248")] == 0
    assert out[names.index("bin1_cnt_244")] == 1
    # ≤ lowest edge (0) matches nothing; empty input is all zeros
    assert stats.bin_stat(np.array([-3.0, 0.0])).sum() == 0
    assert stats.bin_stat(np.array([])).shape == (52,)
    # brute-force twin of the reference's double loop
    rng = np.random.default_rng(5)
    x = rng.uniform(-10, 500, 300)
    out = stats.bin_stat(x)
    for intervals, side in (((1, 4, 8, 16, 32, 64, 128, 240), "bin1"),
                            ((8, 32, 64, 128, 240), "bin2")):
        edges = sorted([240 + i for i in intervals] + [240 - i for i in intervals],
                       reverse=True)
        cnt = [0] * len(edges)
        for v in x:
            for j, e in enumerate(edges):
                if v > e:
                    cnt[j] += 1
                    break
        for j, e in enumerate(edges):
            assert out[names.index(f"{side}_cnt_{e}")] == cnt[j]


def test_periodogram_parseval():
    rng = np.random.default_rng(2)
    x = rng.normal(size=512)
    freqs, pxx = spectral.periodogram(x, fs=300.0)
    # one-sided PSD integrates (× fs/n) to signal power
    assert np.isclose(pxx.sum() * 300.0 / 512, np.mean(x**2), rtol=1e-6)


def test_band_power_partitions_total():
    rng = np.random.default_rng(3)
    x = rng.normal(size=600)
    bp = spectral.band_power(x, fs=300.0, bands=(0.0, 5.0, 150.1))
    _, pxx = spectral.periodogram(x, fs=300.0)
    assert np.isclose(bp.sum(), pxx.sum(), rtol=1e-9)


def test_sampen_known_behaviour():
    # constant series: every template matches → sampen ≈ 0 (finite-n correction)
    out = entropy.sampen_hrv(np.ones(50))
    assert (out >= 0).all() and (out < 0.1).all()
    # random series has positive entropy
    rng = np.random.default_rng(4)
    out = entropy.sampen_hrv(rng.normal(800, 50, 150))
    assert (out > 0).all() or (out == -1).any()


def test_autocorr_lag0_is_one():
    rng = np.random.default_rng(5)
    x = rng.normal(size=200)
    ac = stats.autocorr(x, 3)
    assert np.isclose(ac[0], 1.0)


def test_minhash_matrix_duckdb_parity_and_set_semantics():
    """minhash_matrix must equal DuckDB's
    (md5_number_upper + p·md5_number_lower) mod 2⁶⁴ min per doc — the exact
    formula the near_dup_pairs / minhash_signatures oracles use — and be
    insensitive to duplicate grams (min is set-semantic)."""
    import duckdb
    import numpy as np

    from ecg_feature_engineering_ray.functions import text as T

    gram_lists = [["abcde", "bcdef", "abcde"], ["zzzzz"], [], ["bcdef"]]
    H = T.minhash_matrix(gram_lists, num_perm=4)
    assert H.shape == (4, 4) and H.dtype == np.uint64
    # duplicate-free twin must match exactly
    H2 = T.minhash_matrix([list(dict.fromkeys(g)) for g in gram_lists], num_perm=4)
    assert (H == H2).all()
    # empty doc → sentinel row
    assert (H[2] == np.uint64(0xFFFFFFFFFFFFFFFF)).all()
    con = duckdb.connect()
    for i, grams in enumerate(gram_lists):
        if not grams:
            continue
        vals = ",".join(f"('{g}')" for g in set(grams))
        got = con.sql(
            "SELECT p.i, min(CAST((CAST(md5_number_upper(g) AS HUGEINT)"
            " + p.i * CAST(md5_number_lower(g) AS HUGEINT))"
            " % 18446744073709551616 AS UBIGINT))"
            f" FROM (VALUES {vals}) v(g), range(0, 4) p(i) GROUP BY p.i ORDER BY p.i"
        ).fetchall()
        assert [int(h) for _, h in got] == [int(x) for x in H[i]], f"doc {i}"


def test_shingle_lists_matches_sql_gram_generator():
    from ecg_feature_engineering_ray.functions import text as T

    # substr(text, i, 5) for i <= greatest(len-4, 1): short text is its own
    # gram, empty text has none
    assert T.shingle_lists(["abcdefg"], 5) == [["abcde", "bcdef", "cdefg"]]
    assert T.shingle_lists(["abc"], 5) == [["abc"]]
    assert T.shingle_lists([""], 5) == [[]]
