"""Statistical kernels replaying the reference's per-record formulas.

Each composite takes ONE entity's ordered 1-D float series (the stand-in for
the reference's RR-interval / signal arrays) and returns a flat float64
vector; names are returned by the matching ``*_names()`` so schemas are
static.  Quirks of the reference are preserved deliberately (behavior, not
intent, is the spec — SURVEY.md §7.4):

- ``qrs_basic_stat`` trims first+last element (``ts[1:-1]``,
  /root/reference/QRS_features.py:370-401).
- ``bin_stat`` assigns each value to the FIRST bin whose lower edge it
  exceeds, scanning descending (/root/reference/QRS_features.py:261-294).
- HRV SampEn sentinel substitution NaN→-2, Inf→-1
  (/root/reference/HRV_features.py:135-139).

Everything here is pure numpy (no scipy in this container): skew/kurtosis
use the biased moment definitions scipy defaults to (``bias=True``,
``fisher=True``).
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# moments / order statistics
# ---------------------------------------------------------------------------


def skewness(x: np.ndarray) -> float:
    """Biased sample skew, scipy.stats.skew(bias=True) semantics."""
    n = x.size
    if n == 0:
        return np.nan
    m = x.mean()
    m2 = np.mean((x - m) ** 2)
    if m2 == 0:
        return 0.0
    m3 = np.mean((x - m) ** 3)
    return float(m3 / m2**1.5)


def kurtosis(x: np.ndarray) -> float:
    """Biased excess kurtosis, scipy.stats.kurtosis(fisher=True, bias=True)."""
    n = x.size
    if n == 0:
        return np.nan
    m = x.mean()
    m2 = np.mean((x - m) ** 2)
    if m2 == 0:
        return -3.0
    m4 = np.mean((x - m) ** 4)
    return float(m4 / m2**2 - 3.0)


def percentiles(x: np.ndarray, qs) -> np.ndarray:
    return np.percentile(x, qs) if x.size else np.full(len(qs), np.nan)


# ---------------------------------------------------------------------------
# nested-prefix aggregates (the as-of merge and the PIT feature matrix)
# ---------------------------------------------------------------------------


def prefix_agg(x: np.ndarray, pos, fn: str) -> np.ndarray:
    """``fn`` of every prefix ``x[..., :p]`` for ``p`` in ``pos`` (any shape,
    0 ≤ p ≤ n), from one cumulative pass along ``x``'s last axis; the result
    has shape ``x.shape[:-1] + pos.shape``.

    ``fn`` is "sum" or "mean" (a float64 running sum, so it can differ from
    numpy's pairwise ``x[:p].sum()`` in the last bits; an empty prefix sums
    to 0 and has a NaN mean) or "min" or "max" (exact, in ``x``'s dtype; an
    empty prefix's value is undefined and the caller masks it).
    """
    pos = np.asarray(pos, dtype=np.int64)
    if fn in ("sum", "mean"):
        cs = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,))
        np.cumsum(x, axis=-1, dtype=np.float64, out=cs[..., 1:])
        res = cs[..., pos]
        if fn == "mean":
            with np.errstate(invalid="ignore", divide="ignore"):
                res = np.where(pos > 0, res / np.maximum(pos, 1), np.nan)
        return res
    if fn not in ("min", "max"):
        raise ValueError(f"unsupported prefix fn {fn!r}")
    if x.shape[-1] == 0:
        return np.zeros(x.shape[:-1] + pos.shape, dtype=x.dtype)
    acc = (np.minimum if fn == "min" else np.maximum).accumulate(x, axis=-1)
    return acc[..., np.maximum(pos - 1, 0)]


# ---------------------------------------------------------------------------
# scan-style counters (reference LONG_features.py:17-29,107-119,215-241)
# ---------------------------------------------------------------------------


def zero_crossings(x: np.ndarray, threshold: float = 0.0) -> int:
    """Count of sign changes of ``x - threshold``.

    Reference analog ``LongZeroCrossing`` (/root/reference/LONG_features.py:107-119).
    """
    if x.size < 2:
        return 0
    s = np.sign(x - threshold)
    # zeros adopt the previous nonzero sign (a zero is not its own crossing,
    # a leading zero has no sign to change from): only nonzero signs count
    s = s[s != 0]
    return int(np.count_nonzero(s[1:] != s[:-1]))


def zigzag(x: np.ndarray) -> int:
    """Count of direction changes (/root/reference/LONG_features.py:17-29)."""
    if x.size < 3:
        return 0
    d = np.sign(np.diff(x))
    nz = d != 0
    if nz.sum() < 2:
        return 0
    dn = d[nz]
    return int(np.count_nonzero(dn[1:] != dn[:-1]))


def thres_crossing(x: np.ndarray, threshold: float | None = None) -> tuple[int, float]:
    """Crossing count of a threshold (default: mean) + mean inter-crossing width.

    Reference ``LongThresCrossing`` (/root/reference/LONG_features.py:215-241).
    """
    if x.size < 2:
        return 0, 0.0
    t = float(x.mean()) if threshold is None else threshold
    s = np.sign(x - t)
    cross = np.flatnonzero(s[1:] * s[:-1] < 0)
    n = cross.size
    width = float(np.diff(cross).mean()) if n >= 2 else 0.0
    return int(n), width


# ---------------------------------------------------------------------------
# interval-series statistics (reference QRS_features.py / HRV_features.py)
# ---------------------------------------------------------------------------


def pnn_fraction(d: np.ndarray, thresh: float) -> float:
    """Fraction of |lag-1 diffs| >= thresh (pNN50 family,
    /root/reference/HRV_features.py:123-127)."""
    if d.size == 0:
        return np.nan
    return float(np.count_nonzero(np.abs(d) >= thresh) / d.size)


def rmssd(d: np.ndarray) -> float:
    """sqrt(mean(diff^2)) (/root/reference/HRV_features.py:129-131)."""
    if d.size == 0:
        return np.nan
    return float(np.sqrt(np.mean(d.astype(np.float64) ** 2)))


def mad(x: np.ndarray) -> float:
    """Median absolute deviation (/root/reference/QRS_features.py:360-367)."""
    if x.size == 0:
        return 0.0
    return float(np.median(np.abs(x - np.median(x))))


def cdf_mean(x: np.ndarray, lo: float = 100.0, hi: float = 400.0, bins: int = 60) -> float:
    """Mean cumulative histogram density (/root/reference/QRS_features.py:325-333)."""
    if x.size == 0:
        return 0.0
    hist, _ = np.histogram(x, bins=bins, range=(lo, hi))
    cdf = np.cumsum(hist) / x.size
    return float(cdf.mean())


def coeff_of_variation(x: np.ndarray) -> tuple[float, float]:
    """(std/mean of x[1:-1], std/mean of diff(x[1:-1])) with 0 fallbacks.

    Reference ``CoeffOfVariation`` (/root/reference/QRS_features.py:335-358).
    """
    t = x[1:-1]
    cov1 = float(t.std() / t.mean()) if t.size and t.mean() != 0 else 0.0
    dt = np.diff(t)
    cov2 = float(dt.std() / dt.mean()) if dt.size and dt.mean() != 0 else 0.0
    return cov1, cov2


def variability(x: np.ndarray) -> np.ndarray:
    """SDNN, NN50 count, pNN50, Stepping, Dispersion (Poincaré).

    Reference ``Variability`` (/root/reference/QRS_features.py:509-538).
    """
    out = np.zeros(5)
    if x.size < 3:
        return out
    d = np.diff(x)
    out[0] = x.std()
    out[1] = np.count_nonzero(np.abs(d) > 50)
    out[2] = out[1] / d.size
    denom = np.mean(x[:-1] + x[1:]) if x.size >= 2 else 0.0
    stepping = np.mean(np.sqrt(d[:-1] ** 2 + d[1:] ** 2)) if d.size >= 2 else 0.0
    out[3] = stepping / denom if denom != 0 else 0.0
    if d.size >= 2:
        sd1 = np.sqrt(0.5 * np.var(d))
        sd2_sq = 2 * np.var(x) - 0.5 * np.var(d)
        sd2 = np.sqrt(sd2_sq) if sd2_sq > 0 else 0.0
        out[4] = sd1 / sd2 if sd2 != 0 else 0.0
    return out


_BIN_INTERVAL_1 = (1, 4, 8, 16, 32, 64, 128, 240)
_BIN_INTERVAL_2 = (8, 32, 64, 128, 240)


def bin_edges(intervals) -> list[int]:
    """The reference's TWO-SIDED descending bin edges around 240:
    ``sorted([240+i] + [240-i], reverse=True)`` (QRS_features.py:268,280)."""
    return sorted([240 + i for i in intervals] + [240 - i for i in intervals], reverse=True)


def bin_stat(x: np.ndarray) -> np.ndarray:
    """Two first-matching-bin histograms around 240 → counts + ratios (52 feats).

    Replicates the reference scan EXACTLY (/root/reference/QRS_features.py:261-294):
    bins are the two-sided descending edges ``240 ± interval`` and each RAW
    value is assigned to the FIRST edge (largest first) it STRICTLY exceeds
    — i.e. bin j holds values in (edge[j], edge[j-1]].  Values ≤ the lowest
    edge (240−240 = 0) match no bin.  Output layout is the reference's
    ``cnt_1 + ratio_1 + cnt_2 + ratio_2`` → 16+16+10+10 = 52.  Empty input
    → all zeros (the reference returns [0.0]*52).
    """
    out = []
    for intervals in (_BIN_INTERVAL_1, _BIN_INTERVAL_2):
        edges_desc = np.array(bin_edges(intervals), dtype=float)
        asc = edges_desc[::-1]
        counts = np.zeros(edges_desc.size)
        if x.size:
            # last ascending edge strictly below the value (−1 → no bin)
            pos = np.searchsorted(asc, x, side="left") - 1
            hit = pos >= 0
            j = (edges_desc.size - 1) - pos[hit]
            counts += np.bincount(j, minlength=edges_desc.size)
        ratios = counts / x.size if x.size else np.zeros_like(counts)
        out.append(np.concatenate([counts, ratios]))
    return np.concatenate(out)  # (16+16) + (10+10) = 52


def bin_stat_names() -> list[str]:
    """52 names keyed by each bin's LOWER edge (bins are half-open
    (edge, prev_edge] intervals of the descending scan)."""
    e1 = bin_edges(_BIN_INTERVAL_1)
    e2 = bin_edges(_BIN_INTERVAL_2)
    names = [f"bin1_cnt_{e}" for e in e1] + [f"bin1_ratio_{e}" for e in e1]
    names += [f"bin2_cnt_{e}" for e in e2] + [f"bin2_ratio_{e}" for e in e2]
    return names


def yuxi_fractions(x: np.ndarray, tol: float = 0.05) -> np.ndarray:
    """Fractions of intervals ≈ 1x/2x/3x the median (incl. 2-interval sums).

    Reference ``QRSYuxi`` (/root/reference/QRS_features.py:463-506).
    """
    out = np.zeros(3)
    if x.size == 0:
        return out
    med = np.median(x)
    if med == 0:
        return out
    r = x / med
    out[0] = np.count_nonzero(np.abs(r - 1) <= tol) / x.size
    near2 = np.abs(r - 2) <= 2 * tol
    near3 = np.abs(r - 3) <= 3 * tol
    if x.size >= 2:
        s2 = (x[:-1] + x[1:]) / med
        near2[:-1] |= np.abs(s2 - 2) <= 2 * tol
        near2[1:] |= np.abs(s2 - 2) <= 2 * tol
    out[1] = np.count_nonzero(near2) / x.size
    out[2] = np.count_nonzero(near3) / x.size
    return out


def rolling_median3(x: np.ndarray) -> np.ndarray:
    """3-point rolling median, ends passed through.

    Reference ``ThreePointsMedianPreprocess`` (/root/reference/QRS_features.py:20-27).
    """
    if x.size < 3:
        return x.copy()
    out = x.copy()
    stacked = np.stack([x[:-2], x[1:-1], x[2:]])
    out[1:-1] = np.median(stacked, axis=0)
    return out


def autocorr(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Pearson autocorrelation at lags 0..max_lag-1, zero-padded when short.

    Reference ``long_autocorr`` / ``qrs_autocorr``
    (/root/reference/LONG_features.py:193-205, QRS_features.py:542-554).
    """
    out = np.zeros(max_lag)
    for k in range(max_lag):
        if x.size - k < 2:
            break
        a, b = x[: x.size - k], x[k:]
        sa, sb = a.std(), b.std()
        if sa == 0 or sb == 0:
            out[k] = 0.0
        else:
            out[k] = float(np.corrcoef(a, b)[0, 1])
    return out
