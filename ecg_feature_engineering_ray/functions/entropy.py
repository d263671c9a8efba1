"""Sample-entropy kernels (pure numpy).

Two variants mirroring the reference:

- :func:`sampen_hrv` — the HRV extractor's SampEn (m=2, r=0.2·σ) returning a
  2-vector with the reference's sentinel substitutions NaN→-2, Inf→-1
  (/root/reference/HRV_features.py:133-140).
- :func:`sampen2` — the full estimator with per-m match counts (m up to 3,
  r=0.2, optional normalization), the reference's largest single kernel
  (/root/reference/QRS_features.py:59-246); wrapper semantics of ``SampleEn``
  (None→100, short series→zeros, /root/reference/QRS_features.py:305-322).

Both are O(n²) per entity — callers cap the series length (``max_n``) to
bound worst-case work on hot entities; the cap is part of the engine spec
and is applied identically in the test oracle.

:func:`sampen_hrv_prefixes` answers :func:`sampen_hrv` for many prefixes of
one series from a single pass over its template pairs — the as-of merge's
path, where every query of an entity asks for a nested prefix.
"""

from __future__ import annotations

import numpy as np


def _count_matches(x: np.ndarray, m: int, r: float) -> int:
    """Number of pairs i<j whose length-m templates are Chebyshev-within r.

    Diagonal sweep: for pair offset d, the boolean vector
    ``v[i] = |x[i] - x[i+d]| <= r`` answers every pair on that diagonal at
    once, and a length-m template match is just m consecutive Trues —
    m-1 shifted ANDs.  Working set is O(n) (a few KB), so 32 concurrent
    SampEn workers stay cache-resident instead of sharing 2 MB 3-D
    temporaries through L3/DRAM (the old row-blocked kernel lost ~20%
    per-core throughput at 32-way).  Counts are exact — identical float
    comparisons, no reordering."""
    n = x.size
    n_t = n - m + 1
    if n_t <= 1:
        return 0
    total = 0
    for d in range(1, n_t):
        v = np.abs(x[: n - d] - x[d:]) <= r
        w = v
        for k in range(1, m):
            w = w[: v.size - k] & v[k:]
        total += int(np.count_nonzero(w[: n_t - d]))
    return total


def sampen_hrv(x: np.ndarray, m: int = 2, r_frac: float = 0.2, max_n: int = 3000) -> np.ndarray:
    """SampEn at template lengths m and m+1 with HRV sentinels.

    Returns [sampen_m, sampen_m1]; NaN→-2.0, +Inf→-1.0 as the reference does
    (/root/reference/HRV_features.py:135-139).
    """
    x = np.asarray(x, dtype=np.float64)[:max_n]
    if x.size < m + 2:
        return np.full(2, -2.0)
    r = r_frac * x.std()
    bm = _count_matches(x, m, r)          # matches at length m
    am = _count_matches(x, m + 1, r)      # matches at length m+1
    b1 = _count_matches(x, m - 1, r) if m >= 2 else bm
    return _hrv_pair(b1, bm, am)


def _hrv_pair(b1: int, bm: int, am: int) -> np.ndarray:
    """[sampen_m, sampen_m1] from the match counts at lengths m−1, m, m+1."""
    vals = []
    # sampen at lengths m and m+1: -ln(matches_len+1 / matches_len)
    for num, den in ((bm, b1), (am, bm)):
        if den == 0:
            vals.append(np.nan)
        elif num == 0:
            vals.append(np.inf)
        else:
            vals.append(-np.log(num / den))
    arr = np.array(vals, dtype=np.float64)
    arr[np.isnan(arr)] = -2.0
    arr[np.isinf(arr)] = -1.0
    return arr


# pairs per row block of the one-pass kernel: 64 K float64 distances (512 KB)
# stay cache-resident; measured ~2× faster than 1 M-pair blocks at n = 4,000
_PAIR_BLOCK = 1 << 16


def _pair_distances(x: np.ndarray, k: int, lo: int, hi: int) -> np.ndarray:
    """Chebyshev distances of the length-k template pairs (i, j), i < j, for
    rows lo < j ≤ hi, in (j, i) order.  Each is max_t |x[i+t] − x[j+t]|, so
    ``D <= r`` is exactly the all-of comparison :func:`_count_matches` makes.
    Built as a (rows × hi) broadcast, then cut to its lower triangle — no
    per-pair index arrays."""
    rows = np.arange(lo + 1, hi + 1)
    d = np.abs(x[None, :hi] - x[rows, None])
    for t in range(1, k):
        np.maximum(d, np.abs(x[None, t : hi + t] - x[rows + t, None]), out=d)
    return d[np.arange(hi)[None, :] < rows[:, None]]


def _prefix_match_counts(x: np.ndarray, k: int, lens: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``counts[c]`` = pairs i < j ≤ lens[c] − k whose length-k templates are
    within ``r[c]`` — :func:`_count_matches` of ``x[:lens[c]]`` for every
    sorted distinct length at once.

    A pair's distance does not depend on the prefix, so the pairs are built
    once in j order and cut at each length's last row: a cut belongs to its
    own length and every longer one.  Each cut (split into row blocks of at
    most ~``_PAIR_BLOCK`` pairs, so one block is all that is held) is sorted once
    and every threshold at or above it is answered by ``searchsorted``; a
    block that only the longest length sees is counted without a sort."""
    counts = np.zeros(lens.size, dtype=np.int64)
    lo = 0
    for c, hi in enumerate(lens - k):
        step = max(1, _PAIR_BLOCK // int(hi))          # rows per block
        for a in range(lo, int(hi), step):
            d = _pair_distances(x, k, a, min(a + step, int(hi)))
            if c == lens.size - 1:
                counts[c] += int(np.count_nonzero(d <= r[c]))
            else:
                d.sort()
                counts[c:] += np.searchsorted(d, r[c:], side="right")
        lo = int(hi)
    return counts


def sampen_hrv_prefixes(x: np.ndarray, lens, m: int = 2, r_frac: float = 0.2,
                        max_n: int = 3000) -> np.ndarray:
    """:func:`sampen_hrv` of every prefix ``x[:L]``, ``L`` in ``lens``, from one
    pass over the template pairs — ``np.stack([sampen_hrv(x[:L], m, r_frac,
    max_n) for L in lens])``, bit for bit.

    Each distinct capped length L = min(L, max_n, len(x)) gets its own
    r = r_frac·std(x[:L]) (numpy's std of that prefix, as in
    :func:`sampen_hrv`); lengths past the cap share one value.  Work is
    O(n²·log) for the pairs of the longest prefix plus O(#lengths²) searches,
    against O(Σ L²) for one :func:`sampen_hrv` call per prefix; memory is one
    row block of ~``_PAIR_BLOCK`` float64 distances.  ``m`` ≥ 1, ``lens`` ≥ 0.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    x = np.asarray(x, dtype=np.float64)[:max_n]
    lens = np.minimum(np.asarray(lens, dtype=np.int64).reshape(-1), x.size)
    uniq, inv = np.unique(lens, return_inverse=True)
    vals = np.full((uniq.size, 2), -2.0)
    ok = uniq >= m + 2
    if ok.any():
        ls = uniq[ok]
        r = np.array([r_frac * x[:L].std() for L in ls])
        ks = (m - 1, m, m + 1) if m >= 2 else (m, m + 1)
        cnt = {k: _prefix_match_counts(x, k, ls, r) for k in ks}
        # a NaN r compares false against every distance (searchsorted would not)
        for c in cnt.values():
            c[np.isnan(r)] = 0
        b1 = cnt[m - 1] if m >= 2 else cnt[m]
        vals[ok] = [_hrv_pair(int(a), int(b), int(c)) for a, b, c in zip(b1, cnt[m], cnt[m + 1])]
    return vals[inv.reshape(-1)]


def sampen2(x: np.ndarray, mm: int = 3, r: float = 0.2, normalize: bool = False,
            max_n: int = 2000) -> list[list[float | None]]:
    """Per-m sample entropy table [[m, sampen, stderr-ish], ...] for m=0..mm.

    Mirrors the output contract of the reference's ``sampen2``
    (/root/reference/QRS_features.py:59-246): entropy is None when no
    matches exist at that template length (the caller substitutes 100,
    /root/reference/QRS_features.py:317).
    """
    x = np.asarray(x, dtype=np.float64)[:max_n]
    n = x.size
    if normalize and n:
        s = x.std()
        x = (x - x.mean()) / s if s else x - x.mean()
    out: list[list[float | None]] = []
    prev = None
    for m in range(mm + 1):
        cnt = _count_matches(x, m + 1, r) if n >= m + 1 else 0
        if m == 0:
            out.append([0, None, None])
            prev = cnt
            continue
        if prev and cnt:
            e = -np.log(cnt / prev)
            out.append([m, float(e), float(1.0 / np.sqrt(max(cnt, 1)))])
        else:
            out.append([m, None, None])
        prev = cnt
    return out


def sample_entropy_feature(x: np.ndarray, mm: int = 3, r: float = 0.2) -> np.ndarray:
    """``SampleEn`` wrapper semantics: 100 for None, zeros when too short
    (/root/reference/QRS_features.py:305-322). Returns mm values (m=1..mm)."""
    if x.size < 5:
        return np.zeros(mm)
    table = sampen2(x, mm=mm, r=r)
    out = np.empty(mm)
    for m in range(1, mm + 1):
        e = table[m][1]
        out[m - 1] = 100.0 if e is None else e
    return out
