"""The point-in-time feature vector — replaying the reference's per-record
statistics over an entity's event-prefix at an as-of timestamp.

``pit_feature_matrix(events, pos)`` receives ONE entity's ts-ordered events
as {"ts": µs int array, "v": value array, ...} and the prefix length ``p`` of
each of its as-of queries (the events with ts ≤ as_of are ``events[:p]``),
and emits one fixed-length float64 row per query, named by
``PIT_FEATURE_NAMES``.  The two SampEn columns come from one pass over the
entity's template pairs (:func:`~..functions.entropy.sampen_hrv_prefixes`).
The others are read off prefix arrays built in one O(n) pass
(:func:`~..functions.stats.prefix_agg`): running counts (session breaks,
|Δu| ≥ 50 ms, turns of the step sign), running extrema, the last break and
the running mean of squared steps (rmssd); two heaps give the medians, and
2-D blocks of queries give the value channel's zero crossings and both
channels' central moments about each prefix's mean (sdnn, v_std, v_skew,
v_kurt).  The only per-query numpy calls are the
two prefix means (numpy's own, the centres).  Counts, extrema, medians,
zero crossings and both means are exact; sdnn, rmssd, v_std, v_skew and
v_kurt sum in another order than numpy and can differ from a per-prefix
numpy call in the last bits.  ``pit_feature_vector(prefix)`` is its
one-row case.  The series roles mirror the reference:

- ``u = Δts`` in ms ≙ RR intervals → HRV block (sdnn, max/min/mean RR,
  density, pNN50, RMSSD, SampEn ×2 — /root/reference/HRV_features.py:92-153)
- ``v`` (decoded mean luminance) ≙ signal amplitude → order stats, zero
  crossings, zigzag (/root/reference/LONG_features.py:35-119), Variability /
  CoV / MAD / CDF over u (/root/reference/QRS_features.py:325-538)
- session structure from the 30 s gap rule ≙ beat segmentation
  (/root/reference/extract_SHORT.py:56-95)

The single-threaded test oracle (tests/oracle.py) re-implements this vector
independently; engine output must be np.allclose per (entity, as_of_ts).
"""

from __future__ import annotations

import heapq

import numpy as np

from ..functions.entropy import sampen_hrv_prefixes
from ..functions.stats import prefix_agg, zero_crossings

SESSION_GAP_US = 30_000_000
PNN_THRESH_MS = 50.0
SAMPEN_MAX_N = 400  # O(n²) cap — part of the spec, applied in oracle too
ZC_BLOCK = 1 << 16  # elements in one 2-D block of centred prefixes: bounds its temporaries

PIT_FEATURE_NAMES = [
    # HRV block over u = Δts ms (9 ≙ HRV_features.py feature set)
    "n_events",
    "sdnn",
    "max_rr",
    "min_rr",
    "mean_rr",
    "r_density",
    "pnn50",
    "rmssd",
    "sampen_1",
    "sampen_2",
    # value-channel block over v
    "v_mean",
    "v_std",
    "v_min",
    "v_max",
    "v_median",
    "v_skew",
    "v_kurt",
    "v_zero_cross",
    "v_zigzag",
    "v_last",
    # session block (gap 30 s)
    "n_sessions",
    "mean_session_len",
    "last_session_len",
]


def make_pit_feature_fn(sampen_max_n: int = SAMPEN_MAX_N):
    """``point_fn`` for the as-of merge (see :func:`pit_feature_matrix`) with
    a configurable SampEn series cap.

    The default (400) bounds worst-case O(n²) work for interactive tests;
    reference parity on full-length records (ECG series have thousands of
    beats, /root/reference/QRS_features.py:59-246 runs on all of them) uses a
    higher cap — the scaling benchmark exercises that regime.
    """

    def fn(events: dict[str, np.ndarray], pos: np.ndarray) -> np.ndarray:
        return pit_feature_matrix(events, pos, sampen_max_n=sampen_max_n)

    return fn


def pit_feature_vector(prefix: dict[str, np.ndarray], sampen_max_n: int = SAMPEN_MAX_N) -> np.ndarray:
    """The feature row of one event prefix (all of it is the as-of history)."""
    return pit_feature_matrix(prefix, [len(prefix["ts"])], sampen_max_n)[0]


def pit_feature_matrix(events: dict[str, np.ndarray], pos, sampen_max_n: int = SAMPEN_MAX_N) -> np.ndarray:
    """``(len(pos), len(PIT_FEATURE_NAMES))`` rows, row q over ``events[:pos[q]]``.

    One pass over the entity answers every query: the columns are read off
    prefix arrays at the distinct prefix lengths (see the module docstring);
    per query there are the two prefix means and one read of the median
    heaps, and a column of each channel's 2-D blocks.
    """
    ts = np.asarray(events["ts"], dtype=np.int64)
    v = np.asarray(events["v"], dtype=np.float64)
    pos = np.asarray(pos, dtype=np.int64).reshape(-1)
    out = np.full((pos.size, len(PIT_FEATURE_NAMES)), np.nan)
    out[:, 0] = pos
    u = np.diff(ts).astype(np.float64) / 1000.0  # Δts in ms ≙ RR intervals
    has_u = pos >= 2
    if has_u.any():
        out[has_u, 8:10] = sampen_hrv_prefixes(u, pos[has_u] - 1, max_n=sampen_max_n)

    seen = pos > 0
    p, inv = np.unique(pos[seen], return_inverse=True)
    if p.size == 0:
        return out
    rows = np.full((p.size, len(PIT_FEATURE_NAMES)), np.nan)
    _hrv_columns(rows, ts, u, p)
    _value_columns(rows, v, p)
    _session_columns(rows, ts, p)
    cols = [c for c in range(1, len(PIT_FEATURE_NAMES)) if c not in (8, 9)]
    out[np.ix_(np.flatnonzero(seen), cols)] = rows[inv.reshape(-1)][:, cols]
    return out


def _hrv_columns(rows: np.ndarray, ts: np.ndarray, u: np.ndarray, p: np.ndarray) -> None:
    """sdnn … rmssd over the intervals u[:p − 1] of the rows with p ≥ 2."""
    k = p >= 2
    if not k.any():
        return
    L = p[k] - 1
    # numpy's mean, bit for bit: intervals are decimal ms, so a mean often
    # sits on a rounding tie that another summation order would flip
    mean = np.array([u[:m].mean() for m in L.tolist()])
    m2 = np.zeros(L.size)  # one interval: 0
    for r, c in _centred_blocks(u, L, mean):
        m2[r] = np.cumsum(c * c, axis=0)[-1] / L[r]
    span_ms = (ts[L] - ts[0]) / 1000.0
    du = np.diff(u)
    with np.errstate(invalid="ignore", divide="ignore"):
        rows[k, 1] = np.sqrt(m2)
        rows[k, 2] = prefix_agg(u, L, "max")
        rows[k, 3] = prefix_agg(u, L, "min")
        rows[k, 4] = mean
        rows[k, 5] = np.where(span_ms > 0, L / span_ms, np.nan)
        rows[k, 6] = np.where(L >= 2, prefix_agg(np.abs(du) >= PNN_THRESH_MS, L - 1, "sum")
                              / np.maximum(L - 1, 1), np.nan)
        rows[k, 7] = np.sqrt(prefix_agg(du * du, L - 1, "mean"))


def _value_columns(rows: np.ndarray, v: np.ndarray, p: np.ndarray) -> None:
    """v_mean … v_last over v[:p]."""
    mean = np.array([v[:m].mean() for m in p.tolist()])  # numpy's, bit for bit: the centre
    zc, m2, m3, m4 = (np.zeros(p.size) for _ in range(4))  # one event: all 0
    for r in np.flatnonzero(~np.isfinite(mean)).tolist():  # a NaN or an overflow: 1-D kernels
        c = v[: p[r]] - mean[r]
        zc[r] = zero_crossings(c)
        m2[r], m3[r], m4[r] = (np.mean(c ** k) for k in (2, 3, 4))
    for r, c in _centred_blocks(v, p, mean):
        m2[r], m3[r], m4[r] = (np.cumsum(c ** k, axis=0)[-1] / p[r] for k in (2, 3, 4))
        s = np.sign(c)
        if not s.all():
            # zeros adopt the previous nonzero sign; a leading zero stays 0
            last = np.where(s != 0, np.arange(c.shape[0])[:, None], 0)
            np.maximum.accumulate(last, axis=0, out=last)
            s = np.take_along_axis(s, last, axis=0)
        zc[r] = np.count_nonzero(s[1:] * s[:-1] < 0, axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        rows[:, 10] = mean
        rows[:, 11] = np.sqrt(m2)
        rows[:, 15] = np.where(m2 == 0, 0.0, m3 / m2 ** 1.5)
        rows[:, 16] = np.where(m2 == 0, -3.0, m4 / m2 ** 2 - 3.0)
    rows[:, 12] = prefix_agg(v, p, "min")
    rows[:, 13] = prefix_agg(v, p, "max")
    rows[:, 14] = _prefix_medians(v, p)
    rows[:, 17] = zc
    d = np.sign(np.diff(v[: p[-1]]))
    nz = np.flatnonzero(d != 0)
    turn = np.zeros(d.size)  # a nonzero step whose sign differs from the previous nonzero step
    turn[nz[1:]] = d[nz[1:]] != d[nz[:-1]]
    rows[:, 18] = prefix_agg(turn, p - 1, "sum")
    rows[:, 19] = v[p - 1]


def _session_columns(rows: np.ndarray, ts: np.ndarray, p: np.ndarray) -> None:
    """n_sessions, mean_session_len, last_session_len under the 30 s gap rule."""
    brk = np.diff(ts[: p[-1]]) > SESSION_GAP_US
    n_sessions = 1 + prefix_agg(brk, p - 1, "sum")
    starts = np.concatenate(([0], np.where(brk, np.arange(1, brk.size + 1), 0)))
    rows[:, 20] = n_sessions
    rows[:, 21] = p / n_sessions
    rows[:, 22] = p - prefix_agg(starts, p, "max")


def _prefix_medians(v: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``np.median(v[:m])`` for each m in ``p`` (sorted, distinct, ≥ 1), from
    one insertion pass over two heaps: ``lo`` holds the lower half negated
    (a max-heap) and ``hi`` the upper half, so the median is lo's top, or
    (a + b) / 2 of both tops for an even length, as numpy computes it.  A
    NaN makes every prefix that holds it NaN, as in numpy."""
    out = np.full(p.size, np.nan)
    stop = int(p[-1])
    nan = np.flatnonzero(np.isnan(v[:stop]))
    if nan.size:
        stop = int(nan[0])
    want = p.tolist()
    lo: list[float] = []
    hi: list[float] = []
    j = 0
    for i, x in enumerate(v[:stop].tolist(), 1):
        if len(lo) == len(hi):
            heapq.heappush(lo, -heapq.heappushpop(hi, x))
        else:
            heapq.heappush(hi, -heapq.heappushpop(lo, -x))
        if i == want[j]:
            out[j] = -lo[0] if i % 2 else (hi[0] - lo[0]) / 2
            j += 1
    return out


def _centred_blocks(x: np.ndarray, p: np.ndarray, mean: np.ndarray):
    """Yield ``(r, c)`` over the rows ``r`` with p ≥ 2 and a finite centre,
    ``p`` sorted: ``c = x[:w] − mean[r]`` with one column per row, zeroed
    past the row's prefix, at most ``ZC_BLOCK`` elements (or one column).

    The last row of ``np.cumsum(c ** k, axis=0)`` over ``p[r]`` is the
    central moment ``np.mean((x[:m] − mean[r]) ** k)``.  The running sum adds each
    column in order whatever else the block holds, so a row's moments do
    not depend on the other queries; that order is numpy's pairwise sum
    below 8 terms, so the near-zero skews of short symmetric prefixes round
    as numpy's do, and longer prefixes can differ in the last bits.  Every
    term is centred on the prefix's own mean, so no offset shared by the
    values cancels."""
    rows = np.flatnonzero(np.isfinite(mean) & (p >= 2))
    j = 0
    while j < rows.size:
        # the longest run of rows from j whose block stays within ZC_BLOCK elements
        width = p[rows[j : j + ZC_BLOCK]]
        k = j + max(1, int(np.searchsorted(np.arange(1, width.size + 1) * width, ZC_BLOCK, "right")))
        r = rows[j:k]
        w = int(p[r[-1]])
        c = x[:w, None] - mean[r]
        c[np.arange(w)[:, None] >= p[r]] = 0.0
        yield r, c
        j = k
