"""The point-in-time feature vector — replaying the reference's per-record
statistics over an entity's event-prefix at an as-of timestamp.

``pit_feature_matrix(events, pos)`` receives ONE entity's ts-ordered events
as {"ts": µs int array, "v": value array, ...} and the prefix length ``p`` of
each of its as-of queries (the events with ts ≤ as_of are ``events[:p]``),
and emits one fixed-length float64 row per query, named by
``PIT_FEATURE_NAMES``.  The two SampEn columns come from one pass over the
entity's template pairs (:func:`~..functions.entropy.sampen_hrv_prefixes`);
the other columns are O(p) numpy per query.  ``pit_feature_vector(prefix)``
is its one-row case.  The series roles mirror the reference:

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

import numpy as np

from ..functions.entropy import sampen_hrv_prefixes
from ..functions.stats import (
    kurtosis,
    pnn_fraction,
    rmssd,
    skewness,
    zero_crossings,
    zigzag,
)

SESSION_GAP_US = 30_000_000
PNN_THRESH_MS = 50.0
SAMPEN_MAX_N = 400  # O(n²) cap — part of the spec, applied in oracle too

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
    """``(len(pos), len(PIT_FEATURE_NAMES))`` rows, row q over ``events[:pos[q]]``."""
    ts_all = np.asarray(events["ts"], dtype=np.int64)
    v_all = np.asarray(events["v"], dtype=np.float64)
    pos = np.asarray(pos, dtype=np.int64).reshape(-1)
    out = np.full((pos.size, len(PIT_FEATURE_NAMES)), np.nan)
    out[:, 0] = pos
    u_all = np.diff(ts_all).astype(np.float64) / 1000.0  # Δts in ms ≙ RR intervals
    has_u = pos >= 2
    if has_u.any():
        out[has_u, 8:10] = sampen_hrv_prefixes(u_all, pos[has_u] - 1, max_n=sampen_max_n)

    for row, n in zip(out, pos):
        if n == 0:
            continue
        ts, v = ts_all[:n], v_all[:n]
        if n >= 2:
            u = u_all[: n - 1]
            du = np.diff(u)
            row[1] = u.std()                                   # sdnn (population, ≙ np.std)
            row[2] = u.max()
            row[3] = u.min()
            row[4] = u.mean()
            span_ms = (ts[-1] - ts[0]) / 1000.0
            row[5] = u.size / span_ms if span_ms > 0 else np.nan   # event density ≙ Rdensity
            row[6] = pnn_fraction(du, PNN_THRESH_MS)           # pNN50 analog
            row[7] = rmssd(du)

        row[10] = v.mean()
        row[11] = v.std()
        row[12] = v.min()
        row[13] = v.max()
        row[14] = np.median(v)
        row[15] = skewness(v)
        row[16] = kurtosis(v)
        row[17] = zero_crossings(v - v.mean())
        row[18] = zigzag(v)
        row[19] = v[-1]

        brk = np.diff(ts) > SESSION_GAP_US
        n_sessions = 1 + int(brk.sum())
        row[20] = n_sessions
        row[21] = n / n_sessions
        last_start = int(np.flatnonzero(brk)[-1] + 1) if brk.any() else 0
        row[22] = n - last_start
    return out
