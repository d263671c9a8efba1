"""The per-query reference for ``features.pit_feature_matrix``: every
non-SampEn column recomputed from scratch over each query's prefix
``events[:p]`` with the engine's own stat kernels.  The engine answers the
same columns from prefix statistics in one pass per entity; the property
test in ``test_pit_prefix.py`` holds it to this loop."""

from __future__ import annotations

import numpy as np

from ecg_feature_engineering_ray.functions.entropy import sampen_hrv_prefixes
from ecg_feature_engineering_ray.functions.stats import (
    kurtosis,
    pnn_fraction,
    rmssd,
    skewness,
    zero_crossings,
    zigzag,
)
from ecg_feature_engineering_ray.pipelines.features import (
    PIT_FEATURE_NAMES,
    PNN_THRESH_MS,
    SAMPEN_MAX_N,
    SESSION_GAP_US,
)


def reference_feature_matrix(events: dict[str, np.ndarray], pos,
                             sampen_max_n: int = SAMPEN_MAX_N) -> np.ndarray:
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
