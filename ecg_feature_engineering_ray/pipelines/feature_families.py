"""Entity-level feature-family pipelines — the reference's four extractors.

Each family replays its reference extractor over the fixture event table:
per entity, order rows by ts, derive the interval series u = Δts (ms) and
the value series v (decoded luminance), compute the family vector, explode
by caption labels (M6), and emit one row per (entity × label) — exactly the
reference's output shape (one wide CSV row per record×label,
/root/reference/extract_HRV.py:52-80).

Families (SURVEY.md §2.4):
- HRV   (A1)      — 9 stats over u                        ≙ HRV_features.py:92-153
- LONG  (A2–A12)  — order stats, zero-cross, band powers (×3 call quirk),
                    SNR, autocorr 12, zigzag (×2), wavelet stats, total power
                    over v                                 ≙ LONG_features.py:265-282
- QRS   (A14–A24) — trimmed stats, 3pt-median stats, ΔRR stats, bin_stat,
                    Yuxi, variability, CoV, MAD, CDF, sampen, autocorr over u
                                                           ≙ QRS_features.py:370-608
- SHORT (A13/E6)  — per-session (gap-burst ≙ beat) features rolled up with
                    {mean,max,min,std,p25,p75}             ≙ extract_SHORT.py:21,142-297

``join_families`` column-joins the family tables on (image_id, label) — the
keyed restatement of the reference's positional CSV join
(/root/reference/xgboost_clf.py:12-15).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ray.data import Dataset

from ..functions import stats as S
from ..functions import spectral as SP
from ..functions import wavelet as W
from ..functions.entropy import sample_entropy_feature, sampen_hrv
from ..sources.readers import read_events
from ..stages.decode import decode_stage
from ..stages.partition import entity_segments, grouped_sorted_apply
from ..stages.session import session_segments

SESSION_GAP_US = 30_000_000

HRV_NAMES = ["sdnn", "max_rr", "min_rr", "mean_rr", "r_density", "pnn50", "rmssd", "sampen_1", "sampen_2"]

LONG_NAMES = (
    ["v_range", "v_var", "v_skew", "v_kurt", "v_median", "v_p1", "v_p5", "v_p10", "v_p25",
     "v_p75", "v_p90", "v_p95", "v_p99", "v_iqr", "v_r9010", "v_r9505", "v_r9901",
     "zero_cross", "snr_low_high", "total_power"]
    + [f"bp1_{i}" for i in range(6)] + [f"bp2_{i}" for i in range(6)] + [f"bp3_{i}" for i in range(6)]
    + [f"autocorr_{k}" for k in range(12)]
    + ["zigzag_a", "zigzag_b"]
    + W.wavelet_stat_names()
)

QRS_NAMES = (
    ["u_mean", "u_hr", "u_count", "u_range", "u_var", "u_skew", "u_kurt", "u_median",
     "u_min", "u_p5", "u_p25", "u_p75", "u_p95", "u_r7525", "u_r9505"]
    + ["m_mean", "m_range", "m_var", "m_skew", "m_kurt", "m_median", "m_min", "m_p5", "m_p25", "m_p75", "m_p95"]
    + ["d_mean", "d_range", "d_var", "d_skew", "d_kurt", "d_median", "d_min", "d_p5", "d_p25", "d_p75", "d_p95"]
    + S.bin_stat_names()
    + ["yuxi_1x", "yuxi_2x", "yuxi_3x"]
    + ["var_sdnn", "var_nn50", "var_pnn50", "var_stepping", "var_dispersion"]
    + ["cov_t", "cov_dt", "mad", "cdf_mean"]
    + ["sampen_m1", "sampen_m2", "sampen_m3"]
    + [f"qrs_autocorr_{k}" for k in range(3)]
)

# The reference's SHORT family computes 25 per-beat series — (2) QRS peak +
# area, (5) PR/QRS/QT/QTc intervals + ventricular rate, (2) f-wave count +
# width, (16) seven wave-amplitude differences, two sub-intervals, five wave
# peaks, two slopes — and rolls each up 6 ways per lead → 150 columns/lead
# (/root/reference/extract_SHORT.py:21,33-139).  The session≙beat analog
# below replays that inventory: a gap-burst session plays the beat window,
# positional zones inside the session play the fixed P/T wave sample
# windows (P ≙ [0.1n, 0.2n), T ≙ [0.4n, 0.6n) of the window — the
# reference's round(0.1·fs)…round(0.6·fs) offsets), the session's global
# max plays the R peak, and the zone minima left/right of it play Q and S.
_SESSION_BASE = [
    "qrs_peak", "qrs_area",                                     # (2)
    "pr_int", "qrs_dur", "qt_int", "qt_c", "vent_rate",         # (5)
    "nf", "fwidth",                                             # (2)
    "rq_amp", "rs_amp", "st_amp", "pq_amp", "qs_amp", "rp_amp", "rt_amp",  # (16)
    "st_int", "rs_int",
    "t_peak", "p_peak", "q_peak", "r_peak", "s_peak",
    "rs_slope", "st_slope",
]
_ROLLUPS = ["mean", "max", "min", "std", "p25", "p75"]
SHORT_NAMES = [f"sess_{b}_{r}" for b in _SESSION_BASE for r in _ROLLUPS]


def _basic_block(x: np.ndarray, trimmed: bool) -> list[float]:
    """The QRSBasicStat 15/11-stat block (QRS_features.py:370-434)."""
    t = x[1:-1] if trimmed else x
    if t.size == 0:
        return [0.0] * (15 if trimmed else 11)
    p5, p25, p75, p95 = np.percentile(t, [5, 25, 75, 95])
    out = [t.mean()]
    if trimmed:
        out.append(60000.0 / t.mean() if t.mean() != 0 else 0.0)  # HR from ms intervals
        out.append(float(t.size))
    out += [float(t.max() - t.min()), float(t.var()), S.skewness(t), S.kurtosis(t),
            float(np.median(t)), float(t.min()), float(p5), float(p25), float(p75), float(p95)]
    if trimmed:
        out += [float(p75 - p25), float(p95 - p5)]
        return out
    return out[:11]


def hrv_vector(ts_us: np.ndarray, v: np.ndarray) -> np.ndarray:
    u = np.diff(ts_us).astype(np.float64) / 1000.0
    out = np.full(len(HRV_NAMES), np.nan)
    if u.size == 0:
        return out
    du = np.diff(u)
    span = (ts_us[-1] - ts_us[0]) / 1000.0
    se = sampen_hrv(u)
    out[:] = [u.std(), u.max(), u.min(), u.mean(),
              u.size / span if span > 0 else np.nan,
              S.pnn_fraction(du, 50.0), S.rmssd(du), se[0], se[1]]
    return out


def long_vector(ts_us: np.ndarray, v: np.ndarray) -> np.ndarray:
    ps = np.percentile(v, [1, 5, 10, 25, 75, 90, 95, 99, 50]) if v.size else np.full(9, np.nan)
    p1, p5, p10, p25, p75, p90, p95, p99, med = ps
    base = [v.max() - v.min() if v.size else np.nan, v.var(), S.skewness(v), S.kurtosis(v),
            med, p1, p5, p10, p25, p75, p90, p95, p99,
            p75 - p25, p90 - p10, p95 - p5, p99 - p1,
            float(S.zero_crossings(v - v.mean())) if v.size else np.nan,
            SP.snr_low_high(v), SP.fft_power(v)]
    # the reference composition calls LongFFTBandPower THREE times
    # (LONG_features.py:272-276) and zigzag TWICE (:278,281) — replicated
    bp = list(SP.band_power(v)) + list(SP.band_power(v)) + list(SP.band_power(v))
    ac = list(S.autocorr(v, 12))
    zz = [float(S.zigzag(v)), float(S.zigzag(v))]
    wt = list(W.wavelet_stat(v, min_len=64))
    return np.array(base + bp + ac + zz + wt, dtype=np.float64)


def qrs_vector(ts_us: np.ndarray, v: np.ndarray) -> np.ndarray:
    u = np.diff(ts_us).astype(np.float64) / 1000.0
    if u.size == 0:
        return np.full(len(QRS_NAMES), 0.0)
    block1 = _basic_block(u, trimmed=True)
    block2 = _basic_block(S.rolling_median3(u), trimmed=False)
    block3 = _basic_block(np.diff(u[1:-1]) if u.size >= 4 else np.array([]), trimmed=False)
    bins = list(S.bin_stat(u))
    yuxi = list(S.yuxi_fractions(u))
    var = list(S.variability(u))
    cov = list(S.coeff_of_variation(u))
    extras = [S.mad(u), S.cdf_mean(u)]
    se = list(sample_entropy_feature(u, mm=3, r=0.2))
    ac = list(S.autocorr(u, 3))
    return np.array(block1 + block2 + block3 + bins + yuxi + var + cov + extras + se + ac,
                    dtype=np.float64)


def _session_series(ts_us: np.ndarray, sv: np.ndarray) -> list[float]:
    """The 25 per-session values — session≙beat analog of the reference's
    per-beat wave measurements (extract_SHORT.py:33-139; see _SESSION_BASE
    for the zone mapping).  Degenerate zones (sessions too short to hold a
    distinct Q/S valley) fall back to the nearest in-session sample, keeping
    every series defined for 1-event sessions."""
    n = sv.size
    dur_ms = (ts_us[-1] - ts_us[0]) / 1000.0

    def zone(lo: float, hi: float) -> tuple[int, int]:
        a = int(np.floor(lo * n))
        return a, min(max(int(np.floor(hi * n)), a + 1), n)

    p_a, p_b = zone(0.1, 0.2)
    t_a, t_b = zone(0.4, 0.6)
    p_idx = int(np.argmax(sv[p_a:p_b])) + p_a
    p_peak = float(sv[p_idx])
    t_idx = int(np.argmax(sv[t_a:t_b])) + t_a
    t_peak = float(sv[t_idx])
    r_idx = int(np.argmax(sv))
    r_peak = float(sv[r_idx])
    if p_b < r_idx:
        q_idx = int(np.argmin(sv[p_b:r_idx])) + p_b
    else:
        q_idx = max(r_idx - 1, 0)
    q_peak = float(sv[q_idx])
    if r_idx < t_a:
        s_idx = int(np.argmin(sv[r_idx:t_a])) + r_idx
    else:
        s_idx = min(r_idx, n - 1)
    s_peak = float(sv[s_idx])

    qrs_area = float(np.abs(sv[q_idx:r_idx]).sum() + np.abs(sv[r_idx:s_idx]).sum())
    pr_int = float(r_idx - p_idx)
    qrs_dur = float(s_idx - q_idx)
    qt_int = float(t_idx - q_idx)
    qt_c = qt_int / n
    vent_rate = 60000.0 * max(n - 1, 0) / dur_ms if dur_ms > 0 else 0.0
    seg = sv[q_idx:t_idx]
    if seg.size:
        thres = float(seg.mean()) + (t_peak - float(seg.mean())) / 50.0
        nf, fwidth = S.thres_crossing(seg, thres)
    else:
        nf, fwidth = 0, 0.0
    st_int = float(t_idx - s_idx)
    rs_int = float(s_idx - r_idx)
    rs_amp = r_peak - s_peak
    st_amp = t_peak - s_peak
    return [
        r_peak, qrs_area,
        pr_int, qrs_dur, qt_int, qt_c, vent_rate,
        float(nf), float(fwidth),
        r_peak - q_peak, rs_amp, st_amp, p_peak - q_peak, q_peak - s_peak,
        r_peak - p_peak, r_peak - t_peak,
        st_int, rs_int,
        t_peak, p_peak, q_peak, r_peak, s_peak,
        rs_amp / rs_int if rs_int != 0 else 0.0,
        st_amp / st_int if st_int != 0 else 0.0,
    ]


def short_vector(ts_us: np.ndarray, v: np.ndarray) -> np.ndarray:
    """25 per-session series rolled up 6 ways across sessions (A13 pattern —
    the full reference SHORT width, 150 cols per channel)."""
    brk = np.flatnonzero(np.diff(ts_us) > SESSION_GAP_US) + 1
    starts = np.concatenate(([0], brk))
    ends = np.concatenate((brk, [ts_us.size]))
    feats = [_session_series(ts_us[s:e], v[s:e]) for s, e in zip(starts, ends)]
    m = np.asarray(feats)  # (n_sessions, 25)
    out = []
    for j in range(m.shape[1]):
        col = m[:, j]
        out += [col.mean(), col.max(), col.min(), col.std(), *np.percentile(col, [25, 75])]
    return np.array(out, dtype=np.float64)


_FAMILIES = {
    "hrv": (HRV_NAMES, hrv_vector),
    "long": (LONG_NAMES, long_vector),
    "qrs": (QRS_NAMES, qrs_vector),
    "short": (SHORT_NAMES, short_vector),
}


# families whose vector depends on the VALUE series (per-channel replication
# applies — ≙ the reference's per-lead LONG/SHORT, extract_LONG.py:46-51);
# u-based families (HRV/QRS) derive from the shared event timestamps and are
# channel-independent by construction in this data model.
_V_FAMILIES = {"long", "short"}


def _channel_cols(family: str, names: list[str], channels: tuple) -> list[tuple[str, str]]:
    """(channel, column-name) pairs: primary channel 'v' keeps legacy names,
    extra channels are suffix-scoped like the reference's per-lead join."""
    if family not in _V_FAMILIES:
        return [("v", f"{family}_{nm}") for nm in names]
    out = []
    for ch in channels:
        tag = f"{family}_" if ch == "v" else f"{family}_{ch}_"
        out += [(ch, tag + nm) for nm in names]
    return out


def family_features(
    events_dir: str,
    family: str,
    num_buckets: int = 16,
    explode_labels: bool = True,
    channels: tuple = ("v",),
) -> Dataset:
    """One row per entity (× caption label when exploded) with the family
    vector — computed per derived channel for the v-based families."""
    names, fn = _FAMILIES[family]
    use_ch = channels if family in _V_FAMILIES else ("v",)
    decoded = decode_stage(read_events(events_dir), verify_roundtrip=False)
    decoded = decoded.select_columns(["image_id", "ts", "caption", *use_ch])

    def per_bucket(tbl: pa.Table) -> pa.Table:
        starts, ends = entity_segments(tbl, "image_id")
        ids = tbl.column("image_id")
        caps = tbl.column("caption")
        ts = np.asarray(tbl.column("ts").cast(pa.int64()).combine_chunks())
        chans = {c: np.asarray(tbl.column(c).combine_chunks(), dtype=np.float64) for c in use_ch}
        out_id, out_label, rows = [], [], []
        for s, e in zip(starts, ends):
            vec = np.concatenate([fn(ts[s:e], chans[c][s:e]) for c in use_ch])
            eid = ids[s].as_py()
            labels = caps[s].as_py().split(",") if explode_labels else [""]
            for lab in labels:  # multi-label explode (extract_HRV.py:52-77)
                out_id.append(eid)
                out_label.append(lab)
                rows.append(vec)
        cols: dict[str, pa.Array] = {
            "image_id": pa.array(out_id, pa.string()),
            "label": pa.array(out_label, pa.string()),
        }
        col_names = _channel_cols(family, names, use_ch)
        mat = np.vstack(rows) if rows else np.empty((0, len(col_names)))
        for j, (_, colname) in enumerate(col_names):
            cols[colname] = pa.array(mat[:, j], pa.float64())
        return pa.table(cols)

    return grouped_sorted_apply(decoded, "image_id", ["ts"], per_bucket, num_buckets)


def join_families(
    events_dir: str,
    families: list[str],
    num_buckets: int = 16,
    channels: tuple = ("v",),
) -> Dataset:
    """Column-join family tables on (image_id, label) — J1 as a keyed join.

    All families share the one bucket spine, so the join is per-bucket local:
    compute every family inside the SAME per-bucket pass and concat columns —
    no extra shuffle at all.  With multiple ``channels`` the v-based families
    replicate per channel (≙ the reference's 12-lead column join,
    extract_LONG.py:46-51 → 1224 columns)."""
    fams = [(f, *_FAMILIES[f]) for f in families]
    need_ch = sorted({"v"} | (set(channels) if any(f in _V_FAMILIES for f in families) else set()))
    decoded = decode_stage(read_events(events_dir), verify_roundtrip=False)
    decoded = decoded.select_columns(["image_id", "ts", "caption", *need_ch])

    def per_bucket(tbl: pa.Table) -> pa.Table:
        starts, ends = entity_segments(tbl, "image_id")
        ids = tbl.column("image_id")
        caps = tbl.column("caption")
        ts = np.asarray(tbl.column("ts").cast(pa.int64()).combine_chunks())
        chans = {c: np.asarray(tbl.column(c).combine_chunks(), dtype=np.float64) for c in need_ch}
        out_id, out_label = [], []
        fam_rows: dict[str, list] = {f: [] for f, _, _ in fams}
        for s, e in zip(starts, ends):
            for f, _, fn in fams:
                use_ch = channels if f in _V_FAMILIES else ("v",)
                fam_vec = np.concatenate([fn(ts[s:e], chans[c][s:e]) for c in use_ch])
                n_labels = len(caps[s].as_py().split(","))
                fam_rows[f] += [fam_vec] * n_labels
            eid = ids[s].as_py()
            for lab in caps[s].as_py().split(","):
                out_id.append(eid)
                out_label.append(lab)
        cols: dict[str, pa.Array] = {
            "image_id": pa.array(out_id, pa.string()),
            "label": pa.array(out_label, pa.string()),
        }
        for f, names, _ in fams:
            use_ch = channels if f in _V_FAMILIES else ("v",)
            col_names = _channel_cols(f, names, use_ch)
            mat = np.vstack(fam_rows[f]) if fam_rows[f] else np.empty((0, len(col_names)))
            for j, (_, colname) in enumerate(col_names):
                cols[colname] = pa.array(mat[:, j], pa.float64())
        return pa.table(cols)

    return grouped_sorted_apply(decoded, "image_id", ["ts"], per_bucket, num_buckets)

