"""Feature-family pipelines vs the independent oracle (whole-history vectors
= PIT features at as_of = +inf) and structural invariants."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ecg_feature_engineering_ray.pipelines.feature_families import (
    HRV_NAMES,
    LONG_NAMES,
    QRS_NAMES,
    SHORT_NAMES,
    family_features,
    join_families,
)

from .oracle import decode_events, oracle_feature_row


def test_hrv_family_matches_oracle(fixture_events):
    events_dir, _ = fixture_events
    got = family_features(events_dir, "hrv", num_buckets=8, explode_labels=False).to_pandas()
    ev = decode_events(events_dir)
    ev["ts_us"] = ev["ts"].astype("datetime64[us]").astype("int64")
    # whole-history vector == oracle PIT row at as_of = end of stream
    for eid in sorted(ev.image_id.unique())[:10]:
        sub = ev[ev.image_id == eid].sort_values("ts_us")
        want = oracle_feature_row(sub.ts_us.values, sub.v.values)
        row = got[got.image_id == eid].iloc[0]
        for name in ["sdnn", "max_rr", "min_rr", "mean_rr", "pnn50", "rmssd"]:
            assert np.isclose(row[f"hrv_{name}"], want[name], rtol=1e-9, equal_nan=True), (eid, name)


def test_family_shapes_and_explosion(fixture_events):
    events_dir, _ = fixture_events
    ev = pq.read_table(events_dir, columns=["image_id", "caption"]).to_pandas()
    per_entity = ev.drop_duplicates("image_id")
    expected_rows = int(per_entity.caption.str.split(",").apply(len).sum())

    for fam, names in [("long", LONG_NAMES), ("qrs", QRS_NAMES), ("short", SHORT_NAMES)]:
        df = family_features(events_dir, fam, num_buckets=8).to_pandas()
        assert len(df) == expected_rows, fam
        assert [c for c in df.columns if c.startswith(f"{fam}_")] == [f"{fam}_{n}" for n in names]
        # every value finite or NaN, never inf (sentinel substitution upstream)
        mat = df[[c for c in df.columns if c.startswith(f"{fam}_")]].to_numpy()
        assert not np.isinf(mat).any(), fam


def test_join_families_aligns(fixture_events):
    events_dir, _ = fixture_events
    j = join_families(events_dir, ["hrv", "qrs"], num_buckets=8)
    df = j.to_pandas()
    assert {"image_id", "label"} <= set(df.columns)
    assert any(c.startswith("hrv_") for c in df.columns)
    assert any(c.startswith("qrs_") for c in df.columns)


def test_features_joined_multichannel_width(fixture_events):
    """Multi-channel join: v-based families replicate per channel (≙ the
    reference's 12-lead join) — width must grow accordingly and per-channel
    columns must differ from the luminance columns."""
    from ecg_feature_engineering_ray.pipelines.feature_families import (
        LONG_NAMES, SHORT_NAMES, join_families,
    )

    events_dir, _ = fixture_events
    single = join_families(events_dir, ["long", "short"], num_buckets=4)
    multi = join_families(events_dir, ["long", "short"], num_buckets=4,
                          channels=("v", "v_r", "v_g", "v_b"))
    n_single = len(single.schema().names)
    n_multi = len(multi.schema().names)
    assert n_multi - 2 == 4 * (n_single - 2)
    assert n_multi - 2 == 4 * (len(LONG_NAMES) + len(SHORT_NAMES))
    df = multi.to_pandas()
    # channel series are genuinely different signals
    assert not df["long_v_range"].equals(df["long_v_r_v_range"])
    assert {"long_v_r_v_range", "long_v_g_v_range", "long_v_b_v_range"} <= set(df.columns)


def test_long_qrs_short_match_independent_oracle(fixture_events):
    """Value-level gate for the LONG/QRS/SHORT compositions vs the
    direct-formula oracle (tests/oracle.py) — 6-significant-digit agreement."""
    from ecg_feature_engineering_ray.pipelines.queries import rnd_sig

    from .oracle import oracle_family_table

    events_dir, _ = fixture_events
    for family in ("long", "qrs", "short"):
        got = family_features(events_dir, family, num_buckets=4).to_pandas()
        want = oracle_family_table(events_dir, family)
        got = got.sort_values(["image_id", "label"]).reset_index(drop=True)
        want = want.sort_values(["image_id", "label"]).reset_index(drop=True)
        assert list(got.columns) == list(want.columns), family
        assert len(got) == len(want), family
        for c in got.columns:
            if c in ("image_id", "label"):
                assert (got[c] == want[c]).all(), (family, c)
                continue
            a, b = rnd_sig(got[c].to_numpy()), rnd_sig(want[c].to_numpy())
            ok = (a == b) | (np.isnan(a) & np.isnan(b))
            assert ok.all(), (family, c, a[~ok][:3], b[~ok][:3])


def test_short_family_full_reference_width():
    """SHORT carries the reference's full per-beat series inventory: 25
    series × 6 rollups = 150 columns per channel ((2+5+16+2)*6,
    /root/reference/extract_SHORT.py:21)."""
    from ecg_feature_engineering_ray.pipelines.feature_families import (
        SHORT_NAMES, _SESSION_BASE,
    )

    assert len(_SESSION_BASE) == 25
    assert len(SHORT_NAMES) == 150
