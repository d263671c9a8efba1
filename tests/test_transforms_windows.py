"""M-section transforms and the corpus windowing pipeline."""

import numpy as np
import pandas as pd

from ecg_feature_engineering_ray.functions import transforms as T
from ecg_feature_engineering_ray.pipelines.corpus_windows import corpus_windows


def test_scale_input_signed_log():
    x = np.array([0.0, 9.0, -99.0]) + 50.0
    out = T.scale_input(x + 0.0)
    d = x - x.mean()
    assert np.allclose(out, np.sign(d) * np.log10(np.abs(d) + 1))


def test_normalize_and_zero_std():
    x = np.array([1.0, 3.0, 5.0])
    n = T.normalize(x)
    assert np.isclose(n.mean(), 0) and np.isclose(n.std(), 1)
    assert np.all(T.normalize(np.ones(4)) == 0)


def test_onehot_smooth_flatten():
    oh = T.labels_onehot(np.array([1, 9, 0, 5]))
    assert oh.shape == (4, 9)
    assert oh[0, 0] == 1 and oh[1, 8] == 1 and oh[2].sum() == 0 and oh[3, 4] == 1
    sm = T.smooth_labels(oh.astype(float), eps=0.09)
    assert np.isclose(sm[0, 0], 1 - 0.09 + 0.01) and np.isclose(sm[0, 1], 0.01)
    assert T.flatten([[1, 2], [3]]) == [1, 2, 3]


def test_pads():
    x = np.array([1.0, 2.0, 3.0])
    assert np.all(T.zero_pad(x, 5) == [1, 2, 3, 0, 0])
    assert np.all(T.wrap_pad(x, 7) == [1, 2, 3, 1, 2, 3, 1])
    assert np.all(T.zero_pad(x, 2) == [1, 2])


def test_label_codes():
    assert T.label_num("AF") == 1 and T.label_num("STE") == 9 and T.label_num("??") == 0
    assert T.gender_num("Male") == 1 and T.gender_num("Female") == 0


def test_corpus_windows_pipeline(fixture_events):
    events_dir, _ = fixture_events
    df = corpus_windows(events_dir, num_buckets=8, oversample={"AF": 2}).to_pandas()
    assert {"image_id", "window_id", "label", "split", "n_rows", "v_mean", "spec_power"} <= set(df.columns)
    assert set(df.split.unique()) <= {"train", "test"}
    # deterministic split per entity
    per_entity = df.groupby("image_id").split.nunique()
    assert (per_entity == 1).all()
    # oversampled class has ~2x the windows of its base presence
    base = df[df.label != "AF"].groupby("label").size()
    assert len(df) > 0 and base.size >= 1
    # windows cover each entity: window_id contiguous from 0
    w0 = df.groupby("image_id").window_id.min()
    assert (w0 == 0).all()
    # two runs identical (determinism)
    df2 = corpus_windows(events_dir, num_buckets=4, oversample={"AF": 2}).to_pandas()
    a = df.sort_values(["image_id", "window_id", "label"]).reset_index(drop=True)
    b = df2.sort_values(["image_id", "window_id", "label"]).reset_index(drop=True)
    assert len(a) == len(b)
    assert np.allclose(a.v_mean.values, b.v_mean.values)


def test_corpus_windows_spec_tile_column(fixture_events):
    """The spectrogram tile is a first-class typed column: constant-length
    fixed_size_list<float64> whose values match the direct spectrogram
    formula (≙ the persisted tensor of preprocess-300hz.py:254-269)."""
    import pyarrow as pa
    from ecg_feature_engineering_ray.pipelines.corpus_windows import _tile_len

    events_dir, _ = fixture_events
    ds = corpus_windows(events_dir, num_buckets=4)
    field = {f.name: f.type for f in ds.schema().base_schema}["spec_tile"]
    assert pa.types.is_fixed_size_list(field)
    assert field.list_size == _tile_len(32)
    df = ds.to_pandas()
    tiles = np.vstack(df["spec_tile"].to_numpy())
    assert tiles.shape == (len(df), _tile_len(32))
    # checksum column is exactly the rounded tile sum
    assert np.allclose(np.round(tiles.sum(axis=1), 6), df["spec_checksum"].to_numpy())
    # one window re-derived from first principles
    row = df.iloc[0]
    g = None  # value series for this entity, ordered by ts
    import pandas as pd
    from tests.oracle import decode_events
    ev = decode_events(events_dir)
    ev["ts_us"] = ev["ts"].astype("datetime64[us]").astype("int64")
    g = ev[ev.image_id == row.image_id].sort_values("ts_us").v.values.astype(np.float64)
    ws = int(row.window_id) * 16
    w = np.zeros(32)
    seg = g[ws : ws + 32]
    w[: seg.size] = seg
    frames = np.stack([w[i * 4 : i * 4 + 8] for i in range(1 + (32 - 8) // 4)])
    p = (np.abs(np.fft.rfft(frames, axis=1)) ** 2) / (300.0 * 8)
    want = np.log10(p.T + 1e-12).reshape(-1)
    assert np.allclose(np.asarray(row.spec_tile, dtype=np.float64), want)
