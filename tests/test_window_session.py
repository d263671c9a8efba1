"""Window/lag-lead/sessionization kernels vs independent pandas oracles."""

import numpy as np
import pandas as pd
import pyarrow as pa

from ecg_feature_engineering_ray.stages.partition import entity_segments
from ecg_feature_engineering_ray.stages.session import session_segments
from ecg_feature_engineering_ray.stages.window import (
    _row_entity_end,
    _row_entity_start,
    fixed_windows,
    lag_column,
    lead_column,
    rolling_mean,
)


def _toy():
    df = pd.DataFrame(
        {
            "e": ["a"] * 5 + ["b"] * 3,
            "ts": [0, 10, 25, 70, 71, 5, 6, 50],
            "v": [1.0, 2.0, 3.0, 4.0, 5.0, 10.0, 20.0, 30.0],
        }
    )
    return pa.Table.from_pandas(df.sort_values(["e", "ts"]), preserve_index=False)


def test_entity_segments():
    t = _toy()
    starts, ends = entity_segments(t, "e")
    assert starts.tolist() == [0, 5]
    assert ends.tolist() == [5, 8]


def test_lag_respects_entity_boundary():
    t = _toy()
    rs = _row_entity_start(t, "e")
    v = np.asarray(t.column("v").combine_chunks())
    lag1 = lag_column(v, rs, 1)
    # first row of entity b must NOT see entity a's last value
    assert np.isnan(lag1[5])
    assert lag1[1] == 1.0 and lag1[6] == 10.0


def test_lag_lead_columns_match_pandas():
    t = _toy()
    v = np.asarray(t.column("v").combine_chunks())
    got_lag = lag_column(v, _row_entity_start(t, "e"), 1)
    got_lead = lead_column(v, _row_entity_start(t, "e"), _row_entity_end(t, "e"), 1)
    df = t.to_pandas()
    want_lag = df.groupby("e")["v"].shift(1).values
    want_lead = df.groupby("e")["v"].shift(-1).values
    assert np.allclose(got_lag, want_lag, equal_nan=True)
    assert np.allclose(got_lead, want_lead, equal_nan=True)


def test_rolling_mean_matches_pandas():
    t = _toy()
    rs = _row_entity_start(t, "e")
    v = np.asarray(t.column("v").combine_chunks())
    got = rolling_mean(v, rs, 3)
    df = t.to_pandas()
    want = df.groupby("e")["v"].rolling(3, min_periods=1).mean().reset_index(level=0, drop=True).values
    assert np.allclose(got, want)


def test_sessionize_gap():
    df = pd.DataFrame(
        {
            "e": ["a"] * 4 + ["b"] * 2,
            "ts": pd.to_datetime([0, 10, 100, 110, 0, 5], unit="s"),
        }
    )
    t = pa.Table.from_pandas(df, preserve_index=False).set_column(
        1, "ts", pa.Table.from_pandas(df, preserve_index=False).column("ts").cast(pa.timestamp("us"))
    )
    starts, ends = session_segments(t, "e", gap_us=30_000_000)
    assert starts.tolist() == [0, 2, 4]
    assert ends.tolist() == [2, 4, 6]


def test_fixed_windows_policies():
    assert fixed_windows(10, 4, 2) == [(0, 0, 4), (1, 2, 6), (2, 4, 8), (3, 6, 10), (4, 8, 10)]
    assert fixed_windows(9, 4, 2)[-1] == (3, 6, 9)  # partial tail kept
    assert fixed_windows(9, 4, 2, policy="drop")[-1] == (2, 4, 8)


def test_lance_write_seam(tmp_path, monkeypatch):
    """S5/S6 format seam: when the lance package is available the partition
    writer dispatches to lance.write_dataset; parquet otherwise."""
    import sys
    import types

    import pyarrow as pa
    import pyarrow.parquet as pq

    from ecg_feature_engineering_ray.state import checkpoint as cp

    tbl = pa.table({"a": pa.array([1, 2, 3], pa.int64())})

    # default (no lance in this container): parquet
    out = cp.write_fragment(tbl, str(tmp_path / "part-0.parquet"))
    assert out.endswith(".parquet")
    import os
    os.replace(out + ".tmp", out)
    assert pq.read_table(out).num_rows == 3

    # lance present: dispatches to lance.write_dataset with a .lance path
    calls = {}
    fake = types.ModuleType("lance")
    fake.write_dataset = lambda table, path, mode: calls.update(path=path, rows=table.num_rows, mode=mode)
    monkeypatch.setitem(sys.modules, "lance", fake)
    monkeypatch.setattr(cp, "HAVE_LANCE", True)
    out2 = cp.write_fragment(tbl, str(tmp_path / "part-1.parquet"))
    assert out2.endswith(".lance")
    assert calls["rows"] == 3 and calls["path"] == out2 + ".tmp" and calls["mode"] == "create"


def test_lance_real_roundtrip(tmp_path, monkeypatch):
    """REAL lance integration (skipped while the package is absent in this
    container): commit_partition writes a .lance fragment directory and
    read_output reads it back byte-equal.  Exists so the real path lights up
    the moment the dependency is installable — the seam test above only
    checks dispatch."""
    import pytest

    pytest.importorskip("lance")

    import pyarrow as pa

    from ecg_feature_engineering_ray.state import checkpoint as cp

    monkeypatch.setattr(cp, "HAVE_LANCE", True)
    tbl = pa.table({
        "image_id": pa.array(["a", "b", "c"], pa.string()),
        "v": pa.array([1.5, 2.5, 3.5], pa.float64()),
    })
    man = cp.commit_partition(str(tmp_path), 0, tbl, ["frag-0"], 123, 0.0)
    assert man["rows"] == 3
    got = cp.read_output(str(tmp_path))
    assert got.sort_by("image_id").equals(tbl.sort_by("image_id"))
    # resume sees the committed bucket
    assert cp.completed_buckets(str(tmp_path)) == {0}
    # idempotent replay returns the existing manifest without rewriting
    again = cp.commit_partition(str(tmp_path), 0, tbl, ["frag-0"], 123, 0.0)
    assert again == man


def test_entity_counts_space_saving(ray_session):
    """Bounded-memory entity counts: heavy keys exact-or-overestimated,
    cap respected, light tail evicted safely."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from ecg_feature_engineering_ray.stages.partition import entity_counts

    rng = np.random.default_rng(3)
    heavy = np.repeat(np.arange(5), 500)
    light = rng.integers(1000, 3000, size=2000)
    keys = np.concatenate([heavy, light])
    rng.shuffle(keys)
    ds = ray.data.from_arrow(pa.table({"k": pa.array(keys, pa.int64())}))

    exact = entity_counts(ds, "k", max_tracked=None)
    assert all(exact[k] == 500 for k in range(5))

    capped = entity_counts(ds.repartition(8), "k", max_tracked=50)
    assert len(capped) <= 50
    for k in range(5):
        assert k in capped and capped[k] >= 500  # never underestimates heavies
