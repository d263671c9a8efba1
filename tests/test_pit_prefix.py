"""``pit_feature_matrix`` answers every query from prefix statistics; it must
agree with the per-query reference loop (``tests/pit_reference.py``): the
integer-valued columns bit for bit, the moment columns within perfbench's
gate."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecg_feature_engineering_ray.functions.stats import prefix_agg
from ecg_feature_engineering_ray.pipelines import features
from ecg_feature_engineering_ray.pipelines.features import PIT_FEATURE_NAMES, pit_feature_matrix

from .pit_reference import reference_feature_matrix

EXACT = ["n_events", "max_rr", "min_rr", "mean_rr", "r_density", "pnn50", "sampen_1", "sampen_2",
         "v_mean", "v_min", "v_max", "v_median", "v_last", "v_zero_cross", "v_zigzag",
         "n_sessions", "mean_session_len", "last_session_len"]
CLOSE = [c for c in PIT_FEATURE_NAMES if c not in EXACT]  # sdnn, rmssd, v_std/skew/kurt

noise = st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=40).map(np.array)
values = st.one_of(
    noise.map(lambda x: 1e6 + 1e-4 * x),                                # large offset, tiny jitter
    st.lists(st.integers(0, 3), min_size=1, max_size=40)                 # ties, constant runs
    .map(lambda v: np.repeat(np.array(v, dtype=np.float64), 3)[: max(1, len(v))]),
    st.lists(st.integers(-3, 3), min_size=1, max_size=40).map(       # first value = prefix mean
        lambda v: np.array([0.0] + v + [-float(sum(v))])),
    noise.map(lambda x: 1e3 * x),
)
gaps = st.lists(st.sampled_from([0, 1, 250_123, 400_000, 30_000_000, 30_000_001, 45_000_000]),
                min_size=60, max_size=60)


def _check(ts, v, pos):
    events = {"ts": ts, "v": v}
    got = pit_feature_matrix(events, pos, sampen_max_n=30)
    want = reference_feature_matrix(events, pos, sampen_max_n=30)
    for c in EXACT:
        j = PIT_FEATURE_NAMES.index(c)
        assert np.array_equal(got[:, j], want[:, j], equal_nan=True), c
    for c in CLOSE:
        j = PIT_FEATURE_NAMES.index(c)
        assert np.allclose(got[:, j], want[:, j], rtol=1e-9, atol=1e-12, equal_nan=True), c


@settings(max_examples=300, deadline=None)
@given(v=values, gap=gaps, nan_at=st.one_of(st.none(), st.integers(0, 50)),
       pos=st.lists(st.integers(0, 50), max_size=20), data=st.data())
@example(v=np.array([1.0, 0.0, 2.0]), gap=[1_000_000] * 60, nan_at=None, pos=[3, 2, 1, 0, 3], data=None)
@example(v=np.full(9, 0.1), gap=[250_123] * 60, nan_at=None, pos=[0, 1, 2, 3, 9, 7], data=None)
@example(v=np.array([2.0, 1, 3, 2, 2, 0]), gap=[0, 45_000_000] * 30, nan_at=3, pos=[6, 1, 2, 3, 4],
         data=None)
def test_matrix_equals_per_query_reference(v, gap, nan_at, pos, data):
    v = v.copy()
    if nan_at is not None and nan_at < v.size:
        v[nan_at] = np.nan
    ts = 1_700_000_000_000_000 + np.cumsum(np.array(gap[: v.size], dtype=np.int64))
    pos = np.minimum(np.array(pos, dtype=np.int64), v.size)
    _check(ts, v, pos)


def test_sdnn_long_entity_after_a_gap():
    """A 45 s first interval among 10⁵ intervals of ~250 ms: the prefix's
    second moment is about 1/n of its mean square about u[0], so moments
    from running sums about u[0] lose ~n^1.5 ulp (1.5e-9 relative here);
    centred on each prefix's mean they stay within the gate."""
    rng = np.random.default_rng(1)
    gap = rng.integers(240_000, 260_000, size=100_000)
    gap[0] = 45_000_000
    ts = 1_700_000_000_000_000 + np.concatenate(([0], np.cumsum(gap)))
    v = rng.normal(size=ts.size)
    _check(ts, v, np.array([2, 3, 10_000, 50_000, 100_000, 100_001]))


def test_zero_crossing_blocks(monkeypatch):
    """Tiny 2-D blocks (one row, or a few) give the counts of one big block."""
    rng = np.random.default_rng(3)
    v = np.round(rng.normal(size=300), 1)                    # exact zeros about many means
    ts = np.cumsum(rng.integers(0, 40_000_000, size=300))
    pos = rng.integers(0, 301, size=120)
    for block in (1, 7, 500):
        monkeypatch.setattr(features, "ZC_BLOCK", block)
        _check(ts, v, pos)


def test_prefix_agg_matches_per_prefix_numpy():
    x = np.array([3, -1, 4, 1, -5, 9], dtype=np.int64)
    pos = np.array([[1, 6], [3, 0]])
    assert np.array_equal(prefix_agg(x, pos, "sum"), [[3.0, 11.0], [6.0, 0.0]])
    assert np.array_equal(prefix_agg(x, pos[0], "min"), [3, -5])
    assert np.array_equal(prefix_agg(x, pos[0], "max"), [3, 9])
    assert np.allclose(prefix_agg(x, pos[1], "mean"), [2.0, np.nan], equal_nan=True)
    two = prefix_agg(np.stack([x, -x]), pos[0], "max")
    assert two.shape == (2, 2) and np.array_equal(two, [[3, 9], [-3, 5]])
