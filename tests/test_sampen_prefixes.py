"""One SampEn pair pass per entity: ``sampen_hrv_prefixes`` must equal one
``sampen_hrv`` call per prefix bit for bit, and ``pit_feature_matrix`` over
an entity's nested prefixes must match the independent per-prefix oracle."""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecg_feature_engineering_ray.functions import entropy
from ecg_feature_engineering_ray.functions.entropy import sampen_hrv, sampen_hrv_prefixes
from ecg_feature_engineering_ray.pipelines.features import (
    PIT_FEATURE_NAMES,
    pit_feature_matrix,
    pit_feature_vector,
)

from .oracle import ORACLE_FEATURE_NAMES, oracle_feature_row

series = st.one_of(
    # integer values: many exact ties between template distances and r
    st.lists(st.integers(0, 4), max_size=40).map(lambda v: np.array(v, dtype=np.float64)),
    # constant series: r = 0 and every template matches
    st.tuples(st.integers(0, 40), st.floats(-5, 5)).map(lambda t: np.full(t[0], t[1])),
    st.lists(st.floats(-1e3, 1e3, allow_nan=False), max_size=40).map(np.array),
)


@settings(max_examples=300, deadline=None)
@given(
    x=series,
    lens=st.lists(st.integers(0, 60), max_size=12),
    m=st.integers(1, 3),
    max_n=st.integers(1, 50),
    block=st.integers(1, 80),
)
@example(x=np.full(12, 3.0), lens=[0, 1, 3, 4, 12, 12, 30], m=2, max_n=10, block=1)  # constant, past cap
@example(x=np.array([1.0, 2.0, 1.0]), lens=[0, 2, 3, 3], m=2, max_n=50, block=8)      # n < m+2
@example(x=np.array([0.0, 1, 0, 1, 0, 1, 2, 2, 0]), lens=[9, 5, 9, 7], m=2, max_n=8, block=2)
@example(x=np.array([1.0, 2, 1, 2, np.nan, 1, 2]), lens=[7, 4, 5, 6], m=2, max_n=50, block=3)  # r = NaN
def test_prefixes_equal_per_prefix_sampen(x, lens, m, max_n, block):
    # ``block`` shrinks the kernel's row blocks so short series split into many
    with mock.patch.object(entropy, "_PAIR_BLOCK", block):
        got = sampen_hrv_prefixes(x, lens, m=m, max_n=max_n)
    want = np.array([sampen_hrv(x[:L], m=m, max_n=max_n) for L in lens]).reshape(len(lens), 2)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_feature_matrix_matches_oracle_on_nested_prefixes():
    """Nested prefixes of one entity — zero events, one, two, the SampEn
    minimum, repeated lengths, and lengths past the 400-sample SampEn cap —
    against ``oracle_feature_row``; the one-row ``pit_feature_vector`` is
    the same row."""
    rng = np.random.default_rng(11)
    n = 430
    gaps = rng.choice([0, 250_000, 400_000, 900_000, 45_000_000], size=n, p=[0.05, 0.4, 0.3, 0.2, 0.05])
    ts = np.cumsum(gaps).astype(np.int64)                 # duplicate ts and 30 s+ session gaps
    v = np.round(rng.random(n), 1)                         # ties in the value channel
    pos = np.array([0, 1, 2, 3, 4, 5, 50, 200, 200, 399, 401, 402, 430, 3])
    mat = pit_feature_matrix({"ts": ts, "v": v}, pos)
    assert mat.shape == (pos.size, len(PIT_FEATURE_NAMES))
    assert PIT_FEATURE_NAMES == ORACLE_FEATURE_NAMES
    for row, p in zip(mat, pos):
        want = oracle_feature_row(ts[:p], v[:p])
        assert np.allclose(row, [want[c] for c in PIT_FEATURE_NAMES], rtol=1e-9, equal_nan=True), p
        assert np.array_equal(row, pit_feature_vector({"ts": ts[:p], "v": v[:p]}), equal_nan=True)
