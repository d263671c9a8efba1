"""Fail-loud guards: degenerate LSH band buckets and oracle scan bounds.

A silent O(n²) bucket or a silently-truncated oracle scan would read as
"covered everything" — these tests pin the loud failure mode instead.
"""

from __future__ import annotations

import numpy as np
import pytest

from ecg_feature_engineering_ray.pipelines import queries
from ecg_feature_engineering_ray.pipelines.queries import _guard_oracle_cap, near_dup_pairs

SF = "/root/testdata/sf0.001"


def test_guard_oracle_cap_raises_and_passes():
    _guard_oracle_cap(4096, 4096, "at the bound")  # at the cap: fine
    with pytest.raises(ValueError, match="scan bound"):
        _guard_oracle_cap(4097, 4096, "over the bound")


@pytest.mark.parametrize(
    "query", ["near_dup_pairs", "simhash_near_dups", "embedding_near_dups", "phash_near_dups"]
)
def test_degenerate_bucket_raises(ray_session, monkeypatch, query):
    # a bound of 1 makes ANY blocking-key collision "degenerate" — the
    # planted near-dups (and, for phash, the hot phash values) guarantee at
    # least one collision.  phash's bound is a module constant, read on the
    # driver and shipped to the bucket tasks with the pairing function.
    monkeypatch.setattr(queries, "_PHASH_MAX_BUCKET", 1)
    kwargs = {} if query == "phash_near_dups" else {"max_bucket": 1}
    with pytest.raises(Exception, match="max_bucket"):
        getattr(queries, query)(SF, **kwargs).materialize()


def test_near_dup_pairs_dup_heavy_distributed(ray_session, tmp_path):
    """Dup-heavy corpus (150-doc clique ⇒ C(150,2) = 11,175 candidate pairs)
    flows through the verify path end to end.  The pair stream stays a
    Dataset — the driver's only artifact is the fixed-size bloom bitmap —
    so this passes where an O(pairs) driver dict would be the scale risk."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    n_clique = 150
    base = "the quick brown fox jumps over the lazy dog while counting " * 4
    texts = [base for _ in range(n_clique)]
    ids = list(range(n_clique))
    # distinct background docs that must NOT pair with the clique
    rng = np.random.default_rng(7)
    for i in range(50):
        ids.append(1000 + i)
        texts.append("".join(chr(97 + c) for c in rng.integers(0, 26, 240)))
    pq.write_table(
        pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "text": pa.array(texts, pa.string())}),
        str(tmp_path / "documents.parquet"),
    )
    out = near_dup_pairs(str(tmp_path)).to_pandas()
    assert len(out) == n_clique * (n_clique - 1) // 2
    assert (out["jaccard"] == 1.0).all()
    assert (out["doc_a"] < out["doc_b"]).all()
    assert out["doc_a"].max() < n_clique  # no background doc paired
