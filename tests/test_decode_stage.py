"""Decode/validate stage invariants over the fixture plants."""

import numpy as np
import pyarrow as pa

from ecg_feature_engineering_ray.sources.readers import (
    FRAGMENT_BATCH_ROWS,
    list_fragments,
    read_events,
    read_fragments,
)
from ecg_feature_engineering_ray.stages.decode import decode_stage


def test_read_batches_follow_the_projection(fixture_events, tmp_path):
    """A projection without the binary payload reads each fragment in one
    batch, so a map fused after it (a bucket plan's key counts) runs once per
    fragment.  A projection with ``bytes``, and a read of every column, keep
    their small batches."""
    import pyarrow.parquet as pq

    events_dir, _ = fixture_events
    rows = sorted(pq.read_metadata(p).num_rows for p in list_fragments(events_dir))
    assert max(rows) > FRAGMENT_BATCH_ROWS

    def batch_rows(path, columns):
        sizes = read_fragments(path, columns).map_batches(
            lambda t: pa.table({"n": [t.num_rows]}), batch_format="pyarrow", batch_size=None)
        return sorted(sizes.to_pandas()["n"])

    def streamed(n):
        return sorted([FRAGMENT_BATCH_ROWS] * (n // FRAGMENT_BATCH_ROWS)
                      + [n % FRAGMENT_BATCH_ROWS] * (n % FRAGMENT_BATCH_ROWS > 0))

    assert batch_rows(events_dir, ["image_id"]) == rows
    assert batch_rows(events_dir, ["image_id", "bytes"]) == sorted(
        b for n in rows for b in streamed(n))
    keys = str(tmp_path / "keys.parquet")  # no payload column at all
    pq.write_table(pq.read_table(events_dir, columns=["image_id", "ts"]), keys)
    assert batch_rows(keys, None) == streamed(sum(rows))
    assert batch_rows(keys, ["image_id", "ts"]) == [sum(rows)]


def test_decode_flags_phash_mismatch_plants(fixture_events):
    """5% of entities carry a planted shared phash ≠ recomputed aHash —
    decode must keep the rows but flag psnr_ok False for exactly those."""
    events_dir, manifest = fixture_events
    out = pa.concat_tables(
        [pa.table(b) for b in decode_stage(read_events(events_dir), concurrency=1)
         .iter_batches(batch_format="pyarrow")]
    ).to_pandas()
    # nothing dropped
    import pyarrow.parquet as pq

    assert len(out) == pq.read_table(events_dir, columns=["image_id"]).num_rows
    by_entity = out.groupby("image_id").psnr_ok.all()
    bad_entities = set(by_entity[~by_entity].index)
    # planted entities are img k for k=2,22,42,... (fixture.generate_events);
    # the exact-phash check applies to lossless rows only (lossy rows get a
    # Hamming tolerance, and the fixture's shared gradient keeps all aHashes
    # close), so the detectable plant is planted ∩ png
    n_ent = manifest["n_entities"]
    planted = {f"img{k:08d}" for k in range(2, n_ent, 20)}
    fmt_by_entity = out.groupby("image_id").fmt.first()
    detectable = {e for e in planted if fmt_by_entity[e] == "png"}
    assert detectable, "fixture must include at least one png-planted entity"
    assert detectable <= bad_entities
    # no false positives outside the plant (hot entity etc. stay valid)
    assert manifest["hot_entity"] not in bad_entities
    assert bad_entities <= planted
    # derived value channel is sane
    assert out.v.between(0, 1).all()


def test_caption_survives_decode_exactly(fixture_events):
    """FIXTURES invariant 2: caption strings survive the pipeline bitwise."""
    import pyarrow.parquet as pq

    events_dir, _ = fixture_events
    src = pq.read_table(events_dir, columns=["image_id", "ts", "caption"]).to_pandas()
    out = decode_stage(read_events(events_dir), concurrency=1).to_pandas()
    key = ["image_id", "ts"]
    a = src.sort_values(key).reset_index(drop=True)
    b = out[["image_id", "ts", "caption"]].sort_values(key).reset_index(drop=True)
    assert len(a) == len(b)
    assert (a.caption.values == b.caption.values).all()
