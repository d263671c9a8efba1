"""Decode/validate stage invariants over the fixture plants."""

import numpy as np
import pyarrow as pa

from ecg_feature_engineering_ray.sources.readers import (
    FRAGMENT_BATCH_ROWS,
    fragment_block_bound,
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


def _decode_tag(fixture_queries):
    """The flagship's fused read→decode→tag function for the event side."""
    import functools

    import pyarrow.parquet as pq

    from ecg_feature_engineering_ray.pipelines.flagship import _project_events, _project_queries
    from ecg_feature_engineering_ray.stages.decode import decode_then
    from ecg_feature_engineering_ray.stages.partition import tag_side

    other = _project_queries(pq.read_table(fixture_queries).slice(0, 0)).schema
    tag = functools.partial(tag_side, project=_project_events, other=other, flag=0)
    return functools.partial(decode_then, then=tag, verify_roundtrip=False)


def test_block_bound_without_rows_keeps_the_session_value(fixture_events, fixture_queries,
                                                           tmp_path):
    """No rows to bound, or a Lance dataset, gives ``None``; a zero-row
    fragment beside a real one adds nothing."""
    import shutil

    import pyarrow.parquet as pq

    fn = _decode_tag(fixture_queries)
    first = list_fragments(fixture_events[0])[0]
    (tmp_path / "empty").mkdir()
    assert fragment_block_bound(str(tmp_path / "empty"), fn) is None

    one, zero = tmp_path / "one", tmp_path / "zero"
    one.mkdir()
    zero.mkdir()
    shutil.copy(first, one / "frag-00000.parquet")
    pq.write_table(pq.read_table(first).slice(0, 0), str(zero / "frag-00000.parquet"))
    assert fragment_block_bound(str(zero), fn) is None
    bound = fragment_block_bound(str(one), fn)
    assert bound is not None
    shutil.copy(zero / "frag-00000.parquet", one / "frag-00001.parquet")
    assert fragment_block_bound(str(one), fn) == bound

    (one / "_versions").mkdir()  # a Lance dataset's layout: Ray's own reader
    assert fragment_block_bound(str(one), fn) is None


def test_block_bound_at_the_scaling_shape(fixture_events, fixture_queries, tmp_path):
    """At ``bench.py``'s scaling shape (60,000 32-px rows per fragment) the
    task's tagged output outweighs a 256-row read batch, so it sets the
    bound, which holds the tagged rows of the whole fragment (one block) and
    is not padded beyond them."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    fn = _decode_tag(fixture_queries)
    small = pq.read_table(fixture_events[0])
    small = small.filter(pc.equal(small.column("w"), 32))
    rows = 60_000
    frag = pa.concat_tables([small] * -(-rows // small.num_rows)).slice(0, rows)
    path = str(tmp_path / "frag-00000.parquet")
    # the payload column plain-encoded, as unique images are in a real fragment
    pq.write_table(frag, path, use_dictionary=["image_id", "fmt", "caption"])

    bound = fragment_block_bound(str(tmp_path), fn)
    meta = pq.read_metadata(path).row_group(0)
    assert bound > meta.total_byte_size / meta.num_rows * FRAGMENT_BATCH_ROWS
    tagged_per_row = fn(small).nbytes / small.num_rows
    assert rows * tagged_per_row <= bound < 1.1 * rows * tagged_per_row
