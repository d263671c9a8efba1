"""Flagship pipeline: point-in-time image feature engineering, end to end.

    one task per event fragment: streamed read → decode (bytes → derived
      v; payload leaves here) → tag (side flag)
      → materialize: one small block per fragment
      → union with the tagged as-of query points (co-partitioned, ONE shuffle:
        the two-sided plan every join shares, stages/partition.py)
      → entity-bucket groupby, per-bucket (entity, ts)-sort
      → monotone as-of merge emitting the PIT_FEATURE vector per query
      → sink: a streamed Dataset (pit_features) or a per-partition
        checkpointed parquet commit (lineage + watermark + rows/s;
        pit_features_checkpointed)

This is the Ray-native restatement of the reference's whole feature-
extraction flow (/root/reference/extract_HRV.py:24-80 and siblings): what was
"loop records → compute per-record stats → append to DataFrame → to_csv"
becomes one streaming co-partitioned pass (:func:`_pit_plan`) with explicit
skew handling and resumable output.

The staged event side carries a per-task output bound derived from the
event fragments' parquet metadata, on its own Dataset's context
(:func:`_tagged_events`), so a small object store still admits every
read→decode task at once; the exchange and the merge keep the session's
block size.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ray.data import Dataset

from ..sources.readers import fragment_block_bound, list_fragments, read_events, read_fragments
from ..stages.asof import asof_bucket_fn
from ..stages.decode import decode_stage, decode_then
from ..stages.partition import (
    BUCKET_COL,
    SIDE_COL,
    co_partitioned_apply,
    entity_counts,
    plan_buckets,
)
from ..state.checkpoint import commit_partition, completed_buckets
from .features import PIT_FEATURE_NAMES, make_pit_feature_fn


def compute_bucket_plan(
    events_dir: str,
    queries_path: str,
    num_buckets: int,
    sampen_max_n: int = 400,
) -> dict:
    """Cost-balanced bucket plan from exact key counts (``entity_counts``).

    Merge-stage cost model, priced once per entity: the SampEn columns of all
    an entity's queries come from ONE pair pass over its capped event series
    (:func:`~..functions.entropy.sampen_hrv_prefixes`), O(min(n, cap)²); the
    other feature columns are prefix statistics from one O(n) pass, plus
    per-query terms that each touch the query's prefix (SampEn's per-length
    r, the blocks of centred prefixes), O(q·n); the sort and the exchange
    move its n rows.  So an entity with n events and q queries (0 when it has none)
    costs min(n, cap)² + 3·q·n + n, priced in int64 numpy, and
    :func:`plan_buckets` LPT-places every entity that costs a quarter of a
    bucket's share or more.  The 3 is fitted: a least-squares sweep of
    :func:`~.features.pit_feature_matrix` over n ∈ {50 … 1600} and
    q ∈ {1 … 1600} at cap 400 priced a q·n unit at 2.7–3.3 SampEn pairs
    over three runs (when each query recomputed its columns, the same sweep
    gave 15).

    That is the engine's only skew mechanism (query-split salting repeated
    the shared pair pass once per salt group, and went).  An entity heavier
    than a bucket's share gets a bucket of its own; the merge's makespan is
    then bound by that entity, not by hash luck.  In production this is a
    periodic stats job whose output is reused across runs — callers may
    compute it once and pass ``bucket_plan`` to :func:`pit_features`.

    Returns ``{"plan": {image_id → bucket}}``.
    """
    ev = entity_counts(read_events(events_dir, columns=["image_id"]), "image_id")
    q = entity_counts(read_fragments(queries_path, columns=["image_id"]), "image_id")
    keys, n = ev.column("image_id"), ev.column("n").to_numpy()
    at = pc.index_in(keys, value_set=q.column("image_id"))
    qn = q.column("n").take(at).fill_null(0).to_numpy()
    costs = np.minimum(n, sampen_max_n) ** 2 + 3 * qn * n + n
    return {"plan": plan_buckets(keys, costs, num_buckets)}


def _project_queries(b: pa.Table) -> pa.Table:  # as-of points by image_id
    return pa.table({"image_id": b.column("image_id"),
                     "__ts": b.column("as_of_ts").cast(pa.timestamp("us"))})


def _project_events(b: pa.Table) -> pa.Table:  # decoded rows → (image_id, ts, v)
    return pa.table({"image_id": b.column("image_id"),
                     "__ts": b.column("ts").cast(pa.timestamp("us")), "v": b.column("v")})


def _tagged_events(events_dir: str, tag) -> Dataset:
    """The event side, staged: one task per event fragment reads it in
    256-row batches, decodes them (decode + phash content check; the
    canonical-encoding roundtrip is a test-time invariant, see
    stages/decode.py) and runs ``tag``, the side's tag function, so the
    union and the exchange see one small block per fragment.

    Materialized: the tagged rows are ~400x smaller than the input (40 B/row
    vs KB-scale image bytes) and are exactly the row set the sort barrier
    must hold anyway, so staging them adds no asymptotic memory and gives the
    decode and shuffle phases each clean scheduling.

    Its own Dataset context carries an honest per-task output bound
    (:func:`~..sources.readers.fragment_block_bound`).  Until one of its
    tasks has produced output, Ray prices each task at
    ``target_max_block_size`` (128 MiB by default) × 2 pending blocks, so a
    small object store (768 MB on 4 CPUs) would admit one or two of these
    tasks at a time, each emitting a few hundred KB.  The bound sits on this
    side only: the union takes the query side's context, so the exchange and
    the merge keep the session's block size (a smaller one would slice the
    exchange's blocks and change the merge's task count), and the session's
    ``DataContext`` is never written."""
    ds = decode_stage(read_events(events_dir), verify_roundtrip=False, then=tag)
    bound = fragment_block_bound(
        events_dir, functools.partial(decode_then, then=tag, verify_roundtrip=False))
    if bound is not None:
        ds.context.target_max_block_size = bound
    return ds.materialize()


def _pit_plan(
    events_dir: str,
    queries_path: str,
    num_buckets: int,
    cfg: dict,
    sampen_max_n: int,
    commit=None,
    skip_buckets: set[int] | None = None,
    instrument=None,
    stage_times: dict | None = None,
) -> Dataset:
    """The one flagship plan behind both sinks: the two-sided as-of plan
    (:func:`~..stages.partition.co_partitioned_apply`) over the query
    fragments and the fused read → decode → tag event tasks, materialized,
    with a per-bucket (entity, ts)-sorted as-of merge.

    ``cfg`` is a resolved bucket plan (``{"plan"}``, see
    :func:`compute_bucket_plan`).  With ``commit`` set, each merge task also
    receives its bucket id and returns ``commit(bucket, tbl, merged, t0)``
    instead of the merged table (the checkpointed sink); ``skip_buckets``
    drops completed buckets right after bucket assignment."""

    def events(tag) -> Dataset:
        t0 = time.time()
        tagged = _tagged_events(events_dir, tag)
        if stage_times is not None:  # observability seam, like ``instrument``
            stage_times["decode_wall_s"] = time.time() - t0
        return tagged

    merge = asof_bucket_fn(
        "image_id", "as_of_ts", aggs={}, left_cols=[],
        point_fn=make_pit_feature_fn(sampen_max_n), point_out=PIT_FEATURE_NAMES,
        value_cols=["v"],
    )

    def per_bucket(tbl: pa.Table) -> pa.Table:
        t0 = time.time()
        if commit is None:
            return merge(tbl)
        bucket = int(tbl.column(BUCKET_COL)[0].as_py())
        tbl = tbl.drop_columns([BUCKET_COL])
        return commit(bucket, tbl, merge(tbl), t0)

    # ``instrument`` (observability seam): wraps the per-bucket merge fn —
    # probes/ops use it to record per-bucket wall time without forking the
    # pipeline; must be picklable and must not change result semantics.
    fn = instrument(per_bucket) if instrument is not None else per_bucket
    return co_partitioned_apply(  # one task per query fragment, tag fused in
        read_fragments(queries_path), events, _project_queries, _project_events,
        "image_id", ["__ts"], fn, num_buckets,
        explicit_map=cfg.get("plan"), skip_buckets=skip_buckets,
        keep_bucket_col=commit is not None,
    )


def pit_features(
    events_dir: str,
    queries_path: str,
    num_buckets: int = 32,
    decode_concurrency: int | tuple[int, int] | None = None,
    sampen_max_n: int = 400,
    bucket_plan: dict | None = None,
    instrument=None,
    stage_times: dict | None = None,
) -> Dataset:
    """Streaming Dataset of (image_id, as_of_ts, caption?, features…).

    ``bucket_plan`` (from :func:`compute_bucket_plan`) is computed here when
    not passed.  ``decode_concurrency`` is accepted for older callers and
    sizes nothing: decode runs one task per event fragment, uncapped."""
    if bucket_plan is None:
        bucket_plan = compute_bucket_plan(events_dir, queries_path, num_buckets, sampen_max_n)
    return _pit_plan(
        events_dir, queries_path, num_buckets, bucket_plan, sampen_max_n,
        instrument=instrument, stage_times=stage_times,
    )


def _saved_form(bucket_plan: dict) -> dict:
    """A bucket plan as the run config stores it: ``{"plan"}``, an empty map
    when missing."""
    return {"plan": dict(bucket_plan.get("plan") or {})}


def pit_features_checkpointed(
    events_dir: str,
    queries_path: str,
    out_dir: str,
    num_buckets: int = 32,
    bucket_plan: dict | None = None,
    sampen_max_n: int = 400,
    decode_concurrency: int | tuple[int, int] | None = None,
) -> list[dict]:
    """Same plan with a resumable per-partition sink (``decode_concurrency``
    sizes nothing, as in :func:`pit_features`).

    Completed buckets (manifest present) are skipped at the partitioning
    stage; each bucket commits data+manifest atomically from its worker.
    Returns the manifests of THIS run (empty if everything was done).

    The cost-model bucket plan (:func:`compute_bucket_plan` — LPT packing)
    is computed on the FIRST run (or passed
    in), persisted in the run config, and reloaded on resume/backfill —
    bucket assignment is invariant across runs even when late fragments
    change the entity counts the plan was derived from.  Passing a
    ``bucket_plan`` that differs from the committed one raises, like a
    ``num_buckets`` mismatch.
    """
    from ..state.backfill import load_run_config, save_run_config

    fragments = list_fragments(events_dir)
    cfg = load_run_config(out_dir)
    if cfg is None:
        if bucket_plan is None:
            bucket_plan = compute_bucket_plan(events_dir, queries_path, num_buckets, sampen_max_n)
        plan = _saved_form(bucket_plan)
        save_run_config(out_dir, num_buckets, fragments, **plan)
    else:
        # resume/backfill: bucket assignment MUST match the original run
        if cfg["num_buckets"] != num_buckets:
            raise ValueError(
                f"num_buckets {num_buckets} != committed run config {cfg['num_buckets']}"
            )
        plan = _saved_form(cfg)
        if bucket_plan is not None and _saved_form(bucket_plan) != plan:
            raise ValueError(
                "bucket_plan differs from the committed run config — "
                "resume must reuse the original plan"
            )

    def commit(bucket: int, tbl: pa.Table, merged: pa.Table, t0: float) -> pa.Table:
        side = np.asarray(tbl.column(SIDE_COL).combine_chunks())
        ev_ts = np.asarray(tbl.column("__ts").cast(pa.int64()).combine_chunks())[side == 0]
        manifest = commit_partition(
            out_dir, bucket, merged, fragments,
            int(ev_ts.max()) if ev_ts.size else None,  # watermark
            t0,
            extra={
                "n_entities": pc.count_distinct(tbl.column("image_id")).as_py(),
                "n_input_rows": tbl.num_rows,
            },
        )
        return pa.table({"manifest": pa.array([json.dumps(manifest)], pa.string())})

    out = _pit_plan(
        events_dir, queries_path, num_buckets, plan, sampen_max_n,
        commit=commit, skip_buckets=completed_buckets(out_dir),
    )
    return [json.loads(r["manifest"]) for r in out.take_all()]
