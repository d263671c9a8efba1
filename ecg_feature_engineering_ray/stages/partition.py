"""Entity-bucket partitioning — the engine's single shuffle spine.

Every per-entity ordered computation (lag/lead, sessionize, rolling windows,
grouped aggregates, as-of join) reuses ONE partitioning scheme so the data is
shuffled once and processed many times:

    bucket = stable_hash(entity_key) % num_buckets   (unless explicitly placed)

``num_buckets`` scales with the cluster (≈ 2-4 × total CPUs); each bucket is
processed as ONE Arrow table by ``Dataset.groupby("__bucket").map_groups``,
inside which everything is vectorized numpy over entity segments.  A bucket
must fit in a worker's heap: at 100 TB input project the shuffled columns
down to the key + order + value columns first (images' ``bytes`` never enter
the shuffle — see pipelines.flagship).

Hot-key (skew) handling: the reference has no analog (its skew is "the
longest ECG record just takes longer", SURVEY.md §4).  One tool, fed by
exact per-entity counts (:func:`entity_counts`: each block's Arrow
``value_counts``, merged on the driver by one group-by sum, no shuffle):
``plan_buckets`` — greedy LPT packing of the entities that cost a quarter
of a bucket's share or more (so at most 4 × num_buckets of them) onto the
least-loaded buckets (hash for the light tail), applied through
``explicit_map``.  An entity always lives in exactly one bucket, so
entity-level order statistics stay exact and a bucket id depends only on
the key and the plan (:func:`bucket_ids`).
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ray.data import Dataset

from ..functions.hashing import bucket_of_ints, bucket_of_strings

BUCKET_COL = "__bucket"
# the two-sided union's side flag: 1 = left (query) rows, 0 = right (event) rows
SIDE_COL = "__side"
# an entity costing this share of a bucket or more is LPT-placed
HEAVY_FRAC = 0.25


def bucket_ids(
    col: pa.Array | pa.ChunkedArray,
    num_buckets: int,
    plan: dict | None = None,
) -> np.ndarray:
    """Bucket id per row of an entity-key column: the key's bucket in
    ``plan`` (from :func:`plan_buckets`) when it has one, else the stable
    hash — ``md5_u64(key) % num_buckets`` for strings, splitmix64 for ints.

    Other key types hash their string form.  Null keys all go to bucket 0,
    so a null key is one group, as in SQL.

    The one routing rule: the shuffle (:func:`with_bucket`) and late-data
    invalidation (state/backfill.py) both call it."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if col.null_count:
        valid = np.asarray(col.is_valid())
        ids = np.zeros(len(col), dtype=np.int32)
        ids[valid] = bucket_ids(col.filter(col.is_valid()), num_buckets, plan)
        return ids
    if pa.types.is_integer(col.type):
        ids = bucket_of_ints(np.asarray(col).astype(np.int64), num_buckets)
    elif pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        ids = bucket_of_strings(col, num_buckets)
    else:
        ids = bucket_of_strings(col.cast(pa.string()), num_buckets)
    if plan:
        # the plan's keys as a column of the key's type; a key the plan does
        # not name keeps its hash bucket
        keys = pa.array(list(plan)).cast(col.type)
        where = np.asarray(pc.index_in(col, value_set=keys).fill_null(-1))
        to = np.fromiter(plan.values(), dtype=np.int64, count=len(plan))
        ids = np.where(where >= 0, to[where], ids)
    return ids


def with_bucket(
    ds: Dataset,
    key: str,
    num_buckets: int,
    explicit_map: dict | None = None,
) -> Dataset:
    """Append an int32 ``__bucket`` column keyed by ``key`` (routed by
    :func:`bucket_ids`; ``explicit_map`` is its plan)."""

    def assign(batch: pa.Table) -> pa.Table:
        ids = bucket_ids(batch.column(key), num_buckets, explicit_map)
        return batch.append_column(BUCKET_COL, pa.array(ids, pa.int32()))

    return ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)


def entity_counts(ds: Dataset, key: str) -> pa.Table:
    """Exact per-entity row counts, as an Arrow table ``(key, n)``.

    Each block counts its own keys (``value_counts``, no shuffle); the driver
    streams those partials in and merges them with one Arrow group-by sum.
    So the driver holds one Arrow row per distinct entity of each block until
    the merge, and one per distinct entity after it.  Call it on a pruned key
    column.
    """

    def partial_counts(batch: pa.Table) -> pa.Table:
        vc = batch.column(key).combine_chunks().value_counts()
        return pa.table({key: vc.field("values"), "n": vc.field("counts")})

    partials = ds.map_batches(partial_counts, batch_format="pyarrow", zero_copy_batch=True)
    parts = list(partials.iter_batches(batch_format="pyarrow"))
    if not parts:  # no rows: zero counts, keyed in the input's key type
        parts = [pa.table({key: pa.array([], ds.schema().base_schema.field(key).type),
                           "n": pa.array([], pa.int64())})]
    merged = pa.concat_tables(parts).group_by(key).aggregate([("n", "sum")])
    return pa.table({key: merged.column(key), "n": merged.column("n_sum")})


def plan_buckets(keys: pa.Array | pa.ChunkedArray, costs: np.ndarray, num_buckets: int) -> dict:
    """Greedy LPT packing of heavy entities into balanced buckets.

    ``costs[i]`` (int64) is entity ``keys[i]``'s estimated merge cost.  Entities
    costing at least ``HEAVY_FRAC`` × (total/num_buckets) — at most
    ``num_buckets / HEAVY_FRAC`` of them — are placed, largest first (ties
    by key, descending), on the currently least-loaded bucket; light
    entities stay on the hash (their law-of-large-numbers sum is already
    balanced).  Returns {key → bucket} in placement order.  This is the
    engine's answer to hash-luck stragglers: the slowest merge task is
    capped near max(mean, heaviest entity) instead of ~3× the mean.
    """
    import heapq  # noqa: PLC0415

    total = int(costs.sum())
    if total == 0 or num_buckets <= 0:
        return {}
    is_heavy = costs >= HEAVY_FRAC * total / num_buckets
    heavy = sorted(zip(costs[is_heavy].tolist(), keys.filter(pa.array(is_heavy)).to_pylist()),
                   reverse=True)
    # seed heap with the expected hash load of light entities per bucket
    light_load = (total - int(costs[is_heavy].sum())) / num_buckets
    heap = [(light_load, b) for b in range(num_buckets)]
    heapq.heapify(heap)
    out: dict = {}
    for c, k in heavy:
        load, b = heapq.heappop(heap)
        out[k] = b
        heapq.heappush(heap, (load + c, b))
    return out


def grouped_sorted_apply(
    ds: Dataset,
    key: str,
    order_by: list[str],
    fn: Callable[[pa.Table], pa.Table],
    num_buckets: int,
    explicit_map: dict | None = None,
    skip_buckets: set[int] | None = None,
    keep_bucket_col: bool = False,
    **map_groups_kwargs,
) -> Dataset:
    """THE core primitive: hash-bucket by entity, sort each bucket, apply.

    ``fn`` receives one Arrow table per bucket, already sorted by
    ``[key, *order_by]``, with ``__bucket`` removed (kept when
    ``keep_bucket_col``, for checkpointed sinks), and with the guarantee
    that every row of an entity is in the same table in order.  It returns an
    Arrow table (any schema — aggregates, window columns, exploded rows).

    ``skip_buckets`` drops already-completed partitions right after bucket
    assignment — the resume path (state/checkpoint.py).

    The exchange's cost follows the number of input blocks, not the bytes,
    so feed it few of them: over the image events that is the decode
    stage's one block per fragment (stages/decode.py), with no repartition.
    """
    bucketed = with_bucket(ds, key, num_buckets, explicit_map=explicit_map)
    if skip_buckets:
        skip = sorted(skip_buckets)

        def drop_done(batch: pa.Table) -> pa.Table:
            mask = pc.invert(pc.is_in(batch.column(BUCKET_COL), value_set=pa.array(skip, pa.int32())))
            return batch.filter(mask)

        bucketed = bucketed.map_batches(drop_done, batch_format="pyarrow", zero_copy_batch=True)
    sort_keys = [key] + list(order_by)

    def per_bucket(group: pa.Table) -> pa.Table:
        if not keep_bucket_col:
            group = group.drop_columns([BUCKET_COL])
        group = group.combine_chunks()
        group = group.sort_by([(c, "ascending") for c in sort_keys])
        return fn(group)

    return bucketed.groupby(BUCKET_COL).map_groups(
        per_bucket, batch_format="pyarrow", **map_groups_kwargs
    )


def _tag(own: pa.Table, other: pa.Schema, flag: int) -> pa.Table:
    """One side's projected rows in the union's layout: the left side's
    columns, then the right side's others, each column of ``other`` alone a
    typed null, a shared column in the left side's type, then the int8
    ``SIDE_COL`` ``flag`` (1 = left)."""
    left, right = (own.schema, other) if flag else (other, own.schema)
    n = own.num_rows
    cols = {}
    for f in [*left, *(f for f in right if f.name not in left.names)]:
        col = own.column(f.name) if f.name in own.column_names else pa.nulls(n, f.type)
        cols[f.name] = col if col.type == f.type else col.cast(f.type)
    cols[SIDE_COL] = pa.array(np.full(n, flag, np.int8))
    return pa.table(cols)


def tag_side(batch: pa.Table, project: Callable, other: pa.Schema, flag: int) -> pa.Table:
    """One input's tag function: :func:`_tag` of its projected batch."""
    return _tag(project(batch), other, flag)


def _tag_both(batch: pa.Table, project_left: Callable, project_right: Callable) -> pa.Table:
    lb, rb = project_left(batch), project_right(batch)
    return pa.concat_tables([_tag(lb, rb.schema, 1), _tag(rb, lb.schema, 0)])


def _schema(ds: Dataset, side: str) -> pa.Schema:
    schema = ds.schema()
    if schema is None:
        raise ValueError(f"the {side} side of the join is empty and carries no schema "
                         "(a row-wise filter that kept nothing), so it cannot be typed")
    return schema.base_schema


def co_partitioned_apply(
    left: Dataset,
    right: "Dataset | Callable[[Callable], Dataset] | None",
    project_left: Callable[[pa.Table], pa.Table],
    project_right: Callable[[pa.Table], pa.Table],
    key: str,
    order_by: list[str],
    fn: Callable[[pa.Table], pa.Table],
    num_buckets: int,
    explicit_map: dict | None = None,
    skip_buckets: set[int] | None = None,
    keep_bucket_col: bool = False,
    **map_groups_kwargs,
) -> Dataset:
    """The two-sided plan behind every join: tag both sides, union them,
    and :func:`grouped_sorted_apply` ``fn`` over the union sorted by
    ``[key, *order_by, SIDE_COL]`` — one exchange co-partitions both.

    ``project_left``/``project_right`` map a batch of one side to its own
    columns (key, order, payload; rows may drop).  The tag pads the other
    side's columns with typed nulls and appends ``SIDE_COL`` (:func:`_tag`),
    taking the types from the other side's projection:

    - ``right`` a Dataset: each input's schema is read once, here, and
      projected as a zero-row batch.  An input without a schema raises
      ``ValueError`` naming the side; an empty one with a schema has no rows.
    - ``right`` ``None``: a self-join.  Both sides are projected from each
      batch of ``left``, whose types are at hand; no schema is read.
    - ``right`` a function: it takes the right side's tag function and
      returns the tagged side (the flagship tags inside its decode tasks),
      whose schema gives the right side's types — materialize it.
    """
    kw = {"batch_format": "pyarrow", "zero_copy_batch": True}
    if right is None:
        tagged = left.map_batches(functools.partial(
            _tag_both, project_left=project_left, project_right=project_right), **kw)
    else:
        left_types = project_left(_schema(left, "left").empty_table()).schema
        tag_right = functools.partial(tag_side, project=project_right, other=left_types, flag=0)
        if isinstance(right, Dataset):
            right_types = project_right(_schema(right, "right").empty_table()).schema
            right = right.map_batches(tag_right, **kw)
        else:
            right = right(tag_right)
            schema = _schema(right, "right")
            right_types = schema.remove(schema.get_field_index(SIDE_COL))
        tagged = left.map_batches(functools.partial(
            tag_side, project=project_left, other=right_types, flag=1), **kw).union(right)
    return grouped_sorted_apply(
        tagged, key, [*order_by, SIDE_COL], fn, num_buckets, explicit_map=explicit_map,
        skip_buckets=skip_buckets, keep_bucket_col=keep_bucket_col, **map_groups_kwargs,
    )


def entity_segments(tbl: pa.Table, key: str) -> tuple[np.ndarray, np.ndarray]:
    """Segment offsets of a table sorted by ``key``.

    Returns ``(starts, ends)`` index arrays such that rows
    ``starts[i]:ends[i]`` are entity i's rows.  Vectorized — no Python loop
    over rows.
    """
    if tbl.num_rows == 0:
        return np.array([], dtype=np.int64), np.array([], dtype=np.int64)
    col = tbl.column(key).combine_chunks()
    if pa.types.is_integer(col.type) or pa.types.is_timestamp(col.type):
        vals = np.asarray(col.cast(pa.int64()))
        change = np.flatnonzero(vals[1:] != vals[:-1]) + 1
    else:
        d = col.dictionary_encode()
        idx = np.asarray(d.indices)
        change = np.flatnonzero(idx[1:] != idx[:-1]) + 1
    starts = np.concatenate(([0], change)).astype(np.int64)
    ends = np.concatenate((change, [tbl.num_rows])).astype(np.int64)
    return starts, ends
