"""Joins: broadcast hash (inner / left / semi / anti) and range joins, and
the big×big shuffle and interval joins on the two-sided plan
(:func:`~.partition.co_partitioned_apply`).

A broadcast join's small side is materialized ONCE into the object store
(``ray.put``) and read zero-copy by every map task — never re-shipped per
batch, never a shuffle (SURVEY.md §2.5 J2/J4).  Use for dimension tables
(labels, skip lists, key sets); the as-of join (stages/asof.py) covers the
big×big keyed case.

All per-batch work is vectorized Arrow kernels (``pc.is_in`` membership,
``pc.index_in`` + ``take`` gather) — no pandas conversion and no Python loop
over rows in the hot path.

Reference analogs: positional record↔label lookup
(/root/reference/challenge2020/preprocess/preprocess-300hz.py:142-152) and
the ``index2del`` skip list (:93-99).
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data import Dataset

from .partition import SIDE_COL, co_partitioned_apply, entity_segments


def broadcast_join(
    big: Dataset,
    small: pa.Table,
    on: str,
    how: str = "inner",
    small_cols: list[str] | None = None,
    suffix: str = "_r",
) -> Dataset:
    """Join ``big`` (Dataset) with ``small`` (Arrow table) on column ``on``.

    how ∈ {'inner', 'left', 'semi', 'anti'}.  For semi/anti only membership
    is broadcast.  Assumes ``on`` is unique in ``small`` for inner/left
    (dimension-table contract) — duplicate keys raise.  Row order of ``big``
    is preserved (first-match gather, not a sort-merge).
    """
    if how in ("semi", "anti"):
        key_set = ray.put(small.column(on).combine_chunks().unique())

        def member_filter(batch: pa.Table) -> pa.Table:
            keys = ray.get(key_set)
            mask = pc.is_in(batch.column(on), value_set=keys)
            if how == "anti":
                # is_in yields null for null probes; anti keeps non-members only
                mask = pc.invert(pc.fill_null(mask, False))
            else:
                mask = pc.fill_null(mask, False)
            return batch.filter(mask)

        return big.map_batches(member_filter, batch_format="pyarrow", zero_copy_batch=True)

    key_arr = small.column(on).combine_chunks()
    if len(key_arr.unique()) != len(key_arr):
        raise ValueError(f"broadcast_join: duplicate keys in small side on {on!r}")
    cols = small_cols or [c for c in small.column_names if c != on]
    small_ref = ray.put(small.select([on] + cols).combine_chunks())

    def join_batch(batch: pa.Table) -> pa.Table:
        stbl = ray.get(small_ref)
        idx = pc.index_in(batch.column(on), value_set=stbl.column(on))
        if how == "inner":
            valid = pc.is_valid(idx)
            batch = batch.filter(valid)
            idx = idx.filter(valid)
        for c in cols:
            name = c if c not in batch.column_names else c + suffix
            batch = batch.append_column(name, stbl.column(c).take(idx))
        return batch

    return big.map_batches(join_batch, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# Large × large shuffle hash join
# ---------------------------------------------------------------------------

def _null_sentinel(t: pa.DataType):
    """Bucket-routing value for null join keys (semantics unaffected — the
    real key column keeps its nulls; this only picks a deterministic home
    bucket for how='left' pass-through rows)."""
    if pa.types.is_integer(t) or pa.types.is_timestamp(t):
        return 0
    return ""


def shuffle_join(
    left: Dataset,
    right: Dataset,
    on: str,
    left_cols: list[str],
    right_cols: list[str],
    how: str = "inner",
    num_buckets: int = 64,
    suffix: str = "_r",
    **map_groups_kwargs,
) -> Dataset:
    """Distributed equi-join of two big Datasets — neither side broadcast.

    The big×big case ``broadcast_join`` can't serve (at production scale
    neither fact table fits one node): the as-of join's two-sided plan
    (:func:`~.partition.co_partitioned_apply`) co-locates every key's rows
    of both sides in ONE hash-bucket exchange on the join key, and each
    bucket runs a vectorized Arrow hash join (`pa.Table.join`, Acero) on its
    two sides.  Duplicate keys on BOTH sides are fine (full m×n expansion
    per key, standard SQL semantics).

    how ∈ {'inner', 'left', 'full'}.  ``left_cols``/``right_cols`` are the payload
    columns to carry (prune at the read — a join that ships all columns is
    wrong at 100 TB).  Right payload columns whose names collide with left
    ones are renamed with ``suffix``.  Null join keys never match (SQL
    semantics); with how='left' null-key left rows are still emitted, and
    with how='full' unmatched rows of BOTH sides (null keys included) are
    emitted with the other side's payload null — Acero's hash join keeps
    SQL null-key non-matching inside the bucket.

    An empty side that keeps its schema gets the SQL answer (the other
    side's rows under 'left'/'full' where they survive, else no rows); a
    side with no schema, as a row-wise ``filter`` that kept nothing leaves,
    raises ``ValueError`` naming that side: its columns cannot be typed.

    Partitioning assumption: one key's rows fit in one bucket's memory —
    for a key hot enough to break that, fall back to ``broadcast_join`` for
    the small side of that key.  Reference analog: the record↔label merge
    over full tables
    (/root/reference/challenge2020/preprocess/preprocess-300hz.py:142-152)
    generalized to fact×fact scale.
    """
    if how not in ("inner", "left", "full"):
        raise ValueError(f"shuffle_join: how={how!r} not in ('inner', 'left', 'full')")
    left_cols = [c for c in left_cols if c != on]
    right_cols = [c for c in right_cols if c != on]
    # output name per right payload column (collision → suffix)
    right_out = {c: (c + suffix if c in left_cols else c) for c in right_cols}

    # Null join keys never match, so null-key RIGHT rows are dropped at the
    # projection unless how='full' keeps them, and null-key LEFT rows
    # survive only under how='left'/'full'; they hash through a
    # null-coalesced shadow key (__jk) so bucket assignment never casts a
    # null.  The right key takes the left key's type in the union.
    jk = "__jk"

    def project(batch: pa.Table, keep_null: bool, cols: dict[str, str]) -> pa.Table:
        key = batch.column(on)
        if not keep_null:
            valid = pc.is_valid(key)
            batch, key = batch.filter(valid), key.filter(valid)
        return pa.table({on: key, jk: pc.fill_null(key, _null_sentinel(key.type)),
                         **{out: batch.column(c) for c, out in cols.items()}})

    project_left = functools.partial(project, keep_null=how != "inner",
                                     cols={c: c for c in left_cols})
    project_right = functools.partial(project, keep_null=how == "full", cols=right_out)
    out_names = [on] + left_cols + [right_out[c] for c in right_cols]
    join_type = {"inner": "inner", "left": "left outer", "full": "full outer"}[how]

    def per_bucket(tbl: pa.Table) -> pa.Table:
        side = np.asarray(tbl.column(SIDE_COL).combine_chunks())
        lmask = side == 1
        ltbl = tbl.filter(pa.array(lmask)).select([on] + left_cols)
        rtbl = tbl.filter(pa.array(~lmask)).select([on] + [right_out[c] for c in right_cols])
        # Null-key rows were stripped at the projection except where
        # how='left'/'full' keeps them — Acero's outer joins emit those
        # unmatched (SQL null keys never match).
        joined = ltbl.join(rtbl, keys=[on], join_type=join_type)
        # deterministic per-bucket order (Acero join order is nondet)
        return joined.select(out_names).sort_by([(c, "ascending") for c in out_names])

    return co_partitioned_apply(left, right, project_left, project_right,
                                jk, [], per_bucket, num_buckets, **map_groups_kwargs)


# ---------------------------------------------------------------------------
# Broadcast range (band) join
# ---------------------------------------------------------------------------

def broadcast_range_join(
    big: Dataset,
    col: str,
    bands: pa.Table,
    lo: str = "lo",
    hi: str = "hi",
    how: str = "inner",
) -> Dataset:
    """Join each row to the band whose ``[lo, hi)`` interval contains
    ``row[col]`` — the range-predicate join Ray Data lacks (J2 analog for
    interval dimensions: price bands, age brackets, severity tiers).

    ``bands`` must be non-overlapping; it is validated once, sorted by
    ``lo``, broadcast once (`ray.put`), and every batch resolves membership
    with one `np.searchsorted` against the lo-edges plus an upper-bound
    check — O(n log b) per batch, no shuffle, no per-row Python.

    how='inner' drops rows outside every band; how='left' keeps them with
    null band attributes.  Band payload = all columns except lo/hi.
    """
    bands = bands.combine_chunks().sort_by([(lo, "ascending")])
    lo_v = np.asarray(bands.column(lo), dtype=np.float64)
    hi_v = np.asarray(bands.column(hi), dtype=np.float64)
    if np.any(hi_v <= lo_v) or np.any(lo_v[1:] < hi_v[:-1]):
        raise ValueError("broadcast_range_join: bands must be non-empty and non-overlapping")
    payload = [c for c in bands.column_names if c not in (lo, hi)]
    bands_ref = ray.put(bands)

    def band_batch(batch: pa.Table) -> pa.Table:
        btbl = ray.get(bands_ref)
        lo_e = np.asarray(btbl.column(lo), dtype=np.float64)
        hi_e = np.asarray(btbl.column(hi), dtype=np.float64)
        x_arr = batch.column(col).combine_chunks()
        x = np.asarray(x_arr.cast(pa.float64()))
        idx = np.searchsorted(lo_e, x, side="right") - 1
        valid = (idx >= 0) & np.asarray(pc.is_valid(x_arr))
        idx_c = np.clip(idx, 0, len(lo_e) - 1)
        valid &= x < hi_e[idx_c]
        if how == "inner":
            batch = batch.filter(pa.array(valid))
            take = pa.array(idx_c[valid], pa.int64())
        else:
            # null index → null gather (Arrow take semantics)
            take = pa.array(np.where(valid, idx_c, 0), pa.int64(), mask=~valid)
        for c in payload:
            batch = batch.append_column(c, btbl.column(c).combine_chunks().take(take))
        return batch

    return big.map_batches(band_batch, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# Per-entity interval (containment) join — big × big
# ---------------------------------------------------------------------------

def interval_join(
    left: Dataset,
    right: Dataset,
    key: str,
    left_ts: str,
    right_lo: str,
    right_hi: str,
    left_cols: list[str],
    right_cols: list[str],
    how: str = "inner",
    closed: str = "both",
    num_buckets: int = 64,
    suffix: str = "_r",
    **map_groups_kwargs,
) -> Dataset:
    """Attach to each left row the right-side interval containing its
    timestamp, per entity — the sessionized-segment lookup (which session
    does this event/feature-row belong to?) as a distributed operator.

    Both sides share ONE hash-bucket exchange on ``key``, the two-sided
    plan of :func:`~.partition.co_partitioned_apply` with each interval's
    ``lo`` as the left timestamp's order column (sorted by [key, time,
    side]); per entity segment the merge is a single `np.searchsorted` of
    left timestamps into the interval ``lo`` edges plus an upper-bound
    check — O((n+m) log m) per entity, no Python loop over rows.

    Contract: intervals of one entity must be NON-OVERLAPPING (validated,
    fail-loud — sessions/segments satisfy this by construction).  ``closed``
    ∈ {'both' ([lo, hi], session bounds = first/last event ts), 'left'
    ([lo, hi))}.  Null left timestamps and null interval bounds never match
    (SQL BETWEEN semantics); how='left' keeps unmatched left rows with null
    interval payload.  An empty side that keeps its schema gets the SQL
    answer (no intervals: no rows, or under 'left' every left row with a
    null payload); a side with no schema raises ``ValueError`` naming that
    side, as in :func:`shuffle_join`.

    Reference analog: assigning each beat/window back to its enclosing
    recording segment (extract_SHORT.py session rollups) — generalized to a
    two-input distributed join.
    """
    if how not in ("inner", "left"):
        raise ValueError(f"interval_join: how={how!r} not in ('inner', 'left')")
    if closed not in ("both", "left"):
        raise ValueError(f"interval_join: closed={closed!r} not in ('both', 'left')")
    left_cols = [c for c in left_cols if c != key]
    right_cols = [c for c in right_cols if c != key]
    right_out = {c: (c + suffix if c in left_cols or c == left_ts else c) for c in right_cols}

    ts_t = pa.timestamp("us")

    def project_left(batch: pa.Table) -> pa.Table:
        return pa.table({key: batch.column(key), "__t": batch.column(left_ts).cast(ts_t),
                         **{c: batch.column(c) for c in left_cols}})

    def project_right(batch: pa.Table) -> pa.Table:
        lo = batch.column(right_lo).cast(ts_t)
        hi = batch.column(right_hi).cast(ts_t)
        # null-bounded intervals can never contain anything — drop them here
        valid = pc.and_(pc.is_valid(lo), pc.is_valid(hi))
        batch, lo, hi = batch.filter(valid), lo.filter(valid), hi.filter(valid)
        return pa.table({key: batch.column(key), "__t": lo, "__hi": hi,
                         **{out: batch.column(c) for c, out in right_out.items()}})

    out_rcols = [right_out[c] for c in right_cols]

    def per_bucket(tbl: pa.Table) -> pa.Table:
        side = np.asarray(tbl.column(SIDE_COL).combine_chunks())
        t_all = np.asarray(tbl.column("__t").cast(pa.int64()).combine_chunks())
        hi_arr = tbl.column("__hi").cast(pa.int64()).combine_chunks()
        hi_all = np.asarray(hi_arr.fill_null(0))
        lt_valid = np.asarray(pc.is_valid(tbl.column("__t").combine_chunks()))
        starts, ends = entity_segments(tbl, key)

        take_left: list[np.ndarray] = []
        take_right: list[np.ndarray] = []
        keep_mask: list[np.ndarray] = []
        for s, e in zip(starts, ends):
            seg_side = side[s:e]
            l_loc = np.flatnonzero(seg_side == 1)
            if l_loc.size == 0:
                continue
            r_loc = np.flatnonzero(seg_side == 0)
            lts = t_all[s:e][l_loc]
            rlo = t_all[s:e][r_loc]
            rhi = hi_all[s:e][r_loc]
            if r_loc.size:
                if np.any(rhi < rlo) or np.any(rlo[1:] <= (rhi[:-1] if closed == "both" else rhi[:-1] - 1)):
                    raise ValueError(
                        f"interval_join: overlapping or inverted intervals for a key "
                        f"(bucket segment rows {s}:{e})"
                    )
                idx = np.searchsorted(rlo, lts, side="right") - 1
                safe = np.maximum(idx, 0)
                inside = (idx >= 0) & (
                    (lts <= rhi[safe]) if closed == "both" else (lts < rhi[safe])
                )
                inside &= lt_valid[s:e][l_loc]
            else:
                safe = np.zeros(l_loc.size, dtype=np.int64)
                inside = np.zeros(l_loc.size, dtype=bool)
            take_left.append(l_loc + s)
            take_right.append(np.where(inside, r_loc[safe] + s if r_loc.size else 0, -1))
            keep_mask.append(inside)

        li, ri, inside = (np.concatenate([np.zeros(0, t), *parts]) for t, parts in
                          ((np.int64, take_left), (np.int64, take_right), (bool, keep_mask)))
        if how == "inner":
            li, ri, inside = li[inside], ri[inside], inside[inside]
        out = tbl.select([key, "__t"] + left_cols).take(pa.array(li, pa.int64())) \
                 .rename_columns([key, left_ts] + left_cols)
        r_take = pa.array(np.where(inside, ri, 0), pa.int64(), mask=~inside)
        for c in out_rcols:
            out = out.append_column(c, tbl.column(c).take(r_take))
        return out.sort_by([(c, "ascending") for c in [key, left_ts] + left_cols])

    return co_partitioned_apply(left, right, project_left, project_right,
                                key, ["__t"], per_bucket, num_buckets, **map_groups_kwargs)
