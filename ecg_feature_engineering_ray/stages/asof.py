"""As-of (point-in-time) join — the engine's core new operator.

Semantics (SURVEY.md §2.5 J3): for every left row (entity, as_of_ts) produce
aggregates / the last value over the right rows of the same entity with
``ts <= as_of_ts`` (inclusive tie), and NULLs when no such row exists —
**zero temporal leakage** by construction.

Physical plan (Ray-Data-first): both joins are one
:func:`~.partition.co_partitioned_apply` plan.

1. each side projects key + ``__ts`` + the columns it needs (images'
   ``bytes`` never enter the shuffle); the plan tags ``__side`` (0 =
   right/events, 1 = left/queries), null-pads the other side's columns and
   unions the sides, so both move through ONE hash-bucket shuffle,
   co-partitioned, sorted by (entity, ts, side) inside each bucket;
2. inside the bucket (:func:`asof_merge_table`), loop entity segments
   (vectorized numpy within): ``searchsorted(event_ts, query_ts,
   side='right')`` gives each query its event-prefix length; prefix cumsums
   / running extrema (:func:`~..functions.stats.prefix_agg`) answer count,
   sum, mean, min, max, last in O(rows); an optional ``point_fn`` computes
   an arbitrary feature vector per query from the entity's events and the
   prefix lengths of all its queries in ONE call.  The flagship's
   ``point_fn`` (:func:`~..pipelines.features.pit_feature_matrix`) answers
   every query from one pass over the entity's events: prefix statistics
   of the same ``prefix_agg`` kind for most columns and one pair pass for
   the SampEn columns, so an entity costs about its SampEn pairs plus a
   vectorized q·n term (zero crossings and central moments in 2-D
   blocks), not q·n numpy calls.

The reference's analog is implicit — every feature row is "features of the
entity as of end-of-record" (/root/reference/challenge2020/get_model.py:29-48
aligned with /root/reference/xgboost_clf.py:12-15 by row position); here the
as-of point is explicit and arbitrary.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np
import pyarrow as pa

from ray.data import Dataset

from ..functions.stats import prefix_agg
from .partition import SIDE_COL, co_partitioned_apply, entity_segments

SUPPORTED_AGGS = ("count", "sum", "mean", "min", "max", "last",
                  "wcount", "wsum", "wmean", "wmin", "wmax")


def _range_extrema(v: np.ndarray, lo: np.ndarray, hi: np.ndarray, kind: str) -> np.ndarray:
    """Vectorized range min/max over ``v`` for query windows ``[lo, hi)``.

    Sparse-table RMQ: O(n log n) precompute, O(1) per query, no Python loop
    over queries (only over the ≤ log2(n) distinct window-size classes).
    All windows must be non-empty (``hi > lo``) — caller masks empties.
    """
    op = np.minimum if kind == "min" else np.maximum
    n = v.size
    st = [v]
    k = 1
    while (1 << k) <= n:
        half = 1 << (k - 1)
        prev = st[-1]
        m = n - (1 << k) + 1
        st.append(op(prev[:m], prev[half : half + m]))
        k += 1
    w = (hi - lo).astype(np.float64)
    ks = np.frexp(w)[1] - 1  # floor(log2(width)), width >= 1
    out = np.empty(lo.size, dtype=v.dtype)
    for kk in np.unique(ks):
        mask = ks == kk
        t = st[kk]
        out[mask] = op(t[lo[mask]], t[hi[mask] - (1 << int(kk))])
    return out


def _as_numpy(col: pa.ChunkedArray) -> np.ndarray:
    """Native-dtype numpy view of a numeric/timestamp column (no precision loss)."""
    if pa.types.is_timestamp(col.type):
        return np.asarray(col.cast(pa.int64()).combine_chunks())
    arr = col.combine_chunks()
    if arr.null_count:
        return np.asarray(arr.fill_null(0))
    return np.asarray(arr)


def asof_merge_table(
    tbl: pa.Table,
    key: str,
    ts_col: str,
    aggs: dict[str, tuple[str, str]],
    left_cols: list[str],
    point_fn: Callable[[dict[str, np.ndarray], np.ndarray], np.ndarray] | None = None,
    point_out: list[str] | None = None,
    value_cols: list[str] | None = None,
    window_us: int | None = None,
) -> pa.Table:
    """Monotone merge over ONE bucket table sorted by (key, ts, side).

    ``aggs`` maps out_name → (right_value_col, fn) with fn in
    ``SUPPORTED_AGGS``; the ``w*`` variants aggregate over the BOUNDED
    lookback ``[as_of − window_us, as_of]`` instead of the whole prefix
    (SQL analog: range-predicated join).  ``point_fn`` (optional) is called
    once per entity with its ts-ordered event arrays {"ts", value col →
    values} and ``pos``, the event-prefix length of each of its queries
    (query q sees ``events[:pos[q]]``); it returns a ``(len(pos),
    len(point_out))`` float matrix, one row per query in ``pos`` order.
    """
    side = np.asarray(tbl.column(SIDE_COL).combine_chunks())
    ts = np.asarray(tbl.column(ts_col).cast(pa.int64()).combine_chunks())
    needed = sorted({src for src, _ in aggs.values()} | set(value_cols or []))
    vals = {c: _as_numpy(tbl.column(c)) for c in needed}
    # output dtype per agg: exact (source dtype) for last/min/max, float64 otherwise
    def _out_type(src: str, fn: str) -> pa.DataType:
        if fn in ("last", "min", "max", "wmin", "wmax"):
            t = tbl.schema.field(src).type
            return pa.int64() if (pa.types.is_integer(t) or pa.types.is_timestamp(t)) else pa.float64()
        return pa.int64() if fn in ("count", "wcount") else pa.float64()

    starts, ends = entity_segments(tbl, key)
    out_left_idx: list[np.ndarray] = []
    agg_out: dict[str, list[np.ndarray]] = {name: [] for name in aggs}
    agg_valid: dict[str, list[np.ndarray]] = {name: [] for name in aggs}
    point_rows: list[np.ndarray] = []

    for s, e in zip(starts, ends):
        seg_side = side[s:e]
        q_local = np.flatnonzero(seg_side == 1)
        if q_local.size == 0:
            continue
        ev_local = np.flatnonzero(seg_side == 0)
        ev_ts = ts[s:e][ev_local]
        q_ts = ts[s:e][q_local]
        pos = np.searchsorted(ev_ts, q_ts, side="right")
        pos_lo = (
            np.searchsorted(ev_ts, q_ts - window_us, side="left")
            if window_us is not None
            else np.zeros_like(pos)
        )
        out_left_idx.append(q_local + s)
        has = pos > 0
        whas = pos > pos_lo

        ev_vals = {c: vals[c][s:e][ev_local] for c in needed}
        for name, (src, fn) in aggs.items():
            v = ev_vals[src]
            valid = has
            if fn == "count":
                res = pos.astype(np.int64)
                valid = np.ones_like(has)
            elif fn == "wcount":
                res = (pos - pos_lo).astype(np.int64)
                valid = np.ones_like(has)
            elif fn in ("wsum", "wmean"):
                hi, lo = prefix_agg(v, np.stack([pos, pos_lo]), "sum")
                res = hi - lo
                valid = whas
                if fn == "wmean":
                    with np.errstate(invalid="ignore", divide="ignore"):
                        res = np.where(whas, res / np.maximum(pos - pos_lo, 1), np.nan)
            elif fn in ("wmin", "wmax"):
                # vectorized windowed extrema via sparse-table RMQ
                res = np.zeros(pos.size, dtype=v.dtype if v.size else np.float64)
                valid = whas.copy()
                if v.size and whas.any():
                    qi = np.flatnonzero(whas)
                    res[qi] = _range_extrema(
                        v, pos_lo[qi], pos[qi], "min" if fn == "wmin" else "max"
                    )
            elif fn in ("sum", "mean", "min", "max"):
                res = prefix_agg(v, pos, fn)
            elif fn == "last":
                res = v[np.maximum(pos - 1, 0)] if v.size else np.zeros(pos.size, dtype=v.dtype)
            else:
                raise ValueError(f"unsupported agg fn {fn!r}")
            agg_out[name].append(res)
            agg_valid[name].append(valid)

        if point_fn is not None:
            point_rows.append(np.asarray(point_fn({**ev_vals, "ts": ev_ts}, pos), dtype=np.float64))

    if not out_left_idx:
        empty_cols: dict[str, pa.Array] = {}
        for c in left_cols:
            empty_cols[c] = pa.array([], tbl.schema.field(c).type)
        for name, (src, fn) in aggs.items():
            empty_cols[name] = pa.array([], _out_type(src, fn))
        for name in point_out or []:
            empty_cols[name] = pa.array([], pa.float64())
        return pa.table(empty_cols)

    take = pa.array(np.concatenate(out_left_idx))
    out = {c: tbl.column(c).take(take) for c in left_cols}
    for name, (src, fn) in aggs.items():
        res = np.concatenate(agg_out[name])
        valid = np.concatenate(agg_valid[name])
        typ = _out_type(src, fn)
        if pa.types.is_int64(typ):
            out[name] = pa.array(res.astype(np.int64), pa.int64(), mask=~valid)
        else:
            out[name] = pa.array(
                np.where(valid, res.astype(np.float64), np.nan), pa.float64(), mask=~valid
            )
    if point_fn is not None and point_rows:
        mat = np.vstack(point_rows)
        for j, name in enumerate(point_out or []):
            out[name] = pa.array(mat[:, j], pa.float64())
    return pa.table(out)


def _project(batch: pa.Table, key: str, ts_col: str, cols: list[str],
             mask: Callable | None = None, exprs: dict | None = None) -> pa.Table:
    """One as-of side's columns: ``key``, ``ts_col`` as ``__ts`` and
    ``cols`` (each from ``exprs`` when it names it), over the rows of
    ``mask``."""
    if mask is not None:
        batch = batch.filter(mask(batch))
    exprs = exprs or {}
    return pa.table({key: batch.column(key), "__ts": batch.column(ts_col).cast(pa.timestamp("us")),
                     **{c: exprs[c](batch) if c in exprs else batch.column(c) for c in cols}})


def asof_bucket_fn(
    key: str,
    ts_name: str,
    aggs: dict[str, tuple[str, str]],
    left_cols: list[str],
    **merge_kw,
) -> Callable[[pa.Table], pa.Table]:
    """The per-bucket as-of merge of a two-sided plan: :func:`asof_merge_table`
    over the union's ``__ts`` order column, which comes back as ``ts_name``.
    ``merge_kw`` are its ``point_fn``, ``point_out``, ``value_cols`` and
    ``window_us``."""
    out_cols = [key, "__ts"] + [c for c in left_cols if c not in (key, "__ts")]

    def per_bucket(tbl: pa.Table) -> pa.Table:
        merged = asof_merge_table(tbl, key, "__ts", aggs, out_cols, **merge_kw)
        return merged.rename_columns(
            [ts_name if c == "__ts" else c for c in merged.column_names]
        )

    return per_bucket


def asof_join(
    left: Dataset,
    right: Dataset,
    key: str,
    left_ts: str,
    right_ts: str,
    aggs: dict[str, tuple[str, str]],
    left_cols: list[str],
    num_buckets: int = 64,
    point_fn: Callable | None = None,
    point_out: list[str] | None = None,
    value_cols: list[str] | None = None,
    window_us: int | None = None,
) -> Dataset:
    """Distributed point-in-time join of two Datasets (see module docstring).

    An empty side that keeps its schema gets the SQL answer (no left rows:
    no output; no right rows: count 0 and null aggregates).  A side with no
    schema, as a row-wise ``filter`` that kept nothing leaves, raises
    ``ValueError`` naming that side: its columns cannot be typed."""
    needed_right = sorted({src for src, _ in aggs.values()} | set(value_cols or []))
    per_bucket = asof_bucket_fn(key, left_ts, aggs, left_cols, point_fn=point_fn,
                                point_out=point_out, value_cols=value_cols, window_us=window_us)
    return co_partitioned_apply(
        left, right,
        functools.partial(_project, key=key, ts_col=left_ts, cols=left_cols),
        functools.partial(_project, key=key, ts_col=right_ts, cols=needed_right),
        key, ["__ts"], per_bucket, num_buckets,
    )


def asof_self_join(
    ds: Dataset,
    key: str,
    ts_col: str,
    left_mask: Callable[[pa.Table], pa.Array],
    right_mask: Callable[[pa.Table], pa.Array],
    aggs: dict[str, tuple[str, str]],
    left_cols: list[str],
    right_exprs: "dict[str, Callable[[pa.Table], pa.Array]] | None" = None,
    num_buckets: int = 64,
    window_us: int | None = None,
) -> Dataset:
    """Point-in-time join of a stream AGAINST ITSELF — one read, one pass.

    The common "features of event X over the same stream's prior history"
    shape (e.g. each error event over prior non-error events) would pay two
    filtered scans through :func:`asof_join`; here both sides are projected
    out of each input batch in a SINGLE ``map_batches`` (the self-join form
    of :func:`~.partition.co_partitioned_apply`) so the source is read once.
    ``left_mask``/``right_mask`` select the query/event rows;
    ``right_exprs`` derive extra value columns (name → fn(right_rows) →
    Array), e.g. exact integer cents.  Same merge semantics as
    :func:`asof_join`; an empty ``ds`` gives no rows.
    """
    agg_srcs = sorted({src for src, _ in aggs.values()})
    return co_partitioned_apply(
        ds, None,
        functools.partial(_project, key=key, ts_col=ts_col, cols=left_cols, mask=left_mask),
        functools.partial(_project, key=key, ts_col=ts_col, cols=agg_srcs, mask=right_mask,
                          exprs=right_exprs),
        key, ["__ts"], asof_bucket_fn(key, ts_col, aggs, left_cols, window_us=window_us),
        num_buckets,
    )
