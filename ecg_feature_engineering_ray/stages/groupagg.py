"""Distributed group-by aggregation with partial (combiner) pre-aggregation.

The scale pattern (SURVEY.md §7.3): aggregate INSIDE ``map_batches`` first so
only (groups × partial-columns) rows enter the shuffle, then the partial
rows are hash-bucketed on the first key by ``partition.grouped_sorted_apply``
(the exchange every per-entity stage shares) and merged by ONE call per
bucket — every row of a group shares its first key, so a group never spans
buckets.  At 100 TB the shuffle moves partial rows (≈ #groups × #blocks),
not data rows — the difference between an all-to-all of the table and of a
summary.  Output rows come bucket by bucket, sorted by ``keys`` within a
bucket only: a caller that reads rows in order sorts them itself.

Reference analog: all reference aggregations are single-process DataFrame
appends (/root/reference/extract_HRV.py:38); the partial/final split is the
Ray-native restatement.

Supported mergeable aggs: count, sum, sum_cents, min, max, mean, std
(sample, via sum/sumsq), plus count_distinct (exact, via per-batch distinct
sets — use only on bounded-cardinality columns).  Non-mergeable order
statistics (median, percentiles) belong in ``partition.grouped_sorted_apply``
instead.

Both steps are Arrow ``TableGroupBy`` aggregates driven by one table,
``_PARTS``: each fn names the partial columns it reads (min and max of a
floating column also read its NaN flags, ``_FLOAT_PARTS``), and each partial
column names its per-batch aggregate and its merge aggregate.  The result
follows SQL (DuckDB) semantics whatever the block layout: nulls are skipped
and a group with no non-null value gives null (count 0); NaN is a value —
count and count_distinct include it, and sum, sum_cents, mean and max of a
group holding a NaN are NaN, while min is NaN only when every non-null
value is NaN (NaN sorts above every number).  std over a NaN-bearing group
is NaN (DuckDB refuses it as out of range) and null below two values.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data import Dataset

from .partition import entity_segments, grouped_sorted_apply


def _as_f64(x):
    return pc.cast(x, pa.float64())


def _nan_flags(x):
    if pa.types.is_floating(x.type):
        return pc.cast(pc.is_nan(x), pa.int64())
    return pa.nulls(len(x), pa.int64())


# partial column → (its input from the source column, per-batch aggregate,
# merge aggregate).  "set" merges in _distinct_counts, not in the aggregate.
_PART = {
    "rows": (None, "count_all", "sum"),
    "cnt": (lambda x: x, "count", "sum"),
    "sum": (lambda x: x, "sum", "sum"),
    # integer-cents partial sums are exact in float64, so the result is
    # order-independent and bit-identical to a SQL oracle's
    "cents": (lambda x: pc.round(pc.multiply(_as_f64(x), 100.0)), "sum", "sum"),
    "sumsq": (lambda x: pc.multiply(_as_f64(x), _as_f64(x)), "sum", "sum"),
    "nan": (_nan_flags, "sum", "sum"),
    "min": (lambda x: x, "min", "min"),
    "max": (lambda x: x, "max", "max"),
    "set": (lambda x: x, "distinct", None),
}
# fn → the partial columns it reads
_PARTS = {
    "count": ("cnt",),
    "sum": ("sum",),
    "sum_cents": ("cents",),
    "mean": ("sum", "cnt"),
    "std": ("sum", "sumsq", "cnt"),
    "min": ("min",),
    "max": ("max",),
    "count_distinct": ("set",),
}
# fn → the partial columns it reads on top of _PARTS for a floating source:
# the NaN flags (and for min the count) that decide a NaN result
_FLOAT_PARTS = {"min": ("cnt", "nan"), "max": ("nan",)}


def _parts_of(specs: dict[str, tuple[str, str]], floating) -> list[tuple[str, str]]:
    """Distinct (part, source) pairs the specs read, in first-use order.
    ``floating(src, fn)`` tells whether the source column is floating."""
    out: dict[tuple[str, str], None] = {}
    for src, fn in specs.values():
        if fn not in _PARTS:
            raise ValueError(f"unsupported aggregate {fn!r}")
        parts = ("rows",) if fn == "count" and src == "*" else _PARTS[fn]
        if fn in _FLOAT_PARTS and floating(src, fn):
            parts += _FLOAT_PARTS[fn]
        for part in parts:
            out[(part, src)] = None
    return list(out)


def _col(part: str, src: str) -> str:
    return "__rows" if part == "rows" else f"__{part}:{src}"


def _group(tbl: pa.Table, keys: list[str], parts: list[tuple[str, str]], step: int) -> pa.Table:
    """One ``TableGroupBy`` over ``parts``: step 1 is the per-batch aggregate
    of the prepared inputs, step 2 the merge of the partial columns."""
    aggs = [([] if _PART[p][step] == "count_all" else _col(p, s), _PART[p][step])
            for p, s in parts]
    res = pa.TableGroupBy(tbl, keys, use_threads=False).aggregate(aggs)
    names = {("count_all" if a == "count_all" else f"{c}_{a}"): _col(p, s)
             for (c, a), (p, s) in zip(aggs, parts)}
    return res.rename_columns([names.get(c, c) for c in res.column_names]) \
              .select(keys + [_col(p, s) for p, s in parts])


def _partial_agg(batch: pa.Table, keys: list[str], specs: dict[str, tuple[str, str]]) -> pa.Table:
    """The per-batch step: one row per group of ``batch`` holding the
    partial columns of ``specs``."""
    parts = _parts_of(specs, lambda src, _: pa.types.is_floating(batch.schema.field(src).type))
    cols = {k: batch.column(k) for k in keys}
    for p, s in parts:
        if p != "rows":
            cols[_col(p, s)] = _PART[p][0](batch.column(s))
    return _group(pa.table(cols), keys, parts, 1)


def _distinct_counts(tbl: pa.Table, keys: list[str], col: str) -> pa.Array:
    """Per group (sorted by ``keys``) the number of distinct non-null values
    across the group's partial ``distinct`` lists."""
    lists = tbl.column(col).combine_chunks()
    vals = tbl.select(keys).take(pc.list_parent_indices(lists)) \
              .append_column("v", pc.list_flatten(lists))
    # one null-valued row per partial row keeps groups with empty lists
    blank = tbl.select(keys).append_column("v", pa.nulls(tbl.num_rows, vals.schema.field("v").type))
    res = pa.TableGroupBy(pa.concat_tables([vals, blank]), keys, use_threads=False) \
            .aggregate([("v", "count_distinct")])
    return res.sort_by([(k, "ascending") for k in keys]).column("v_count_distinct")


def _final_agg(tbl: pa.Table, keys: list[str], specs: dict[str, tuple[str, str]],
              round_to: int | None = None) -> pa.Table:
    """The merge step over partial rows (any number of groups, zero rows
    included): one row per group, ``keys`` then the ``specs`` columns."""
    # a min/max partial column keeps its source column's type
    parts = _parts_of(specs, lambda src, fn: pa.types.is_floating(tbl.schema.field(_col(fn, src)).type))
    merged = _group(tbl, keys, [(p, s) for p, s in parts if p != "set"], 2) \
        .sort_by([(k, "ascending") for k in keys])

    def part(p: str, s: str):
        if p == "set":
            return _distinct_counts(tbl, keys, _col(p, s))
        return merged.column(_col(p, s))

    out = {k: merged.column(k) for k in keys}
    for name, (src, fn) in specs.items():
        if fn == "count":
            v = part("rows" if src == "*" else "cnt", src)
        elif fn == "sum":
            v = part("sum", src)
        elif fn == "sum_cents":
            v = pc.divide(part("cents", src), 100.0)
        elif fn == "mean":
            v = pc.divide(_as_f64(part("sum", src)), _as_f64(part("cnt", src)))
        elif fn == "std":
            n = _as_f64(part("cnt", src))
            s = _as_f64(part("sum", src))
            var = pc.subtract(part("sumsq", src), pc.divide(pc.multiply(s, s), n))
            var = pc.if_else(pc.less(var, 0.0), 0.0, var)  # keeps NaN
            v = pc.if_else(pc.greater(n, 1.0),
                           pc.sqrt(pc.divide(var, pc.subtract(n, 1.0))), None)
        elif fn in ("min", "max"):
            v = part(fn, src)
            if pa.types.is_floating(v.type):
                nan = part("nan", src)
                only_nan = pc.greater(nan, 0) if fn == "max" else \
                    pc.and_(pc.greater(nan, 0), pc.equal(nan, part("cnt", src)))
                v = pc.if_else(only_nan, float("nan"), v)
        else:  # count_distinct
            v = part("set", src)
        if round_to is not None and pa.types.is_floating(v.type):
            v = pc.round(v, round_to, round_mode="half_towards_infinity")
        out[name] = v
    return pa.table(out)


def grouped_agg(
    ds: Dataset,
    keys: list[str],
    specs: dict[str, tuple[str, str]],
    round_to: int | None = None,
) -> Dataset:
    """Grouped aggregation: out_name → (source_col, fn).

    fn ∈ {count, sum, sum_cents, mean, min, max, std, count_distinct}.
    ``count`` with source '*' counts rows; empty ``specs`` gives the
    distinct ``keys``.  A null key is one group, as in SQL.  ``round_to``
    rounds float outputs half away from zero, as SQL ROUND does
    (oracle-hash stability).  Row order is not defined.
    """
    partials = ds.map_batches(_partial_agg, fn_args=(keys, specs),
                              batch_format="pyarrow", zero_copy_batch=True)
    # 4 buckets per CPU: the top of partition.py's 2-4x range, so the merge
    # tasks keep every CPU busy while each stays small
    nb = max(1, int(4 * ray.cluster_resources().get("CPU", 1)))
    return grouped_sorted_apply(partials, keys[0], keys[1:], functools.partial(
        _final_agg, keys=keys, specs=specs, round_to=round_to), nb)


def per_group_top_k(
    ds: Dataset,
    group: str,
    order_by: list[str],
    k: int,
    num_buckets: int,
    rank_name: str = "rank",
) -> Dataset:
    """Per-group top-k: the k lexicographically-smallest rows of ``order_by``
    within each ``group``, plus a 1-based ``rank_name`` column.

    Mergeable the same way a KMV sketch is: each block pre-prunes to ≤k rows
    per group inside ``map_batches`` (vectorized lexsort + segment-position
    mask, no Python per-group loop), so the exchange carries
    O(groups-per-block × k) rows regardless of input size; the final pass is
    one ``grouped_sorted_apply`` taking the first k of each sorted segment.
    Descending order = negate the key column before calling.  This is the
    spine for both per-domain contribution caps (order by a deterministic
    row hash) and per-group best-k selection (order by a score).

    Reference analog: the reference selects its top-300 features by
    importance with a driver-local ``np.argsort(-fea_)[:300]``
    (/root/reference/xgboost_clf.py:244); this is that selection restated
    per-group as a distributed mergeable operator.
    """
    def prune(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return batch
        gc = np.asarray(batch.column(group).combine_chunks().dictionary_encode().indices)
        keys = [np.asarray(batch.column(c).combine_chunks()) for c in order_by]
        # np.lexsort: LAST key is primary → (tie_n … tie_1, primary, group)
        order = np.lexsort(tuple(reversed(keys)) + (gc,))
        sg = gc[order]
        starts = np.flatnonzero(np.concatenate(([True], sg[1:] != sg[:-1])))
        seg_id = np.cumsum(np.concatenate(([False], sg[1:] != sg[:-1])))
        pos = np.arange(n) - starts[seg_id]
        return batch.take(pa.array(order[pos < k]))

    pruned = ds.map_batches(prune, batch_format="pyarrow", zero_copy_batch=True)

    def head_k(tbl: pa.Table) -> pa.Table:
        starts, ends = entity_segments(tbl, group)
        n = tbl.num_rows
        pos = np.arange(n) - np.repeat(
            np.asarray(starts, dtype=np.int64),
            np.asarray(ends, dtype=np.int64) - np.asarray(starts, dtype=np.int64),
        )
        mask = pos < k
        out = tbl.filter(pa.array(mask))
        return out.append_column(rank_name, pa.array(pos[mask] + 1, pa.int64()))

    return grouped_sorted_apply(pruned, group, order_by, head_k, num_buckets)


def global_agg(ds: Dataset, specs: dict[str, tuple[str, str]]) -> pa.Table:
    """Whole-dataset aggregate (no keys) via the same partial pattern.

    Returns a one-row Arrow table (small result — driver-side merge is fine;
    reference analog: the global min-length scan, /root/reference/utils.py:43-56).
    Over zero rows that row is SQL's: count and count_distinct 0, every
    other aggregate null, typed as the merge types it (the input's schema is
    read for that, and an empty input without one raises ``ValueError``).
    """
    def one_group(b: pa.Table) -> pa.Table:
        return b.append_column("__g", pa.array(np.zeros(b.num_rows, np.int8)))

    out = grouped_agg(ds.map_batches(one_group, batch_format="pyarrow", zero_copy_batch=True),
                      ["__g"], specs)
    parts = [t for t in ray.get(out.to_arrow_refs()) if t.num_rows]
    if parts:
        return pa.concat_tables(parts).combine_chunks().drop_columns(["__g"])
    schema = ds.schema()
    if schema is None:
        raise ValueError("global_agg: the input is empty and carries no schema")
    empty = _final_agg(_partial_agg(one_group(schema.base_schema.empty_table()), ["__g"], specs),
                       ["__g"], specs)
    return pa.table({name: pa.array([0 if specs[name][1] in ("count", "count_distinct") else None],
                                    empty.schema.field(name).type)
                     for name in specs})
