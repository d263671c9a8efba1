"""The two-sided plan behind ``asof_join``, ``shuffle_join`` and
``interval_join``: a side that is empty without a schema is refused by
name, an empty side that keeps its schema gets the SQL answer, and a bucket
that holds only one side returns the operator's declared schema."""

import datetime as dt

import pyarrow as pa
import pytest
import ray

from ecg_feature_engineering_ray.stages.asof import asof_join
from ecg_feature_engineering_ray.stages.joins import interval_join, shuffle_join

T0 = dt.datetime(2024, 1, 1)


def _ts(minutes):
    return pa.array([T0 + dt.timedelta(minutes=m) for m in minutes], pa.timestamp("us"))


def _left(keys):
    n = len(keys)
    return pa.table({"k": pa.array(keys, pa.int64()), "ts": _ts(range(10, 10 + 10 * n, 10)),
                     "a": pa.array(range(n), pa.int64())})


def _right(keys):
    # with _left([1, 1, 2, 3]): key 1's first and key 2's query fall in an
    # interval, key 1 has one prior event and key 2 two
    return pa.table({"k": pa.array(keys, pa.int64()), "ts": _ts([5, 15, 25, 35]),
                     "lo": _ts([5, 25, 35, 0]), "hi": _ts([15, 30, 45, 9]),
                     "b": pa.array([0.0, 0.5, 1.0, 1.5], pa.float64())})


OPS = {
    "asof": lambda l, r: asof_join(l, r, "k", "ts", "ts",
                                   {"n": ("b", "count"), "last_b": ("b", "last")},
                                   left_cols=["a"], num_buckets=8),
    "shuffle_inner": lambda l, r: shuffle_join(l, r, "k", ["a"], ["b"], num_buckets=8),
    "shuffle_left": lambda l, r: shuffle_join(l, r, "k", ["a"], ["b"], how="left", num_buckets=8),
    "shuffle_full": lambda l, r: shuffle_join(l, r, "k", ["a"], ["b"], how="full", num_buckets=8),
    "interval_inner": lambda l, r: interval_join(l, r, "k", "ts", "lo", "hi", ["a"], ["b"],
                                                 num_buckets=8),
    "interval_left": lambda l, r: interval_join(l, r, "k", "ts", "lo", "hi", ["a"], ["b"],
                                                how="left", num_buckets=8),
}
# rows of the SQL answer when the other side is empty (schema kept)
ROWS_WITH_EMPTY_RIGHT = {"asof": 4, "shuffle_inner": 0, "shuffle_left": 4, "shuffle_full": 4,
                         "interval_inner": 0, "interval_left": 4}
ROWS_WITH_EMPTY_LEFT = {"asof": 0, "shuffle_inner": 0, "shuffle_left": 0, "shuffle_full": 4,
                        "interval_inner": 0, "interval_left": 0}


def _blocks(ds):
    return ray.get(ds.to_arrow_refs())


def _rows(ds) -> pa.Table | None:
    blocks = [b for b in _blocks(ds) if b.num_rows]
    return pa.concat_tables(blocks) if blocks else None


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("op", sorted(OPS))
def test_side_without_schema_is_refused_by_name(op, side):
    left = ray.data.from_arrow(_left([1, 1, 2, 3]))
    right = ray.data.from_arrow(_right([1, 2, 2, 4]))
    if side == "left":
        left = left.filter(lambda r: False)
    else:
        right = right.filter(lambda r: False)
    with pytest.raises(ValueError, match=f"the {side} side of the join is empty"):
        OPS[op](left, right)


@pytest.mark.parametrize("op", sorted(OPS))
def test_empty_side_with_schema_gets_sql_answer(op):
    left, right = _left([1, 1, 2, 3]), _right([1, 2, 2, 4])
    got = _rows(OPS[op](ray.data.from_arrow(left), ray.data.from_arrow(right.slice(0, 0))))
    assert (got.num_rows if got else 0) == ROWS_WITH_EMPTY_RIGHT[op]
    if got is not None:  # the empty side's columns are null; count is 0
        for c in ("b", "last_b"):
            if c in got.column_names:
                assert got.column(c).null_count == got.num_rows
        if "n" in got.column_names:
            assert got.column("n").to_pylist() == [0] * got.num_rows
    got = _rows(OPS[op](ray.data.from_arrow(left.slice(0, 0)), ray.data.from_arrow(right)))
    assert (got.num_rows if got else 0) == ROWS_WITH_EMPTY_LEFT[op]
    if got is not None:
        assert got.column("a").null_count == got.num_rows


@pytest.mark.parametrize("op", sorted(OPS))
def test_one_sided_bucket_returns_declared_schema(op):
    declared = _rows(OPS[op](ray.data.from_arrow(_left([1, 1, 2, 3])),
                             ray.data.from_arrow(_right([1, 2, 2, 4])))).schema
    # no key is on both sides, so every bucket holds one side only
    out = OPS[op](ray.data.from_arrow(_left([1, 1, 2, 3])),
                  ray.data.from_arrow(_right([5, 6, 6, 7])))
    shaped = [b for b in _blocks(out) if b.num_columns]
    assert shaped, "no bucket returned a table"
    for block in shaped:
        assert block.schema == declared
