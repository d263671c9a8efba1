"""``grouped_agg`` answers as DuckDB does on NaN, null and all-NaN groups
and on the null-key group, whether the rows arrive in one block, two or
three, and its merge step returns the declared schema on zero rows;
``global_agg`` answers as DuckDB does, zero rows included."""

import math

import duckdb
import pyarrow as pa
import pytest
import ray

from ecg_feature_engineering_ray.stages.groupagg import _final_agg, _partial_agg, global_agg, grouped_agg

NAN = float("nan")
SQL = {
    "sum": "sum(x)",
    "sum_cents": "sum(round(x * 100)) / 100",
    "mean": "avg(x)",
    "std": "stddev_samp(x)",
    "min": "min(x)",
    "max": "max(x)",
    "count": "count(x)",
    "count_distinct": "count(DISTINCT x)",
}
SPECS = {fn: ("x", fn) for fn in SQL} | {"rows": ("*", "count")}
# a: mixed NaN, b: all NaN, c: all null, e: NaN and null, d: plain numbers,
# None: a null key (one group, as in SQL).  Every group has a row in each of
# the two blocks; split three ways, the last two blocks hold some groups each.
BLOCK_1 = [("a", NAN), ("b", NAN), ("c", None), ("d", 1.0), ("e", NAN), (None, 2.0)]
BLOCK_2 = [("a", 3.0), ("b", NAN), ("c", None), ("d", 3.0), ("d", None), ("e", None), (None, 5.0)]


def _table(rows):
    return pa.table({"g": pa.array([g for g, _ in rows], pa.string()),
                     "x": pa.array([x for _, x in rows], pa.float64())})


def _same(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    if isinstance(want, float) and math.isnan(want):
        return isinstance(got, float) and math.isnan(got)
    return got == want


def _duckdb(fn: str, group: str, round_to):
    con = duckdb.connect()
    con.register("t", _table(BLOCK_1 + BLOCK_2))
    expr = SQL[fn] if round_to is None else f"ROUND({SQL[fn]}, {round_to})"
    where = "g IS NULL" if group is None else f"g = '{group}'"
    try:
        return con.sql(f"SELECT {expr} FROM t WHERE {where}").fetchone()[0]
    except duckdb.OutOfRangeException:
        # DuckDB refuses stddev_samp over a NaN; IEEE arithmetic gives NaN
        assert fn == "std"
        return NAN


@pytest.mark.parametrize("round_to", [None, 6])
@pytest.mark.parametrize("blocks", [[BLOCK_1 + BLOCK_2], [BLOCK_1, BLOCK_2], [BLOCK_1, BLOCK_2[:3], BLOCK_2[3:]]],
                         ids=["one_block", "two_blocks", "three_blocks"])
def test_grouped_agg_matches_duckdb_on_nan_and_null_groups(blocks, round_to):
    ds = ray.data.from_arrow([_table(b) for b in blocks])
    got = {r["g"]: r for r in grouped_agg(ds, ["g"], SPECS, round_to=round_to).take_all()}
    assert set(got) == {"a", "b", "c", "d", "e", None}
    bad = []
    for g, row in got.items():
        assert row["rows"] == sum(1 for b in blocks for k, _ in b if k == g)
        for fn in SQL:
            want = _duckdb(fn, g, round_to)
            if not _same(row[fn], want):
                bad.append(f"{g}.{fn}: got {row[fn]!r}, DuckDB {want!r}")
    assert not bad, bad


def test_grouped_agg_zero_rows_declared_schema():
    empty = _table([])
    con = duckdb.connect()
    con.register("t", empty)
    cols = ", ".join(f"{SQL[fn]} AS {fn}" for fn in SQL)
    want = con.sql(f"SELECT g, {cols}, count(*) AS rows FROM t GROUP BY g").arrow().schema
    full = _final_agg(_partial_agg(_table(BLOCK_1 + BLOCK_2), ["g"], SPECS), ["g"], SPECS)
    assert full.schema == want
    for batch in (empty, pa.Table.from_batches([], schema=empty.schema)):
        partial = _partial_agg(batch, ["g"], SPECS)
        assert partial.num_rows == 0
        assert partial.schema == _partial_agg(_table(BLOCK_1), ["g"], SPECS).schema
        out = _final_agg(partial, ["g"], SPECS)
        assert out.num_rows == 0 and out.schema == want
    assert grouped_agg(ray.data.from_arrow(empty), ["g"], SPECS).take_all() == []


@pytest.mark.parametrize("rows", [[r for r in BLOCK_1 + BLOCK_2 if r[0] == "d"], []],
                         ids=["plain_rows", "zero_rows"])
def test_global_agg_matches_duckdb(rows):
    con = duckdb.connect()
    con.register("t", _table(rows))
    cols = ", ".join(f"{SQL[fn]} AS {fn}" for fn in SQL)
    want = con.sql(f"SELECT {cols}, count(*) AS rows FROM t").arrow()
    got = global_agg(ray.data.from_arrow(_table(rows)), SPECS)
    assert got.schema == want.schema
    assert got.num_rows == 1
    bad = [f"{c}: got {got[c][0].as_py()!r}, DuckDB {want[c][0].as_py()!r}"
           for c in want.column_names if not _same(got[c][0].as_py(), want[c][0].as_py())]
    assert not bad, bad


def test_integer_min_max_partials_ship_only_their_own_column():
    """An integer min/max reads no NaN flags, so its partial table carries
    only the min/max column; a float source keeps its NaN bookkeeping."""
    tbl = pa.table({"g": pa.array(["a", "a", "b"]),
                    "i": pa.array([3, 1, 2], pa.int64()),
                    "x": pa.array([NAN, 1.0, 2.0], pa.float64())})
    specs = {"lo": ("i", "min"), "hi": ("i", "max"), "xlo": ("x", "min"), "xhi": ("x", "max")}
    partial = _partial_agg(tbl, ["g"], specs)
    assert partial.column_names == ["g", "__min:i", "__max:i", "__min:x", "__cnt:x", "__nan:x", "__max:x"]
    out = _final_agg(partial, ["g"], specs)
    assert out.to_pydict()["lo"] == [1, 2] and out.to_pydict()["hi"] == [3, 2]
    assert math.isnan(out["xhi"][0].as_py()) and out["xlo"].to_pylist() == [1.0, 2.0]
