"""Driver-gate query battery: Ray pipelines + matching DuckDB oracle SQL.

Every SURVEY.md §2 operator family has at least one entry here; each entry is
a callable ``fn(sf_dir) -> Dataset | pa.Table | pd.DataFrame`` plus (when
SQL-expressible) an ANSI-SQL string producing the SAME column names and
values on the same parquet tables.  Float outputs are rounded half-away-from-
zero to 6 decimals on BOTH sides so value-hashes compare.

Registry:  ``QUERIES`` / ``ORACLE`` — consumed by ``__ray_entry__``.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys
from typing import Any, Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..functions import text as T
from ..functions.hashing import md5_keys, popcount64
from ..functions.stats import percentiles
from ..sources.readers import read_table
from ..stages.asof import asof_self_join
from ..stages.groupagg import global_agg, grouped_agg, per_group_top_k
from ..stages.joins import broadcast_join, broadcast_range_join, interval_join, shuffle_join
from ..stages.partition import entity_segments, grouped_sorted_apply
from ..stages.session import session_segments
from ..stages.window import _row_entity_start, _row_entity_end, lag_column, lead_column, rolling_mean, prefix_mean

QUERIES: dict[str, Callable[[str], Any]] = {}
ORACLE: dict[str, str] = {}

NB = 16  # bucket count for test-scale runs (∝ CPUs in production)
SESSION_GAP_S = 3600
SKIPLIST = list(range(1, 35))  # ≙ index2del (preprocess-300hz.py:93-95)


def rnd(x: np.ndarray | float, nd: int = 6):
    """Round half-away-from-zero — matches DuckDB/SQL ROUND semantics
    (numpy's round is half-even, which would diverge on exact ties)."""
    return np.copysign(np.floor(np.abs(x) * 10.0**nd + 0.5) / 10.0**nd, x)


def _guard_oracle_cap(value: int, cap: int, what: str) -> None:
    """Fail LOUDLY when input exceeds a constant bound baked into an oracle's
    SQL (DuckDB ``range()`` cannot take lateral column bounds, so some
    oracles scan a fixed prefix).  Silent divergence would show up as an
    unexplained hash mismatch on a bigger fixture; raising here names the
    actual contract instead."""
    if value > cap:
        raise ValueError(
            f"{what} = {value} exceeds the oracle's constant scan bound {cap}: "
            "enlarge the SQL range() literal alongside this guard"
        )


def register(name: str, sql: str | None = None):
    def deco(fn):
        QUERIES[name] = fn
        if sql is not None:
            ORACLE[name] = sql
        return fn
    return deco


def _events(sf_dir: str, cols: list[str]):
    return read_table(sf_dir, "events", columns=cols)


# ---------------------------------------------------------------------------
# §2.4 grouped per-entity statistics over the event stream
# ---------------------------------------------------------------------------

@register(
    "user_value_stats",
    """
    SELECT user_id,
           count(*) AS n_events,
           ROUND(avg(ROUND(value * 100)) / 100, 6) AS mean_value,
           ROUND(stddev_samp(value), 6) AS std_value,
           ROUND(min(value), 6) AS min_value,
           ROUND(max(value), 6) AS max_value,
           ROUND(quantile_cont(value, 0.5), 6) AS median_value,
           ROUND(quantile_cont(value, 0.25), 6) AS p25_value,
           ROUND(quantile_cont(value, 0.75), 6) AS p75_value
    FROM events GROUP BY user_id
    """,
)
def user_value_stats(sf_dir: str):
    """A1/A2 analog: order statistics per entity (HRV_features.py:92-153,
    LONG_features.py:35-104) — exact percentiles need entity-local data, so
    this runs on the bucket spine, one shuffle."""
    ds = _events(sf_dir, ["user_id", "ts", "event_id", "value"])

    def per_bucket(tbl: pa.Table) -> pa.Table:
        starts, ends = entity_segments(tbl, "user_id")
        users = np.asarray(tbl.column("user_id").combine_chunks())
        v = np.asarray(tbl.column("value").combine_chunks(), dtype=np.float64)
        rows = []
        for s, e in zip(starts, ends):
            x = v[s:e]
            q = percentiles(x, [25, 50, 75])
            # mean over integer cents: order-independent exact sum → the
            # rounded result is bit-identical to the SQL oracle's
            mean_c = np.rint(x * 100).mean() / 100
            rows.append(
                (int(users[s]), e - s, mean_c, x.std(ddof=1) if x.size > 1 else np.nan,
                 x.min(), x.max(), q[1], q[0], q[2])
            )
        arr = list(zip(*rows)) if rows else [[]] * 9
        return pa.table(
            {
                "user_id": pa.array(arr[0], pa.int64()),
                "n_events": pa.array(arr[1], pa.int64()),
                "mean_value": pa.array(rnd(np.array(arr[2], dtype=np.float64))),
                "std_value": pa.array(rnd(np.array(arr[3], dtype=np.float64))),
                "min_value": pa.array(rnd(np.array(arr[4], dtype=np.float64))),
                "max_value": pa.array(rnd(np.array(arr[5], dtype=np.float64))),
                "median_value": pa.array(rnd(np.array(arr[6], dtype=np.float64))),
                "p25_value": pa.array(rnd(np.array(arr[7], dtype=np.float64))),
                "p75_value": pa.array(rnd(np.array(arr[8], dtype=np.float64))),
            }
        )

    return grouped_sorted_apply(ds, "user_id", ["ts", "event_id"], per_bucket, NB)


# lag-diff chain ≙ RR/dRR intervals (HRV_features.py:106-107).
# Integer-microsecond arithmetic end-to-end: sums of exact int64 are
# order-independent in float64, so Ray and DuckDB produce bit-identical
# means before the final ROUND (float-tie robustness).
RR_SQL = """
WITH d AS (
  SELECT user_id, ts, event_id,
         epoch_us(ts) - lag(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS dt_us
  FROM events
), d2 AS (
  SELECT user_id, ts, event_id, dt_us,
         dt_us - lag(dt_us) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS ddt_us
  FROM d
)
SELECT user_id,
       count(dt_us) AS n_intervals,
       ROUND(avg(dt_us) / 1e6, 6) AS mean_dt_s,
       ROUND(stddev_samp(dt_us) / 1e6, 6) AS sdnn_s,
       ROUND(min(dt_us) / 1e6, 6) AS min_dt_s,
       ROUND(max(dt_us) / 1e6, 6) AS max_dt_s,
       ROUND(sqrt(avg(CAST(ddt_us AS DOUBLE) * CAST(ddt_us AS DOUBLE))) / 1e6, 6) AS rmssd_s,
       ROUND(CAST(count(*) FILTER (WHERE abs(ddt_us) > 60000000) AS DOUBLE)
             / NULLIF(count(ddt_us), 0), 6) AS pnn60
FROM d2 GROUP BY user_id
"""


def _rr_interval_stats(sf_dir: str):
    ds = _events(sf_dir, ["user_id", "ts", "event_id"])

    def per_bucket(tbl: pa.Table) -> pa.Table:
        starts, ends = entity_segments(tbl, "user_id")
        users = np.asarray(tbl.column("user_id").combine_chunks())
        ts_us = np.asarray(tbl.column("ts").cast(pa.int64()).combine_chunks())
        rows = []
        for s, e in zip(starts, ends):
            dt = np.diff(ts_us[s:e]).astype(np.float64)  # exact int64 → float64
            ddt = np.diff(dt)
            n = dt.size
            rows.append(
                (int(users[s]), n,
                 dt.mean() / 1e6 if n else np.nan,
                 dt.std(ddof=1) / 1e6 if n > 1 else np.nan,
                 dt.min() / 1e6 if n else np.nan,
                 dt.max() / 1e6 if n else np.nan,
                 np.sqrt(np.mean(ddt**2)) / 1e6 if ddt.size else np.nan,
                 float(np.count_nonzero(np.abs(ddt) > 60e6)) / ddt.size if ddt.size else np.nan)
            )
        arr = list(zip(*rows)) if rows else [[]] * 8
        names = ["user_id", "n_intervals", "mean_dt_s", "sdnn_s", "min_dt_s", "max_dt_s", "rmssd_s", "pnn60"]
        cols: dict[str, pa.Array] = {
            "user_id": pa.array(arr[0], pa.int64()),
            "n_intervals": pa.array(arr[1], pa.int64()),
        }
        for i, nm in enumerate(names[2:], start=2):
            cols[nm] = pa.array(rnd(np.array(arr[i], dtype=np.float64)))
        return pa.table(cols)

    return grouped_sorted_apply(ds, "user_id", ["ts", "event_id"], per_bucket, NB)


QUERIES["rr_interval_stats"] = _rr_interval_stats
ORACLE["rr_interval_stats"] = RR_SQL


# ---------------------------------------------------------------------------
# §2.3 sessionization (E6)
# ---------------------------------------------------------------------------

SESSION_SQL_CTE = f"""
WITH flags AS (
  SELECT user_id, ts, event_id, value,
         CASE WHEN epoch(ts) - epoch(lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id))
                   > {SESSION_GAP_S} OR lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) IS NULL
              THEN 1 ELSE 0 END AS brk
  FROM events
), sess AS (
  SELECT user_id, ts, event_id, value,
         CAST(sum(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                        ROWS UNBOUNDED PRECEDING) - 1 AS BIGINT) AS session_id
  FROM flags
)
"""


@register(
    "session_table",
    SESSION_SQL_CTE
    + """
    SELECT user_id, session_id,
           count(*) AS n_events,
           min(ts) AS session_start,
           max(ts) AS session_end,
           ROUND(sum(ROUND(value * 100)) / 100, 6) AS sum_value
    FROM sess GROUP BY user_id, session_id
    """,
)
def session_table(sf_dir: str):
    ds = _events(sf_dir, ["user_id", "ts", "event_id", "value"])

    def per_bucket(tbl: pa.Table) -> pa.Table:
        starts, ends = session_segments(tbl, "user_id", "ts", gap_us=SESSION_GAP_S * 1_000_000)
        users = np.asarray(tbl.column("user_id").combine_chunks())
        ts = np.asarray(tbl.column("ts").cast(pa.int64()).combine_chunks())
        # integer cents → exact, order-independent sums (matches the oracle's
        # sum(ROUND(value*100))/100; round-1 float-parity lesson)
        vc = np.rint(np.asarray(tbl.column("value").combine_chunks(), dtype=np.float64) * 100)
        uid, sid, n_ev, t0, t1, sv = [], [], [], [], [], []
        cur_user, cur_sid = None, -1
        for s, e in zip(starts, ends):
            u = int(users[s])
            if u != cur_user:
                cur_user, cur_sid = u, 0
            else:
                cur_sid += 1
            uid.append(u)
            sid.append(cur_sid)
            n_ev.append(e - s)
            t0.append(int(ts[s]))
            t1.append(int(ts[e - 1]))
            sv.append(vc[s:e].sum() / 100.0)
        return pa.table(
            {
                "user_id": pa.array(uid, pa.int64()),
                "session_id": pa.array(sid, pa.int64()),
                "n_events": pa.array(n_ev, pa.int64()),
                "session_start": pa.array(t0, pa.timestamp("us")),
                "session_end": pa.array(t1, pa.timestamp("us")),
                "sum_value": pa.array(rnd(np.array(sv, dtype=np.float64))),
            }
        )

    return grouped_sorted_apply(ds, "user_id", ["ts", "event_id"], per_bucket, NB)


@register(
    "session_stats",
    SESSION_SQL_CTE
    + """
    , per_sess AS (
      SELECT user_id, session_id, count(*) AS n FROM sess GROUP BY user_id, session_id
    )
    SELECT user_id,
           count(*) AS n_sessions,
           max(n) AS max_session_events,
           ROUND(avg(n), 6) AS mean_session_events
    FROM per_sess GROUP BY user_id
    """,
)
def session_stats(sf_dir: str):
    ds = _events(sf_dir, ["user_id", "ts", "event_id"])

    def per_bucket(tbl: pa.Table) -> pa.Table:
        starts, ends = session_segments(tbl, "user_id", "ts", gap_us=SESSION_GAP_S * 1_000_000)
        users = np.asarray(tbl.column("user_id").combine_chunks())
        su = users[starts]
        lens = ends - starts
        uid, nses, mx, mean = [], [], [], []
        for u in np.unique(su):
            m = su == u
            uid.append(int(u))
            nses.append(int(m.sum()))
            mx.append(int(lens[m].max()))
            mean.append(float(lens[m].mean()))
        return pa.table(
            {
                "user_id": pa.array(uid, pa.int64()),
                "n_sessions": pa.array(nses, pa.int64()),
                "max_session_events": pa.array(mx, pa.int64()),
                "mean_session_events": pa.array(rnd(np.array(mean, dtype=np.float64))),
            }
        )

    return grouped_sorted_apply(ds, "user_id", ["ts", "event_id"], per_bucket, NB)


# ---------------------------------------------------------------------------
# §2.5 as-of (point-in-time) join — J3, the flagship
# ---------------------------------------------------------------------------

@register(
    "asof_error_features",
    """
    SELECT q.event_id,
           count(e.ts) AS n_prior,
           ROUND(avg(ROUND(e.value * 100)) / 100, 6) AS mean_prior_value,
           ROUND(arg_max(e.value, e.ts), 6) AS last_prior_value,
           ROUND(max(e.value), 6) AS max_prior_value
    FROM (SELECT * FROM events WHERE event_type = 'error') q
    LEFT JOIN (SELECT * FROM events WHERE event_type <> 'error') e
      ON e.user_id = q.user_id AND e.ts <= q.ts
    GROUP BY q.event_id
    """,
)
def asof_error_features(sf_dir: str):
    """Point-in-time features of each 'error' event over the user's prior
    non-error history — zero temporal leakage (J3)."""
    ds = _events(sf_dir, ["user_id", "ts", "event_id", "event_type", "value"])
    # self-as-of join: one scan tags both sides (queries = error events,
    # history = everything else); integer-cents derived column keeps the
    # prefix-mean an exact-integer sum (see RR_SQL note)
    out = asof_self_join(
        ds, key="user_id", ts_col="ts",
        left_mask=lambda b: pc.equal(b.column("event_type"), "error"),
        right_mask=lambda b: pc.not_equal(b.column("event_type"), "error"),
        aggs={
            "n_prior": ("value_c", "count"),
            "mean_prior_c": ("value_c", "mean"),
            "last_prior_value": ("value", "last"),
            "max_prior_value": ("value", "max"),
        },
        left_cols=["event_id"],
        right_exprs={"value_c": lambda rb: pa.array(
            np.rint(np.asarray(rb.column("value").combine_chunks(), dtype=np.float64) * 100))},
        num_buckets=NB,
    )

    def shape(batch: pa.Table) -> pa.Table:
        def r6(col):
            v = np.asarray(col.combine_chunks().fill_null(np.nan), dtype=np.float64)
            return pa.array(rnd(v), pa.float64())

        mean_c = np.asarray(batch.column("mean_prior_c").combine_chunks().fill_null(np.nan), dtype=np.float64)
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "n_prior": batch.column("n_prior"),
                "mean_prior_value": pa.array(rnd(mean_c / 100), pa.float64()),
                "last_prior_value": r6(batch.column("last_prior_value")),
                "max_prior_value": r6(batch.column("max_prior_value")),
            }
        )

    return out.map_batches(shape, batch_format="pyarrow", zero_copy_batch=True)


@register(
    "asof_last_purchase",
    """
    SELECT q.event_id, e.ts AS last_purchase_ts
    FROM (SELECT * FROM events WHERE event_type = 'error') q
    ASOF LEFT JOIN (SELECT * FROM events WHERE event_type = 'purchase') e
      ON q.user_id = e.user_id AND e.ts <= q.ts
    """,
)
def asof_last_purchase(sf_dir: str):
    """Native last-event-before semantics (DuckDB ASOF JOIN as oracle)."""
    ds = _events(sf_dir, ["user_id", "ts", "event_id", "event_type"])
    out = asof_self_join(
        ds, key="user_id", ts_col="ts",
        left_mask=lambda b: pc.equal(b.column("event_type"), "error"),
        right_mask=lambda b: pc.equal(b.column("event_type"), "purchase"),
        aggs={"last_purchase_ts": ("ev_ts", "last")},
        left_cols=["event_id"],
        right_exprs={"ev_ts": lambda rb: rb.column("ts").cast(pa.timestamp("us")).combine_chunks().cast(pa.int64())},
        num_buckets=NB,
    )
    return out.map_batches(
        lambda b: pa.table(
            {
                "event_id": b.column("event_id"),
                "last_purchase_ts": b.column("last_purchase_ts").cast(pa.timestamp("us")),
            }
        ),
        batch_format="pyarrow", zero_copy_batch=True,
    )


# ---------------------------------------------------------------------------
# §2.3 E8 lag/lead + rolling windows (per-row outputs)
# ---------------------------------------------------------------------------

@register(
    "lag_lead_row",
    """
    SELECT event_id,
           ROUND(lag(value)  OVER (PARTITION BY user_id ORDER BY ts, event_id), 6) AS v_lag1,
           ROUND(lead(value) OVER (PARTITION BY user_id ORDER BY ts, event_id), 6) AS v_lead1,
           ROUND((epoch_us(ts) - lag(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY ts, event_id))
                 / 1e6, 6) AS dt_prev_s
    FROM events
    """,
)
def lag_lead_row(sf_dir: str):
    ds = _events(sf_dir, ["user_id", "ts", "event_id", "value"])

    def per_bucket(tbl: pa.Table) -> pa.Table:
        rs = _row_entity_start(tbl, "user_id")
        re_ = _row_entity_end(tbl, "user_id")
        v = np.asarray(tbl.column("value").combine_chunks(), dtype=np.float64)
        ts_us = np.asarray(tbl.column("ts").cast(pa.int64()).combine_chunks()).astype(np.float64)
        return pa.table(
            {
                "event_id": tbl.column("event_id"),
                "v_lag1": pa.array(rnd(lag_column(v, rs, 1))),
                "v_lead1": pa.array(rnd(lead_column(v, rs, re_, 1))),
                "dt_prev_s": pa.array(rnd((ts_us - lag_column(ts_us, rs, 1)) / 1e6)),
            }
        )

    return grouped_sorted_apply(ds, "user_id", ["ts", "event_id"], per_bucket, NB)


@register(
    "rolling_mean3",
    """
    SELECT event_id,
           ROUND(avg(ROUND(value * 100)) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                  ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) / 100, 6) AS rmean3
    FROM events
    """,
)
def rolling_mean3(sf_dir: str):
    ds = _events(sf_dir, ["user_id", "ts", "event_id", "value"])

    def per_bucket(tbl: pa.Table) -> pa.Table:
        rs = _row_entity_start(tbl, "user_id")
        v = np.rint(np.asarray(tbl.column("value").combine_chunks(), dtype=np.float64) * 100)
        return pa.table(
            {"event_id": tbl.column("event_id"), "rmean3": pa.array(rnd(rolling_mean(v, rs, 3) / 100))}
        )

    return grouped_sorted_apply(ds, "user_id", ["ts", "event_id"], per_bucket, NB)


@register(
    "running_mean",
    """
    SELECT event_id,
           ROUND(avg(ROUND(value * 100)) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                  ROWS UNBOUNDED PRECEDING) / 100, 6) AS run_mean
    FROM events
    """,
)
def running_mean(sf_dir: str):
    ds = _events(sf_dir, ["user_id", "ts", "event_id", "value"])

    def per_bucket(tbl: pa.Table) -> pa.Table:
        rs = _row_entity_start(tbl, "user_id")
        v = np.rint(np.asarray(tbl.column("value").combine_chunks(), dtype=np.float64) * 100)
        return pa.table(
            {"event_id": tbl.column("event_id"), "run_mean": pa.array(rnd(prefix_mean(v, rs) / 100))}
        )

    return grouped_sorted_apply(ds, "user_id", ["ts", "event_id"], per_bucket, NB)


@register(
    "zero_cross_count",
    """
    WITH c AS (
      SELECT user_id, ts, event_id,
             value - avg(value) OVER (PARTITION BY user_id) AS cv
      FROM events
    ), s AS (
      SELECT user_id,
             CASE WHEN cv > 0 THEN 1 WHEN cv < 0 THEN -1 ELSE 0 END AS sg,
             lag(CASE WHEN cv > 0 THEN 1 WHEN cv < 0 THEN -1 ELSE 0 END)
               OVER (PARTITION BY user_id ORDER BY ts, event_id) AS ps
      FROM c
    )
    SELECT user_id, count(*) FILTER (WHERE sg * ps < 0) AS n_cross
    FROM s GROUP BY user_id
    """,
)
def zero_cross_count(sf_dir: str):
    """A3 analog (LongZeroCrossing, LONG_features.py:107-119) about the mean."""
    ds = _events(sf_dir, ["user_id", "ts", "event_id", "value"])

    def per_bucket(tbl: pa.Table) -> pa.Table:
        starts, ends = entity_segments(tbl, "user_id")
        users = np.asarray(tbl.column("user_id").combine_chunks())
        v = np.asarray(tbl.column("value").combine_chunks(), dtype=np.float64)
        uid, nc = [], []
        for s, e in zip(starts, ends):
            x = v[s:e] - v[s:e].mean()
            sg = np.sign(x)
            uid.append(int(users[s]))
            nc.append(int(np.count_nonzero(sg[1:] * sg[:-1] < 0)))
        return pa.table({"user_id": pa.array(uid, pa.int64()), "n_cross": pa.array(nc, pa.int64())})

    return grouped_sorted_apply(ds, "user_id", ["ts", "event_id"], per_bucket, NB)


# ---------------------------------------------------------------------------
# §2.4 A27/A28 counts, §2.6 sort/limit/top-k, global aggregates
# ---------------------------------------------------------------------------

@register(
    "event_type_counts",
    """
    SELECT event_type, count(*) AS n, ROUND(sum(ROUND(value * 100)) / 100, 6) AS sum_value
    FROM events GROUP BY event_type
    """,
)
def event_type_counts(sf_dir: str):
    ds = _events(sf_dir, ["event_type", "value"])
    return grouped_agg(ds, ["event_type"], {"n": ("*", "count"), "sum_value": ("value", "sum_cents")}, round_to=6)


@register(
    "top10_users_by_value",
    """
    SELECT user_id, ROUND(sum(ROUND(value * 100)) / 100, 6) AS total_value
    FROM events GROUP BY user_id
    ORDER BY total_value DESC, user_id LIMIT 10
    """,
)
def top10_users_by_value(sf_dir: str):
    ds = _events(sf_dir, ["user_id", "value"])
    agg = grouped_agg(ds, ["user_id"], {"total_value": ("value", "sum_cents")}, round_to=6)
    return agg.sort([("total_value"), ("user_id")], descending=[True, False]).limit(10)


@register(
    "distinct_types_per_user",
    "SELECT user_id, count(DISTINCT event_type) AS n_types FROM events GROUP BY user_id",
)
def distinct_types_per_user(sf_dir: str):
    ds = _events(sf_dir, ["user_id", "event_type"])
    return grouped_agg(ds, ["user_id"], {"n_types": ("event_type", "count_distinct")})


@register(
    "global_span",
    "SELECT min(ts) AS min_ts, max(ts) AS max_ts, count(*) AS n FROM events",
)
def global_span(sf_dir: str):
    """A26 analog: global scan aggregate (utils.py:43-56)."""
    ds = _events(sf_dir, ["ts"])
    tbl = global_agg(ds, {"min_ts": ("ts", "min"), "max_ts": ("ts", "max"), "n": ("ts", "count")})
    return tbl.set_column(0, "min_ts", tbl.column("min_ts").cast(pa.timestamp("us"))).set_column(
        1, "max_ts", tbl.column("max_ts").cast(pa.timestamp("us"))
    )


@register(
    "skiplist_filter",
    f"""
    SELECT event_type, count(*) AS n FROM events
    WHERE event_id NOT IN ({",".join(str(i) for i in SKIPLIST)})
    GROUP BY event_type
    """,
)
def skiplist_filter(sf_dir: str):
    """J4 analog: anti-join against the index2del skip list
    (preprocess-300hz.py:93-99)."""
    ds = _events(sf_dir, ["event_id", "event_type"])
    skip = pa.table({"event_id": pa.array(SKIPLIST, pa.int64())})
    kept = broadcast_join(ds, skip, on="event_id", how="anti")
    return grouped_agg(kept, ["event_type"], {"n": ("*", "count")})


@register(
    "first_event_per_user",
    """
    SELECT user_id, arg_min(event_id, ts) AS first_event_id, min(ts) AS first_ts
    FROM events GROUP BY user_id
    """,
)
def first_event_per_user(sf_dir: str):
    """O7 analog: exact dedup keep-first per key (hash-partition + per-group
    first)."""
    ds = _events(sf_dir, ["user_id", "ts", "event_id"])

    def per_bucket(tbl: pa.Table) -> pa.Table:
        starts, _ = entity_segments(tbl, "user_id")
        take = pa.array(starts)
        return pa.table(
            {
                "user_id": tbl.column("user_id").take(take),
                "first_event_id": tbl.column("event_id").take(take),
                "first_ts": tbl.column("ts").take(take),
            }
        )

    return grouped_sorted_apply(ds, "user_id", ["ts", "event_id"], per_bucket, NB)


# ---------------------------------------------------------------------------
# TPC-H-style scans / joins (M-section, J1/J2, O4)
# ---------------------------------------------------------------------------

@register(
    "pricing_summary",
    """
    SELECT l_returnflag, l_linestatus,
           ROUND(sum(ROUND(l_quantity * 100)) / 100, 6) AS sum_qty,
           ROUND(sum(ROUND(l_extendedprice * 100)) / 100, 6) AS sum_base_price,
           ROUND(sum(ROUND(l_extendedprice * (1 - l_discount) * 10000)) / 10000, 6) AS sum_disc_price,
           ROUND(avg(ROUND(l_quantity * 100)) / 100, 6) AS avg_qty,
           ROUND(avg(ROUND(l_discount * 100)) / 100, 6) AS avg_disc,
           count(*) AS count_order
    FROM lineitem WHERE l_shipdate <= TIMESTAMP '2001-09-01'
    GROUP BY l_returnflag, l_linestatus
    """,
)
def pricing_summary(sf_dir: str):
    """TPC-H-Q1-style grouped rollup with partial pre-aggregation."""
    ds = read_table(
        sf_dir, "lineitem",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_shipdate"],
    )
    cutoff = np.datetime64("2001-09-01", "us")

    def prep(batch: pa.Table) -> pa.Table:
        ship = np.asarray(batch.column("l_shipdate").cast(pa.int64()).combine_chunks())
        b = batch.filter(pa.array(ship <= cutoff.astype(np.int64)))
        price = np.asarray(b.column("l_extendedprice").combine_chunks(), dtype=np.float64)
        disc = np.asarray(b.column("l_discount").combine_chunks(), dtype=np.float64)
        qty = np.asarray(b.column("l_quantity").combine_chunks(), dtype=np.float64)
        return pa.table(
            {
                "l_returnflag": b.column("l_returnflag"),
                "l_linestatus": b.column("l_linestatus"),
                # integer-scaled intermediates: exact sums, order-independent
                "qty_c": pa.array(np.rint(qty * 100)),
                "price_c": pa.array(np.rint(price * 100)),
                "disc_price_s": pa.array(np.rint(price * (1.0 - disc) * 10000)),
                "disc_c": pa.array(np.rint(disc * 100)),
            }
        )

    filtered = ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    agg = grouped_agg(
        filtered,
        ["l_returnflag", "l_linestatus"],
        {
            "sum_qty_c": ("qty_c", "sum"),
            "sum_price_c": ("price_c", "sum"),
            "sum_disc_price_s": ("disc_price_s", "sum"),
            "avg_qty_c": ("qty_c", "mean"),
            "avg_disc_c": ("disc_c", "mean"),
            "count_order": ("*", "count"),
        },
    )

    def shape(batch: pa.Table) -> pa.Table:
        def r6(name, scale):
            v = np.asarray(batch.column(name).combine_chunks(), dtype=np.float64)
            return pa.array(rnd(v / scale), pa.float64())

        return pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "l_linestatus": batch.column("l_linestatus"),
                "sum_qty": r6("sum_qty_c", 100.0),
                "sum_base_price": r6("sum_price_c", 100.0),
                "sum_disc_price": r6("sum_disc_price_s", 10000.0),
                "avg_qty": r6("avg_qty_c", 100.0),
                "avg_disc": r6("avg_disc_c", 100.0),
                "count_order": batch.column("count_order"),
            }
        )

    return agg.map_batches(shape, batch_format="pyarrow", zero_copy_batch=True)


@register(
    "revenue_by_segment",
    """
    SELECT c.c_mktsegment, count(*) AS n_orders, ROUND(sum(ROUND(o.o_totalprice * 100)) / 100, 6) AS revenue
    FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
    GROUP BY c.c_mktsegment
    """,
)
def revenue_by_segment(sf_dir: str):
    """J2 analog: broadcast dimension join (customer is the small side)."""
    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    customer = pa.concat_tables(
        [pa.table(b) for b in read_table(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"]).iter_batches(batch_format="pyarrow")]
    )
    customer = customer.rename_columns(["o_custkey", "c_mktsegment"])
    joined = broadcast_join(orders, customer, on="o_custkey", how="inner")
    return grouped_agg(
        joined, ["c_mktsegment"], {"n_orders": ("*", "count"), "revenue": ("o_totalprice", "sum_cents")}, round_to=6
    )


@register(
    "customers_without_open_orders",
    """
    SELECT c_mktsegment, count(*) AS n_customers
    FROM customer WHERE c_custkey NOT IN
      (SELECT o_custkey FROM orders WHERE o_orderstatus = 'O')
    GROUP BY c_mktsegment
    """,
)
def customers_without_open_orders(sf_dir: str):
    """Anti-join (J4): customers with no open ('O') order — broadcast key set."""
    customer = read_table(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    open_orders = pa.concat_tables(
        [pa.table(b) for b in read_table(sf_dir, "orders", columns=["o_custkey", "o_orderstatus"]).iter_batches(batch_format="pyarrow")]
    )
    keys = open_orders.filter(pc.equal(open_orders.column("o_orderstatus"), "O"))
    keys = pa.table({"c_custkey": keys.column("o_custkey").combine_chunks().unique()})
    no_open = broadcast_join(customer, keys, on="c_custkey", how="anti")
    return grouped_agg(no_open, ["c_mktsegment"], {"n_customers": ("*", "count")})


@register(
    "building_segment_orders",
    """
    SELECT count(*) AS n_orders, ROUND(sum(ROUND(o_totalprice * 100)) / 100, 6) AS total
    FROM orders WHERE o_custkey IN
      (SELECT c_custkey FROM customer WHERE c_mktsegment = 'BUILDING')
    """,
)
def building_segment_orders(sf_dir: str):
    """Semi-join via broadcast membership."""
    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    cust = pa.concat_tables(
        [pa.table(b) for b in read_table(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"]).iter_batches(batch_format="pyarrow")]
    )
    keys = cust.filter(pc.equal(cust.column("c_mktsegment"), "BUILDING")).select(["c_custkey"])
    keys = keys.rename_columns(["o_custkey"])
    semi = broadcast_join(orders, keys, on="o_custkey", how="semi")
    return global_agg(semi, {"n_orders": ("o_totalprice", "count"), "total": ("o_totalprice", "sum_cents")})


@register(
    "orders_by_nation",
    """
    SELECT n.n_name, count(*) AS n_orders, ROUND(sum(ROUND(o.o_totalprice * 100)) / 100, 6) AS revenue
    FROM orders o
    JOIN customer c ON o.o_custkey = c.c_custkey
    JOIN nation n ON c.c_nationkey = n.n_nationkey
    GROUP BY n.n_name
    """,
)
def orders_by_nation(sf_dir: str):
    """Chained broadcast joins: fact → dim → dim (star schema)."""
    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    cust = pa.concat_tables(
        [pa.table(b) for b in read_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey"]).iter_batches(batch_format="pyarrow")]
    )
    nation = pa.concat_tables(
        [pa.table(b) for b in read_table(sf_dir, "nation", columns=["n_nationkey", "n_name"]).iter_batches(batch_format="pyarrow")]
    )
    cust_nation = cust.join(nation, keys=["c_nationkey"], right_keys=["n_nationkey"])
    cust_nation = cust_nation.select(["c_custkey", "n_name"]).rename_columns(["o_custkey", "n_name"])
    joined = broadcast_join(orders, cust_nation, on="o_custkey", how="inner")
    return grouped_agg(
        joined, ["n_name"], {"n_orders": ("*", "count"), "revenue": ("o_totalprice", "sum_cents")}, round_to=6
    )


@register(
    "part_type_tokens",
    """
    SELECT t AS token, count(*) AS n
    FROM (SELECT unnest(string_split(p_type, ' ')) AS t FROM part)
    GROUP BY t
    """,
)
def part_type_tokens(sf_dir: str):
    """M5/M6 analog: tokenize + explode (multi-label explode pattern,
    extract_HRV.py:52-77) via flat_map inside map_batches."""
    ds = read_table(sf_dir, "part", columns=["p_type"])

    def explode(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch.column("p_type"), " ")
        flat = pc.list_flatten(toks)
        return pa.table({"token": flat})

    exploded = ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
    return grouped_agg(exploded, ["token"], {"n": ("*", "count")})


# ---------------------------------------------------------------------------
# documents: text analysis + dedup (training-data ops)
# ---------------------------------------------------------------------------

@register(
    "doc_token_stats",
    """
    SELECT doc_id,
           len(string_split(text, ' ')) AS n_tokens,
           length(text) AS n_chars_live,
           ROUND(length(replace(text, ' ', '')) / CAST(len(string_split(text, ' ')) AS DOUBLE), 6)
             AS avg_token_len
    FROM documents
    """,
)
def doc_token_stats(sf_dir: str):
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def stats(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        ntok = np.array([T.token_count(t) for t in texts], dtype=np.int64)
        nch = np.array([len(t) for t in texts], dtype=np.int64)
        nch_nospace = np.array([len(t.replace(" ", "")) for t in texts], dtype=np.float64)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_tokens": pa.array(ntok),
                "n_chars_live": pa.array(nch),
                "avg_token_len": pa.array(rnd(nch_nospace / ntok)),
            }
        )

    return ds.map_batches(stats, batch_format="pyarrow", zero_copy_batch=True)


@register(
    "lang_source_counts",
    """
    SELECT lang, source, count(*) AS n_docs, CAST(sum(n_chars) AS BIGINT) AS total_chars
    FROM documents GROUP BY lang, source
    """,
)
def lang_source_counts(sf_dir: str):
    ds = read_table(sf_dir, "documents", columns=["lang", "source", "n_chars"])
    return grouped_agg(
        ds, ["lang", "source"], {"n_docs": ("*", "count"), "total_chars": ("n_chars", "sum")}
    )


@register(
    "exact_dedup_docs",
    """
    SELECT md5(text) AS fp, count(*) AS n_copies, min(doc_id) AS keeper_doc_id
    FROM documents GROUP BY md5(text)
    """,
)
def exact_dedup_docs(sf_dir: str):
    """Exact dedup: hash-partition by content fingerprint + per-group first."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def fp(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        return pa.table(
            {
                "fp": pa.array([T.fingerprint_md5(t) for t in texts], pa.string()),
                "doc_id": batch.column("doc_id"),
            }
        )

    hashed = ds.map_batches(fp, batch_format="pyarrow", zero_copy_batch=True)
    return grouped_agg(hashed, ["fp"], {"n_copies": ("*", "count"), "keeper_doc_id": ("doc_id", "min")})


@register(
    "minhash_signatures",
    """
    SELECT doc_id,
           min(md5_number_upper(t)) AS mh0,
           min(CAST((CAST(md5_number_upper(t) AS HUGEINT)
                     + CAST(md5_number_lower(t) AS HUGEINT))
                    % 18446744073709551616 AS UBIGINT)) AS mh1
    FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS t FROM documents)
    GROUP BY doc_id
    """,
)
def minhash_signatures(sf_dir: str):
    """MinHash LSH prep — vectorized double-hash permutations.

    Each distinct token is md5'd once; permutation ``p`` is
    ``(upper + p·lower) mod 2**64`` (functions/text.minhash_matrix), which
    DuckDB reproduces exactly via ``md5_number_upper/lower`` + HUGEINT mod."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def mh(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        H = T.minhash_matrix([T.tokens(t) for t in texts], num_perm=2)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "mh0": pa.array(H[:, 0]),
                "mh1": pa.array(H[:, 1]),
            }
        )

    return ds.map_batches(mh, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# embeddings: similarity search
# ---------------------------------------------------------------------------

KNN_THRESHOLD = 0.3
N_KNN_QUERIES = 10


def _emb_matrix(col: pa.ChunkedArray) -> np.ndarray:
    """Zero-copy-ish (n, dim) float64 matrix from a list<float> column.

    ``flatten()`` respects list offsets; one contiguous cast instead of a
    per-row ``to_pylist`` + ``vstack``."""
    arr = col.combine_chunks()
    flat = np.asarray(arr.flatten(), dtype=np.float64)
    return flat.reshape(len(arr), -1)


def _query_matrix(ds, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(ids, L2-normalized rows) of the first ``n`` vectors (broadcast side)."""
    qtbl = pa.concat_tables(
        [pa.table(b) for b in ds.filter(expr=f"vec_id < {n}").iter_batches(batch_format="pyarrow")]
    )
    q_ids = np.asarray(qtbl.column("vec_id").combine_chunks())
    Q = _emb_matrix(qtbl.column("embedding"))
    order = np.argsort(q_ids, kind="stable")
    q_ids, Q = q_ids[order], Q[order]
    return q_ids, Q / np.linalg.norm(Q, axis=1, keepdims=True)

@register(
    "knn_neighbor_counts",
    f"""
    WITH q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings WHERE vec_id < {N_KNN_QUERIES}),
    dots AS (
      SELECT q.query_id, e.vec_id,
             sum(CAST(q.qe[i] AS DOUBLE) * CAST(e.embedding[i] AS DOUBLE)) AS dot,
             sqrt(sum(CAST(q.qe[i] AS DOUBLE) * CAST(q.qe[i] AS DOUBLE))) AS nq,
             sqrt(sum(CAST(e.embedding[i] AS DOUBLE) * CAST(e.embedding[i] AS DOUBLE))) AS ne
      FROM q, embeddings e, range(1, 65) t(i)
      WHERE e.vec_id <> q.query_id
      GROUP BY q.query_id, e.vec_id
    )
    SELECT query_id,
           count(*) FILTER (WHERE dot / (nq * ne) >= {KNN_THRESHOLD}) AS n_neighbors
    FROM dots GROUP BY query_id
    """,
)
def knn_neighbor_counts(sf_dir: str):
    """Brute-force cosine similarity: query matrix broadcast via ray.put,
    per-batch float64 matmul (the ANN baseline)."""
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    q_ids, Qn = _query_matrix(ds, N_KNN_QUERIES)
    q_ref = ray.put((q_ids, Qn))

    def counts(batch: pa.Table) -> pa.Table:
        ids, Qn_ = ray.get(q_ref)
        V = _emb_matrix(batch.column("embedding"))
        vids = np.asarray(batch.column("vec_id").combine_chunks())
        Vn = V / np.linalg.norm(V, axis=1, keepdims=True)
        sims = Qn_ @ Vn.T  # (n_q, n_batch)
        counts_ = np.zeros(len(ids), dtype=np.int64)
        for j, qid in enumerate(ids):
            mask = vids != qid
            counts_[j] = int(np.count_nonzero(sims[j][mask] >= KNN_THRESHOLD))
        return pa.table({"query_id": pa.array(ids, pa.int64()), "n_partial": pa.array(counts_)})

    partials = ds.map_batches(counts, batch_format="pyarrow", zero_copy_batch=True)
    return grouped_agg(partials, ["query_id"], {"n_neighbors": ("n_partial", "sum")})


@register(
    "embedding_label_stats",
    """
    SELECT label, count(*) AS n_vecs,
           ROUND(avg(CAST(embedding[1] AS DOUBLE)), 6) AS mean_e0
    FROM embeddings GROUP BY label
    """,
)
def embedding_label_stats(sf_dir: str):
    ds = read_table(sf_dir, "embeddings", columns=["label", "embedding"])

    def first_elem(batch: pa.Table) -> pa.Table:
        e0 = pc.list_element(batch.column("embedding"), 0).cast(pa.float64())
        return pa.table({"label": batch.column("label"), "e0": e0})

    prepped = ds.map_batches(first_elem, batch_format="pyarrow", zero_copy_batch=True)
    return grouped_agg(prepped, ["label"], {"n_vecs": ("*", "count"), "mean_e0": ("e0", "mean")}, round_to=6)


# ---------------------------------------------------------------------------
# non-SQL-expressible operators (rows-only driver check)
# ---------------------------------------------------------------------------

@register(
    "simhash_docs",
    """
    WITH tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS t FROM documents),
    h AS (SELECT doc_id, ('0x' || substr(md5(t), 1, 16))::UBIGINT AS hv FROM tok),
    bits AS (
      SELECT doc_id, i.i AS bit,
             sum(CASE WHEN (hv >> CAST(i.i AS UTINYINT)) & 1 = 1 THEN 1 ELSE -1 END) AS acc
      FROM h, range(0, 64) i(i)
      GROUP BY doc_id, i.i
    )
    SELECT doc_id,
           CAST(sum(CASE WHEN acc > 0 THEN
                      CASE WHEN bit = 0 THEN CAST(-9223372036854775808 AS HUGEINT)
                           ELSE CAST(CAST(1 AS BIGINT) << CAST(63 - bit AS INT) AS HUGEINT) END
                    ELSE 0 END) AS BIGINT) AS simhash
    FROM bits GROUP BY doc_id
    """,
)
def simhash_docs(sf_dir: str):
    """SimHash near-dup fingerprints: per bit of md5-u64(token), majority
    vote over tokens; MSB-first packing, signed int64 (two's complement)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def sh(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "simhash": pa.array(T.simhash64_batch(texts), pa.int64()),
            }
        )

    return ds.map_batches(sh, batch_format="pyarrow", zero_copy_batch=True)


@register(
    "doc_quality_lang",
    """
    WITH tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS t FROM documents),
    lscore AS (
      SELECT doc_id,
        avg(CASE WHEN lower(t) IN ('the','a','of','and','to','in','is','that','it','for')
                 THEN 1.0 ELSE 0.0 END) AS s_en,
        avg(CASE WHEN lower(t) IN ('der','die','das','und','ist','nicht','ein','zu','mit','von')
                 THEN 1.0 ELSE 0.0 END) AS s_de,
        avg(CASE WHEN lower(t) IN ('le','la','les','de','et','est','un','une','que','pour')
                 THEN 1.0 ELSE 0.0 END) AS s_fr,
        avg(CASE WHEN lower(t) IN ('el','la','los','de','y','es','un','una','que','por')
                 THEN 1.0 ELSE 0.0 END) AS s_es
      FROM tok GROUP BY doc_id
    ),
    wstats AS (
      SELECT doc_id,
        CAST(sum(CASE WHEN length(t) > 8 THEN 1 + (length(t) - 5) // 4 ELSE 1 END) AS BIGINT)
          AS bpe_tokens,
        avg(CAST(length(t) AS DOUBLE)) FILTER (WHERE t <> '') AS mean_wl,
        count(*) FILTER (WHERE t <> '') AS n_live
      FROM tok GROUP BY doc_id
    ),
    cstats AS (
      SELECT doc_id, length(text) AS n_chars,
             length(regexp_replace(text, '[^a-zA-Z ]', '', 'g')) AS n_alpha
      FROM documents
    )
    SELECT d.doc_id,
      CASE WHEN greatest(l.s_en, l.s_de, l.s_fr, l.s_es) = 0 THEN 'und'
           WHEN l.s_en >= l.s_de AND l.s_en >= l.s_fr AND l.s_en >= l.s_es THEN 'en'
           WHEN l.s_de >= l.s_fr AND l.s_de >= l.s_es THEN 'de'
           WHEN l.s_fr >= l.s_es THEN 'fr' ELSE 'es' END AS lang_pred,
      CASE WHEN c.n_chars = 0 OR w.n_live = 0 THEN 0.0
           ELSE ROUND(LEAST(
             (CASE WHEN c.n_chars BETWEEN 50 AND 100000 THEN 0.4 ELSE 0.1 END)
             + (CASE WHEN w.mean_wl BETWEEN 3 AND 12 THEN 0.3 ELSE 0.05 END)
             + 0.3 * (CAST(c.n_alpha AS DOUBLE) / c.n_chars), 1.0), 6) END AS quality,
      w.bpe_tokens
    FROM documents d
    JOIN lscore l USING (doc_id) JOIN wstats w USING (doc_id) JOIN cstats c USING (doc_id)
    """,
)
def doc_quality_lang(sf_dir: str):
    """Language-ID heuristic + quality score + BPE-ish token count (all
    deterministic CASE/ratio logic — SQL-reproducible)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def q(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "lang_pred": pa.array([T.lang_id(t) for t in texts], pa.string()),
                "quality": pa.array([T.quality_score(t) for t in texts], pa.float64()),
                "bpe_tokens": pa.array([T.bpe_ish_token_count(t) for t in texts], pa.int64()),
            }
        )

    return ds.map_batches(q, batch_format="pyarrow", zero_copy_batch=True)


def _topk_rank_merge(partials, k: int):
    """Distributed per-query top-k merge of (query_id, neighbor_id, sim)
    candidate streams on the Arrow-native ``per_group_top_k`` spine
    (sim desc, neighbor_id asc ties; 1-based ``rank``; 6-digit rounding).
    Each upstream block holds ≤ k candidates per query, so the exchange is
    O(queries × k × blocks) — and no pandas conversion in the merge path."""

    def neg(batch: pa.Table) -> pa.Table:
        s = np.asarray(batch.column("sim").combine_chunks())
        return batch.append_column("__negsim", pa.array(-s, pa.float64()))

    keyed = partials.map_batches(neg, batch_format="pyarrow", zero_copy_batch=True)
    out = per_group_top_k(keyed, "query_id", ["__negsim", "neighbor_id"], k, NB,
                          rank_name="rank")

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table({
            "query_id": batch.column("query_id"),
            "neighbor_id": batch.column("neighbor_id"),
            "sim": pa.array(rnd(np.asarray(batch.column("sim").combine_chunks()))),
            "rank": batch.column("rank"),
        })

    return out.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


_KNN_DOTS_SQL = """
WITH q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings WHERE vec_id < 3),
dots AS (
  SELECT q.query_id, e.vec_id,
         sum(CAST(q.qe[i] AS DOUBLE) * CAST(e.embedding[i] AS DOUBLE)) AS dot,
         sqrt(sum(CAST(q.qe[i] AS DOUBLE) * CAST(q.qe[i] AS DOUBLE))) AS nq,
         sqrt(sum(CAST(e.embedding[i] AS DOUBLE) * CAST(e.embedding[i] AS DOUBLE))) AS ne
  FROM q, embeddings e, range(1, 65) t(i)
  WHERE e.vec_id <> q.query_id
  GROUP BY q.query_id, e.vec_id
)
"""


@register(
    "knn_topk",
    _KNN_DOTS_SQL
    + """
    , ranked AS (
      SELECT query_id, vec_id AS neighbor_id, dot / (nq * ne) AS sim,
             row_number() OVER (PARTITION BY query_id
                                ORDER BY dot / (nq * ne) DESC, vec_id) AS rank
      FROM dots
    )
    SELECT query_id, neighbor_id, ROUND(sim, 6) AS sim, CAST(rank AS BIGINT) AS rank
    FROM ranked WHERE rank <= 5
    """,
)
def knn_topk(sf_dir: str, k: int = 5):
    """Brute-force cosine top-k for the first 3 query vectors (ANN baseline):
    per-batch partial top-k → distributed groupby(query_id) merge — the
    candidate stream never lands on the driver."""
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    q_ids, Qn = _query_matrix(ds, 3)
    q_ref = ray.put((q_ids, Qn))

    def topk_partial(batch: pa.Table) -> pa.Table:
        ids, Qn_ = ray.get(q_ref)
        V = _emb_matrix(batch.column("embedding"))
        vids = np.asarray(batch.column("vec_id").combine_chunks())
        Vn = V / np.linalg.norm(V, axis=1, keepdims=True)
        sims = Qn_ @ Vn.T
        out_q, out_v, out_s = [], [], []
        for j, qid in enumerate(ids):
            srow = sims[j].copy()
            srow[vids == qid] = -np.inf
            top = np.lexsort((vids, -srow))[:k]  # sim desc, neighbor_id asc
            top = top[np.isfinite(srow[top])]
            out_q.append(np.full(top.size, qid, dtype=np.int64))
            out_v.append(vids[top].astype(np.int64))
            out_s.append(srow[top])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q) if out_q else np.array([], np.int64)),
                "neighbor_id": pa.array(np.concatenate(out_v) if out_v else np.array([], np.int64)),
                "sim": pa.array(np.concatenate(out_s) if out_s else np.array([], np.float64)),
            }
        )

    partials = ds.map_batches(topk_partial, batch_format="pyarrow", zero_copy_batch=True)
    return _topk_rank_merge(partials, k)


def _band_pairs(emitted, key: str, id_col: str, pair_fn, max_bucket: int, advice: str):
    """Candidate pairs of a blocking-key near-dup scan — the one banded
    pairing mechanism behind every near-dup query.

    ``emitted`` holds one row per (item, blocking key): an LSH band, a
    prefix gram, a sign-bit table.  A corpus emits millions of MOSTLY-
    SINGLETON keys, so a per-key group dispatch would dwarf the pairing
    arithmetic.  Instead: ONE hash-bucket exchange on ``key`` (the
    ``grouped_sorted_apply`` spine, NB buckets, rows sorted by
    ``[key, id_col]``); per bucket the key segments come from
    :func:`entity_segments` (no per-row Python) and each segment of two or
    more rows expands to its upper-triangle index pairs, so in every pair
    a's ``id_col`` sorts before b's.  A key above ``max_bucket`` rows fails
    loudly: a degenerate blocking key means the blocking config is wrong
    for the corpus, not that O(n²) pairing should quietly proceed.

    ``pair_fn(tbl, ia, ib)`` runs once per bucket on the sorted bucket
    table and the int64 row indices of its candidate pairs (possibly none)
    and returns the query's pair table — its own predicate or score."""

    def per_bucket(tbl: pa.Table) -> pa.Table:
        starts, ends = entity_segments(tbl, key)
        sizes = ends - starts
        if sizes.size and int(sizes.max()) > max_bucket:
            raise ValueError(
                f"candidate bucket of {int(sizes.max())} rows > max_bucket="
                f"{max_bucket}: {advice}"
            )
        multi = sizes >= 2
        ia, ib = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        for s, m in zip(starts[multi], sizes[multi]):
            iu, ju = np.triu_indices(int(m), k=1)
            ia.append(iu + s)
            ib.append(ju + s)
        return pair_fn(tbl, np.concatenate(ia), np.concatenate(ib))

    return grouped_sorted_apply(emitted, key, [id_col], per_bucket, NB)


def _id_pairs(tbl: pa.Table, id_col: str, ia: np.ndarray, ib: np.ndarray,
              names: tuple[str, str] = ("doc_a", "doc_b")) -> dict:
    """The int64 id columns of the pairs (ia, ib) of a ``_band_pairs``
    bucket."""
    ids = np.asarray(tbl.column(id_col).combine_chunks()).astype(np.int64, copy=False)
    return {names[0]: pa.array(ids[ia]), names[1]: pa.array(ids[ib])}


def _distributed_jaccard_verify(
    ds,
    deduped,
    gram_fn: Callable[[str], set],
    threshold: float,
    max_degree: int = 256,
):
    """Exact-Jaccard verification of a candidate-pair stream, fully distributed.

    Shared tail of every near-dup query (MinHash-LSH, prefix-filter): the pair
    stream stays a Dataset end to end; the driver's only artifact is a
    fixed-size bloom bitmap of candidate doc ids.  Candidate texts are
    bloom-filtered map-side out of the corpus scan (``ds`` = doc_id+text) and
    hash-joined onto the exploded pair stream in one ``groupby(doc_id)``
    exchange; each pair's texts then meet in a ``groupby(pair)`` where
    ``T.jaccard(gram_fn(a), gram_fn(b)) >= threshold`` decides survival.
    ``max_degree`` caps per-doc pair fan-out fail-loud (O(clique²) text
    replication means degenerate candidate generation, not work to do).
    """
    # wants stream: one (doc_id, pair_key) row per pair SIDE — all-Arrow
    def explode_pair(batch: pa.Table) -> pa.Table:
        pk = pc.binary_join_element_wise(
            pc.cast(batch.column("doc_a"), pa.string()),
            pc.cast(batch.column("doc_b"), pa.string()),
            "|",
        )
        return pa.concat_tables([
            pa.table({"doc_id": batch.column("doc_a"), "pair": pk}),
            pa.table({"doc_id": batch.column("doc_b"), "pair": pk}),
        ])

    wants = deduped.map_batches(explode_pair, batch_format="pyarrow", zero_copy_batch=True)

    # Candidate-doc membership as a FIXED-SIZE bloom bitmap (1 MiB regardless
    # of pair count) built by a distributed OR-aggregate — the only thing
    # that ever lands on the driver.  A false positive just ships one extra
    # text into the join shuffle (dropped there); no false negatives.
    from ray.data.aggregate import AggregateFn  # noqa: PLC0415

    from ..functions.hashing import splitmix64  # noqa: PLC0415

    BLOOM_BITS = np.uint64(1 << 23)
    BLOOM_K = 4

    def _bloom_pos(ids: np.ndarray) -> np.ndarray:
        """(n, K) bit positions via double hashing of int64 doc ids."""
        u = ids.astype(np.uint64)
        h1 = splitmix64(u)
        h2 = splitmix64(u ^ np.uint64(0xA5A5A5A5DEADBEEF))
        with np.errstate(over="ignore"):
            return (h1[:, None] + np.arange(BLOOM_K, dtype=np.uint64)[None, :] * h2[:, None]) % BLOOM_BITS

    def _bloom_acc(bitmap: np.ndarray, block: pa.Table) -> np.ndarray:
        ids = np.asarray(block.column("doc_id").combine_chunks())
        if ids.size:
            pos = _bloom_pos(ids).ravel()
            np.bitwise_or.at(bitmap, (pos >> np.uint64(3)).astype(np.int64),
                             (np.uint64(1) << (pos & np.uint64(7))).astype(np.uint8))
        return bitmap

    agg_res = wants.aggregate(AggregateFn(
        init=lambda k: np.zeros(int(BLOOM_BITS) // 8, np.uint8),
        merge=np.bitwise_or,
        accumulate_block=_bloom_acc,
        name="bloom",
    ))
    bitmap = agg_res["bloom"] if isinstance(agg_res, dict) else agg_res
    if bitmap is None:  # no candidate pairs anywhere
        return ray.data.from_arrow(
            pa.table({"doc_a": pa.array([], pa.int64()),
                      "doc_b": pa.array([], pa.int64()),
                      "jaccard": pa.array([], pa.float64())})
        )
    bloom_ref = ray.put(np.ascontiguousarray(bitmap))

    def corpus_filter(batch: pa.Table) -> pa.Table:
        """Map-side candidate filter: only (approx) candidate texts enter the
        join exchange — non-candidate texts never leave their scan task."""
        bm = ray.get(bloom_ref)
        ids = np.asarray(batch.column("doc_id").combine_chunks())
        if not ids.size:
            return batch
        pos = _bloom_pos(ids)
        bit = (np.uint64(1) << (pos & np.uint64(7))).astype(np.uint8)
        hit = ((bm[(pos >> np.uint64(3)).astype(np.int64)] & bit) == bit).all(axis=1)
        return batch.filter(pa.array(hit))

    cand = ds.map_batches(corpus_filter, batch_format="pyarrow", zero_copy_batch=True)

    # co-partitioned hash join on doc_id: union the (tiny) wants rows with
    # the (candidate-only) text rows, ONE groupby(doc_id) shuffle routes each
    # text to exactly the pairs that need it.  Degree cap enforced HERE,
    # distributed (fail loud, like max_bucket): a doc in a near-dup clique of
    # m candidates has its text replicated m−1 times and its n-grams
    # recomputed m−1 times — O(m²) bytes/CPU per clique.  Exact dedup runs
    # FIRST in this engine, so degrees that high mean degenerate banding.
    def tag_wants(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b.column("doc_id"), "pair": b.column("pair"),
                         "text": pa.nulls(b.num_rows, pa.string())})

    def tag_texts(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b.column("doc_id"),
                         "pair": pa.nulls(b.num_rows, pa.string()),
                         "text": b.column("text")})

    unioned = wants.map_batches(tag_wants, batch_format="pyarrow", zero_copy_batch=True).union(
        cand.map_batches(tag_texts, batch_format="pyarrow", zero_copy_batch=True)
    )

    # Route each candidate text to the pairs that want it — bucket spine, not
    # per-doc pandas groups (10⁸ candidate pairs ⇒ 10⁷+ doc groups at crawl
    # scale).  Sorted by (doc_id, pair) with Arrow's nulls-at-end, every doc
    # segment is [want rows..., text rows...], so routing is pure index
    # arithmetic: reduceat want-counts, grouped-arange take, repeat of the
    # segment-final text row.
    def route_texts(tbl: pa.Table) -> pa.Table:
        empty = pa.table({"pair": pa.array([], pa.string()),
                          "doc_id": pa.array([], pa.int64()),
                          "text": pa.array([], pa.string())})
        if tbl.num_rows == 0:
            return empty
        starts, ends = entity_segments(tbl, "doc_id")
        pair_col = tbl.column("pair").combine_chunks()
        is_want = np.asarray(pc.is_valid(pair_col)).astype(np.int64)
        ids = np.asarray(tbl.column("doc_id").combine_chunks())
        w = np.add.reduceat(is_want, starts)
        t = (ends - starts) - w
        if int(w.max()) > max_degree:
            i = int(np.argmax(w))
            raise ValueError(
                f"near-dup candidate doc {int(ids[starts[i]])} participates "
                f"in {int(w[i])} pairs > max_degree={max_degree}: run exact "
                "dedup first or raise num_perm/bands — refusing O(clique²) "
                "text replication"
            )
        bad = (w > 0) & (t == 0)
        if bad.any():
            # the wants side was derived from the same corpus scan that
            # produced the candidates — a missing text is a routing defect
            # (id type drift, missed fragment), never a legitimate outcome
            i = int(np.argmax(bad))
            raise KeyError(
                f"near-dup doc {int(ids[starts[i]])}: text missing — routing defect"
            )
        keep = (w > 0) & (t > 0)  # w == 0 is a bloom false positive: drop
        if not keep.any():
            return empty
        wk, sk = w[keep], starts[keep]
        total = int(wk.sum())
        shift = np.concatenate(([0], np.cumsum(wk)[:-1]))
        want_idx = np.repeat(sk, wk) + (np.arange(total) - np.repeat(shift, wk))
        text_idx = np.repeat(ends[keep] - 1, wk)  # nulls-at-end ⇒ last row is text
        return pa.table({
            "pair": pc.take(pair_col, pa.array(want_idx)),
            "doc_id": pc.take(tbl.column("doc_id").combine_chunks(), pa.array(want_idx)),
            "text": pc.take(tbl.column("text").combine_chunks(), pa.array(text_idx)),
        })

    routed = grouped_sorted_apply(unioned, "doc_id", ["pair"], route_texts, NB)

    # Exact-measure verify: sorted by (pair, doc_id), every pair segment is
    # exactly its two doc rows; the per-segment loop is the inherent gram-set
    # computation, not group dispatch.
    def verify_bucket(tbl: pa.Table) -> pa.Table:
        empty = pa.table({"doc_a": pa.array([], pa.int64()),
                          "doc_b": pa.array([], pa.int64()),
                          "jaccard": pa.array([], pa.float64())})
        if tbl.num_rows == 0:
            return empty
        starts, ends = entity_segments(tbl, "pair")
        sizes = ends - starts
        if (sizes != 2).any():
            i = int(np.argmax(sizes != 2))
            key = tbl.column("pair")[int(starts[i])].as_py()
            raise KeyError(
                f"near-dup pair {key}: {int(sizes[i])} routed rows (expected 2) "
                "— routing defect"
            )
        ids = np.asarray(tbl.column("doc_id").combine_chunks())
        texts = tbl.column("text").to_pylist()
        # a doc in d pairs appears in d segments of this bucket: build its
        # gram set ONCE per bucket, not once per pair side (gram_fn is the
        # dominant verify cost; pair buckets are degree-capped so the cache
        # is bounded by distinct docs × gram-set size)
        grams_by_doc: dict[int, set] = {}

        def grams_of(row: int) -> set:
            did = int(ids[row])
            g = grams_by_doc.get(did)
            if g is None:
                g = grams_by_doc[did] = gram_fn(texts[row])
            return g

        j = np.fromiter(
            (T.jaccard(grams_of(s), grams_of(s + 1)) for s in starts),
            dtype=np.float64, count=starts.size,
        )
        m = j >= threshold
        return pa.table({
            "doc_a": pa.array(ids[starts[m]].astype(np.int64)),
            "doc_b": pa.array(ids[starts[m] + 1].astype(np.int64)),
            "jaccard": pa.array(rnd(j[m])),
        })

    return grouped_sorted_apply(routed, "pair", ["doc_id"], verify_bucket, NB)


@register(
    "near_dup_pairs",
    """
    WITH grams0 AS (
      SELECT DISTINCT doc_id, substr(text, CAST(i AS INT), 5) AS gram
      FROM documents, range(1, 4097) t(i)
      WHERE i <= greatest(length(text) - 4, 1)
    ),
    mh AS (
      SELECT doc_id, p.i AS perm,
             min(CAST((CAST(md5_number_upper(gram) AS HUGEINT)
                       + p.i * CAST(md5_number_lower(gram) AS HUGEINT))
                      % 18446744073709551616 AS UBIGINT)) AS h
      FROM grams0, range(0, 16) p(i)
      GROUP BY doc_id, p.i
    ),
    bandkeys AS (
      SELECT doc_id, (perm // 4) AS band,
             string_agg(CAST(h AS VARCHAR), ':' ORDER BY perm) AS key
      FROM mh GROUP BY doc_id, (perm // 4)
    ),
    cand_pairs AS (
      SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
      FROM bandkeys a JOIN bandkeys b
        ON a.band = b.band AND a.key = b.key AND a.doc_id < b.doc_id
    ),
    grams AS (SELECT * FROM grams0),
    gcounts AS (SELECT doc_id, count(*) AS n FROM grams GROUP BY doc_id),
    inter AS (
      SELECT p.doc_a, p.doc_b, count(*) AS ni
      FROM cand_pairs p
      JOIN grams ga ON ga.doc_id = p.doc_a
      JOIN grams gb ON gb.doc_id = p.doc_b AND gb.gram = ga.gram
      GROUP BY p.doc_a, p.doc_b
    ),
    jac AS (
      SELECT p.doc_a, p.doc_b,
             CAST(COALESCE(i.ni, 0) AS DOUBLE)
               / (ca.n + cb.n - COALESCE(i.ni, 0)) AS jaccard
      FROM cand_pairs p
      JOIN gcounts ca ON ca.doc_id = p.doc_a
      JOIN gcounts cb ON cb.doc_id = p.doc_b
      LEFT JOIN inter i ON i.doc_a = p.doc_a AND i.doc_b = p.doc_b
    )
    SELECT doc_a, doc_b, ROUND(jaccard, 6) AS jaccard
    FROM jac WHERE jaccard >= 0.5
    """,
)
def near_dup_pairs(sf_dir: str, num_perm: int = 16, bands: int = 4, max_bucket: int = 4096):
    """MinHash-LSH near-dup pairs verified by char-5-gram Jaccard.

    ``num_perm`` md5-minhashes over char-5-gram SHINGLES (the verify metric's
    own feature space — see minhash_signature_shingles for why unigram-token
    minhash collapses on small vocabularies) → ``bands`` bands of
    num_perm/bands rows; a
    doc explodes into one (doc_id, band_key) row per band — the banded
    shuffle carries ONLY ids and 16-char keys, never the text (at 100 TB the
    corpus moves zero times through this exchange).  Same band-key ⇒
    candidate pair; pairs are deduped across bands FIRST, then verified by
    exact Jaccard fully DISTRIBUTED: the pair stream stays a Dataset end to
    end (the driver's only artifact is a fixed-size bloom bitmap of
    candidate doc ids), candidate texts are bloom-filtered map-side out of
    the corpus scan and hash-joined onto the exploded pair stream in one
    ``groupby(doc_id)`` exchange.  A bucket above ``max_bucket`` docs fails loudly:
    silent truncation reads as full coverage, and a degenerate band means
    the banding config is wrong for the corpus, not that O(n²) work should
    quietly proceed.
    """
    rows_per_band = num_perm // bands
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def sig(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        for t in texts:
            _guard_oracle_cap(len(t) - 4, 4096, "near_dup_pairs shingle count")
        # vectorized signature kernel: one md5 per DISTINCT shingle in the
        # batch, numpy double-hash permutations + reduceat minima — the
        # whole-corpus pass of LSH dedup carries no per-(perm × gram)
        # Python hashing (functions/text.minhash_matrix)
        H = T.minhash_matrix(T.shingle_lists(texts, 5), num_perm=num_perm)
        ids = np.asarray(batch.column("doc_id").combine_chunks()).astype(np.int64)
        out_band = [
            f"{b}:" + ":".join(str(int(h)) for h in row[b * rows_per_band : (b + 1) * rows_per_band])
            for row in H
            for b in range(bands)
        ]
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(ids, bands)),
                "band": pa.array(out_band, pa.string()),
            }
        )

    banded = ds.map_batches(sig, batch_format="pyarrow", zero_copy_batch=True)
    pairs = _band_pairs(
        banded, "band", "doc_id", lambda tbl, ia, ib: pa.table(_id_pairs(tbl, "doc_id", ia, ib)),
        max_bucket, "band signature too short for corpus — raise num_perm/bands",
    )
    # pair IDS only (16 B/row) as DISTRIBUTED blocks — the driver never holds
    # the pair list (a dup-heavy 100-TB crawl yields O(10⁸) candidate pairs).
    # materialize() pins the deduped stream in the object store so the two
    # consumers below (bloom aggregate + routing union) don't re-run the
    # minhash lineage over the corpus.
    deduped = grouped_agg(pairs, ["doc_a", "doc_b"], {}).materialize()

    return _distributed_jaccard_verify(ds, deduped, T.char_ngrams, 0.5)


@register(
    "ngram_jaccard_pairs",
    """
    WITH arr AS (
      SELECT doc_id, string_split(text, ' ') AS a FROM documents
    ),
    tok AS (
      SELECT doc_id, unnest(a) AS tok, generate_subscripts(a, 1) AS i FROM arr
    ),
    g AS (
      SELECT DISTINCT t1.doc_id, t1.tok || ' ' || t2.tok || ' ' || t3.tok AS gram
      FROM tok t1
      JOIN tok t2 ON t2.doc_id = t1.doc_id AND t2.i = t1.i + 1
      JOIN tok t3 ON t3.doc_id = t1.doc_id AND t3.i = t1.i + 2
    ),
    gc AS (SELECT doc_id, count(*) AS n FROM g GROUP BY doc_id),
    inter AS (
      SELECT ga.doc_id AS doc_a, gb.doc_id AS doc_b, count(*) AS ni
      FROM g ga JOIN g gb ON ga.gram = gb.gram AND ga.doc_id < gb.doc_id
      GROUP BY 1, 2
    )
    SELECT i.doc_a, i.doc_b,
           ROUND(CAST(i.ni AS DOUBLE) / (ca.n + cb.n - i.ni), 6) AS jaccard
    FROM inter i
    JOIN gc ca ON ca.doc_id = i.doc_a
    JOIN gc cb ON cb.doc_id = i.doc_b
    WHERE CAST(i.ni AS DOUBLE) / (ca.n + cb.n - i.ni) >= 3.0 / 5.0
    """,
)
def ngram_jaccard_pairs(sf_dir: str, tau_num: int = 3, tau_den: int = 5, max_bucket: int = 4096,
                        freq_order: bool = True, hot_k: int = 1 << 17):
    """Token-3-gram Jaccard near-dup pairs via PREFIX FILTERING (AllPairs/
    PPJoin lemma), verified by exact Jaccard — the n-gram-Jaccard dedup
    variant, with a provably candidate-complete blocking step instead of the
    probabilistic MinHash banding of ``near_dup_pairs``.

    Per doc: the distinct word-trigram set in a CANONICAL global order —
    ascending document frequency (the classical AllPairs efficiency
    heuristic: rare grams land in prefixes, so blocking buckets stay tiny),
    ties and tail broken by md5.  Correctness needs only that the order is
    the same TOTAL order for every doc, which holds because the rank map is
    computed once globally: a distinct-gram-per-doc stream → a
    ``grouped_agg`` count per gram → top ``hot_k`` multi-doc grams broadcast via
    ``ray.put`` (singleton grams can never pair, so the map is bounded by
    the multi-doc vocabulary, further capped by ``hot_k``; grams outside
    the map share rank −1 and order among themselves by md5).  This is the
    same periodic-stats-job + broadcast pattern as the flagship's hot-key
    plan — one cheap counting exchange, no extra text shuffle.  Setting
    ``freq_order=False`` falls back to pure-md5 order (no stats pass).
    For threshold τ = tau_num/
    tau_den, any pair with J(A,B) ≥ τ has overlap ≥ ⌈τ·max(|A|,|B|)⌉, so by
    pigeonhole the first |X| − ⌈τ·|X|⌉ + 1 grams of each side must share an
    element: emitting only those PREFIX grams into the ``groupby(gram)``
    exchange yields a candidate superset with no false negatives.  ⌈τ·n⌉ is
    computed in INTEGER arithmetic (float ⌈0.6·5⌉ = ⌈3.0000000000000004⌉ = 4
    would silently shorten the prefix and drop true pairs).  The AllPairs
    LENGTH filter prunes candidates map-side in the pairing stage:
    J(A,B) ≥ τ forces min(|A|,|B|)/max(|A|,|B|) ≥ τ, so pairs failing the
    integer test ``tau_den·min ≥ tau_num·max`` can never verify — on a
    small-vocab corpus this cuts candidate degree severalfold before the
    routing exchange.  The shuffle
    carries (16-hex-char gram-hash, doc_id) only — never text; an md5
    collision merges buckets, which only ADDS candidates for the verifier to
    reject.  Buckets above ``max_bucket`` fail loudly (a stop-phrase trigram
    shared by everything means the gram unit is wrong for the corpus, not
    that O(n²) pairing should proceed).  Verification reuses the distributed
    bloom-route-verify tail shared with ``near_dup_pairs``.

    Reference analog: the exact-duplicate scan at
    /root/reference/xgboost_clf.py:128, generalized to corpus-scale
    similarity dedup per SURVEY.md §2 O7.
    """
    from ..functions.hashing import md5_hex  # noqa: PLC0415

    threshold = tau_num / tau_den
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    rank_ref = None
    if freq_order:
        # global gram document-frequency rank: distinct grams per doc →
        # grouped count → top hot_k multi-doc grams (sorted
        # ascending df so RANK ORDER = ascending frequency; most frequent
        # grams sort LAST in every doc's canonical order)
        def emit_grams(batch: pa.Table) -> pa.Table:
            texts = batch.column("text").to_pylist()
            out: list[str] = []
            for t in texts:
                out.extend(md5_hex(g)[:16] for g in T.token_ngrams(t, 3))
            return pa.table({"gram": pa.array(out, pa.string())})

        counts = grouped_agg(
            ds.map_batches(emit_grams, batch_format="pyarrow", zero_copy_batch=True),
            ["gram"], {"n": ("*", "count")},
        )
        multi = counts.map_batches(
            lambda b: b.filter(pc.greater(b.column("n"), 1)),
            batch_format="pyarrow", zero_copy_batch=True,
        )
        hot = multi.sort(["n", "gram"], descending=[True, False]).limit(hot_k)
        # bounded by hot_k rows (16-hex string + count) — broadcast-size
        hot_grams_desc = [r["gram"] for r in hot.take_all()]
        rank_ref = ray.put({g: len(hot_grams_desc) - i for i, g in enumerate(hot_grams_desc)})

    def prefix_emit(batch: pa.Table) -> pa.Table:
        rank = ray.get(rank_ref) if rank_ref is not None else {}
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        out_g: list[str] = []
        out_id: list[int] = []
        out_n: list[int] = []
        out_i: list[int] = []
        for did, t in zip(ids, texts):
            grams = T.token_ngrams(t, 3)
            n = len(grams)
            if n == 0:
                continue
            keys = sorted(
                (md5_hex(g)[:16] for g in grams),
                key=(lambda k2: (rank.get(k2, -1), k2)) if rank else None,
            )
            p = n - (tau_num * n + tau_den - 1) // tau_den + 1
            out_g.extend(keys[:p])
            out_id.extend([did] * p)
            out_n.extend([n] * p)
            out_i.extend(range(p))
        return pa.table(
            {
                "gram": pa.array(out_g, pa.string()),
                "doc_id": pa.array(out_id, pa.int64()),
                "n": pa.array(out_n, pa.int64()),
                "i": pa.array(out_i, pa.int64()),
            }
        )

    def ppjoin_pairs(tbl: pa.Table, ia: np.ndarray, ib: np.ndarray) -> pa.Table:
        """The AllPairs LENGTH filter and the PPJoin POSITIONAL bound over
        the co-occurrences (ia, ib) of a prefix gram.

        Length: J(A,B) ≥ τ forces |A∩B| ≤ min ≤ max ≤ |A∪B| and hence
        min/max ≥ J ≥ τ, so pairs with ``tau_den·min(n_a,n_b) <
        tau_num·max(n_a,n_b)`` are pruned map-side — candidate-complete
        (integer arithmetic, same no-float-ceil discipline as the prefix
        length).

        Position: ``i`` is the gram's 0-based position in the doc's
        canonically-sorted gram list.  For a gram at positions (i_a, i_b),
        shared grams strictly before it number ≤ min(i_a, i_b) (the order
        is global, so an earlier shared gram is earlier on BOTH sides) and
        shared grams from it on number ≤ min(n_a−i_a, n_b−i_b), hence
        overlap ≤ bound(i_a,i_b) = min(i_a,i_b) + min(n_a−i_a, n_b−i_b).
        J ≥ τ needs overlap ≥ α = ⌈τ/(1+τ)·(n_a+n_b)⌉ (integer form below),
        so ``slack = bound − α < 0`` at ANY co-occurrence proves the pair
        dead — the caller aggregates ``min(slack)`` per pair and drops
        negatives before the expensive text-routing verify.  Exact-sound:
        no false negatives."""
        ns = np.asarray(tbl.column("n").combine_chunks())
        pos = np.asarray(tbl.column("i").combine_chunks())
        na, nb = ns[ia], ns[ib]
        m = tau_den * np.minimum(na, nb) >= tau_num * np.maximum(na, nb)
        ia, ib, na, nb = ia[m], ib[m], na[m], nb[m]
        pia, pib = pos[ia], pos[ib]
        bound = np.minimum(pia, pib) + np.minimum(na - pia, nb - pib)
        alpha = (tau_num * (na + nb) + tau_num + tau_den - 1) // (tau_num + tau_den)
        return pa.table({**_id_pairs(tbl, "doc_id", ia, ib),
                         "slack": pa.array((bound - alpha).astype(np.int64, copy=False))})

    prefixes = ds.map_batches(prefix_emit, batch_format="pyarrow", zero_copy_batch=True)
    pairs = _band_pairs(
        prefixes, "gram", "doc_id", ppjoin_pairs, max_bucket,
        "trigram blocking degenerate for this corpus — use a larger gram "
        "unit or frequency-ordered prefixes",
    )
    # pair dedup doubles as the POSITIONAL-filter reduce: min(slack) over a
    # pair's co-occurrences < 0 proves overlap < α (see ppjoin_pairs), so
    # the pair dies here — before its texts are routed and re-shingled in
    # the verify exchange.  The min rides the grouped_agg exchange the
    # plain dedup pays anyway, so the filter is ~free.
    # Its kill rate is corpus-dependent: strong when candidate sizes are
    # diverse (the classical PPJoin setting), weak on the synthetic bench
    # corpus where near-equal gram-set sizes keep every positional bound
    # above α (measured sf0.1: 290 789 → 287 635, ~1%).
    agg = grouped_agg(pairs, ["doc_a", "doc_b"], {"slack": ("slack", "min")})

    def alive(batch: pa.Table) -> pa.Table:
        keep = pc.greater_equal(batch.column("slack"), 0)
        return batch.filter(keep).select(["doc_a", "doc_b"])

    deduped = agg.map_batches(alive, batch_format="pyarrow", zero_copy_batch=True).materialize()
    # max_degree rides max_bucket here: unlike MinHash banding (where high
    # candidate degree means a degenerate band), prefix filtering on a
    # small-vocab corpus legitimately yields degrees of O(Σ prefix-bucket
    # sizes) — the quadratic guard is max_bucket at the blocking stage, and
    # per-doc text replication is bounded by degree × the shingle-capped
    # text size, a few MB per worst-case doc in the routing exchange.
    return _distributed_jaccard_verify(
        ds, deduped, T.token_ngrams, threshold, max_degree=max_bucket
    )


# ---------------------------------------------------------------------------
# north-star fixture pipelines (synthetic image+caption table; rows-only
# driver check — the pytest oracle in tests/oracle.py is their value gate)
# ---------------------------------------------------------------------------

# the version suffix keys the cache to the OUTPUT SCHEMA of the fixture
# pipelines: bump it whenever a fixture query's column set / widths change
# (e.g. SHORT 36->150 cols, spec_checksum) so a host that ran older code
# regenerates instead of hash-failing against stale expected_*.parquet
_FIXTURE_SCHEMA_V = 3
_FIXTURE_BASE = f"/tmp/efr_driver_fixture_e120_s42_v{_FIXTURE_SCHEMA_V}"


def _fixture(sf_dir: str) -> tuple[str, str]:
    """Deterministic cached image+caption fixture (input_hint schema).

    Sized independently of sf_dir (the driver's tables don't carry images);
    generation is seeded so every run sees identical bytes.  Fixture-based
    oracle SQL reads the same parquet via its absolute path — valid because
    the compare harness always runs the Ray query (which generates the
    fixture) before its oracle.
    """
    import json as _json

    base = _FIXTURE_BASE
    events_dir = os.path.join(base, "events")
    queries_path = os.path.join(base, "queries.parquet")
    marker = os.path.join(base, "DONE")
    if not os.path.exists(marker):
        from ..sources.fixture import generate_asof_queries, generate_events

        os.makedirs(base, exist_ok=True)
        man = generate_events(events_dir, n_entities=120, seed=42)
        generate_asof_queries(events_dir, queries_path, n_queries=600, seed=43)
        with open(marker, "w") as f:
            _json.dump({"n_rows": man["n_rows"]}, f)
    return events_dir, queries_path


def rnd_sig(x: np.ndarray, sig: int = 6) -> np.ndarray:
    """Round to ``sig`` significant digits, half-away (driver-hash-stable
    across float summation-order differences between engine and oracle)."""
    x = np.asarray(x, dtype=np.float64)
    out = x.copy()
    m = np.isfinite(x) & (x != 0)
    e = np.floor(np.log10(np.abs(x[m])))
    f = 10.0 ** (sig - 1 - e)
    out[m] = np.copysign(np.floor(np.abs(x[m]) * f + 0.5) / f, x[m])
    return out


def _flagship_expected(events_dir: str, queries_path: str) -> str:
    """Cache the INDEPENDENT numpy oracle's flagship output (tests/oracle.py
    — single-threaded direct formulas, no engine code) as parquet so the
    driver's DuckDB pass can hash-compare the full PIT pipeline."""
    def compute():
        from tests.oracle import ORACLE_FEATURE_NAMES, oracle_pit_features

        df = oracle_pit_features(events_dir, queries_path)
        for c in ORACLE_FEATURE_NAMES:
            df[c] = rnd_sig(df[c].to_numpy())
        df["as_of_ts"] = df["as_of_ts"].astype("datetime64[us]")  # engine emits µs
        return df[["image_id", "as_of_ts"] + ORACLE_FEATURE_NAMES]

    return _expected_from_oracle(os.path.join(_FIXTURE_BASE, "expected_flagship.parquet"), compute)


@register(
    "flagship_pit_features",
    f"SELECT * FROM read_parquet('{_FIXTURE_BASE}/expected_flagship.parquet')",
)
def flagship_pit_features(sf_dir: str):
    """The north-star pipeline: decode → as-of merge → PIT feature vectors.

    Oracle: the independent single-threaded numpy implementation
    (tests/oracle.py), cached as parquet; both sides round to 6 significant
    digits so hashes compare despite float summation-order differences."""
    from .flagship import pit_features

    events_dir, queries_path = _fixture(sf_dir)
    _flagship_expected(events_dir, queries_path)
    out = pit_features(events_dir, queries_path, num_buckets=NB)

    def shape(batch: pa.Table) -> pa.Table:
        cols = {}
        for c in batch.column_names:
            if c in ("image_id", "as_of_ts"):
                cols[c] = batch.column(c)
            else:
                v = np.asarray(batch.column(c).combine_chunks().fill_null(np.nan), dtype=np.float64)
                cols[c] = pa.array(rnd_sig(v), pa.float64())
        return pa.table(cols)

    return out.map_batches(shape, batch_format="pyarrow", zero_copy_batch=True)


@register(
    "caption_label_counts",
    f"""
    SELECT label, count(*) AS n_rows
    FROM (SELECT unnest(string_split(caption, ',')) AS label
          FROM read_parquet('{_FIXTURE_BASE}/events/*.parquet'))
    GROUP BY label
    """,
)
def caption_label_counts(sf_dir: str):
    """M5/M6: multi-label caption tokenize + explode + count
    (extract_HRV.py:52-77) over the fixture image table."""
    from ..sources.readers import read_events

    events_dir, _ = _fixture(sf_dir)
    ds = read_events(events_dir, columns=["image_id", "caption"])

    def explode(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch.column("caption"), ",")
        return pa.table({"label": pc.list_flatten(toks)})

    exploded = ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
    return grouped_agg(exploded, ["label"], {"n_rows": ("*", "count")})


def _expected_from_oracle(path: str, compute, key: str | None = None) -> str:
    """Cache an independent oracle's result (``compute()``: a DataFrame or
    Arrow table, usually from tests/oracle.py) as parquet; returns the cache
    file.

    ``path`` is the file the registered oracle SQL reads.  Without ``key``
    the oracle is cached at ``path`` itself (fixture oracles: their input
    never changes).  With ``key`` (input directory plus config) it is cached
    once per key, at ``path`` with the key's md5 appended, and that file is
    copied atomically to ``path`` on every call: the SQL string is fixed at
    registration and cannot name the input, and a correctness gate runs each query
    before its SQL, so a sequential gate reads its own input's answer
    (concurrent gates over different inputs would last-writer-win ``path``).
    """
    import pyarrow.parquet as _pq

    cached = path
    if key is not None:
        cached = f"{path[:-len('.parquet')]}_{hashlib.md5(key.encode()).hexdigest()[:12]}.parquet"
    if not os.path.exists(cached):
        repo = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        if repo not in sys.path:  # tests.oracle lives at the repo root
            sys.path.insert(0, repo)
        res = compute()
        if not isinstance(res, pa.Table):
            res = pa.Table.from_pandas(res, preserve_index=False)
        _pq.write_table(res, cached + ".tmp")
        os.replace(cached + ".tmp", cached)
    if key is not None:
        shutil.copyfile(cached, path + ".tmp")
        os.replace(path + ".tmp", path)
    return cached


@register(
    "deep_scores",
    "SELECT * FROM read_parquet('{base}/expected_deep_scores.parquet')".format(base=_FIXTURE_BASE),
)
def deep_scores(sf_dir: str):
    """T1: stateful actor-pool model scoring over image bytes
    (get_model.py:11-49); deterministic seeded weights.  Oracle: independent
    single-threaded replay of the same checkpoint (tests/oracle.py)."""
    from ..sources.readers import read_events
    from ..stages.scorer import deep_score_stage

    events_dir, _ = _fixture(sf_dir)

    def _compute():
        from tests.oracle import oracle_deep_scores

        return oracle_deep_scores(events_dir)

    _expected_from_oracle(os.path.join(_FIXTURE_BASE, "expected_deep_scores.parquet"), _compute)
    ds = read_events(events_dir, columns=["image_id", "ts", "bytes"])
    scored = deep_score_stage(ds, concurrency=(1, 4))

    def shape(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "image_id": batch.column("image_id"),
                "ts": batch.column("ts"),
                "pred_class": batch.column("pred_class"),
            }
        )

    return scored.map_batches(shape, batch_format="pyarrow", zero_copy_batch=True)


@register(
    "oversample_by_type",
    """
    SELECT event_type, count(*) AS n_rows
    FROM events, LATERAL (SELECT unnest(range(CASE event_type
          WHEN 'error' THEN 3 WHEN 'purchase' THEN 2 WHEN 'signup' THEN 0
          ELSE 1 END))) t(i)
    GROUP BY event_type
    """,
)
def oversample_by_type(sf_dir: str):
    """O5: class-weighted oversampling via flat_map with integer factors
    (preprocess-300hz.py:315-341); factor-0 classes are dropped."""
    weights = {"error": 3, "purchase": 2, "signup": 0}
    ds = _events(sf_dir, ["event_id", "event_type"])

    def dup(batch: pa.Table) -> pa.Table:
        types = batch.column("event_type").to_pylist()
        reps = np.array([weights.get(t, 1) for t in types], dtype=np.int64)
        idx = np.repeat(np.arange(len(types)), reps)
        return pa.table({"event_type": batch.column("event_type").take(pa.array(idx))})

    duped = ds.map_batches(dup, batch_format="pyarrow", zero_copy_batch=True)
    return grouped_agg(duped, ["event_type"], {"n_rows": ("*", "count")})


@register(
    "resize_thumbnails",
    "SELECT * FROM read_parquet('{base}/expected_thumbs.parquet')".format(base=_FIXTURE_BASE),
)
def resize_thumbnails(sf_dir: str):
    """Multimodal transform: decode → nearest-neighbor resize 16×16 →
    re-encode (actor-pool map_batches over binary rows).  Returns
    per-image thumbnail byte sizes."""
    from ..functions.codec import decode_image, encode_image, resize_nearest
    from ..sources.readers import read_events

    events_dir, _ = _fixture(sf_dir)

    def _compute():
        from tests.oracle import oracle_thumbnails

        return oracle_thumbnails(events_dir)

    _expected_from_oracle(os.path.join(_FIXTURE_BASE, "expected_thumbs.parquet"), _compute)
    ds = read_events(events_dir, columns=["image_id", "ts", "bytes", "fmt"])

    class Thumb:
        def __call__(self, batch: pa.Table) -> pa.Table:
            blobs = batch.column("bytes").to_pylist()
            fmts = batch.column("fmt").to_pylist()
            sizes = []
            for blob, fmt in zip(blobs, fmts):
                px, _ = decode_image(blob)
                thumb = encode_image(resize_nearest(px, 16, 16), fmt)
                sizes.append(len(thumb))
            return pa.table(
                {
                    "image_id": batch.column("image_id"),
                    "ts": batch.column("ts"),
                    "thumb_bytes": pa.array(sizes, pa.int64()),
                }
            )

    return ds.map_batches(Thumb, batch_format="pyarrow", zero_copy_batch=True,
                          concurrency=(1, 4), batch_size=256)


# ---------------------------------------------------------------------------
# feature-family pipelines (A1-A25 compositions; rows-only — gated by
# tests/test_families.py against the numpy oracle)
# ---------------------------------------------------------------------------

def _round_feature_batch(batch: pa.Table) -> pa.Table:
    cols = {}
    for c in batch.column_names:
        if c in ("image_id", "label"):
            cols[c] = batch.column(c)
        else:
            v = np.asarray(batch.column(c).combine_chunks().fill_null(np.nan), dtype=np.float64)
            cols[c] = pa.array(rnd_sig(v), pa.float64())
    return pa.table(cols)


# family-kernel schema version: bump when a family vector's width/semantics
# change so stale cached expected-parquets can't shadow the new oracle
# (round 5: A19 bin_stat 26 → 52-wide reference-exact scan)
_FAMILY_ORACLE_V = 2


def _family_expected(events_dir: str, family: str, channels=("v",)) -> str:
    """Cache the independent direct-formula family oracle (tests/oracle.py
    oracle_family_table) as parquet for the driver's hash compare."""
    tag = family if channels == ("v",) else family + "_mc"

    def compute():
        from tests.oracle import oracle_family_table

        df = oracle_family_table(events_dir, family, channels=channels)
        for c in df.columns:
            if c not in ("image_id", "label"):
                df[c] = rnd_sig(df[c].to_numpy())
        return df

    return _expected_from_oracle(
        os.path.join(_FIXTURE_BASE, f"expected_family_{tag}_v{_FAMILY_ORACLE_V}.parquet"), compute)


def _family_query(family: str):
    def fn(sf_dir: str):
        from .feature_families import family_features

        events_dir, _ = _fixture(sf_dir)
        _family_expected(events_dir, family)
        out = family_features(events_dir, family, num_buckets=NB)
        return out.map_batches(_round_feature_batch, batch_format="pyarrow", zero_copy_batch=True)

    fn.__name__ = f"{family}_features_family"
    fn.__doc__ = (f"Entity×label {family.upper()} feature vectors (SURVEY §2.4); "
                  "oracle: independent direct-formula implementation "
                  "(tests/oracle.py), both sides at 6 significant digits.")
    return fn


for _fam in ("hrv", "long", "qrs", "short"):
    QUERIES[f"{_fam}_features_family"] = _family_query(_fam)
    ORACLE[f"{_fam}_features_family"] = (
        f"SELECT * FROM read_parquet("
        f"'{_FIXTURE_BASE}/expected_family_{_fam}_v{_FAMILY_ORACLE_V}.parquet')"
    )


@register(
    "features_joined",
    "SELECT * FROM read_parquet("
    f"'{_FIXTURE_BASE}/expected_joined_v{_FAMILY_ORACLE_V}.parquet')",
)
def features_joined(sf_dir: str):
    """J1: all four family tables column-joined on (image_id, label) inside
    ONE bucket pass (no extra shuffle; ≙ xgboost_clf.py:12-15), with the
    v-based families replicated over all four derived channels
    (≙ the reference's 12-lead column join, extract_LONG.py:46-51).
    Oracle: pandas merge of the four independent family-oracle tables."""
    from .feature_families import join_families

    events_dir, _ = _fixture(sf_dir)
    chans = ("v", "v_r", "v_g", "v_b")

    def compute():
        parts = [pd.read_parquet(_family_expected(events_dir, f, channels=chans if f in ("long", "short") else ("v",)))
                 for f in ("hrv", "long", "qrs", "short")]
        df = parts[0]
        for part in parts[1:]:
            df = df.merge(part, on=["image_id", "label"])
        return df

    _expected_from_oracle(os.path.join(_FIXTURE_BASE, f"expected_joined_v{_FAMILY_ORACLE_V}.parquet"), compute)
    out = join_families(events_dir, ["hrv", "long", "qrs", "short"], num_buckets=NB,
                        channels=chans)
    return out.map_batches(_round_feature_batch, batch_format="pyarrow", zero_copy_batch=True)


@register(
    "channel_stats",
    f"SELECT * FROM read_parquet('{_FIXTURE_BASE}/expected_channel_stats.parquet')",
)
def channel_stats(sf_dir: str):
    """Per-channel (R/G/B) series stats per image — the multi-channel decode
    plumbing gate.  Oracle: independent single-threaded decode loop
    (tests/oracle.py oracle_channel_stats) cached as parquet; per-event
    channel means are exact integer sums so both sides match bitwise."""
    from ..sources.readers import read_events
    from ..stages.decode import decode_stage

    events_dir, _ = _fixture(sf_dir)

    def compute():
        from tests.oracle import oracle_channel_stats

        df = oracle_channel_stats(events_dir)
        for c in df.columns:
            if c.startswith(("mean_", "min_", "max_")):
                df[c] = rnd(df[c].to_numpy())
        return df

    _expected_from_oracle(os.path.join(_FIXTURE_BASE, "expected_channel_stats.parquet"), compute)

    decoded = decode_stage(read_events(events_dir), verify_roundtrip=False)
    decoded = decoded.select_columns(["image_id", "ts", "v_r", "v_g", "v_b"])

    def per_bucket(tbl: pa.Table) -> pa.Table:
        starts, ends = entity_segments(tbl, "image_id")
        ids = tbl.column("image_id")
        cols: dict = {"image_id": [], "n_events": []}
        for ch in ("r", "g", "b"):
            cols[f"mean_{ch}"] = []
            cols[f"min_{ch}"] = []
            cols[f"max_{ch}"] = []
        chans = {ch: np.asarray(tbl.column(f"v_{ch}").combine_chunks(), dtype=np.float64)
                 for ch in ("r", "g", "b")}
        for s, e in zip(starts, ends):
            cols["image_id"].append(ids[s].as_py())
            cols["n_events"].append(e - s)
            for ch in ("r", "g", "b"):
                x = chans[ch][s:e]
                cols[f"mean_{ch}"].append(float(rnd(x.mean())))
                cols[f"min_{ch}"].append(float(rnd(x.min())))
                cols[f"max_{ch}"].append(float(rnd(x.max())))
        out = {"image_id": pa.array(cols["image_id"], pa.string()),
               "n_events": pa.array(cols["n_events"], pa.int64())}
        for ch in ("r", "g", "b"):
            for st in ("mean", "min", "max"):
                out[f"{st}_{ch}"] = pa.array(cols[f"{st}_{ch}"], pa.float64())
        return pa.table(out)

    return grouped_sorted_apply(decoded, "image_id", ["ts"], per_bucket, NB)


# ---------------------------------------------------------------------------
# deterministic splits (O2/O3), ANN scale path, embedding near-dups
# ---------------------------------------------------------------------------

@register(
    "hash_split_counts",
    """
    SELECT CASE WHEN ('0x' || substr(md5(concat('split|', CAST(event_id AS VARCHAR))), 1, 2))::INT < 204
                THEN 'train' ELSE 'test' END AS split,
           count(*) AS n
    FROM events GROUP BY 1
    """,
)
def hash_split_counts(sf_dir: str):
    """O2/O3: deterministic ~80/20 hash split (retry-safe, no RNG state;
    replaces np.random.permutation, preprocess-300hz.py:174-186)."""
    ds = _events(sf_dir, ["event_id"])

    def split(batch: pa.Table) -> pa.Table:
        h = md5_keys(batch.column("event_id"), "split|", 2)
        return pa.table({"split": pa.array(np.where(h < 204, "train", "test"), pa.string())})

    tagged = ds.map_batches(split, batch_format="pyarrow", zero_copy_batch=True)
    return grouped_agg(tagged, ["split"], {"n": ("*", "count")})


# distributed k-means config (kmeans_embeddings) — defined here because the
# IVF index below trains its list centroids with the same Lloyd trainer
_KM_K = 8
_KM_ITERS = 5
_KM_SCALE = 2.0**20
_KM_EXPECTED = "/tmp/efr_kmeans_expected.parquet"
_IVF_EXPECTED = "/tmp/efr_knn_ivf_expected.parquet"


def refresh_ivf_expected(sf_dir: str, n_lists: int = 16, n_probe: int = 4,
                         k: int = 5, iters: int = _KM_ITERS) -> str:
    """(Re)build the independent IVF oracle parquet — same cache-then-copy
    contract as :func:`refresh_kmeans_expected` (config-hashed cache,
    atomic copy to the static path the registered SQL reads, driver's
    query-before-SQL ordering)."""
    def compute():
        from tests.oracle import oracle_knn_ivf

        return oracle_knn_ivf(sf_dir, n_lists=n_lists, n_probe=n_probe, k=k,
                              iters=iters, scale=_KM_SCALE)

    return _expected_from_oracle(
        _IVF_EXPECTED, compute,
        key=f"{os.path.abspath(sf_dir)}|{n_lists}|{n_probe}|{k}|{iters}|{_KM_SCALE}")


@register(
    "knn_ivf",
    f"SELECT * FROM read_parquet('{_IVF_EXPECTED}')",
)
def knn_ivf(sf_dir: str, n_lists: int = 16, n_probe: int = 4, k: int = 5,
            iters: int = _KM_ITERS):
    """ANN scale path: IVF bucketed search with KMEANS-TRAINED list
    centroids (the shared exact fixed-point Lloyd trainer,
    :func:`_lloyd_centroids` — round-4 verdict item 5; previously the lists
    were the raw first ``n_lists`` vectors).  Nearest-centroid assignment
    inside map_batches, search only the query's ``n_probe`` nearest lists,
    then the distributed Arrow-native top-k merge.  Brute-force baseline:
    ``knn_topk``.  The trained-centroid index is an iterative algorithm, so
    the oracle is the independent single-threaded twin
    (tests/oracle.oracle_knn_ivf) cached as parquet — the same
    expected-parquet gate as ``kmeans_embeddings``."""
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"]).materialize()
    C = _lloyd_centroids(ds, n_lists, iters)[0]
    Cn = C / np.linalg.norm(C, axis=1, keepdims=True)
    q_ids, Qn = _query_matrix(ds, 3)
    refresh_ivf_expected(sf_dir, n_lists=n_lists, n_probe=n_probe, k=k, iters=iters)
    # stable sort ⇒ centroid ties break toward the lowest id (matches the
    # oracle's ORDER BY sim DESC, cid)
    probe_lists = {
        int(q): set(np.argsort(-(Qn[j] @ Cn.T), kind="stable")[:n_probe].tolist())
        for j, q in enumerate(q_ids)
    }
    bc = ray.put((Cn, q_ids, Qn, probe_lists))

    def search(batch: pa.Table) -> pa.Table:
        Cn_, ids_, Qn_, probes = ray.get(bc)
        V = _emb_matrix(batch.column("embedding"))
        vids = np.asarray(batch.column("vec_id").combine_chunks())
        Vn = V / np.linalg.norm(V, axis=1, keepdims=True)
        assign = np.argmax(Vn @ Cn_.T, axis=1)  # first max = lowest cid
        out_q, out_v, out_s = [], [], []
        for j, qid in enumerate(ids_):
            plist = np.array(sorted(probes[int(qid)]), dtype=np.int64)
            mask = np.isin(assign, plist) & (vids != qid)
            if not mask.any():
                continue
            sims = Qn_[j] @ Vn[mask].T
            cand = vids[mask]
            top = np.lexsort((cand, -sims))[:k]
            out_q.append(np.full(top.size, qid, dtype=np.int64))
            out_v.append(cand[top].astype(np.int64))
            out_s.append(sims[top])
        if not out_q:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "neighbor_id": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        return pa.table({"query_id": pa.array(np.concatenate(out_q)),
                         "neighbor_id": pa.array(np.concatenate(out_v)),
                         "sim": pa.array(np.concatenate(out_s))})

    partials = ds.map_batches(search, batch_format="pyarrow", zero_copy_batch=True)
    return _topk_rank_merge(partials, k)


NEAR_DUP_COS = 0.4  # driver data is near-random (max off-diag cosine ≈ 0.51)


@register(
    "embedding_near_dups",
    f"""
    WITH b AS (
      SELECT vec_id,
             CAST(sum(CASE WHEN CAST(embedding[i] AS DOUBLE) > 0
                           THEN 1 << (i - 1) ELSE 0 END) AS BIGINT) AS b1,
             CAST(sum(CASE WHEN CAST(embedding[i + 8] AS DOUBLE) > 0
                           THEN 1 << (i - 1) ELSE 0 END) AS BIGINT) AS b2
      FROM embeddings, range(1, 9) t(i) GROUP BY vec_id
    ),
    pairs AS (
      SELECT a.vec_id AS vec_a, bb.vec_id AS vec_b
      FROM b a JOIN b bb ON a.vec_id < bb.vec_id AND (a.b1 = bb.b1 OR a.b2 = bb.b2)
    ),
    sims AS (
      SELECT p.vec_a, p.vec_b,
             sum(CAST(ea.embedding[i] AS DOUBLE) * CAST(eb.embedding[i] AS DOUBLE)) AS dot,
             sqrt(sum(CAST(ea.embedding[i] AS DOUBLE) * CAST(ea.embedding[i] AS DOUBLE))) AS na,
             sqrt(sum(CAST(eb.embedding[i] AS DOUBLE) * CAST(eb.embedding[i] AS DOUBLE))) AS nb
      FROM pairs p
      JOIN embeddings ea ON ea.vec_id = p.vec_a
      JOIN embeddings eb ON eb.vec_id = p.vec_b, range(1, 65) t(i)
      GROUP BY p.vec_a, p.vec_b
    )
    SELECT vec_a, vec_b, ROUND(dot / (na * nb), 6) AS cosine
    FROM sims WHERE dot / (na * nb) >= {NEAR_DUP_COS}
    """,
)
def embedding_near_dups(sf_dir: str, threshold: float = NEAR_DUP_COS,
                        n_bits: int = 8, max_bucket: int = 512):
    """Embedding-cosine near-duplicate pairs via sign-bit LSH + in-bucket
    exact verify — the embedding analog of minhash-LSH dedup.

    Two independent hash tables: table 1 keys on the sign bits of dims 0-7,
    table 2 on dims 8-15 (deterministic, so the DuckDB oracle reproduces the
    exact candidate set).  A pair is a candidate if it collides in EITHER
    table.  Both tables share ONE ``_band_pairs`` exchange over an injective
    (table, sign bits) key; each candidate pair's cosine is computed and
    thresholded inside its bucket, and pairs found by both tables are
    deduped by a final (vec_a, vec_b) group.  At scale: more bits per table
    ⇒ smaller buckets; the in-bucket N² verify is bounded by ``max_bucket``
    (oversized buckets mean the signature is too short for the corpus —
    widen n_bits rather than truncate silently)."""
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def sig(batch: pa.Table) -> pa.Table:
        V = _emb_matrix(batch.column("embedding"))
        w = (1 << np.arange(n_bits)).astype(np.int64)
        b1 = ((V[:, :n_bits] > 0) * w).sum(axis=1)
        b2 = ((V[:, n_bits : 2 * n_bits] > 0) * w).sum(axis=1)
        # injective (table, sign bits) → one int64 blocking key, so both
        # tables ride one exchange: one row per (vector, table)
        rows = batch.select(["vec_id", "embedding"])
        return pa.concat_tables([rows, rows]).append_column(
            "bkey", pa.array(np.concatenate([b1, b2 | (1 << n_bits)]).astype(np.int64)))

    banded = ds.map_batches(sig, batch_format="pyarrow", zero_copy_batch=True)

    def cosine_pairs(tbl: pa.Table, ia: np.ndarray, ib: np.ndarray) -> pa.Table:
        V = _emb_matrix(tbl.column("embedding"))
        Vn = V / np.linalg.norm(V, axis=1, keepdims=True)
        cos = np.einsum("ij,ij->i", Vn[ia], Vn[ib])
        m = cos >= threshold
        return pa.table({**_id_pairs(tbl, "vec_id", ia[m], ib[m], ("vec_a", "vec_b")),
                         "cosine": pa.array(rnd(cos[m]))})

    pairs = _band_pairs(
        banded, "bkey", "vec_id", cosine_pairs, max_bucket,
        "signature too short for corpus size — raise n_bits",
    )
    # cross-table dedup: cosine is a pure function of the pair, min() = the value
    return grouped_agg(pairs, ["vec_a", "vec_b"], {"cosine": ("cosine", "min")})


_DENOISE_EXPECTED = "/tmp/efr_expected_denoised.parquet"


@register(
    "denoised_value_stats",
    f"SELECT * FROM read_parquet('{_DENOISE_EXPECTED}')",
)
def denoised_value_stats(sf_dir: str):
    """M1 (WTfilt wavelet denoise) applied to each user's value series, then
    grouped stats over the denoised channel — the denoise→aggregate chain of
    extract_HRV (utils.py:66-79 → HRV_features.py:92).  Oracle: independent
    loop-based db6 periodization DWT + adjoint reconstruct (tests/oracle.py),
    cached as parquet per sf_dir."""
    from ..functions.stats import zero_crossings
    from ..functions.wavelet import wt_denoise

    def compute():
        from tests.oracle import _o_zero_cross_threshold, oracle_wt_denoise

        df = pd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                             columns=["user_id", "ts", "event_id", "value"])
        rows = []
        for uid, g in df.sort_values(["ts", "event_id"]).groupby("user_id"):
            d = oracle_wt_denoise(g["value"].to_numpy(dtype=np.float64))
            rows.append((int(uid), float(rnd_sig(np.array([d.std()]))[0]),
                         int(_o_zero_cross_threshold(d))))
        return pa.table({"user_id": pa.array([r[0] for r in rows], pa.int64()),
                         "denoised_std": pa.array([r[1] for r in rows], pa.float64()),
                         "denoised_zero_cross": pa.array([r[2] for r in rows], pa.int64())})

    _expected_from_oracle(_DENOISE_EXPECTED, compute, key=os.path.abspath(sf_dir))

    ds = _events(sf_dir, ["user_id", "ts", "event_id", "value"])

    def per_bucket(tbl: pa.Table) -> pa.Table:
        starts, ends = entity_segments(tbl, "user_id")
        users = np.asarray(tbl.column("user_id").combine_chunks())
        v = np.asarray(tbl.column("value").combine_chunks(), dtype=np.float64)
        uid, dn_std, dn_zc = [], [], []
        for s, e in zip(starts, ends):
            d = wt_denoise(v[s:e])
            uid.append(int(users[s]))
            dn_std.append(float(d.std()))
            dn_zc.append(int(zero_crossings(d)))
        return pa.table({"user_id": pa.array(uid, pa.int64()),
                         "denoised_std": pa.array(rnd_sig(np.array(dn_std, dtype=np.float64))),
                         "denoised_zero_cross": pa.array(dn_zc, pa.int64())})

    return grouped_sorted_apply(ds, "user_id", ["ts", "event_id"], per_bucket, NB)


@register(
    "corpus_windows",
    f"SELECT * FROM read_parquet('{_FIXTURE_BASE}/expected_corpus_windows.parquet')",
)
def corpus_windows_q(sf_dir: str):
    """E5/O5/O2: streaming corpus windowing (fixed windows, 50% overlap,
    zero-pad tail) + per-class oversampling + deterministic hash split
    (≙ preprocess-300hz.py end-to-end, without the 28 GB driver array).
    Oracle: independent single-threaded window replay (tests/oracle.py)."""
    from .corpus_windows import corpus_windows

    events_dir, _ = _fixture(sf_dir)

    def compute():
        from tests.oracle import oracle_corpus_windows

        return oracle_corpus_windows(events_dir, oversample={"AF": 2, "Normal": 1, "STE": 3})

    _expected_from_oracle(os.path.join(_FIXTURE_BASE, "expected_corpus_windows.parquet"), compute)
    # the pipeline's schema carries the full spec_tile fixed_size_list
    # column (gated value-level in pytest); the driver compare hashes its
    # scalar spec_checksum alongside the other columns
    return corpus_windows(events_dir, num_buckets=NB,
                          oversample={"AF": 2, "Normal": 1, "STE": 3}).drop_columns(["spec_tile"])


@register(
    "custom_featurespec",
    f"SELECT * FROM read_parquet('{_FIXTURE_BASE}/expected_featurespec.parquet')",
)
def custom_featurespec(sf_dir: str):
    """§2.10 user-extension surface: plain-numpy UDF FeatureSpecs fused into
    one bucket pass (entity + session scopes).  Oracle: independent pandas
    replay of the same specs (tests/oracle.py)."""
    from ..api import FeatureSpec, extract_features

    events_dir, _ = _fixture(sf_dir)

    def compute():
        from tests.oracle import oracle_custom_featurespec

        df = oracle_custom_featurespec(events_dir)
        for c in df.columns:
            if c != "image_id":
                df[c] = rnd_sig(df[c].to_numpy())
        return df

    _expected_from_oracle(os.path.join(_FIXTURE_BASE, "expected_featurespec.parquet"), compute)
    specs = [
        FeatureSpec("v_mean", lambda s: s["v"].mean()),
        FeatureSpec("v_p90", lambda s: np.percentile(s["v"], 90)),
        FeatureSpec("u_max_ms", lambda s: s["u"].max() if s["u"].size else np.nan, inputs=("u",)),
        FeatureSpec("sess_len", lambda s: float(s["v"].size), scope="session"),
    ]
    out = extract_features(events_dir, specs, num_buckets=NB)
    return out.map_batches(_round_feature_batch, batch_format="pyarrow", zero_copy_batch=True)


@register(
    "label_dim_join",
    f"""
    SELECT e.label,
           CAST(min(d.code) AS BIGINT) AS code,
           count(*) AS n_rows,
           ROUND(sum(ROUND(d.weight * 100)) / 100, 6) AS total_weight
    FROM (SELECT unnest(string_split(caption, ',')) AS label
          FROM read_parquet('{_FIXTURE_BASE}/events/*.parquet')) e
    JOIN read_csv('{_FIXTURE_BASE}/labels.csv') d ON d.label = e.label
    GROUP BY e.label
    """,
)
def label_dim_join(sf_dir: str):
    """S4/J2: CSV dimension table (label → code, weight ≙ REFERENCE.csv,
    preprocess-300hz.py:127-152) broadcast-joined to exploded captions."""
    import ray.data as rd

    from ..functions.transforms import LABEL_VOCAB
    from ..sources.readers import read_events

    events_dir, _ = _fixture(sf_dir)
    csv_path = os.path.join(os.path.dirname(events_dir), "labels.csv")
    if not os.path.exists(csv_path):
        weights = [1.0, 1.0, 1.2, 5.0, 0.7, 2.0, 1.5, 1.2, 5.0]
        with open(csv_path, "w") as f:
            f.write("label,code,weight\n")
            for i, (name, w) in enumerate(zip(LABEL_VOCAB, weights), start=1):
                f.write(f"{name},{i},{w}\n")
    dim = pa.concat_tables(
        [pa.table(b) for b in rd.read_csv(csv_path).iter_batches(batch_format="pyarrow")]
    )

    ds = read_events(events_dir, columns=["image_id", "caption"])

    def explode(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch.column("caption"), ",")
        n = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        idx = np.repeat(np.arange(batch.num_rows), n)
        return pa.table(
            {
                "image_id": batch.column("image_id").take(pa.array(idx)),
                "label": pc.list_flatten(toks),
            }
        )

    exploded = ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
    joined = broadcast_join(exploded, dim, on="label", how="inner")
    return grouped_agg(
        joined, ["label"],
        {"code": ("code", "min"), "n_rows": ("*", "count"), "total_weight": ("weight", "sum_cents")},
        round_to=6,
    )


@register(
    "asof_windowed_features",
    """
    SELECT q.event_id,
           count(e.ts) AS w_n,
           ROUND(avg(ROUND(e.value * 100)) / 100, 6) AS w_mean,
           ROUND(max(e.value), 6) AS w_max
    FROM (SELECT * FROM events WHERE event_type = 'error') q
    LEFT JOIN (SELECT * FROM events WHERE event_type <> 'error') e
      ON e.user_id = q.user_id AND e.ts <= q.ts
         AND e.ts >= q.ts - INTERVAL 2 HOUR
    GROUP BY q.event_id
    """,
)
def asof_windowed_features(sf_dir: str):
    """Bounded-lookback point-in-time aggregates: features over the 2 h
    window ending at each error event (w* agg family — the PIT feature-store
    staple the reference's whole-record stats generalize to)."""
    ds = _events(sf_dir, ["user_id", "ts", "event_id", "event_type", "value"])
    out = asof_self_join(
        ds, key="user_id", ts_col="ts",
        left_mask=lambda b: pc.equal(b.column("event_type"), "error"),
        right_mask=lambda b: pc.not_equal(b.column("event_type"), "error"),
        aggs={
            "w_n": ("value_c", "wcount"),
            "w_mean_c": ("value_c", "wmean"),
            "w_max": ("value", "wmax"),
        },
        left_cols=["event_id"],
        right_exprs={"value_c": lambda rb: pa.array(
            np.rint(np.asarray(rb.column("value").combine_chunks(), dtype=np.float64) * 100))},
        num_buckets=NB,
        window_us=2 * 3600 * 1_000_000,
    )

    def shape(batch: pa.Table) -> pa.Table:
        mean_c = np.asarray(batch.column("w_mean_c").combine_chunks().fill_null(np.nan), dtype=np.float64)
        wmax = np.asarray(batch.column("w_max").combine_chunks().fill_null(np.nan), dtype=np.float64)
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "w_n": batch.column("w_n"),
                "w_mean": pa.array(rnd(mean_c / 100), pa.float64()),
                "w_max": pa.array(rnd(wmax), pa.float64()),
            }
        )

    return out.map_batches(shape, batch_format="pyarrow", zero_copy_batch=True)


@register(
    "rolling_time_window",
    """
    SELECT event_id,
           count(*) OVER w AS tw_n,
           ROUND(avg(ROUND(value * 100)) OVER w / 100, 6) AS tw_mean
    FROM events
    WINDOW w AS (PARTITION BY user_id ORDER BY ts
                 RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)
    """,
)
def rolling_time_window(sf_dir: str):
    """Time-based rolling window (SQL RANGE frame): per row, stats over the
    user's events in the trailing 1 h — searchsorted lower bound + prefix
    sums, fully vectorized per bucket."""
    ds = _events(sf_dir, ["user_id", "ts", "event_id", "value"])
    win_us = 3600 * 1_000_000

    def per_bucket(tbl: pa.Table) -> pa.Table:
        starts, ends = entity_segments(tbl, "user_id")
        ts = np.asarray(tbl.column("ts").cast(pa.int64()).combine_chunks())
        v = np.rint(np.asarray(tbl.column("value").combine_chunks(), dtype=np.float64) * 100)
        n_out = np.empty(tbl.num_rows, dtype=np.int64)
        m_out = np.empty(tbl.num_rows, dtype=np.float64)
        for s, e in zip(starts, ends):
            t = ts[s:e]
            cs = np.concatenate(([0.0], np.cumsum(v[s:e])))
            lo = np.searchsorted(t, t - win_us, side="left")
            hi = np.arange(t.size) + 1
            cnt = hi - lo
            n_out[s:e] = cnt
            m_out[s:e] = (cs[hi] - cs[lo]) / cnt / 100.0
        return pa.table(
            {
                "event_id": tbl.column("event_id"),
                "tw_n": pa.array(n_out),
                "tw_mean": pa.array(rnd(m_out)),
            }
        )

    return grouped_sorted_apply(ds, "user_id", ["ts", "event_id"], per_bucket, NB)


# ---------------------------------------------------------------------------
# kernel twin queries — the family stat kernels (functions/stats.py) replayed
# over the driver's events table with FULL SQL oracles, so the same code the
# fixture families run is driver-hash-gated (VERDICT r1 task 2)
# ---------------------------------------------------------------------------


def _per_user_stats(sf_dir: str, out_spec: "dict[str, pa.DataType]", fn):
    """Run ``fn(ts_us_seg, v_seg) -> tuple`` per entity on the bucket spine."""
    ds = _events(sf_dir, ["user_id", "ts", "event_id", "value"])

    def per_bucket(tbl: pa.Table) -> pa.Table:
        starts, ends = entity_segments(tbl, "user_id")
        users = np.asarray(tbl.column("user_id").combine_chunks())
        ts = np.asarray(tbl.column("ts").cast(pa.int64()).combine_chunks())
        v = np.asarray(tbl.column("value").combine_chunks(), dtype=np.float64)
        rows = [(int(users[s]), *fn(ts[s:e], v[s:e])) for s, e in zip(starts, ends)]
        names = ["user_id"] + list(out_spec)
        types = [pa.int64()] + list(out_spec.values())
        cols = list(zip(*rows)) if rows else [[] for _ in names]
        return pa.table({n: pa.array(list(c), t) for n, c, t in zip(names, cols, types)})

    return grouped_sorted_apply(ds, "user_id", ["ts", "event_id"], per_bucket, NB)


@register(
    "kernel_zigzag",
    """
    WITH d AS (
      SELECT user_id, ts, event_id,
             value - lag(value) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS dv
      FROM events
    ), nz AS (
      SELECT user_id, ts, event_id, CASE WHEN dv > 0 THEN 1 ELSE -1 END AS sg
      FROM d WHERE dv IS NOT NULL AND dv <> 0
    ), ch AS (
      SELECT user_id, sg,
             lag(sg) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS ps
      FROM nz
    )
    SELECT u.user_id, COALESCE(z.zigzag, 0) AS zigzag
    FROM (SELECT DISTINCT user_id FROM events) u
    LEFT JOIN (SELECT user_id,
                      count(*) FILTER (WHERE ps IS NOT NULL AND sg <> ps) AS zigzag
               FROM ch GROUP BY user_id) z USING (user_id)
    """,
)
def kernel_zigzag(sf_dir: str):
    """A9 zigzag (direction-change count, LONG_features.py:17-29) over each
    user's value series — the exact kernel the LONG family composes."""
    from ..functions.stats import zigzag

    return _per_user_stats(sf_dir, {"zigzag": pa.int64()},
                           lambda ts, v: (zigzag(v),))


@register(
    "kernel_thres_cross",
    """
    WITH m AS (SELECT user_id, avg(ROUND(value * 100)) / 100 AS mu
               FROM events GROUP BY user_id),
    s AS (
      SELECT e.user_id,
             row_number() OVER (PARTITION BY e.user_id ORDER BY ts, event_id) AS rn,
             CASE WHEN value - mu > 0 THEN 1 WHEN value - mu < 0 THEN -1 ELSE 0 END AS sg
      FROM events e JOIN m USING (user_id)
    ),
    c AS (SELECT user_id, rn, sg,
                 lag(sg) OVER (PARTITION BY user_id ORDER BY rn) AS ps FROM s),
    cr AS (SELECT user_id, rn FROM c WHERE sg * ps < 0),
    agg AS (SELECT user_id, count(*) AS n_cross,
                   CASE WHEN count(*) >= 2
                        THEN CAST(max(rn) - min(rn) AS DOUBLE) / (count(*) - 1)
                        ELSE 0.0 END AS width
            FROM cr GROUP BY user_id)
    SELECT u.user_id, COALESCE(a.n_cross, 0) AS n_cross,
           ROUND(COALESCE(a.width, 0.0), 6) AS mean_cross_width
    FROM (SELECT DISTINCT user_id FROM events) u LEFT JOIN agg a USING (user_id)
    """,
)
def kernel_thres_cross(sf_dir: str):
    """A10 threshold crossing (LONG_features.py:215-241): crossing count of
    the mean + mean inter-crossing width (exact-cents mean for parity)."""
    from ..functions.stats import thres_crossing

    def f(ts, v):
        mu = np.rint(v * 100).mean() / 100
        n, w = thres_crossing(v, threshold=mu)
        return n, float(rnd(w))

    return _per_user_stats(sf_dir, {"n_cross": pa.int64(), "mean_cross_width": pa.float64()}, f)


@register(
    "kernel_mad_cov",
    """
    WITH med AS (SELECT user_id, quantile_cont(value, 0.5) AS med
                 FROM events GROUP BY user_id),
    madt AS (SELECT e.user_id, quantile_cont(abs(value - med), 0.5) AS mad
             FROM events e JOIN med USING (user_id) GROUP BY e.user_id),
    r AS (SELECT user_id, value,
                 row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn,
                 count(*) OVER (PARTITION BY user_id) AS n
          FROM events),
    t AS (SELECT user_id, value, rn FROM r WHERE rn > 1 AND rn < n),
    cov1 AS (SELECT user_id,
                    CASE WHEN count(*) > 0 AND avg(value) <> 0
                         THEN stddev_pop(value) / avg(value) ELSE 0.0 END AS cov_t
             FROM t GROUP BY user_id),
    dtt AS (SELECT user_id,
                   value - lag(value) OVER (PARTITION BY user_id ORDER BY rn) AS dv
            FROM t),
    cov2 AS (SELECT user_id,
                    CASE WHEN count(dv) > 0 AND avg(dv) <> 0
                         THEN stddev_pop(dv) / avg(dv) ELSE 0.0 END AS cov_dt
             FROM dtt WHERE dv IS NOT NULL GROUP BY user_id)
    SELECT m.user_id, ROUND(m.mad, 6) AS mad,
           ROUND(COALESCE(c1.cov_t, 0.0), 6) AS cov_t,
           ROUND(COALESCE(c2.cov_dt, 0.0), 6) AS cov_dt
    FROM madt m
    LEFT JOIN cov1 c1 USING (user_id) LEFT JOIN cov2 c2 USING (user_id)
    """,
)
def kernel_mad_cov(sf_dir: str):
    """A23 MAD + A24 CoeffOfVariation (QRS_features.py:335-367) over each
    user's value series."""
    from ..functions.stats import coeff_of_variation, mad

    def f(ts, v):
        c1, c2 = coeff_of_variation(v)
        return float(rnd(mad(v))), float(rnd(c1)), float(rnd(c2))

    return _per_user_stats(
        sf_dir, {"mad": pa.float64(), "cov_t": pa.float64(), "cov_dt": pa.float64()}, f
    )


@register(
    "kernel_poincare",
    """
    WITH w AS (
      SELECT user_id, value,
             lead(value) OVER win AS nxt,
             value - lag(value) OVER win AS dv,
             lead(value) OVER win - value AS dnext,
             count(*) OVER (PARTITION BY user_id) AS n
      FROM events WINDOW win AS (PARTITION BY user_id ORDER BY ts, event_id)
    )
    SELECT user_id,
      ROUND(CASE WHEN max(n) >= 3 THEN stddev_pop(value) ELSE 0.0 END, 6) AS var_sdnn,
      CAST(CASE WHEN max(n) >= 3
                THEN count(*) FILTER (WHERE abs(dv) > 50) ELSE 0 END AS BIGINT) AS var_nn50,
      ROUND(CASE WHEN max(n) >= 3
                 THEN CAST(count(*) FILTER (WHERE abs(dv) > 50) AS DOUBLE) / (max(n) - 1)
                 ELSE 0.0 END, 6) AS var_pnn50,
      ROUND(CASE WHEN max(n) >= 3
                  AND avg(value + nxt) FILTER (WHERE nxt IS NOT NULL) <> 0
                  AND count(*) FILTER (WHERE dv IS NOT NULL AND dnext IS NOT NULL) > 0
                 THEN avg(sqrt(dv * dv + dnext * dnext))
                        FILTER (WHERE dv IS NOT NULL AND dnext IS NOT NULL)
                      / avg(value + nxt) FILTER (WHERE nxt IS NOT NULL)
                 ELSE 0.0 END, 6) AS var_stepping,
      ROUND(CASE WHEN max(n) >= 3
                  AND 2 * var_pop(value) - 0.5 * var_pop(dv) > 0
                 THEN sqrt(0.5 * var_pop(dv))
                      / sqrt(2 * var_pop(value) - 0.5 * var_pop(dv))
                 ELSE 0.0 END, 6) AS var_dispersion
    FROM w GROUP BY user_id
    """,
)
def kernel_poincare(sf_dir: str):
    """A18 Variability/Poincaré block (QRS_features.py:509-538) over each
    user's value series: SDNN, NN50, pNN50, Stepping, Dispersion."""
    from ..functions.stats import variability

    def f(ts, v):
        out = variability(v)
        return (float(rnd(out[0])), int(out[1]), float(rnd(out[2])),
                float(rnd(out[3])), float(rnd(out[4])))

    return _per_user_stats(
        sf_dir,
        {"var_sdnn": pa.float64(), "var_nn50": pa.int64(), "var_pnn50": pa.float64(),
         "var_stepping": pa.float64(), "var_dispersion": pa.float64()},
        f,
    )


def _bin_sql_cases() -> str:
    """One count+ratio column pair per two-sided descending bin — bin j is
    the half-open interval (edge[j], edge[j-1]] of the strict first-match
    scan (functions/stats.bin_stat, QRS_features.py:261-294)."""
    from ..functions.stats import _BIN_INTERVAL_1, _BIN_INTERVAL_2, bin_edges

    parts = []
    for side, intervals in (("bin1", _BIN_INTERVAL_1), ("bin2", _BIN_INTERVAL_2)):
        edges = bin_edges(intervals)
        for e, prev in zip(edges, [None] + edges[:-1]):
            ub = f" AND value <= {prev}" if prev is not None else ""
            parts.append(
                f"      count(*) FILTER (WHERE value > {e}{ub}) AS {side}_cnt_{e},\n"
                f"      ROUND(CAST(count(*) FILTER (WHERE value > {e}{ub}) AS DOUBLE)\n"
                f"            / count(*), 6) AS {side}_ratio_{e},"
            )
    return "\n".join(parts).rstrip(",")


@register(
    "kernel_bins",
    f"""
    SELECT user_id,
{_bin_sql_cases()}
    FROM events GROUP BY user_id
    """,
)
def kernel_bins(sf_dir: str):
    """A19 bin_stat first-match descending scan (QRS_features.py:261-294):
    TWO-SIDED 240±offset edges, strict `>`, 16+10 bins → 52 features
    (counts + ratios for both interval sets)."""
    from ..functions.stats import (
        _BIN_INTERVAL_1,
        _BIN_INTERVAL_2,
        bin_edges,
        bin_stat,
    )

    n1 = len(bin_edges(_BIN_INTERVAL_1))
    n2 = len(bin_edges(_BIN_INTERVAL_2))

    def f(ts, v):
        b = bin_stat(v)  # n1 cnt_1, n1 ratio_1, n2 cnt_2, n2 ratio_2
        out = []
        for j in range(n1):
            out.append(int(b[j]))
            out.append(float(rnd(b[n1 + j])))
        for j in range(n2):
            out.append(int(b[2 * n1 + j]))
            out.append(float(rnd(b[2 * n1 + n2 + j])))
        return tuple(out)

    spec: dict = {}
    for side, intervals in (("bin1", _BIN_INTERVAL_1), ("bin2", _BIN_INTERVAL_2)):
        for e in bin_edges(intervals):
            spec[f"{side}_cnt_{e}"] = pa.int64()
            spec[f"{side}_ratio_{e}"] = pa.float64()
    return _per_user_stats(sf_dir, spec, f)


@register(
    "kernel_yuxi",
    """
    WITH med AS (SELECT user_id, quantile_cont(value, 0.5) AS med
                 FROM events GROUP BY user_id),
    r AS (SELECT e.user_id, value / med AS rr,
                 (value + lead(value) OVER w) / med AS s2n,
                 (lag(value) OVER w + value) / med AS s2p
          FROM events e JOIN med USING (user_id)
          WINDOW w AS (PARTITION BY e.user_id ORDER BY ts, event_id))
    SELECT user_id,
      ROUND(avg(CASE WHEN abs(rr - 1) <= 0.05 THEN 1.0 ELSE 0.0 END), 6) AS yuxi_1x,
      ROUND(avg(CASE WHEN abs(rr - 2) <= 2 * 0.05
                       OR (s2n IS NOT NULL AND abs(s2n - 2) <= 2 * 0.05)
                       OR (s2p IS NOT NULL AND abs(s2p - 2) <= 2 * 0.05)
                     THEN 1.0 ELSE 0.0 END), 6) AS yuxi_2x,
      ROUND(avg(CASE WHEN abs(rr - 3) <= 3 * 0.05 THEN 1.0 ELSE 0.0 END), 6) AS yuxi_3x
    FROM r GROUP BY user_id
    """,
)
def kernel_yuxi(sf_dir: str):
    """A17 QRSYuxi fractions (QRS_features.py:463-506) over each user's
    value series (1x/2x/3x-of-median bands incl. 2-interval sums)."""
    from ..functions.stats import yuxi_fractions

    def f(ts, v):
        y = yuxi_fractions(v)
        return tuple(float(rnd(x)) for x in y)

    return _per_user_stats(
        sf_dir, {"yuxi_1x": pa.float64(), "yuxi_2x": pa.float64(), "yuxi_3x": pa.float64()}, f
    )


@register(
    "kernel_autocorr",
    """
    WITH l AS (SELECT user_id, value,
                      lag(value, 1) OVER w AS v1, lag(value, 2) OVER w AS v2
               FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id))
    SELECT user_id,
      ROUND(COALESCE(corr(value, v1), 0.0), 6) AS ac1,
      ROUND(COALESCE(corr(value, v2), 0.0), 6) AS ac2
    FROM l GROUP BY user_id
    """,
)
def kernel_autocorr(sf_dir: str):
    """A8/A20 Pearson autocorrelation at lags 1-2 (LONG_features.py:193-205)
    over each user's value series."""
    from ..functions.stats import autocorr

    def f(ts, v):
        a = autocorr(v, 3)
        return float(rnd(a[1])), float(rnd(a[2]))

    return _per_user_stats(sf_dir, {"ac1": pa.float64(), "ac2": pa.float64()}, f)


@register(
    "kernel_session_rollup",
    SESSION_SQL_CTE
    + """
    , per_sess AS (
      SELECT user_id, session_id, count(*) AS n,
             epoch_us(max(ts)) - epoch_us(min(ts)) AS dur_us,
             (epoch_us(max(ts)) - epoch_us(min(ts))) / 1e6 AS dur_s,
             CASE WHEN count(*) > 1
                  THEN (epoch_us(max(ts)) - epoch_us(min(ts))) / (count(*) - 1) / 1e6
                  ELSE 0.0 END AS mean_u,
             sum(ROUND(value * 100)) AS sum_c,
             max(ROUND(value * 100)) - min(ROUND(value * 100)) AS amp_c
      FROM sess GROUP BY user_id, session_id
    )
    -- means computed from exact integer µs/cents sums with a FIXED division
    -- sequence (total / n_sessions / scale) so Ray and SQL are bit-identical
    -- before rounding: decimal data sits exactly on round-half grid points,
    -- where any summation-order difference would flip the last digit
    SELECT user_id,
      ROUND(avg(n), 6) AS sess_n_mean, CAST(max(n) AS BIGINT) AS sess_n_max,
      ROUND(quantile_cont(n, 0.75), 6) AS sess_n_p75,
      ROUND(sum(dur_us) / count(*) / 1e6, 6) AS sess_dur_mean,
      ROUND(max(dur_us) / 1e6, 6) AS sess_dur_max,
      ROUND(quantile_cont(dur_s, 0.25), 6) AS sess_dur_p25,
      ROUND(avg(mean_u), 4) AS sess_u_mean, ROUND(max(mean_u), 6) AS sess_u_max,
      ROUND(sum(sum_c) / count(*) / 100, 6) AS sess_v_mean,
      ROUND(min(sum_c) / 100, 6) AS sess_v_min,
      ROUND(sum(amp_c) / count(*) / 100, 6) AS sess_amp_mean,
      ROUND(max(amp_c) / 100, 6) AS sess_amp_max
    FROM per_sess GROUP BY user_id
    """,
)
def kernel_session_rollup(sf_dir: str):
    """A13 SHORT-family pattern: per-session base features rolled up across
    sessions per user (extract_SHORT.py:21,142-297 restated on the events
    table with the 1 h session gap)."""
    ds = _events(sf_dir, ["user_id", "ts", "event_id", "value"])

    def per_bucket(tbl: pa.Table) -> pa.Table:
        starts, ends = session_segments(tbl, "user_id", "ts", gap_us=SESSION_GAP_S * 1_000_000)
        users = np.asarray(tbl.column("user_id").combine_chunks())
        ts = np.asarray(tbl.column("ts").cast(pa.int64()).combine_chunks())
        vc = np.rint(np.asarray(tbl.column("value").combine_chunks(), dtype=np.float64) * 100)
        v = np.asarray(tbl.column("value").combine_chunks(), dtype=np.float64)
        su, n_, dur_us, mu, svc, ampc = [], [], [], [], [], []
        for s, e in zip(starts, ends):
            su.append(int(users[s]))
            n = e - s
            n_.append(n)
            d = int(ts[e - 1] - ts[s])
            dur_us.append(d)
            mu.append(d / (n - 1) / 1e6 if n > 1 else 0.0)
            svc.append(int(vc[s:e].sum()))
            ampc.append(int(vc[s:e].max() - vc[s:e].min()))
        su = np.asarray(su)
        n_ = np.asarray(n_, dtype=np.float64)
        dur_us = np.asarray(dur_us, dtype=np.int64)
        mu = np.asarray(mu)
        svc = np.asarray(svc, dtype=np.int64)
        ampc = np.asarray(ampc, dtype=np.int64)
        uid, rows = [], []
        for u in np.unique(su):
            m = su == u
            uid.append(int(u))
            ns = int(m.sum())
            # exact integer totals with the SAME division sequence as the SQL
            # oracle (total / n / scale) — bit-identical before rounding;
            # sess_u_mean sums per-session float quotients (irreducibly
            # order-dependent) so it rounds at 4 dp
            rows.append((
                rnd(n_[m].mean()), int(n_[m].max()), rnd(np.percentile(n_[m], 75)),
                rnd(float(dur_us[m].sum()) / ns / 1e6), rnd(float(dur_us[m].max()) / 1e6),
                rnd(np.percentile(dur_us[m] / 1e6, 25)),
                rnd(mu[m].mean(), 4), rnd(mu[m].max()),
                rnd(float(svc[m].sum()) / ns / 100), rnd(float(svc[m].min()) / 100),
                rnd(float(ampc[m].sum()) / ns / 100), rnd(float(ampc[m].max()) / 100),
            ))
        names = ["sess_n_mean", "sess_n_max", "sess_n_p75", "sess_dur_mean", "sess_dur_max",
                 "sess_dur_p25", "sess_u_mean", "sess_u_max", "sess_v_mean", "sess_v_min",
                 "sess_amp_mean", "sess_amp_max"]
        cols = list(zip(*rows)) if rows else [[] for _ in names]
        out: dict = {"user_id": pa.array(uid, pa.int64())}
        for i, nm in enumerate(names):
            typ = pa.int64() if nm == "sess_n_max" else pa.float64()
            out[nm] = pa.array(list(cols[i]), typ)
        return pa.table(out)

    return grouped_sorted_apply(ds, "user_id", ["ts", "event_id"], per_bucket, NB)


_EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]


@register(
    "indicator_grid_hourly",
    f"""
    WITH span AS (SELECT user_id, min(ts) AS t0, max(ts) AS t1 FROM events GROUP BY user_id),
    grid AS (
      SELECT user_id, i.i AS cell
      FROM span, range(0, 4096) i(i)
      WHERE i.i <= CAST(floor((epoch_us(t1) - epoch_us(t0)) / 3600000000.0) AS BIGINT)
    ),
    marks AS (
      SELECT e.user_id,
             CAST(floor((epoch_us(e.ts) - epoch_us(s.t0)) / 3600000000.0) AS BIGINT) AS cell,
             {", ".join(f"max(CASE WHEN event_type = '{t}' THEN 1 ELSE 0 END) AS has_{t}"
                        for t in _EVENT_TYPES)}
      FROM events e JOIN span s USING (user_id)
      GROUP BY 1, 2
    )
    SELECT g.user_id, g.cell,
           {", ".join(f"CAST(COALESCE(m.has_{t}, 0) AS BIGINT) AS has_{t}" for t in _EVENT_TYPES)}
    FROM grid g LEFT JOIN marks m USING (user_id, cell)
    """,
)
def indicator_grid_hourly(sf_dir: str):
    """E2: per-user hourly 0/1 indicator grid per event type (≙ the
    reference's R/P/Q/T wave indicator grids, preprocess-300hz.py:190-253)."""
    from ..stages.window import indicator_grid

    ds = _events(sf_dir, ["user_id", "ts", "event_id", "event_type"])

    def per_bucket(tbl: pa.Table) -> pa.Table:
        out = indicator_grid(tbl, "user_id", "ts", "event_type",
                             3600 * 1_000_000, _EVENT_TYPES)
        if out.num_rows:
            _guard_oracle_cap(int(pc.max(out.column("cell")).as_py()) + 1, 4096,
                              "indicator_grid_hourly cells per user")
        return out

    return grouped_sorted_apply(ds, "user_id", ["ts", "event_id"], per_bucket, NB)


@register(
    "doc_fingerprints",
    """
    WITH wins AS (
      SELECT doc_id,
             ('0x' || substr(md5(substr(text, CAST(i AS INT), 16)), 1, 16))::UBIGINT
               % 4294967296 AS h
      FROM documents, range(1, 4097) t(i)
      WHERE i <= length(text) - 15
    ),
    kept AS (SELECT DISTINCT doc_id, h FROM wins WHERE h % 8 = 0)
    SELECT d.doc_id,
           CAST(COALESCE(k.n, 0) AS BIGINT) AS n_fps,
           CAST(k.mn AS BIGINT) AS min_fp,
           CAST(k.mx AS BIGINT) AS max_fp
    FROM documents d LEFT JOIN (
      SELECT doc_id, count(*) AS n, min(h) AS mn, max(h) AS mx
      FROM kept GROUP BY doc_id
    ) k USING (doc_id)
    """,
)
def doc_fingerprints(sf_dir: str):
    """Winnowing-style document fingerprints (rolling md5 windows, keep
    h ≡ 0 mod 8) — the content-similarity fingerprint unit; md5-derived so
    the SQL oracle reproduces it exactly."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def fp(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        for t in texts:
            _guard_oracle_cap(len(t) - 15, 4096, "doc_fingerprints window count")
            if 0 < len(t) < 16:
                # Python's rolling_fingerprint hashes the whole short text;
                # the SQL oracle's window scan emits zero rows — refuse the
                # divergence rather than hash-mismatch on a bigger fixture
                raise ValueError(
                    f"doc_fingerprints: text shorter than the 16-char window "
                    f"(len={len(t)}) is outside the oracle contract"
                )
        n_fps, mn, mx = [], [], []
        for fps in T.rolling_fingerprints_batch(texts):  # batch window memo
            n_fps.append(len(fps))
            mn.append(fps[0] if fps else None)
            mx.append(fps[-1] if fps else None)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_fps": pa.array(n_fps, pa.int64()),
                "min_fp": pa.array(mn, pa.int64()),
                "max_fp": pa.array(mx, pa.int64()),
            }
        )

    return ds.map_batches(fp, batch_format="pyarrow", zero_copy_batch=True)


_SIMHASH_CTE = """
WITH tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS t FROM documents),
h AS (SELECT doc_id, ('0x' || substr(md5(t), 1, 16))::UBIGINT AS hv FROM tok),
bits AS (
  SELECT doc_id, i.i AS bit,
         sum(CASE WHEN (hv >> CAST(i.i AS UTINYINT)) & 1 = 1 THEN 1 ELSE -1 END) AS acc
  FROM h, range(0, 64) i(i)
  GROUP BY doc_id, i.i
),
sh AS (
  SELECT doc_id,
         CAST(sum(CASE WHEN acc > 0 THEN
                    CASE WHEN bit = 0 THEN CAST(-9223372036854775808 AS HUGEINT)
                         ELSE CAST(CAST(1 AS BIGINT) << CAST(63 - bit AS INT) AS HUGEINT) END
                  ELSE 0 END) AS BIGINT) AS simhash
  FROM bits GROUP BY doc_id
),
ub AS (
  SELECT doc_id, simhash,
         CAST(CAST(simhash AS HUGEINT)
              + CASE WHEN simhash < 0 THEN 18446744073709551616::HUGEINT ELSE 0 END
              AS UBIGINT) AS u
  FROM sh
),
bands AS (
  SELECT doc_id, simhash, b.b AS band, (u >> CAST(16 * b.b AS UTINYINT)) & 65535 AS key
  FROM ub, range(0, 4) b(b)
)
"""


@register(
    "simhash_near_dups",
    _SIMHASH_CTE
    + """
    SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b,
           CAST(bit_count(xor(a.simhash, b.simhash)) AS BIGINT) AS hamming
    FROM bands a JOIN bands b
      ON a.band = b.band AND a.key = b.key AND a.doc_id < b.doc_id
    WHERE bit_count(xor(a.simhash, b.simhash)) <= 3
    """,
)
def simhash_near_dups(sf_dir: str, max_hamming: int = 3, max_bucket: int = 4096):
    """SimHash near-duplicate pairs: 4×16-bit band index (a pair within
    hamming ≤ 3 of 64 bits must collide in ≥1 band by pigeonhole), exact
    hamming verify (SWAR popcount) inside each ``_band_pairs`` bucket,
    cross-band dedup.  The banded shuffle carries only (doc_id, band key,
    simhash) — never the text.  A bucket above ``max_bucket`` docs fails
    loudly (same contract as near_dup_pairs): a degenerate 16-bit band key
    — boilerplate or empty docs sharing a simhash — would make the
    in-bucket verify O(n²); that means the banding is wrong for the corpus,
    not that the work should quietly proceed."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def sig(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        ids = np.asarray(batch.column("doc_id").combine_chunks()).astype(np.int64)
        sh = T.simhash64_batch(texts)
        u = sh.view(np.uint64)
        b = np.arange(4, dtype=np.uint64)
        # injective (band, 16-bit key) → one int64 blocking key, so the
        # pair expansion rides the shared single-key bucket spine
        bkey = ((b << np.uint64(16))[None, :]
                | ((u[:, None] >> (np.uint64(16) * b[None, :])) & np.uint64(0xFFFF)))
        return pa.table({"doc_id": pa.array(np.repeat(ids, 4)),
                         "bkey": pa.array(bkey.reshape(-1).astype(np.int64)),
                         "simhash": pa.array(np.repeat(sh, 4))})

    banded = ds.map_batches(sig, batch_format="pyarrow", zero_copy_batch=True)

    def hamming_pairs(tbl: pa.Table, ia: np.ndarray, ib: np.ndarray) -> pa.Table:
        sh = np.asarray(tbl.column("simhash").combine_chunks())
        ham = popcount64(sh[ia] ^ sh[ib])
        m = ham <= max_hamming
        return pa.table({**_id_pairs(tbl, "doc_id", ia[m], ib[m]), "hamming": pa.array(ham[m])})

    pairs = _band_pairs(
        banded, "bkey", "doc_id", hamming_pairs, max_bucket,
        "degenerate band key (boilerplate/empty docs?) — re-band or pre-filter",
    )
    # cross-band dedup: hamming is a pure function of the two simhashes, so
    # min() over a pair's band copies IS the pair's hamming
    return grouped_agg(pairs, ["doc_a", "doc_b"], {"hamming": ("hamming", "min")})


@register(
    "bernoulli_sample_docs",
    """
    SELECT lang, count(*) AS n_sampled,
           CAST(sum(n_chars) AS BIGINT) AS sampled_chars
    FROM documents
    WHERE ('0x' || substr(md5(concat('sample|', CAST(doc_id AS VARCHAR))), 1, 4))::INT < 6554
    GROUP BY lang
    """,
)
def bernoulli_sample_docs(sf_dir: str, rate: float = 0.1, seed: str = "sample"):
    """O-section downsampling: deterministic ~10% Bernoulli sample keyed by
    md5(seed|doc_id) — retry-safe (no RNG state, same rows survive a task
    retry), the sampling dual of the oversampling and hash-split operators
    (replaces np.random row sampling, preprocess-300hz.py:315-341)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])
    cut = int(np.floor(rate * 65536 + 0.5))  # 6554 at 10% — matches the SQL literal

    def keep(batch: pa.Table) -> pa.Table:
        return batch.filter(pa.array(md5_keys(batch.column("doc_id"), f"{seed}|", 4) < cut))

    sampled = ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)
    return grouped_agg(sampled, ["lang"],
                       {"n_sampled": ("*", "count"), "sampled_chars": ("n_chars", "sum")})


# ---------------------------------------------------------------------------
# round 4: windowed aggregates, mergeable sketches, stratified sampling,
# histogram aggregates — the remaining aggregate classes a 100-TB training-
# data pipeline leans on (hopping/tumbling event-time rollups, approximate
# distinct without a shuffle of raw values, per-stratum rebalancing)
# ---------------------------------------------------------------------------

_HOP_US = 3_600_000_000  # 1 h hop
_HOP_N = 4               # window width = 4 hops (4 h), epoch-aligned


@register(
    "hopping_window_counts",
    f"""
    SELECT (CAST(floor(epoch_us(ts) / {_HOP_US}.0) AS BIGINT) - i) * {_HOP_US}
             AS window_start_us,
           event_type,
           count(*) AS n_events,
           ROUND(sum(ROUND(value * 100)) / 100, 6) AS sum_value
    FROM events, range(0, {_HOP_N}) t(i)
    GROUP BY 1, 2
    """,
)
def hopping_window_counts(sf_dir: str):
    """Hopping event-time windowed aggregate (width 4 h, hop 1 h): every
    event lands in exactly ``width/hop`` overlapping windows.

    Windows are EPOCH-ALIGNED, so window membership is pure per-row integer
    arithmetic — no global min scan, no state, no shuffle beyond the final
    small groupby.  The explode (×4 rows) happens inside ``map_batches``
    with ``np.repeat`` index math and is immediately collapsed by the
    Arrow-native partial aggregate, so the exchange carries one row per
    (window, type) per block, not per event.  Generalizes the reference's
    fixed per-record grids (preprocess-300hz.py:190-253) to the streaming
    hopping-window rollup a trillion-row ingest monitor needs."""
    ds = _events(sf_dir, ["ts", "event_type", "value"])

    def explode(batch: pa.Table) -> pa.Table:
        ts = np.asarray(batch.column("ts").cast(pa.int64()).combine_chunks())
        base = ts // _HOP_US
        cents = np.rint(
            np.asarray(batch.column("value").combine_chunks(), dtype=np.float64) * 100
        )
        # row i covers windows base[i] - 0 .. base[i] - (_HOP_N - 1)
        win = (base[:, None] - np.arange(_HOP_N, dtype=np.int64)[None, :]).ravel()
        idx = np.repeat(np.arange(len(ts)), _HOP_N)
        return pa.table({
            "window_start_us": pa.array(win * _HOP_US),
            "event_type": batch.column("event_type").take(pa.array(idx)),
            "value_c": pa.array(cents[idx]),
        })

    exploded = ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
    agg = grouped_agg(exploded, ["window_start_us", "event_type"],
                      {"n_events": ("*", "count"), "sum_value_c": ("value_c", "sum")})

    def shape(batch: pa.Table) -> pa.Table:
        s = np.asarray(batch.column("sum_value_c").combine_chunks(), dtype=np.float64)
        return pa.table({
            "window_start_us": batch.column("window_start_us"),
            "event_type": batch.column("event_type"),
            "n_events": batch.column("n_events"),
            "sum_value": pa.array(rnd(s / 100.0), pa.float64()),
        })

    return agg.map_batches(shape, batch_format="pyarrow", zero_copy_batch=True)


_KMV_K = 256
_KMV_SPACE = float(1 << 60)  # md5 15-hex-char prefix = 60-bit hash space


@register(
    "approx_distinct_kmv",
    f"""
    WITH h AS (
      SELECT DISTINCT event_type,
             ('0x' || substr(md5(CAST(CAST(ROUND(value * 100) AS BIGINT) AS VARCHAR)), 1, 15))::UBIGINT AS h
      FROM events
    ),
    r AS (SELECT event_type, h,
                 row_number() OVER (PARTITION BY event_type ORDER BY h) AS rn
          FROM h),
    s AS (SELECT event_type,
                 count(*) FILTER (WHERE rn <= {_KMV_K}) AS n_hashes,
                 max(h) FILTER (WHERE rn = {_KMV_K}) AS kth,
                 count(*) AS nd
          FROM r GROUP BY event_type)
    SELECT event_type,
           CAST(n_hashes AS BIGINT) AS n_hashes,
           CAST(CASE WHEN nd < {_KMV_K} THEN nd
                     ELSE floor({_KMV_K - 1}.0 * {_KMV_SPACE!r} / CAST(kth AS DOUBLE) + 0.5)
                END AS BIGINT) AS est_distinct
    FROM s ORDER BY event_type
    """,
)
def approx_distinct_kmv(sf_dir: str, k: int = _KMV_K):
    """Mergeable k-minimum-values distinct sketch (Bar-Yossef et al. 2002):
    per event_type, estimate the number of distinct cents-scaled values.

    The sketch property that matters at 100 TB: each block contributes at
    most ``k`` 8-byte hashes per group to the exchange — the shuffle volume
    is O(groups × k), independent of row count, where an exact
    count-distinct shuffles every distinct raw value.  Partials keep the k
    smallest md5-derived 60-bit hashes of the *in-batch distinct* values
    (Arrow hash-aggregate dedup first, so the per-row md5 kernel — the same
    cross-engine-reproducible hash the sampling operators key on — runs
    once per distinct value, not per row); the merge is "union, dedup, keep
    k smallest", expressed on the same grouped-sorted spine as every other
    per-key operator.  Estimator: (k-1) / kth-smallest-normalized-hash,
    exact when distinct < k."""
    ds = _events(sf_dir, ["event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        cents = np.rint(
            np.asarray(batch.column("value").combine_chunks(), dtype=np.float64) * 100
        ).astype(np.int64)
        t = pa.table({"event_type": batch.column("event_type"),
                      "c": pa.array(cents)})
        uniq = t.group_by(["event_type", "c"]).aggregate([])
        ets = np.asarray(uniq.column("event_type").to_pandas(), dtype=object)
        hs = md5_keys(uniq.column("c"), "", 15)
        keep_et, keep_h = [], []
        for et in np.unique(ets):
            g = hs[ets == et]
            if g.size > k:
                g = np.partition(g, k - 1)[:k]
            keep_et.append(np.full(g.size, et, dtype=object))
            keep_h.append(g)
        if not keep_et:
            return pa.table({"event_type": pa.array([], pa.string()),
                             "h": pa.array([], pa.uint64())})
        return pa.table({
            "event_type": pa.array(np.concatenate(keep_et).tolist(), pa.string()),
            "h": pa.array(np.concatenate(keep_h), pa.uint64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)

    def merge(tbl: pa.Table) -> pa.Table:
        # tbl sorted by (event_type, h): per-segment dedup + first-k is pure
        # index arithmetic on the sorted spine
        starts, ends = entity_segments(tbl, "event_type")
        ets = tbl.column("event_type")
        hs = np.asarray(tbl.column("h").combine_chunks()).astype(np.uint64)
        out_et, out_n, out_est = [], [], []
        for s, e in zip(starts, ends):
            g = hs[s:e]
            g = g[np.concatenate(([True], g[1:] != g[:-1]))]  # sorted dedup
            n = min(g.size, k)
            if g.size < k:
                est = g.size
            else:
                est = int(np.floor((k - 1) * _KMV_SPACE / np.float64(g[k - 1]) + 0.5))
            out_et.append(ets[s].as_py())
            out_n.append(n)
            out_est.append(est)
        return pa.table({"event_type": pa.array(out_et, pa.string()),
                         "n_hashes": pa.array(out_n, pa.int64()),
                         "est_distinct": pa.array(out_est, pa.int64())})

    out = grouped_sorted_apply(partials, "event_type", ["h"], merge, NB)
    return out.sort("event_type")


_STRAT_RATES = {"en": 0.05}   # head-language downsample
_STRAT_DEFAULT = 0.2          # tail languages keep 20%


@register(
    "stratified_sample_docs",
    f"""
    SELECT lang, count(*) AS n_sampled,
           CAST(sum(n_chars) AS BIGINT) AS sampled_chars
    FROM documents
    WHERE ('0x' || substr(md5(concat('strat|', CAST(doc_id AS VARCHAR))), 1, 4))::INT
          < (CASE WHEN lang = 'en' THEN {int(np.floor(0.05 * 65536 + 0.5))}
                  ELSE {int(np.floor(0.2 * 65536 + 0.5))} END)
    GROUP BY lang
    """,
)
def stratified_sample_docs(sf_dir: str, seed: str = "strat"):
    """Stratified deterministic sampling: per-stratum (language) keep-rates
    rebalance a head-heavy corpus — the language-rebalancing step of a
    web-crawl training mix.  Same md5 keep-key as the Bernoulli sampler
    (retry-safe, no RNG state); the rate table is a broadcast-size constant
    resolved per row with a vectorized dictionary lookup, so adding strata
    never adds a shuffle."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])
    cuts = {lang: int(np.floor(r * 65536 + 0.5)) for lang, r in _STRAT_RATES.items()}
    default_cut = int(np.floor(_STRAT_DEFAULT * 65536 + 0.5))

    def keep(batch: pa.Table) -> pa.Table:
        langs = batch.column("lang").combine_chunks().dictionary_encode()
        lut = np.array([cuts.get(lang, default_cut) for lang in langs.dictionary.to_pylist()],
                       dtype=np.uint64)
        h = md5_keys(batch.column("doc_id"), f"{seed}|", 4)
        return batch.filter(pa.array(h < lut[np.asarray(langs.indices)]))

    sampled = ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)
    return grouped_agg(sampled, ["lang"],
                       {"n_sampled": ("*", "count"), "sampled_chars": ("n_chars", "sum")})


_HIST_LO, _HIST_W, _HIST_NBINS = 0.0, 16.0, 32  # 32 bins over [0, 512)


@register(
    "value_histogram",
    f"""
    SELECT event_type,
           CAST(least(greatest(floor((value - {_HIST_LO}) / {_HIST_W}), 0), {_HIST_NBINS - 1}) AS BIGINT) AS bin,
           count(*) AS n_events,
           ROUND(sum(ROUND(value * 100)) / 100, 6) AS sum_value
    FROM events
    GROUP BY 1, 2
    """,
)
def value_histogram(sf_dir: str):
    """Fixed-bin histogram aggregate per event_type (32 bins, clamped edge
    bins): the distribution profile an ingest-quality monitor computes per
    partition.  Binning is branch-free vectorized float math per batch; the
    exchange carries at most types × 32 partial rows per block regardless of
    input size (same partial-before-shuffle shape as the distinct sketch)."""
    ds = _events(sf_dir, ["event_type", "value"])

    def binit(batch: pa.Table) -> pa.Table:
        v = np.asarray(batch.column("value").combine_chunks(), dtype=np.float64)
        b = np.clip(np.floor((v - _HIST_LO) / _HIST_W), 0, _HIST_NBINS - 1).astype(np.int64)
        return pa.table({
            "event_type": batch.column("event_type"),
            "bin": pa.array(b),
            "value_c": pa.array(np.rint(v * 100)),
        })

    binned = ds.map_batches(binit, batch_format="pyarrow", zero_copy_batch=True)
    agg = grouped_agg(binned, ["event_type", "bin"],
                      {"n_events": ("*", "count"), "sum_value_c": ("value_c", "sum")})

    def shape(batch: pa.Table) -> pa.Table:
        s = np.asarray(batch.column("sum_value_c").combine_chunks(), dtype=np.float64)
        return pa.table({
            "event_type": batch.column("event_type"),
            "bin": batch.column("bin"),
            "n_events": batch.column("n_events"),
            "sum_value": pa.array(rnd(s / 100.0), pa.float64()),
        })

    return agg.map_batches(shape, batch_format="pyarrow", zero_copy_batch=True)


_HH_K = 512  # sketch capacity; heavy-hitter threshold t = 2n/k = n/256


@register(
    "heavy_hitter_tokens",
    f"""
    WITH toks AS (
      SELECT unnest(string_split(text, ' ')) AS token FROM documents
    ),
    tot AS (SELECT count(*) AS n FROM toks),
    c AS (SELECT token, count(*) AS n_occurrences FROM toks GROUP BY token)
    SELECT c.token, c.n_occurrences
    FROM c, tot WHERE c.n_occurrences * {_HH_K // 2} > tot.n
    """,
)
def heavy_hitter_tokens(sf_dir: str, k: int = _HH_K):
    """Distributed heavy hitters: tokens occurring > 2n/k times corpus-wide,
    with EXACT counts, in two passes — the frequency-outlier scan a crawl
    pipeline runs to find boilerplate/stop phrases before dedup.

    Pass 1 is a lossy-count sketch: each batch keeps only tokens whose
    in-batch count exceeds (batch tokens)/k — at most k rows per batch by
    pigeonhole, fully vectorized (Arrow split+flatten, hash-aggregate) — so
    the exchange carries O(k × blocks) rows, never the vocabulary.  A token
    dropped by a batch had ≤ n_i/k occurrences there, so the aggregated
    sketch undercounts any token by at most Σ n_i/k = n/k: every true heavy
    hitter (> 2n/k) therefore shows sketch count > n/k, and the candidate
    set (sketch·k > n) is complete AND ≤ k strong.  Pass 2 recounts ONLY
    candidate tokens exactly (broadcast membership filter map-side, tiny
    exact groupby) and applies the true threshold — output counts are
    exact, which is what lets the DuckDB oracle hash-match an operator
    whose first pass is approximate.

    Same two-phase shape as the flagship's hot-key stats job; reference
    analog: the class-distribution scan (preprocess-300hz.py:133-141)
    generalized to open-vocabulary heavy hitters."""
    ds = read_table(sf_dir, "documents", columns=["text"])

    def sketch(batch: pa.Table) -> pa.Table:
        flat = pc.list_flatten(pc.split_pattern(batch.column("text"), " "))
        ni = len(flat)
        if ni == 0:
            return pa.table({"token": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64()),
                             "is_total": pa.array([], pa.bool_())})
        cnt = pa.table({"token": flat}).group_by("token").aggregate([("token", "count")])
        c = cnt.column("token_count")
        keep = cnt.filter(pc.greater(pc.multiply(c, k), ni))
        return pa.table({
            "token": pa.concat_arrays([keep.column("token").combine_chunks(),
                                       pa.array([""], pa.string())]),
            "cnt": pa.concat_arrays([keep.column("token_count").cast(pa.int64()).combine_chunks(),
                                     pa.array([ni], pa.int64())]),
            "is_total": pa.array([False] * keep.num_rows + [True]),
        })

    partials = ds.map_batches(sketch, batch_format="pyarrow", zero_copy_batch=True)
    agg = grouped_agg(partials, ["token", "is_total"], {"cnt": ("cnt", "sum")}).materialize()
    tot_rows = agg.map_batches(
        lambda b: b.filter(b.column("is_total")), batch_format="pyarrow", zero_copy_batch=True
    ).take_all()
    n = sum(r["cnt"] for r in tot_rows)  # exact Σ len(string_split)

    def candidates(b: pa.Table) -> pa.Table:
        m = pc.and_(pc.invert(b.column("is_total")),
                    pc.greater(pc.multiply(b.column("cnt"), k), n))
        return b.filter(m).select(["token"])

    cand = agg.map_batches(candidates, batch_format="pyarrow", zero_copy_batch=True).take_all()
    cand_ref = ray.put(pa.array(sorted(r["token"] for r in cand), pa.string()))

    def recount(batch: pa.Table) -> pa.Table:
        flat = pc.list_flatten(pc.split_pattern(batch.column("text"), " "))
        hit = flat.filter(pc.is_in(flat, value_set=ray.get(cand_ref)))
        return pa.table({"token": hit})

    exact = grouped_agg(ds.map_batches(recount, batch_format="pyarrow", zero_copy_batch=True),
                        ["token"], {"n_occurrences": ("*", "count")})
    return exact.map_batches(
        lambda b: b.filter(pc.greater(pc.multiply(b.column("n_occurrences"), k // 2), n)),
        batch_format="pyarrow", zero_copy_batch=True,
    )


_QTILES = (0.25, 0.5, 0.75, 0.9)


@register(
    "value_quantiles_by_type",
    f"""
    SELECT event_type, count(*) AS n_events,
           ROUND(quantile_cont(ROUND(value * 100), 0.25) / 100, 6) AS p25,
           ROUND(quantile_cont(ROUND(value * 100), 0.5) / 100, 6) AS p50,
           ROUND(quantile_cont(ROUND(value * 100), 0.75) / 100, 6) AS p75,
           ROUND(quantile_cont(ROUND(value * 100), 0.9) / 100, 6) AS p90
    FROM events GROUP BY event_type
    """,
)
def value_quantiles_by_type(sf_dir: str):
    """EXACT grouped quantiles (linear-interpolated, = SQL quantile_cont)
    without shuffling rows: partials are (group, cents-value) COUNTS — an
    Arrow hash-aggregate per block — so the exchange carries
    O(groups × distinct-values-per-block) rows (bounded by the fixed-point
    domain, here ≤ 51 200 cents) regardless of row count.  The merge walks
    each group's sorted (value, count) run with cumulative sums and reads
    the order statistics off the counts; duplicate values arriving from
    different blocks are adjacent on the sorted spine, so no pre-merge pass
    is needed.  This is the scale path for percentile features over
    low-cardinality/fixed-point measures — `user_value_stats` (exact
    percentiles over raw doubles) stays the row-shuffle path for unbounded
    domains.  Reference analog: the percentile block of
    /root/reference/LONG_features.py:57-66 restated as a mergeable aggregate."""
    ds = _events(sf_dir, ["event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        cents = np.rint(
            np.asarray(batch.column("value").combine_chunks(), dtype=np.float64) * 100
        ).astype(np.int64)
        t = pa.table({"event_type": batch.column("event_type"), "cent": pa.array(cents)})
        cnt = t.group_by(["event_type", "cent"]).aggregate([("cent", "count")])
        return pa.table({"event_type": cnt.column("event_type"),
                         "cent": cnt.column("cent"),
                         "n": cnt.column("cent_count").cast(pa.int64())})

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)

    def merge(tbl: pa.Table) -> pa.Table:
        starts, ends = entity_segments(tbl, "event_type")
        ets = tbl.column("event_type")
        cents = np.asarray(tbl.column("cent").combine_chunks(), dtype=np.float64)
        cnts = np.asarray(tbl.column("n").combine_chunks(), dtype=np.int64)
        rows = {"event_type": [], "n_events": []}
        for q in _QTILES:
            rows[f"p{int(q * 100)}"] = []
        for s, e in zip(starts, ends):
            v, c = cents[s:e], cnts[s:e]
            cum = np.cumsum(c)           # v ascending (bucket sort order)
            n = int(cum[-1])
            rows["event_type"].append(ets[s].as_py())
            rows["n_events"].append(n)
            for q in _QTILES:
                pos = q * (n - 1)
                i = int(np.floor(pos))
                frac = pos - i
                # order stats i and i+1 via searchsorted on cumulative counts
                lo = v[np.searchsorted(cum, i + 1)]
                hi = v[np.searchsorted(cum, min(i + 2, n))]
                rows[f"p{int(q * 100)}"].append(float(rnd((lo + frac * (hi - lo)) / 100.0)))
        return pa.table({
            "event_type": pa.array(rows["event_type"], pa.string()),
            "n_events": pa.array(rows["n_events"], pa.int64()),
            **{f"p{int(q * 100)}": pa.array(rows[f"p{int(q * 100)}"], pa.float64())
               for q in _QTILES},
        })

    return grouped_sorted_apply(partials, "event_type", ["cent"], merge, NB)


_CAP_K = 10   # per-source contribution cap (binds on the 20x25 test corpus)
_TOPDOC_K = 5  # best-k selection per language


@register(
    "capped_docs_per_source",
    f"""
    SELECT source, doc_id, lang, n_chars, CAST(rn AS BIGINT) AS sample_rank
    FROM (
      SELECT source, doc_id, lang, n_chars,
             row_number() OVER (
               PARTITION BY source
               ORDER BY ('0x' || substr(md5(concat('cap|', CAST(doc_id AS VARCHAR))), 1, 15))::UBIGINT,
                        doc_id) AS rn
      FROM documents)
    WHERE rn <= {_CAP_K}
    """,
)
def capped_docs_per_source(sf_dir: str, k: int = _CAP_K):
    """Per-domain contribution cap: keep at most k documents per source,
    chosen as the k smallest deterministic md5 row hashes — the "no domain
    may contribute more than k docs" step of a crawl training mix, with no
    RNG state (retry-safe, identical on re-run and backfill).

    Runs on the mergeable per-group top-k spine (stages/groupagg.py):
    each block pre-prunes to ≤k rows per source inside map_batches, so the
    exchange is O(sources-per-block × k) — a hot domain with 10⁹ pages
    ships k rows per block, never its page list."""
    ds = read_table(sf_dir, "documents",
                    columns=["doc_id", "lang", "source", "n_chars"])

    def hashes(batch: pa.Table) -> pa.Table:
        return batch.append_column("__h", pa.array(md5_keys(batch.column("doc_id"), "cap|", 15)))

    hashed = ds.map_batches(hashes, batch_format="pyarrow", zero_copy_batch=True)
    out = per_group_top_k(hashed, "source", ["__h", "doc_id"], k, NB,
                          rank_name="sample_rank")
    return (
        out.drop_columns(["__h"])
        .select_columns(["source", "doc_id", "lang", "n_chars", "sample_rank"])
        .sort(["source", "sample_rank"])
    )


@register(
    "top_docs_per_lang",
    f"""
    SELECT lang, doc_id, n_chars, CAST(rn AS BIGINT) AS len_rank
    FROM (
      SELECT lang, doc_id, n_chars,
             row_number() OVER (
               PARTITION BY lang ORDER BY n_chars DESC, doc_id) AS rn
      FROM documents)
    WHERE rn <= {_TOPDOC_K}
    """,
)
def top_docs_per_lang(sf_dir: str, k: int = _TOPDOC_K):
    """Per-group best-k selection (longest k documents per language,
    doc_id-tiebroken): same mergeable top-k spine as the contribution cap,
    ordering by a score instead of a hash — descending order is a negated
    sort key, nothing else changes."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])

    def negkey(batch: pa.Table) -> pa.Table:
        n = np.asarray(batch.column("n_chars").combine_chunks(), dtype=np.int64)
        return batch.append_column("__neg", pa.array(-n))

    keyed = ds.map_batches(negkey, batch_format="pyarrow", zero_copy_batch=True)
    out = per_group_top_k(keyed, "lang", ["__neg", "doc_id"], k, NB,
                          rank_name="len_rank")
    return (
        out.drop_columns(["__neg"])
        .select_columns(["lang", "doc_id", "n_chars", "len_rank"])
        .sort(["lang", "len_rank"])
    )


def _doc_term_counts(batch: pa.Table) -> pa.Table:
    """Per-batch (doc_id, term, cnt) over whitespace tokens — Arrow
    split/flatten + hash-aggregate, no Python token loop.  Each document
    lives wholly inside one input row, so per-batch counts ARE the final
    per-document counts (nothing to merge across batches)."""
    split = pc.split_pattern(batch.column("text"), " ")
    lens = pc.list_value_length(split).combine_chunks().to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(split)
    doc_rep = np.repeat(
        batch.column("doc_id").combine_chunks().to_numpy(zero_copy_only=False), lens
    )
    t = pa.table({"doc_id": pa.array(doc_rep), "term": flat})
    t = t.filter(pc.not_equal(t.column("term"), ""))
    g = t.group_by(["doc_id", "term"]).aggregate([("term", "count")])
    return pa.table({
        "doc_id": g.column("doc_id"),
        "term": g.column("term"),
        "cnt": g.column("term_count").cast(pa.int64()),
    })


def _vocab(ds, count: tuple[str, str], max_vocab: int):
    """Pass 1 of the corpus-model queries: the vocabulary as ``(terms, n)``
    — a term-sorted string array put in the object store and its int64
    counts — or None when the corpus has no term.

    ``count`` is the ``grouped_agg`` spec over :func:`_doc_term_counts`
    rows: ``("doc_id", "count")`` gives document frequencies, ``("cnt",
    "sum")`` term counts.  ``grouped_agg`` collapses each batch to (term,
    partial) rows and merges them in ONE vocabulary-sized exchange:
    O(vocab × blocks) rows ship, never a token stream.  The model is
    broadcast to pass 2, so the vocabulary must fit a worker heap: more than
    ``max_vocab`` terms fails loud.  Sorting by term makes ``index_in``
    positions double as lexicographic term ranks."""
    vds = grouped_agg(ds.map_batches(_doc_term_counts, batch_format="pyarrow", zero_copy_batch=True),
                      ["term"], {"n": count}).materialize()
    n_vocab = vds.count()
    if n_vocab > max_vocab:
        raise ValueError(
            f"vocabulary {n_vocab} exceeds the broadcast bound max_vocab="
            f"{max_vocab}: route pass 2 through a token-keyed shuffle join "
            "instead of the model broadcast"
        )
    # a grouped_agg output can contain zero-row blocks whose schema is
    # empty — concat only the populated ones
    parts = [t for t in ray.get(vds.to_arrow_refs()) if t.num_rows]
    if not parts:
        return None
    vocab = pa.concat_tables(parts).sort_by("term")
    return (ray.put(vocab.column("term").combine_chunks()),
            vocab.column("n").combine_chunks().to_numpy(zero_copy_only=False))


_TFIDF_K = 3
_TFIDF_MAX_VOCAB = 4_000_000


@register(
    "tfidf_top_terms",
    f"""
    WITH tok AS (
      SELECT doc_id, t AS term, count(*) AS cnt
      FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS t FROM documents)
      WHERE t <> '' GROUP BY doc_id, t
    ),
    doclen AS (SELECT doc_id, CAST(sum(cnt) AS DOUBLE) AS n_live FROM tok GROUP BY doc_id),
    df AS (SELECT term, count(*) AS dfc FROM tok GROUP BY term),
    n AS (SELECT CAST(count(*) AS DOUBLE) AS n_docs FROM documents),
    scored AS (
      SELECT tok.doc_id, tok.term,
             (tok.cnt / doclen.n_live) * ln(n.n_docs / df.dfc) AS s
      FROM tok JOIN doclen USING (doc_id) JOIN df USING (term) CROSS JOIN n
    ),
    ranked AS (
      SELECT doc_id, term, s,
             row_number() OVER (PARTITION BY doc_id ORDER BY s DESC, term ASC) AS rn
      FROM scored
    )
    SELECT doc_id, term, ROUND(s, 6) AS tfidf, CAST(rn AS BIGINT) AS term_rank
    FROM ranked WHERE rn <= {_TFIDF_K}
    """,
)
def tfidf_top_terms(sf_dir: str, k: int = _TFIDF_K,
                    max_vocab: int = _TFIDF_MAX_VOCAB):
    """Corpus TF-IDF, top-k terms per document — the keyword-extraction /
    boilerplate-weighting pass a training-data pipeline runs after language
    ID (reference analog: the per-record class-frequency weighting of
    preprocess-300hz.py:133-141 generalized to an open token vocabulary).

    Two passes over the corpus, Spark-MLlib-shaped (fit IDF, then
    transform):

    1. **Document frequency** — :func:`_vocab` counts the documents
       holding each term: one vocabulary-sized exchange.
    2. **Score + select** — the finished (term → df) map is broadcast once
       (``ray.put``, zero-copy read per task) and each batch computes
       tf·idf and its own per-document top-k entirely locally: per-doc
       top-k needs no shuffle because every document's terms sit in one
       batch.

    The broadcast is the documented smallness assumption: vocabulary must
    fit a worker heap, enforced fail-loud at ``max_vocab`` rows (same
    pattern as the LSH bucket caps).  An open 100-TB vocabulary swaps pass
    2's broadcast for a salted token-keyed shuffle join; the df aggregate
    (pass 1) is already scale-free.  Float op order mirrors the oracle SQL
    exactly: ``(cnt / n_live) * ln(n_docs / df)`` in float64."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    n_docs = float(ds.count())
    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "term": pa.array([], pa.string()),
                      "tfidf": pa.array([], pa.float64()),
                      "term_rank": pa.array([], pa.int64())})
    vocab = _vocab(ds, ("doc_id", "count"), max_vocab)
    if vocab is None:
        return ray.data.from_arrow(empty)
    # the term-sorted vocab makes the per-batch top-k tie-break a
    # pure-numeric lexsort (no object-dtype comparisons in the scale path)
    terms_ref, dfc = vocab
    df_ref = ray.put(dfc.astype(np.float64))

    def score_topk(batch: pa.Table) -> pa.Table:
        g = _doc_term_counts(batch)
        if g.num_rows == 0:
            return empty
        doc = np.asarray(g.column("doc_id").combine_chunks()).astype(np.int64)
        cnt = np.asarray(g.column("cnt").combine_chunks()).astype(np.float64)
        _, inv = np.unique(doc, return_inverse=True)
        n_live = np.bincount(inv, weights=cnt)[inv]
        idx = pc.index_in(g.column("term"), value_set=ray.get(terms_ref)).to_numpy(
            zero_copy_only=False
        )
        s = (cnt / n_live) * np.log(n_docs / ray.get(df_ref)[idx])
        # per-doc top-k, same segment-position idiom as groupagg.per_group_top_k:
        # (doc asc, score desc, term asc) with the term tie as its vocab rank
        order = np.lexsort((idx, -s, doc))
        sd = doc[order]
        new = np.concatenate(([True], sd[1:] != sd[:-1]))
        pos = np.arange(sd.size) - np.flatnonzero(new)[np.cumsum(new) - 1]
        keep = pos < k
        take = order[keep]
        return pa.table({
            "doc_id": pa.array(doc[take]),
            "term": g.column("term").combine_chunks().take(pa.array(take)),
            "tfidf": pa.array(rnd(s[take])),
            "term_rank": pa.array(pos[keep] + 1, pa.int64()),
        })

    return ds.map_batches(score_topk, batch_format="pyarrow", zero_copy_batch=True)


@register(
    "dup_clusters",
    """
    WITH RECURSIVE wins AS (
      SELECT doc_id,
             ('0x' || substr(md5(substr(text, CAST(i AS INT), 16)), 1, 16))::UBIGINT
               % 4294967296 AS h
      FROM documents, range(1, 4097) t(i)
      WHERE i <= length(text) - 15
    ),
    kept AS (SELECT DISTINCT doc_id, h FROM wins WHERE h % 8 = 0),
    roots AS (SELECT h, min(doc_id) AS root FROM kept GROUP BY h),
    edges AS (
      SELECT DISTINCT k.doc_id AS u, r.root AS v
      FROM kept k JOIN roots r USING (h) WHERE k.doc_id <> r.root
    ),
    und AS (SELECT u, v FROM edges UNION SELECT v AS u, u AS v FROM edges),
    nodes AS (SELECT DISTINCT u AS id FROM und),
    reach(id, r) AS (
      SELECT id, id FROM nodes
      UNION
      SELECT e.u, reach.r FROM und e JOIN reach ON e.v = reach.id
    ),
    comp AS (SELECT id AS doc_id, min(r) AS canonical_id FROM reach GROUP BY id)
    SELECT doc_id, canonical_id,
           CAST(count(*) OVER (PARTITION BY canonical_id) AS BIGINT) AS cluster_size
    FROM comp
    """,
)
def dup_clusters(sf_dir: str, max_rounds: int = 64):
    """Near-dup CLUSTERING: connected components over the shared-winnowing-
    fingerprint graph, canonical (min doc_id) representative per cluster —
    the step after pair generation in a production dedup pass (pick one doc
    per duplicate cluster, drop the rest).  Reference analog: the O7 dedup
    intent (xgboost_clf.py:128) carried through to cluster resolution.

    Scale shape:
    - **Star edges, not cliques**: each fingerprint bucket contributes
      (doc → bucket-min-doc) edges — O(bucket size) rows per bucket where
      the naive pair expansion is O(size²) — built with segment arithmetic
      on the `grouped_sorted_apply` hash-bucket spine (no per-group
      dispatch).  Star edges preserve connectivity exactly.
    - **Local contraction per round**: each round buckets the edge list
      (+ current labels) by node and runs a VECTORIZED min-label /
      pointer-jumping fixpoint over the whole bucket subgraph
      (``np.minimum.at`` relaxation, searchsorted label chasing) — so a
      global round collapses everything locally connected inside a
      bucket, and the number of GLOBAL rounds is the diameter of the
      contracted bucket graph (2-3 in practice), not of the document
      graph.  Cross-bucket merge is one ``grouped_agg`` min per node of
      the per-bucket emissions, O(vertices × buckets-touched) rows.
    - **Iteration state stays tiny**: per-round state is (node, label)
      pairs — orders of magnitude smaller than the corpus.  Labels
      decrease monotonically, so the global label sum (one
      ``global_agg``) is the convergence test, fail-loud at
      ``max_rounds``.

    The DuckDB oracle computes the same components by recursive transitive
    closure — tractable there because oracle fixtures have small clusters;
    the engine path never enumerates reachability sets."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def fps(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        ids = batch.column("doc_id").to_pylist()
        hs: list[int] = []
        ds_: list[int] = []
        for t in texts:
            _guard_oracle_cap(len(t) - 15, 4096, "dup_clusters window count")
            if 0 < len(t) < 16:
                raise ValueError(
                    f"dup_clusters: text shorter than the 16-char window "
                    f"(len={len(t)}) is outside the oracle contract"
                )
        for i, f in zip(ids, T.rolling_fingerprints_batch(texts)):  # batch memo
            hs.extend(f)
            ds_.extend([i] * len(f))
        return pa.table({"h": pa.array(hs, pa.int64()),
                         "doc_id": pa.array(ds_, pa.int64())})

    fp_rows = ds.map_batches(fps, batch_format="pyarrow", zero_copy_batch=True)

    def star(tbl: pa.Table) -> pa.Table:
        h = np.asarray(tbl.column("h").combine_chunks())
        d = np.asarray(tbl.column("doc_id").combine_chunks())
        if len(h) == 0:
            return pa.table({"u": pa.array([], pa.int64()),
                             "v": pa.array([], pa.int64())})
        new_seg = np.r_[True, h[1:] != h[:-1]]
        seg_id = np.cumsum(new_seg) - 1
        roots = d[np.flatnonzero(new_seg)][seg_id]  # min doc per h (sorted)
        m = d != roots
        return pa.table({"u": pa.array(d[m]), "v": pa.array(roots[m])})

    edges = grouped_agg(grouped_sorted_apply(fp_rows, "h", ["doc_id"], star, NB),
                        ["u", "v"], {}).materialize()
    if edges.count() == 0:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "canonical_id": pa.array([], pa.int64()),
                         "cluster_size": pa.array([], pa.int64())})

    def swap(b: pa.Table) -> pa.Table:
        return pa.table({"u": b.column("v"), "v": b.column("u")})

    und = edges.union(edges.map_batches(swap, batch_format="pyarrow",
                                        zero_copy_batch=True)).materialize()

    def tag_lab(b: pa.Table) -> pa.Table:
        return pa.table({
            "key": b.column("node"), "tag": pa.array(np.zeros(b.num_rows, np.int8)),
            "val": b.column("label"), "dst": b.column("node"),
        })

    def tag_edge(b: pa.Table) -> pa.Table:
        return pa.table({
            "key": b.column("u"), "tag": pa.array(np.ones(b.num_rows, np.int8)),
            "val": pa.array(np.zeros(b.num_rows, np.int64)), "dst": b.column("v"),
        })

    def prop(tbl: pa.Table) -> pa.Table:
        """Local connected components over this bucket's subgraph: min-label
        relaxation along edges + pointer jumping through label ids that are
        themselves local vertices, iterated to the LOCAL fixpoint (all
        numpy; rounds of the inner loop collapse chains exponentially)."""
        k = np.asarray(tbl.column("key").combine_chunks())
        tag = np.asarray(tbl.column("tag").combine_chunks())
        val = np.asarray(tbl.column("val").combine_chunks())
        dst = np.asarray(tbl.column("dst").combine_chunks())
        if len(k) == 0:
            return pa.table({"node": pa.array([], pa.int64()),
                             "val": pa.array([], pa.int64())})
        is_lab = tag == 0
        e = ~is_lab
        ids = np.unique(np.concatenate([k, dst, val[is_lab]]))
        lab = ids.copy()  # start from self-label
        # seed known labels (grouped min from the previous round)
        li = np.searchsorted(ids, k[is_lab])
        np.minimum.at(lab, li, val[is_lab])
        ui = np.searchsorted(ids, k[e])
        vi = np.searchsorted(ids, dst[e])
        while True:
            before = lab.sum()
            np.minimum.at(lab, ui, lab[vi])  # relax both edge directions
            np.minimum.at(lab, vi, lab[ui])
            pos = np.searchsorted(ids, lab)  # chase labels that are local
            ok = ids[np.minimum(pos, len(ids) - 1)] == lab
            lab[ok] = lab[pos[ok]]
            if lab.sum() == before:
                break
        return pa.table({"node": pa.array(ids), "val": pa.array(lab)})

    labels = None  # (node, label) Dataset; round 1 derives from edges
    prev_sum = None
    for _ in range(max_rounds):
        tagged = und.map_batches(tag_edge, batch_format="pyarrow",
                                 zero_copy_batch=True)
        if labels is not None:
            tagged = tagged.union(labels.map_batches(
                tag_lab, batch_format="pyarrow", zero_copy_batch=True))
        msgs = grouped_sorted_apply(tagged, "key", ["tag"], prop, NB)
        labels = grouped_agg(msgs, ["node"], {"label": ("val", "min")}).materialize()
        s = global_agg(labels, {"s": ("label", "sum")})["s"][0].as_py()
        if s == prev_sum:
            break
        prev_sum = s
    else:
        raise RuntimeError(
            f"dup_clusters: label propagation did not converge in {max_rounds} "
            "rounds — component diameter exceeds the bound; raise max_rounds "
            "or switch to large-star/small-star"
        )

    def finalize(tbl: pa.Table) -> pa.Table:
        lab = np.asarray(tbl.column("label").combine_chunks())
        node = np.asarray(tbl.column("node").combine_chunks())
        if len(lab) == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "canonical_id": pa.array([], pa.int64()),
                             "cluster_size": pa.array([], pa.int64())})
        new_seg = np.r_[True, lab[1:] != lab[:-1]]
        seg_id = np.cumsum(new_seg) - 1
        starts = np.flatnonzero(new_seg)
        counts = np.diff(np.r_[starts, len(lab)])
        return pa.table({
            "doc_id": pa.array(node),
            "canonical_id": pa.array(lab),
            "cluster_size": pa.array(counts[seg_id].astype(np.int64)),
        })

    return grouped_sorted_apply(labels, "label", ["node"], finalize, NB)


# ---------------------------------------------------------------------------
# §2.5 J5: large × large shuffle equi-join (neither side broadcastable)
# ---------------------------------------------------------------------------

@register(
    "join_late_shipments",
    """
    SELECT l.l_orderkey, l.l_linenumber, o.o_orderpriority,
           CAST(date_diff('day', o.o_orderdate, l.l_shipdate) AS BIGINT) AS days_to_ship
    FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
    WHERE l.l_shipdate > o.o_orderdate + INTERVAL 60 DAY
    """,
)
def join_late_shipments(sf_dir: str):
    """Row-level gate for the big×big shuffle hash join (stages/joins.py
    shuffle_join): every joined row is hash-compared, not just an aggregate.
    Both fact tables are pruned at the read to the 3-4 columns carried."""
    lineitem = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_linenumber", "l_shipdate"])
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_orderdate", "o_orderpriority"])
    orders = orders.map_batches(
        lambda b: b.rename_columns(["l_orderkey", "o_orderdate", "o_orderpriority"]),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    joined = shuffle_join(
        lineitem, orders, on="l_orderkey",
        left_cols=["l_linenumber", "l_shipdate"],
        right_cols=["o_orderdate", "o_orderpriority"],
        num_buckets=NB,
    )

    def late_only(batch: pa.Table) -> pa.Table:
        # timestamps are midnight-aligned (TESTDATA.md) so the us-diff is an
        # exact whole number of days — identical to SQL date_diff('day')
        ship = np.asarray(batch.column("l_shipdate").combine_chunks().cast(pa.int64()))
        od = np.asarray(batch.column("o_orderdate").combine_chunks().cast(pa.int64()))
        days = (ship - od) // 86_400_000_000
        keep = days > 60
        out = batch.filter(pa.array(keep)).select(
            ["l_orderkey", "l_linenumber", "o_orderpriority"]
        )
        return out.append_column("days_to_ship", pa.array(days[keep], pa.int64()))

    return joined.map_batches(late_only, batch_format="pyarrow", zero_copy_batch=True)


@register(
    "join_priority_revenue",
    """
    SELECT o.o_orderpriority, l.l_returnflag,
           count(*) AS n_items,
           ROUND(sum(ROUND(l.l_extendedprice * 100)) / 100, 6) AS revenue
    FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
    GROUP BY o.o_orderpriority, l.l_returnflag
    """,
)
def join_priority_revenue(sf_dir: str):
    """Shuffle join feeding a partial-agg: the 100-TB shape is join exchange
    → Arrow partial combine inside map_batches → tiny groups shuffle."""
    lineitem = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_returnflag", "l_extendedprice"])
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"])
    orders = orders.map_batches(
        lambda b: b.rename_columns(["l_orderkey", "o_orderpriority"]),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    joined = shuffle_join(
        lineitem, orders, on="l_orderkey",
        left_cols=["l_returnflag", "l_extendedprice"],
        right_cols=["o_orderpriority"],
        num_buckets=NB,
    )
    return grouped_agg(
        joined, ["o_orderpriority", "l_returnflag"],
        {"n_items": ("*", "count"), "revenue": ("l_extendedprice", "sum_cents")},
        round_to=6,
    )


@register(
    "price_band_revenue",
    """
    WITH bands(band, lo, hi) AS (VALUES
      ('budget',       0.0,   20000.0),
      ('mid',      20000.0,   60000.0),
      ('premium',  60000.0,   90000.0),
      ('luxury',   90000.0, 1000000.0))
    SELECT b.band, count(*) AS n_items,
           ROUND(sum(ROUND(l.l_extendedprice * 100)) / 100, 6) AS revenue
    FROM lineitem l JOIN bands b
      ON l.l_extendedprice >= b.lo AND l.l_extendedprice < b.hi
    GROUP BY b.band
    """,
)
def price_band_revenue(sf_dir: str):
    """Range (interval-containment) join against a broadcast band dimension
    (stages/joins.broadcast_range_join): one searchsorted per batch, no
    shuffle until the 4-group aggregate."""
    bands = pa.table({
        "band": ["budget", "mid", "premium", "luxury"],
        "lo": [0.0, 20000.0, 60000.0, 90000.0],
        "hi": [20000.0, 60000.0, 90000.0, 1000000.0],
    })
    lineitem = read_table(sf_dir, "lineitem", columns=["l_extendedprice"])
    banded = broadcast_range_join(lineitem, "l_extendedprice", bands)
    return grouped_agg(
        banded, ["band"],
        {"n_items": ("*", "count"), "revenue": ("l_extendedprice", "sum_cents")},
        round_to=6,
    )


@register(
    "event_session_join",
    SESSION_SQL_CTE
    + """
    , bounds AS (
      SELECT user_id, session_id, count(*) AS session_n_events,
             min(ts) AS session_start, max(ts) AS session_end
      FROM sess GROUP BY user_id, session_id
    )
    SELECT e.user_id, e.event_id, b.session_id, b.session_n_events
    FROM events e JOIN bounds b
      ON e.user_id = b.user_id AND e.ts BETWEEN b.session_start AND b.session_end
    """,
)
def event_session_join(sf_dir: str):
    """Two-input per-entity interval join (stages/joins.interval_join): the
    session table (itself a distributed pipeline) becomes the interval side,
    and every event is routed back to its enclosing session — the
    'which segment does this row belong to' step of sessionized feature
    engineering, big×big, one co-partitioned exchange."""
    sessions = session_table(sf_dir)
    events = _events(sf_dir, ["user_id", "ts", "event_id"])
    out = interval_join(
        events, sessions, key="user_id", left_ts="ts",
        right_lo="session_start", right_hi="session_end",
        left_cols=["event_id"], right_cols=["session_id", "n_events"],
        closed="both", num_buckets=NB,
    )

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": batch.column("user_id"),
            "event_id": batch.column("event_id"),
            "session_id": batch.column("session_id"),
            "session_n_events": batch.column("n_events"),
        })

    return out.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# round 4 (cont.): window ranking functions on the bucket spine
# ---------------------------------------------------------------------------

@register(
    "rank_events_per_user",
    """
    SELECT event_id, user_id,
           row_number() OVER w AS rn,
           dense_rank() OVER (PARTITION BY user_id ORDER BY value) AS dr,
           ROUND(percent_rank() OVER (PARTITION BY user_id ORDER BY value), 6) AS pr,
           ntile(4) OVER w AS quartile
    FROM events
    WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
    """,
)
def rank_events_per_user(sf_dir: str):
    """SQL window-RANKING family (row_number / dense_rank / percent_rank /
    ntile) per entity — the "how recent / how extreme is this reading within
    its record" feature step (rank-of-RR-interval analog of HRV_features.py
    percentile features).  Runs on the single bucket spine: rows of one
    entity land sorted in one Arrow table and every rank is segment
    arithmetic — one exchange, no per-group dispatch, no Python loop over
    rows.  Ties in ``value`` share dense/percent rank exactly as SQL does
    (resolved via first-position-in-tie-group scans, not stable-sort luck).
    """
    ds = _events(sf_dir, ["event_id", "user_id", "ts", "value"])

    def per_bucket(tbl: pa.Table) -> pa.Table:
        starts, ends = entity_segments(tbl, "user_id")
        n = tbl.num_rows
        if n == 0:
            return pa.table({
                "event_id": pa.array([], pa.int64()),
                "user_id": pa.array([], pa.int64()),
                "rn": pa.array([], pa.int64()),
                "dr": pa.array([], pa.int64()),
                "pr": pa.array([], pa.float64()),
                "quartile": pa.array([], pa.int64()),
            })
        sizes = ends - starts
        nseg = len(starts)
        seg_of = np.repeat(np.arange(nseg, dtype=np.int64), sizes)
        pos = np.arange(n, dtype=np.int64) - np.repeat(starts, sizes)
        s = np.repeat(sizes, sizes)

        # row_number over (ts, event_id): the spine already sorted it
        rn = pos + 1

        # ntile(4): first (s mod 4) tiles get ceil(s/4) rows
        t = 4
        base = s // t
        rem = s % t
        cut = rem * (base + 1)
        in_big = pos < cut
        tile = np.where(
            in_big,
            pos // np.maximum(base + 1, 1),
            rem + (pos - cut) // np.maximum(base, 1),
        ) + 1

        # dense_rank / percent_rank over value: order rows by (segment,
        # value) once, compute tie-group scans along that order, scatter back
        v = np.asarray(tbl.column("value").combine_chunks(), dtype=np.float64)
        order = np.lexsort((v, seg_of))
        v_s, seg_s, s_s = v[order], seg_of[order], s[order]
        idx = np.arange(n, dtype=np.int64)
        new_seg = np.empty(n, dtype=bool)
        new_seg[0] = True
        new_seg[1:] = seg_s[1:] != seg_s[:-1]
        new_val = new_seg.copy()
        new_val[1:] |= v_s[1:] != v_s[:-1]
        seg_first = np.maximum.accumulate(np.where(new_seg, idx, -1))
        grp_first = np.maximum.accumulate(np.where(new_val, idx, -1))
        dense = np.cumsum(new_val)
        dr_s = dense - (dense[seg_first] - 1)
        rank_min = grp_first - seg_first + 1
        pr_s = np.where(s_s > 1, (rank_min - 1) / np.maximum(s_s - 1, 1), 0.0)
        dr = np.empty(n, dtype=np.int64)
        pr = np.empty(n, dtype=np.float64)
        dr[order] = dr_s
        pr[order] = pr_s

        return pa.table({
            "event_id": tbl.column("event_id"),
            "user_id": tbl.column("user_id"),
            "rn": pa.array(rn, pa.int64()),
            "dr": pa.array(dr, pa.int64()),
            "pr": pa.array(rnd(pr), pa.float64()),
            "quartile": pa.array(tile.astype(np.int64), pa.int64()),
        })

    return grouped_sorted_apply(ds, "user_id", ["ts", "event_id"], per_bucket, NB)


@register(
    "revenue_rollup",
    """
    SELECT n.n_name AS nation, c.c_mktsegment AS segment,
           count(*) AS n_orders,
           ROUND(sum(ROUND(o.o_totalprice * 100)) / 100, 6) AS revenue
    FROM orders o
    JOIN customer c ON o.o_custkey = c.c_custkey
    JOIN nation n ON c.c_nationkey = n.n_nationkey
    GROUP BY ROLLUP(n.n_name, c.c_mktsegment)
    """,
)
def revenue_rollup(sf_dir: str):
    """GROUP BY ROLLUP (grouping sets): revenue at (nation, segment),
    (nation) and grand-total levels in ONE pass / ONE exchange.  Each fact
    row is expanded map-side into its three grouping-set keys (coarser
    levels use a sentinel key); ``grouped_agg``'s Arrow partial aggregation
    collapses the expansion to one row per group per block BEFORE the
    shuffle, so the exchange is O(groups), not 3× the fact table.  The
    sentinel maps back to SQL NULL in the final shape — standard ROLLUP
    output."""
    _ALL = "\x00ALL"
    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    cust = pa.concat_tables(
        [pa.table(b) for b in read_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey"]).iter_batches(batch_format="pyarrow")]
    )
    seg = pa.concat_tables(
        [pa.table(b) for b in read_table(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"]).iter_batches(batch_format="pyarrow")]
    )
    nation = pa.concat_tables(
        [pa.table(b) for b in read_table(sf_dir, "nation", columns=["n_nationkey", "n_name"]).iter_batches(batch_format="pyarrow")]
    )
    dim = cust.join(nation, keys=["c_nationkey"], right_keys=["n_nationkey"]).join(seg, keys=["c_custkey"])
    dim = dim.select(["c_custkey", "n_name", "c_mktsegment"]).rename_columns(["o_custkey", "nation", "segment"])
    joined = broadcast_join(orders, dim, on="o_custkey", how="inner")

    def expand_levels(batch: pa.Table) -> pa.Table:
        nat = batch.column("nation")
        sg = batch.column("segment")
        price = batch.column("o_totalprice")
        all_arr = pa.array([_ALL] * batch.num_rows, pa.string())
        return pa.table({
            "nation": pa.chunked_array([nat.combine_chunks(), nat.combine_chunks(), all_arr]),
            "segment": pa.chunked_array([sg.combine_chunks(), all_arr, all_arr]),
            "o_totalprice": pa.chunked_array([price.combine_chunks()] * 3),
        })

    expanded = joined.map_batches(expand_levels, batch_format="pyarrow", zero_copy_batch=True)
    agg = grouped_agg(
        expanded, ["nation", "segment"],
        {"n_orders": ("*", "count"), "revenue": ("o_totalprice", "sum_cents")},
        round_to=6,
    )

    def desentinel(batch: pa.Table) -> pa.Table:
        def nullify(col):
            a = batch.column(col).combine_chunks()
            return pc.if_else(pc.equal(a, _ALL), pa.scalar(None, pa.string()), a)
        return pa.table({
            "nation": nullify("nation"),
            "segment": nullify("segment"),
            "n_orders": batch.column("n_orders"),
            "revenue": batch.column("revenue"),
        })

    return agg.map_batches(desentinel, batch_format="pyarrow", zero_copy_batch=True)


_PIVOT_TYPES = ["click", "error", "purchase", "signup", "view"]


@register(
    "event_type_pivot",
    """
    SELECT user_id,
    """
    + ",\n".join(
        f"""  count(*) FILTER (WHERE event_type = '{t}') AS n_{t},
  ROUND(sum(ROUND(value * 100)) FILTER (WHERE event_type = '{t}') / 100, 6) AS value_{t}"""
        for t in _PIVOT_TYPES
    )
    + """
    FROM events GROUP BY user_id
    """,
)
def event_type_pivot(sf_dir: str):
    """PIVOT: the long event stream reshaped to one wide row per entity with
    per-event-type count and value-sum columns — the reference's per-label
    feature-column layout (extract_HRV.py one column block per label)
    generalized to open categorical pivots.  Indicator columns are built
    vectorized map-side and collapsed by ``grouped_agg``'s Arrow partials,
    so the exchange is one row per user per block regardless of how many
    pivot columns exist; a type a user never hit yields count 0 and SQL-NULL
    value-sum (matching FILTERed aggregates)."""
    ds = _events(sf_dir, ["user_id", "event_type", "value"])

    def indicators(batch: pa.Table) -> pa.Table:
        et = batch.column("event_type")
        v = np.asarray(batch.column("value").combine_chunks(), dtype=np.float64)
        cents = np.rint(v * 100)
        cols: dict[str, Any] = {"user_id": batch.column("user_id")}
        for t in _PIVOT_TYPES:
            m = np.asarray(pc.equal(et, t).combine_chunks())
            cols[f"is_{t}"] = pa.array(m.astype(np.int64))
            cols[f"cents_{t}"] = pa.array(np.where(m, cents, 0.0))
        return pa.table(cols)

    ind = ds.map_batches(indicators, batch_format="pyarrow", zero_copy_batch=True)
    specs: dict[str, tuple[str, str]] = {}
    for t in _PIVOT_TYPES:
        specs[f"n_{t}"] = (f"is_{t}", "sum")
        specs[f"cents_{t}"] = (f"cents_{t}", "sum")
    agg = grouped_agg(ind, ["user_id"], specs)

    def shape(batch: pa.Table) -> pa.Table:
        cols: dict[str, Any] = {"user_id": batch.column("user_id")}
        for t in _PIVOT_TYPES:
            n = np.asarray(batch.column(f"n_{t}").combine_chunks()).astype(np.int64)
            cents = np.asarray(batch.column(f"cents_{t}").combine_chunks(), dtype=np.float64)
            cols[f"n_{t}"] = pa.array(n, pa.int64())
            # FILTERed SUM over zero rows is SQL NULL, not 0
            cols[f"value_{t}"] = pa.array(
                np.where(n > 0, rnd(cents / 100.0), np.nan), pa.float64(), mask=(n == 0)
            )
        return pa.table(cols)

    return agg.map_batches(shape, batch_format="pyarrow", zero_copy_batch=True)


@register(
    "asof_next_event",
    """
    WITH w AS (
      SELECT event_id, user_id, ts, event_type,
             first_value(CASE WHEN event_type = 'purchase' THEN event_id END IGNORE NULLS)
               OVER nxt AS next_purchase_id,
             first_value(CASE WHEN event_type = 'purchase' THEN ts END IGNORE NULLS)
               OVER nxt AS next_ts
      FROM events
      WINDOW nxt AS (PARTITION BY user_id ORDER BY ts, event_id
                     ROWS BETWEEN 1 FOLLOWING AND UNBOUNDED FOLLOWING)
    )
    SELECT event_id, user_id, next_purchase_id,
           date_diff('microsecond', ts, next_ts) AS gap_us
    FROM w WHERE event_type = 'error'
    """,
)
def asof_next_event(sf_dir: str):
    """FORWARD as-of join (direction='next'): for every error event, the
    first purchase event of the same entity strictly after it in
    (ts, event_id) order — the label-lookahead step of training-data
    construction ("did a purchase follow this error, and how soon").  The
    backward as-of (stages/asof.py) reads history; this reads the future,
    which is exactly what leakage tests must NOT allow into features — so it
    lives as its own operator for label columns.  Single bucket-spine pass:
    purchase row positions per segment + one searchsorted; no row loop, no
    second input, no extra exchange."""
    ds = _events(sf_dir, ["event_id", "user_id", "ts", "event_type"])

    def per_bucket(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        empty = pa.table({
            "event_id": pa.array([], pa.int64()),
            "user_id": pa.array([], pa.int64()),
            "next_purchase_id": pa.array([], pa.int64()),
            "gap_us": pa.array([], pa.int64()),
        })
        if n == 0:
            return empty
        starts, ends = entity_segments(tbl, "user_id")
        sizes = ends - starts
        seg_end = np.repeat(ends, sizes)  # one-past-last row of each row's entity
        et = tbl.column("event_type")
        is_p = np.asarray(pc.equal(et, "purchase").combine_chunks())
        is_e = np.asarray(pc.equal(et, "error").combine_chunks())
        p_pos = np.flatnonzero(is_p)
        e_pos = np.flatnonzero(is_e)
        if e_pos.size == 0:
            return empty
        nxt = np.searchsorted(p_pos, e_pos, side="right")
        # next purchase must exist and stay within the entity's segment
        cand = np.where(nxt < p_pos.size, p_pos[np.minimum(nxt, p_pos.size - 1)], -1)
        ok = (cand >= 0) & (cand < seg_end[e_pos])
        eid = np.asarray(tbl.column("event_id").combine_chunks())
        ts = np.asarray(tbl.column("ts").cast(pa.int64()).combine_chunks())
        uid = np.asarray(tbl.column("user_id").combine_chunks())
        safe = np.maximum(cand, 0)
        return pa.table({
            "event_id": pa.array(eid[e_pos], pa.int64()),
            "user_id": pa.array(uid[e_pos], pa.int64()),
            "next_purchase_id": pa.array(eid[safe], pa.int64(), mask=~ok),
            "gap_us": pa.array(ts[safe] - ts[e_pos], pa.int64(), mask=~ok),
        })

    return grouped_sorted_apply(ds, "user_id", ["ts", "event_id"], per_bucket, NB)




def _emb_f64(batch: pa.Table) -> np.ndarray:
    """list<float32> column → (n, d) float64 matrix, zero-copy flatten.

    ``flatten()`` (not ``.values``) — it respects ListArray slice offsets,
    so a zero-copy sliced block can't reshape misaligned data (same idiom
    as :func:`_emb_matrix`)."""
    col = batch.column("embedding").combine_chunks()
    flat = np.asarray(col.flatten(), dtype=np.float64)
    return flat.reshape(batch.num_rows, -1) if batch.num_rows else flat.reshape(0, 0)


def _lloyd_stats(X: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One batch's fixed-point Lloyd sufficient statistics against the
    centroids ``C`` (k, d): int64 arrays ``(key, s)`` with key packing
    (cluster, slot) as cluster·(d+1) + slot — slot 0 carries the member
    count, slot j the Σ rint(x_{j-1}·2²⁰) of the members.  A zero-row ``X``
    gives two empty arrays."""
    if len(X) == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    dd = C.shape[1]
    Q = np.rint(X * _KM_SCALE).astype(np.int64)
    d2 = ((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
    assign = np.argmin(d2, axis=1)
    order = np.argsort(assign, kind="stable")
    a_s = assign[order]
    bounds = np.flatnonzero(np.r_[True, a_s[1:] != a_s[:-1]])
    sums = np.add.reduceat(Q[order], bounds, axis=0)
    cnts = np.diff(np.r_[bounds, len(a_s)])
    key = (a_s[bounds, None] * (dd + 1) + np.arange(dd + 1)).ravel()
    return key, np.column_stack([cnts, sums]).ravel()


def _lloyd_partials(batch: pa.Table, codebooks: np.ndarray) -> pa.Table:
    """``{key, s}`` partial-statistics rows of one batch for m codebooks
    (m, k, d/m), codebook mi over embedding dims [mi·d/m, (mi+1)·d/m) —
    m = 1 is plain k-means.  Codebook mi's keys (see :func:`_lloyd_stats`)
    are offset by mi·k·(d/m+1)."""
    m, k, dsub = codebooks.shape
    X = _emb_f64(batch)
    keys, vals = [], []
    for mi in range(m):
        key, s = _lloyd_stats(X[:, mi * dsub:(mi + 1) * dsub], codebooks[mi])
        keys.append(mi * k * (dsub + 1) + key)
        vals.append(s)
    return pa.table({"key": pa.array(np.concatenate(keys), pa.int64()),
                     "s": pa.array(np.concatenate(vals), pa.int64())})


def _lloyd_assign(batch: pa.Table, codebooks: np.ndarray, code_cols: list[str],
                  err_col: str) -> pa.Table:
    """One batch's assignment pass for m codebooks (m, k, d/m) — m = 1 is
    k-means: ``vec_id``, the nearest code per codebook (ties → lower code)
    as int64 ``code_cols``, and the summed squared distance to them rounded
    as float64 ``err_col``.  A zero-row batch gives the same schema, empty."""
    m, _, dsub = codebooks.shape
    X = _emb_f64(batch).reshape(batch.num_rows, m * dsub)
    cols = {"vec_id": batch.column("vec_id")}
    tot = np.zeros(batch.num_rows, dtype=np.float64)
    for mi, name in enumerate(code_cols):
        Xs = X[:, mi * dsub:(mi + 1) * dsub]
        d2 = ((Xs[:, None, :] - codebooks[mi][None, :, :]) ** 2).sum(axis=2)
        a = np.argmin(d2, axis=1)
        cols[name] = pa.array(a.astype(np.int64), pa.int64())
        tot += d2[np.arange(len(Xs)), a]
    cols[err_col] = pa.array(rnd(tot), pa.float64())
    return pa.table(cols)


def refresh_kmeans_expected(sf_dir: str, k: int = _KM_K, iters: int = _KM_ITERS) -> str:
    """(Re)build the independent k-means oracle parquet for this config;
    returns the cache file.

    The single-threaded oracle (tests/oracle.oracle_kmeans) is cached per
    (sf_dir, k, iters) and copied to the static ``_KM_EXPECTED`` path the
    registered SQL reads (:func:`_expected_from_oracle`), so
    ``kmeans_embeddings`` pays a file copy, not the oracle, inside a timed
    window.  bench.py and perfbench's query_mix call this untimed before
    their timed passes."""
    def compute():
        from tests.oracle import oracle_kmeans

        return oracle_kmeans(sf_dir, k=k, iters=iters, scale=_KM_SCALE)

    return _expected_from_oracle(_KM_EXPECTED, compute,
                                 key=f"{os.path.abspath(sf_dir)}|{k}|{iters}|{_KM_SCALE}")


@register(
    "kmeans_embeddings",
    f"SELECT * FROM read_parquet('{_KM_EXPECTED}')",
)
def kmeans_embeddings(sf_dir: str, k: int = _KM_K, iters: int = _KM_ITERS):
    """Distributed Lloyd k-means over the embedding column — the
    clustering step of corpus curation (topic balancing, near-dup cluster
    seeding).  Iterative-algorithm shape on Ray Data: per iteration ONE
    streaming pass emits per-batch per-cluster sufficient statistics
    (fixed-point coordinate sums + counts, ≤ k×(d+1) rows per batch),
    one tiny ``grouped_agg`` sum reduces them, and the k×d centroid model —
    bounded by model size, never by data size — is broadcast back via
    ``ray.put``.  Centroid updates are EXACT fixed-point (Σ rint(x·2²⁰) /
    (n·2²⁰)) so the result is independent of block count / summation order:
    that is what makes a distributed iterative float algorithm
    hash-comparable to a single-threaded oracle (tests/oracle.oracle_kmeans,
    cached per (sf_dir, k, iters) — refresh_kmeans_expected).  Empty
    clusters keep their
    previous centroid; distance ties break toward the lower cluster id.
    Reference analog: the label-grouped centroid features of
    challenge2020 preprocessing generalized to unsupervised clusters."""
    # Iterative algorithm: pin the PRUNED 2-column projection in the object
    # store once (Spark-style cache; Ray spills blocks if it outgrows memory)
    # instead of re-reading parquet on every Lloyd pass.
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"]).materialize()
    cref = ray.put(_lloyd_centroids(ds, k, iters))

    def assign_out(batch: pa.Table) -> pa.Table:
        return _lloyd_assign(batch, ray.get(cref), ["cluster"], "dist_sq")

    # refresh the independent-oracle parquet for THIS input — cached per
    # (sf_dir, k, iters), so repeat runs (bench) pay a file copy, not the
    # single-threaded oracle recompute (see refresh_kmeans_expected)
    refresh_kmeans_expected(sf_dir, k=k, iters=iters)

    return ds.map_batches(assign_out, batch_format="pyarrow", zero_copy_batch=True)


def _lloyd_centroids(ds, k: int, iters: int, m: int = 1) -> np.ndarray:
    """Distributed exact fixed-point Lloyd training → (m, k, d/m) codebooks,
    codebook mi over embedding dims [mi·d/m, (mi+1)·d/m).

    m = 1 is k-means (``kmeans_embeddings``, and the IVF list centroids of
    ``knn_ivf``); m > 1 trains ``pq_codes``' subspace codebooks together.
    Every codebook starts from the vectors with ids 0..k-1.  Per pass: one
    streaming map emits ≤ m×k×(d/m+1) fixed-point sufficient-statistic rows
    per batch (:func:`_lloyd_partials`), one tiny ``grouped_agg`` sum reduces,
    and centroids update as Σ rint(x·2²⁰)/(n·2²⁰) — exact integer
    arithmetic, so the result is independent of block count and
    reproducible by the single-threaded oracle twins.  Empty clusters keep
    their previous centroid."""
    init = ds.filter(expr=f"vec_id < {k}").take_all()
    if len(init) != k:  # fail-loud: sparse ids would silently diverge from
        # the oracle's searchsorted init (same contract as _guard_oracle_cap)
        raise ValueError(f"Lloyd init expects vec_ids 0..{k - 1}; found {len(init)} rows")
    init.sort(key=lambda r: r["vec_id"])
    X0 = np.stack([np.asarray(r["embedding"], dtype=np.float64) for r in init])
    if X0.shape[1] % m:
        raise ValueError(f"embedding dim {X0.shape[1]} not divisible by m={m} subspaces")
    dsub = X0.shape[1] // m
    codebooks = np.stack([X0[:, mi * dsub:(mi + 1) * dsub] for mi in range(m)])

    for _ in range(iters):
        cref = ray.put(codebooks)

        def partials(batch: pa.Table) -> pa.Table:
            return _lloyd_partials(batch, ray.get(cref))

        stats = grouped_agg(ds.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True),
                            ["key"], {"s": ("s", "sum")}).take_all()
        sums = np.zeros((m, k, dsub), dtype=np.int64)
        cnts = np.zeros((m, k), dtype=np.int64)
        for r in stats:
            mi, rest = divmod(int(r["key"]), k * (dsub + 1))
            cl, slot = divmod(rest, dsub + 1)
            if slot == 0:
                cnts[mi, cl] = r["s"]
            else:
                sums[mi, cl, slot - 1] = r["s"]
        nz = cnts > 0
        codebooks = codebooks.copy()
        codebooks[nz] = sums[nz] / (cnts[nz, None] * _KM_SCALE)

    return codebooks


@register(
    "top_event_type_per_user",
    """
    WITH c AS (
      SELECT user_id, event_type, count(*) AS n
      FROM events GROUP BY user_id, event_type
    ), r AS (
      SELECT user_id, event_type, n,
             row_number() OVER (PARTITION BY user_id ORDER BY n DESC, event_type) AS rn
      FROM c
    )
    SELECT user_id, event_type AS mode_type, n FROM r WHERE rn = 1
    """,
)
def top_event_type_per_user(sf_dir: str):
    """Grouped MODE (most-frequent categorical value per entity) with
    deterministic tie-breaking (higher count, then lexicographically smaller
    value) — SQL's mode() leaves ties unspecified, so the operator pins them.
    Two mergeable stages, both bounded: an Arrow partial-agg count per
    (entity, value) and the per-group top-k spine at k=1 — the exchange
    carries one row per (entity, value) per block, then ≤1 row per entity."""
    ds = _events(sf_dir, ["user_id", "event_type"])
    counts = grouped_agg(ds, ["user_id", "event_type"], {"n": ("*", "count")})

    def neg(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__neg", pc.negate(batch.column("n").combine_chunks().cast(pa.int64()))
        )

    keyed = counts.map_batches(neg, batch_format="pyarrow", zero_copy_batch=True)
    out = per_group_top_k(keyed, "user_id", ["__neg", "event_type"], 1, NB)

    def shape(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": batch.column("user_id"),
            "mode_type": batch.column("event_type"),
            "n": batch.column("n"),
        })

    return out.map_batches(shape, batch_format="pyarrow", zero_copy_batch=True)


@register(
    "funnel_signup_purchase",
    """
    WITH s AS (
      SELECT user_id, min(ts) AS signup_ts
      FROM events WHERE event_type = 'signup' GROUP BY user_id
    ), p AS (
      SELECT e.user_id, min(e.ts) AS conversion_ts
      FROM events e JOIN s ON e.user_id = s.user_id
      WHERE e.event_type = 'purchase' AND e.ts > s.signup_ts
      GROUP BY e.user_id
    )
    SELECT s.user_id, s.signup_ts, p.conversion_ts,
           CAST(p.conversion_ts IS NOT NULL AS BIGINT) AS converted,
           date_diff('microsecond', s.signup_ts, p.conversion_ts) AS delay_us
    FROM s LEFT JOIN p ON s.user_id = p.user_id
    """,
)
def funnel_signup_purchase(sf_dir: str):
    """FUNNEL / conversion analysis: per entity, the first signup and the
    first purchase STRICTLY after it (timestamp semantics; a same-microsecond
    purchase does not convert) — the ordered-sequence-matching step of
    behavioral feature engineering, one row per entity that entered the
    funnel.  Single bucket-spine pass, fully vectorized: per-segment masked
    ``minimum.reduceat`` finds the first signup, a second masked reduceat
    over rows later than it finds the earliest qualifying purchase — no
    per-entity loop, no second exchange, no join."""
    ds = _events(sf_dir, ["user_id", "ts", "event_type"])
    INF = np.iinfo(np.int64).max

    def per_bucket(tbl: pa.Table) -> pa.Table:
        empty = pa.table({
            "user_id": pa.array([], pa.int64()),
            "signup_ts": pa.array([], pa.timestamp("us")),
            "conversion_ts": pa.array([], pa.timestamp("us")),
            "converted": pa.array([], pa.int64()),
            "delay_us": pa.array([], pa.int64()),
        })
        if tbl.num_rows == 0:
            return empty
        starts, ends = entity_segments(tbl, "user_id")
        sizes = ends - starts
        ts = np.asarray(tbl.column("ts").cast(pa.int64()).combine_chunks())
        et = tbl.column("event_type")
        uid = np.asarray(tbl.column("user_id").combine_chunks())
        is_s = np.asarray(pc.equal(et, "signup").combine_chunks())
        is_p = np.asarray(pc.equal(et, "purchase").combine_chunks())
        s_ts = np.minimum.reduceat(np.where(is_s, ts, INF), starts)
        has_s = s_ts < INF
        if not has_s.any():
            return empty
        s_row = np.repeat(s_ts, sizes)
        conv_cand = np.where(is_p & (ts > s_row), ts, INF)
        c_ts = np.minimum.reduceat(conv_cand, starts)
        converted = (c_ts < INF) & has_s
        keep = has_s
        safe_c = np.where(converted, c_ts, 0)
        return pa.table({
            "user_id": pa.array(uid[starts][keep], pa.int64()),
            "signup_ts": pa.array(s_ts[keep], pa.timestamp("us")),
            "conversion_ts": pa.array(safe_c[keep], pa.timestamp("us"), mask=~converted[keep]),
            "converted": pa.array(converted[keep].astype(np.int64), pa.int64()),
            "delay_us": pa.array(safe_c[keep] - s_ts[keep], pa.int64(), mask=~converted[keep]),
        })

    return grouped_sorted_apply(ds, "user_id", ["ts"], per_bucket, NB)


@register(
    "value_decile_assign",
    """
    WITH b AS (
      SELECT event_type,
             quantile_cont(ROUND(value * 100),
                           [0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9]) AS qs
      FROM events GROUP BY event_type
    )
    SELECT e.event_id,
           1 + len(list_filter(b.qs, q -> ROUND(e.value * 100) >= q)) AS decile
    FROM events e JOIN b ON e.event_type = b.event_type
    """,
)
def value_decile_assign(sf_dir: str):
    """Quantile-bucket DISCRETIZATION: every value mapped to its per-type
    decile (1..10) — the feature-binning step before one-hot/embedding of a
    continuous measure.  Two passes, both shuffle-light: (1) exact per-type
    decile boundaries via the mergeable fixed-point quantile aggregate (the
    exchange carries (type, cents) COUNTS, never rows — identical arithmetic
    to SQL quantile_cont so boundaries match bit-for-bit); (2) the tiny
    (types × 9) boundary model broadcast via ``ray.put`` and each batch
    bucketed with one vectorized compare — no second shuffle.  Boundary
    collisions (a value exactly on a decile edge) resolve identically on
    both sides because the comparison operands are bit-equal."""
    _DEC = [i / 10.0 for i in range(1, 10)]
    ds = _events(sf_dir, ["event_id", "event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        cents = np.rint(
            np.asarray(batch.column("value").combine_chunks(), dtype=np.float64) * 100
        ).astype(np.int64)
        t = pa.table({"event_type": batch.column("event_type"), "cent": pa.array(cents)})
        cnt = t.group_by(["event_type", "cent"]).aggregate([("cent", "count")])
        return pa.table({"event_type": cnt.column("event_type"),
                         "cent": cnt.column("cent"),
                         "n": cnt.column("cent_count").cast(pa.int64())})

    partials = _events(sf_dir, ["event_type", "value"]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    )

    def boundaries(tbl: pa.Table) -> pa.Table:
        starts, ends = entity_segments(tbl, "event_type")
        ets = tbl.column("event_type")
        cents = np.asarray(tbl.column("cent").combine_chunks(), dtype=np.float64)
        cnts = np.asarray(tbl.column("n").combine_chunks(), dtype=np.int64)
        out_t, out_b = [], []
        for s, e in zip(starts, ends):
            v, c = cents[s:e], cnts[s:e]
            cum = np.cumsum(c)
            n = int(cum[-1])
            bs = []
            for q in _DEC:
                pos = q * (n - 1)
                i = int(np.floor(pos))
                frac = pos - i
                lo = v[np.searchsorted(cum, i + 1)]
                hi = v[np.searchsorted(cum, min(i + 2, n))]
                bs.append(lo + frac * (hi - lo))  # cents-space, NO rounding
            out_t.append(ets[s].as_py())
            out_b.append(bs)
        return pa.table({
            "event_type": pa.array(out_t, pa.string()),
            "bs": pa.array(out_b, pa.list_(pa.float64())),
        })

    bt = grouped_sorted_apply(partials, "event_type", ["cent"], boundaries, NB).take_all()
    bmap = {r["event_type"]: np.asarray(r["bs"], dtype=np.float64) for r in bt}
    types = sorted(bmap)
    B = np.stack([bmap[t] for t in types])  # (T, 9) broadcast model
    bref = ray.put((types, B))

    def assign(batch: pa.Table) -> pa.Table:
        tys, Bm = ray.get(bref)
        cents = np.rint(
            np.asarray(batch.column("value").combine_chunks(), dtype=np.float64) * 100
        )
        d = batch.column("event_type").combine_chunks().dictionary_encode()
        lut = np.array([tys.index(s) for s in d.dictionary.to_pylist()], dtype=np.int64)
        ti = lut[np.asarray(d.indices)]
        dec = 1 + (cents[:, None] >= Bm[ti]).sum(axis=1)
        return pa.table({
            "event_id": batch.column("event_id"),
            "decile": pa.array(dec.astype(np.int64), pa.int64()),
        })

    return ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)


_DAY_US = 86_400_000_000
_WEEK_US = 7 * _DAY_US


@register(
    "rolling_active_users",
    f"""
    WITH du AS (
      SELECT DISTINCT user_id, epoch_us(ts) // {_DAY_US} AS day FROM events
    ), span AS (
      SELECT unnest(range(min(day), max(day) + 7)) AS day FROM du
    )
    SELECT s.day, count(DISTINCT u.user_id) AS active_users
    FROM span s JOIN du u ON u.day BETWEEN s.day - 6 AND s.day
    GROUP BY s.day
    """,
)
def rolling_active_users(sf_dir: str):
    """Rolling 7-day ACTIVE-USERS (time-windowed COUNT DISTINCT) — the
    engagement metric every event pipeline reports, and a windowed distinct
    aggregate SQL window functions cannot express (no DISTINCT in OVER).
    Naive plans shuffle (rows × window) copies; this runs ONE bucket-spine
    pass per user that merges each user's active days into covered-day
    intervals [d, d+6] and emits every covered day EXACTLY ONCE per user
    (interval union, vectorized via clipped np.repeat/arange runs), so the
    second exchange carries distinct (day, user) coverage rows — bounded by
    users × span-days — and a plain count per day IS the distinct count."""
    ds = _events(sf_dir, ["user_id", "ts"])
    W = 7

    def day_partial(batch: pa.Table) -> pa.Table:
        days = np.asarray(batch.column("ts").cast(pa.int64()).combine_chunks()) // _DAY_US
        t = pa.table({"user_id": batch.column("user_id"), "day": pa.array(days)})
        # block-local dedup so the spine shuffle carries (user, day) pairs
        return t.group_by(["user_id", "day"]).aggregate([])

    pairs = ds.map_batches(day_partial, batch_format="pyarrow", zero_copy_batch=True)

    def cover(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return pa.table({"day": pa.array([], pa.int64())})
        starts, _ = entity_segments(tbl, "user_id")
        d = np.asarray(tbl.column("day").combine_chunks(), dtype=np.int64)
        n = len(d)
        first = np.zeros(n, dtype=bool)
        first[starts] = True
        # new covered days contributed by row i: (prev_end, d_i + W-1] where
        # prev_end = d_{i-1} + W - 1 within the same user
        gap = np.empty(n, dtype=np.int64)
        gap[0] = W
        gap[1:] = d[1:] - d[:-1]
        cnt = np.where(first, W, np.minimum(gap, W))
        # dedup of the (user, day) spine is block-local only, so a duplicate
        # pair CAN straddle blocks and reach here with gap == 0 → cnt == 0:
        # correct (a repeat day adds no newly-covered days; np.repeat with a
        # 0 count emits nothing), just not the cnt >= 1 invariant a fully
        # deduped spine would give
        total = int(cnt.sum())
        run_start = d + W - cnt  # first NEW covered day of row i
        offs = np.arange(total, dtype=np.int64) - np.repeat(
            np.concatenate(([0], np.cumsum(cnt)[:-1])), cnt
        )
        days_out = np.repeat(run_start, cnt) + offs
        return pa.table({"day": pa.array(days_out, pa.int64())})

    covered = grouped_sorted_apply(pairs, "user_id", ["day"], cover, NB)
    return grouped_agg(covered, ["day"], {"active_users": ("*", "count")})


@register(
    "cohort_retention",
    f"""
    WITH uw AS (
      SELECT DISTINCT user_id, epoch_us(ts) // {_WEEK_US} AS week FROM events
    ), f AS (
      SELECT user_id, min(week) AS cohort_week FROM uw GROUP BY user_id
    )
    SELECT f.cohort_week, uw.week - f.cohort_week AS week_offset,
           count(*) AS retained
    FROM uw JOIN f ON uw.user_id = f.user_id
    GROUP BY f.cohort_week, uw.week - f.cohort_week
    """,
)
def cohort_retention(sf_dir: str):
    """COHORT RETENTION: users grouped by first-activity week, counted in
    every later week they return — the triangle every growth/engagement
    pipeline materializes.  One bucket-spine pass per user derives the
    cohort week (first row of the sorted segment) and the distinct active
    weeks in the same scan, emitting (cohort_week, week_offset) rows; the
    only other exchange is the tiny final count over the cohort × offset
    grid.  No self-join, no second read."""
    ds = _events(sf_dir, ["user_id", "ts"])

    def week_partial(batch: pa.Table) -> pa.Table:
        wk = np.asarray(batch.column("ts").cast(pa.int64()).combine_chunks()) // _WEEK_US
        t = pa.table({"user_id": batch.column("user_id"), "week": pa.array(wk)})
        return t.group_by(["user_id", "week"]).aggregate([])

    pairs = ds.map_batches(week_partial, batch_format="pyarrow", zero_copy_batch=True)

    def offsets(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return pa.table({"cohort_week": pa.array([], pa.int64()),
                             "week_offset": pa.array([], pa.int64())})
        starts, ends = entity_segments(tbl, "user_id")
        wk = np.asarray(tbl.column("week").combine_chunks(), dtype=np.int64)
        sizes = ends - starts
        cohort = np.repeat(wk[starts], sizes)
        # block-local dedup leaves cross-block duplicate (user, week) rows;
        # the segment is sorted, so keep only the first of each week run
        keep = np.ones(len(wk), dtype=bool)
        keep[1:] = wk[1:] != wk[:-1]
        keep[starts] = True
        return pa.table({
            "cohort_week": pa.array(cohort[keep], pa.int64()),
            "week_offset": pa.array((wk - cohort)[keep], pa.int64()),
        })

    rows = grouped_sorted_apply(pairs, "user_id", ["week"], offsets, NB)
    return grouped_agg(rows, ["cohort_week", "week_offset"], {"retained": ("*", "count")})


@register(
    "join_user_order_activity",
    """
    WITH e AS (SELECT user_id, count(*) AS n_events FROM events GROUP BY user_id),
         o AS (SELECT o_custkey AS user_id, count(*) AS n_orders FROM orders GROUP BY o_custkey)
    SELECT COALESCE(e.user_id, o.user_id) AS user_id, e.n_events, o.n_orders
    FROM e FULL OUTER JOIN o ON e.user_id = o.user_id
    """,
)
def join_user_order_activity(sf_dir: str):
    """FULL OUTER big×big join (J5 extended): per-user event activity
    reconciled against per-customer order activity — the coverage-audit join
    ("which entities exist on only one side") every multi-source pipeline
    runs.  Both inputs are themselves distributed aggregates; the join is
    ONE co-partitioned exchange and Acero full-outer inside each bucket,
    unmatched rows of either side surviving with null payload."""
    ev = grouped_agg(_events(sf_dir, ["user_id"]), ["user_id"], {"n_events": ("*", "count")})
    orders = read_table(sf_dir, "orders", columns=["o_custkey"])

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table({"user_id": batch.column("o_custkey")})

    oc = grouped_agg(
        orders.map_batches(rename, batch_format="pyarrow", zero_copy_batch=True),
        ["user_id"], {"n_orders": ("*", "count")},
    )

    return shuffle_join(ev, oc, on="user_id", left_cols=["n_events"],
                        right_cols=["n_orders"], how="full", num_buckets=NB)


@register(
    "events_since_purchase",
    """
    WITH r AS (
      SELECT event_id, user_id, event_type,
             row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn
      FROM events
    )
    SELECT event_id, user_id,
           rn - max(CASE WHEN event_type = 'purchase' THEN rn END)
                  OVER (PARTITION BY user_id ORDER BY rn
                        ROWS UNBOUNDED PRECEDING) AS since_purchase
    FROM r
    """,
)
def events_since_purchase(sf_dir: str):
    """Marker-reset running counter: for every event, how many rows since
    the entity's most recent purchase (0 on the purchase itself, NULL before
    the first) — the "time/steps since last reset" feature of behavioral
    models, a stateful per-entity scan that SQL needs nested windows for.
    One spine pass: purchase positions per segment + one searchsorted, all
    segment arithmetic."""
    ds = _events(sf_dir, ["event_id", "user_id", "ts", "event_type"])

    def per_bucket(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        if n == 0:
            return pa.table({
                "event_id": pa.array([], pa.int64()),
                "user_id": pa.array([], pa.int64()),
                "since_purchase": pa.array([], pa.int64()),
            })
        starts, ends = entity_segments(tbl, "user_id")
        sizes = ends - starts
        seg_start = np.repeat(starts, sizes)
        is_p = np.asarray(pc.equal(tbl.column("event_type"), "purchase").combine_chunks())
        p_pos = np.flatnonzero(is_p)
        idx = np.arange(n, dtype=np.int64)
        at_or_before = np.searchsorted(p_pos, idx, side="right") - 1
        last_p = np.where(at_or_before >= 0, p_pos[np.maximum(at_or_before, 0)], -1)
        ok = (last_p >= 0) & (last_p >= seg_start)  # same entity only
        return pa.table({
            "event_id": tbl.column("event_id"),
            "user_id": tbl.column("user_id"),
            "since_purchase": pa.array(idx - np.maximum(last_p, 0), pa.int64(), mask=~ok),
        })

    return grouped_sorted_apply(ds, "user_id", ["ts", "event_id"], per_bucket, NB)


@register(
    "asof_nearest_event",
    """
    WITH w AS (
      SELECT event_id, user_id, ts, event_type,
             last_value(CASE WHEN event_type = 'purchase' THEN event_id END IGNORE NULLS)
               OVER prv AS prev_pid,
             last_value(CASE WHEN event_type = 'purchase' THEN ts END IGNORE NULLS)
               OVER prv AS prev_ts,
             first_value(CASE WHEN event_type = 'purchase' THEN event_id END IGNORE NULLS)
               OVER nxt AS next_pid,
             first_value(CASE WHEN event_type = 'purchase' THEN ts END IGNORE NULLS)
               OVER nxt AS next_ts
      FROM events
      WINDOW prv AS (PARTITION BY user_id ORDER BY ts, event_id
                     ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
             nxt AS (PARTITION BY user_id ORDER BY ts, event_id
                     ROWS BETWEEN 1 FOLLOWING AND UNBOUNDED FOLLOWING)
    )
    SELECT event_id, user_id,
           CASE
             WHEN prev_pid IS NULL AND next_pid IS NULL THEN NULL
             WHEN prev_pid IS NULL THEN next_pid
             WHEN next_pid IS NULL THEN prev_pid
             WHEN date_diff('microsecond', prev_ts, ts)
                  <= date_diff('microsecond', ts, next_ts) THEN prev_pid
             ELSE next_pid
           END AS nearest_purchase_id,
           CASE
             WHEN prev_pid IS NULL AND next_pid IS NULL THEN NULL
             WHEN prev_pid IS NULL THEN date_diff('microsecond', ts, next_ts)
             WHEN next_pid IS NULL THEN date_diff('microsecond', prev_ts, ts)
             ELSE least(date_diff('microsecond', prev_ts, ts),
                        date_diff('microsecond', ts, next_ts))
           END AS gap_us
    FROM w WHERE event_type = 'error'
    """,
)
def asof_nearest_event(sf_dir: str):
    """NEAREST as-of join (direction='nearest'): for every error, the
    purchase of the same entity closest in event time, looking BOTH ways,
    absolute-gap tie broken toward the earlier row — completing the as-of
    family (backward = stages/asof.py, forward = asof_next_event, windowed =
    asof_windowed_features).  One spine pass, two searchsorteds per bucket."""
    ds = _events(sf_dir, ["event_id", "user_id", "ts", "event_type"])

    def per_bucket(tbl: pa.Table) -> pa.Table:
        empty = pa.table({
            "event_id": pa.array([], pa.int64()),
            "user_id": pa.array([], pa.int64()),
            "nearest_purchase_id": pa.array([], pa.int64()),
            "gap_us": pa.array([], pa.int64()),
        })
        n = tbl.num_rows
        if n == 0:
            return empty
        starts, ends = entity_segments(tbl, "user_id")
        sizes = ends - starts
        seg_start = np.repeat(starts, sizes)
        seg_end = np.repeat(ends, sizes)
        et = tbl.column("event_type")
        is_p = np.asarray(pc.equal(et, "purchase").combine_chunks())
        e_pos = np.flatnonzero(np.asarray(pc.equal(et, "error").combine_chunks()))
        if e_pos.size == 0:
            return empty
        p_pos = np.flatnonzero(is_p)
        ts = np.asarray(tbl.column("ts").cast(pa.int64()).combine_chunks())
        eid = np.asarray(tbl.column("event_id").combine_chunks())
        uid = np.asarray(tbl.column("user_id").combine_chunks())
        nxt_i = np.searchsorted(p_pos, e_pos, side="right")
        prv_i = nxt_i - 1
        nxt = np.where(nxt_i < p_pos.size, p_pos[np.minimum(nxt_i, p_pos.size - 1)], -1)
        prv = np.where(prv_i >= 0, p_pos[np.maximum(prv_i, 0)], -1)
        nxt_ok = (nxt >= 0) & (nxt < seg_end[e_pos])
        prv_ok = (prv >= 0) & (prv >= seg_start[e_pos])
        gap_n = np.where(nxt_ok, ts[np.maximum(nxt, 0)] - ts[e_pos], np.iinfo(np.int64).max)
        gap_p = np.where(prv_ok, ts[e_pos] - ts[np.maximum(prv, 0)], np.iinfo(np.int64).max)
        use_prev = prv_ok & (~nxt_ok | (gap_p <= gap_n))
        chosen = np.where(use_prev, prv, nxt)
        ok = prv_ok | nxt_ok
        gap = np.where(use_prev, gap_p, gap_n)
        safe = np.maximum(chosen, 0)
        return pa.table({
            "event_id": pa.array(eid[e_pos], pa.int64()),
            "user_id": pa.array(uid[e_pos], pa.int64()),
            "nearest_purchase_id": pa.array(eid[safe], pa.int64(), mask=~ok),
            "gap_us": pa.array(np.where(ok, gap, 0), pa.int64(), mask=~ok),
        })

    return grouped_sorted_apply(ds, "user_id", ["ts", "event_id"], per_bucket, NB)


@register(
    "users_in_both_sources",
    """
    SELECT user_id FROM events
    INTERSECT
    SELECT o_custkey AS user_id FROM orders
    """,
)
def users_in_both_sources(sf_dir: str):
    """Set INTERSECT (distinct semantics) of two big key streams — the
    "entities present in every source" audit.  Tagged union → ONE Arrow
    partial per block (distinct (key, side) pairs) → one grouped count per
    side → filter both>0.  Exchange carries distinct keys per block, never
    rows."""
    ev = _events(sf_dir, ["user_id"])
    orders = read_table(sf_dir, "orders", columns=["o_custkey"])

    def tag(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            col = batch.column("user_id" if side == 1 else "o_custkey")
            t = pa.table({"user_id": col,
                          "s": pa.array(np.full(batch.num_rows, side, dtype=np.int64))})
            g = t.group_by(["user_id", "s"]).aggregate([])
            return g
        return fn

    u = ev.map_batches(tag(1), batch_format="pyarrow", zero_copy_batch=True).union(
        orders.map_batches(tag(0), batch_format="pyarrow", zero_copy_batch=True)
    )

    def split_sides(batch: pa.Table) -> pa.Table:
        s = np.asarray(batch.column("s").combine_chunks())
        return pa.table({
            "user_id": batch.column("user_id"),
            "in_e": pa.array((s == 1).astype(np.int64)),
            "in_o": pa.array((s == 0).astype(np.int64)),
        })

    sides = u.map_batches(split_sides, batch_format="pyarrow", zero_copy_batch=True)
    agg = grouped_agg(sides, ["user_id"], {"ne": ("in_e", "sum"), "no": ("in_o", "sum")})

    def keep_both(batch: pa.Table) -> pa.Table:
        m = pc.and_(pc.greater(batch.column("ne"), 0), pc.greater(batch.column("no"), 0))
        return batch.filter(m).select(["user_id"])

    return agg.map_batches(keep_both, batch_format="pyarrow", zero_copy_batch=True)


@register(
    "orders_only_customers",
    """
    SELECT o_custkey AS user_id FROM orders
    EXCEPT
    SELECT user_id FROM events
    """,
)
def orders_only_customers(sf_dir: str):
    """Set EXCEPT (distinct semantics): keys in the orders stream with no
    event activity — same tagged-union spine as INTERSECT, filtered to
    one-side-only."""
    ev = _events(sf_dir, ["user_id"])
    orders = read_table(sf_dir, "orders", columns=["o_custkey"])

    def tag(side: int, col_name: str):
        def fn(batch: pa.Table) -> pa.Table:
            t = pa.table({"user_id": batch.column(col_name),
                          "s": pa.array(np.full(batch.num_rows, side, dtype=np.int64))})
            return t.group_by(["user_id", "s"]).aggregate([])
        return fn

    u = orders.map_batches(tag(0, "o_custkey"), batch_format="pyarrow", zero_copy_batch=True).union(
        ev.map_batches(tag(1, "user_id"), batch_format="pyarrow", zero_copy_batch=True)
    )

    def split_sides(batch: pa.Table) -> pa.Table:
        s = np.asarray(batch.column("s").combine_chunks())
        return pa.table({
            "user_id": batch.column("user_id"),
            "in_e": pa.array((s == 1).astype(np.int64)),
            "in_o": pa.array((s == 0).astype(np.int64)),
        })

    sides = u.map_batches(split_sides, batch_format="pyarrow", zero_copy_batch=True)
    agg = grouped_agg(sides, ["user_id"], {"ne": ("in_e", "sum"), "no": ("in_o", "sum")})

    def keep_orders_only(batch: pa.Table) -> pa.Table:
        m = pc.and_(pc.equal(batch.column("ne"), 0), pc.greater(batch.column("no"), 0))
        return batch.filter(m).select(["user_id"])

    return agg.map_batches(keep_orders_only, batch_format="pyarrow", zero_copy_batch=True)


@register(
    "revenue_share_by_nation",
    """
    WITH r AS (
      SELECT n.n_name AS nation, sum(ROUND(o.o_totalprice * 100)) AS rev_c
      FROM orders o
      JOIN customer c ON o.o_custkey = c.c_custkey
      JOIN nation n ON c.c_nationkey = n.n_nationkey
      GROUP BY n.n_name
    )
    SELECT nation, ROUND(rev_c / 100, 6) AS revenue,
           ROUND(rev_c / sum(rev_c) OVER (), 6) AS share
    FROM r
    """,
)
def revenue_share_by_nation(sf_dir: str):
    """RATIO-TO-REPORT (percent-of-total window): each nation's share of
    global revenue.  The grouped aggregate is the only real exchange; the
    grand total is derived FROM the already-aggregated (≤ nations) rows with
    one tiny global pass, then normalized map-side — integer-cents sums keep
    the division bit-identical to the SQL window's."""
    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    cust = pa.concat_tables(
        [pa.table(b) for b in read_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey"]).iter_batches(batch_format="pyarrow")]
    )
    nation = pa.concat_tables(
        [pa.table(b) for b in read_table(sf_dir, "nation", columns=["n_nationkey", "n_name"]).iter_batches(batch_format="pyarrow")]
    )
    dim = cust.join(nation, keys=["c_nationkey"], right_keys=["n_nationkey"])
    dim = dim.select(["c_custkey", "n_name"]).rename_columns(["o_custkey", "nation"])
    joined = broadcast_join(orders, dim, on="o_custkey", how="inner")

    def cents(batch: pa.Table) -> pa.Table:
        v = np.asarray(batch.column("o_totalprice").combine_chunks(), dtype=np.float64)
        return pa.table({"nation": batch.column("nation"),
                         "rev_c": pa.array(np.rint(v * 100))})

    agg = grouped_agg(
        joined.map_batches(cents, batch_format="pyarrow", zero_copy_batch=True),
        ["nation"], {"rev_c": ("rev_c", "sum")},
    ).materialize()  # ≤ nations rows: reused for the total and the shares
    total = float(sum(r["rev_c"] for r in agg.take_all()))

    def shape(batch: pa.Table) -> pa.Table:
        rc = np.asarray(batch.column("rev_c").combine_chunks(), dtype=np.float64)
        return pa.table({
            "nation": batch.column("nation"),
            "revenue": pa.array(rnd(rc / 100.0), pa.float64()),
            "share": pa.array(rnd(rc / total), pa.float64()),
        })

    return agg.map_batches(shape, batch_format="pyarrow", zero_copy_batch=True)


_PHASH_T = 2        # hamming threshold; 4 bands × 16 bits is complete for T ≤ 3
_PHASH_BANDS = 4
_PHASH_MAX_BUCKET = 4096


@register(
    "phash_near_dups",
    f"""
    WITH ph AS (
      SELECT image_id, min(phash) AS phash
      FROM read_parquet('{_FIXTURE_BASE}/events/*.parquet') GROUP BY image_id
    )
    SELECT a.image_id AS id_a, b.image_id AS id_b,
           CAST(bit_count(xor(a.phash, b.phash)) AS BIGINT) AS dist
    FROM ph a JOIN ph b ON a.image_id < b.image_id
    WHERE bit_count(xor(a.phash, b.phash)) <= {_PHASH_T}
    """,
)
def phash_near_dups(sf_dir: str):
    """IMAGE near-dup pairs by perceptual-hash Hamming distance — the
    visual-dedup step of an image-crawl pipeline, over the fixture's
    deliberately hot/clustered phash column (north-rule skew analog).
    Banded LSH on the 64-bit phash (4 × 16-bit bands, exact-match buckets):
    pigeonhole-COMPLETE for Hamming ≤ 3 (T=2 here — a pair within T differs
    in ≤ T bands, so ≥ 1 band is identical), so the banded scan provably
    equals the all-pairs SQL oracle.  One canonicalizing aggregate
    (min phash per image), one ``_band_pairs`` exchange (fail-loud at
    ``_PHASH_MAX_BUCKET``), Hamming computed in the bucket (SWAR popcount)
    BEFORE the pair-dedup ``grouped_agg`` — no all-pairs stage, no driver
    materialization."""
    events_dir, _ = _fixture(sf_dir)
    from ..sources.readers import read_events

    ds = read_events(events_dir, columns=["image_id", "phash"])
    canon = grouped_agg(ds, ["image_id"], {"phash": ("phash", "min")})

    def bands(batch: pa.Table) -> pa.Table:
        ids = batch.column("image_id").combine_chunks()
        ph = np.asarray(batch.column("phash").combine_chunks()).astype(np.uint64)
        n = len(ph)
        out_keys = np.empty(n * _PHASH_BANDS, dtype=np.int64)
        for b in range(_PHASH_BANDS):
            bits = (ph >> np.uint64(16 * b)) & np.uint64(0xFFFF)
            out_keys[b * n:(b + 1) * n] = (np.int64(b) << np.int64(16)) | bits.astype(np.int64)
        rep_ids = pa.chunked_array([ids] * _PHASH_BANDS)
        rep_ph = np.tile(ph.astype(np.int64), _PHASH_BANDS)
        return pa.table({
            "band_key": pa.array(out_keys, pa.int64()),
            "image_id": rep_ids,
            "phash": pa.array(rep_ph, pa.int64()),
        })

    emitted = canon.map_batches(bands, batch_format="pyarrow", zero_copy_batch=True)

    def hamming_pairs(tbl: pa.Table, ia: np.ndarray, ib: np.ndarray) -> pa.Table:
        ph = np.asarray(tbl.column("phash").combine_chunks())
        d = popcount64(ph[ia] ^ ph[ib])
        keep = d <= _PHASH_T
        ids = tbl.column("image_id").combine_chunks()
        return pa.table({"id_a": ids.take(ia[keep]).cast(pa.string()),
                         "id_b": ids.take(ib[keep]).cast(pa.string()),
                         "dist": pa.array(d[keep], pa.int64())})

    pairs = _band_pairs(
        emitted, "band_key", "image_id", hamming_pairs, _PHASH_MAX_BUCKET,
        "the phash domain is degenerate for 16-bit banding — use wider "
        "bands or pre-split the hot band value",
    )
    return grouped_agg(pairs, ["id_a", "id_b"], {"dist": ("dist", "min")})


# ---------------------------------------------------------------------------
# round-5 additions: grouped normalization, rolling window median, weighted
# sampling — the remaining standard feature-engineering transforms
# ---------------------------------------------------------------------------

@register(
    "zscore_by_type",
    """
    WITH c AS (
      SELECT event_id, event_type, value,
             CAST(ROUND(value * 100) AS BIGINT) AS cv
      FROM events
    ),
    s AS (
      SELECT event_type, sum(cv) AS s1, sum(cv * cv) AS s2, count(*) AS n
      FROM c GROUP BY event_type
    )
    SELECT c.event_id, c.event_type,
           ROUND((c.value - s.s1 / (100.0 * s.n))
                 / sqrt(s.s2 / (10000.0 * s.n)
                        - (s.s1 / (100.0 * s.n)) * (s.s1 / (100.0 * s.n))), 6)
             AS zscore
    FROM c JOIN s USING (event_type)
    """,
)
def zscore_by_type(sf_dir: str):
    """Per-group z-score normalization (feature scaling by class) — the
    grouped-standardization transform of classic feature pipelines
    (reference analog: per-class normalization intent of
    preprocess-300hz.py's per-record scaling, generalized to groups).

    Scale shape: ONE partial-aggregate pass collapses each block to
    ≤ groups rows of integer sufficient statistics (Σcents, Σcents²,
    n — exact int64, so the merged moments are order-independent and
    bit-reproducible by the SQL oracle), one tiny ``grouped_agg``
    exchange, then the group-moment map is broadcast and the z-scores
    are computed in a second streaming pass.  No sort, no big shuffle."""
    ds = _events(sf_dir, ["event_id", "event_type", "value"])

    def parts(batch: pa.Table) -> pa.Table:
        d = batch.column("event_type").combine_chunks().dictionary_encode()
        idx = np.asarray(d.indices)
        v = np.asarray(batch.column("value").combine_chunks(), dtype=np.float64)
        cv = np.rint(v * 100)  # exact integers ≪ 2^53: float sums stay exact
        kk = len(d.dictionary)
        return pa.table({
            "event_type": d.dictionary,
            "s1": pa.array(np.bincount(idx, weights=cv, minlength=kk).astype(np.int64)),
            "s2": pa.array(np.bincount(idx, weights=cv * cv, minlength=kk).astype(np.int64)),
            "n": pa.array(np.bincount(idx, minlength=kk).astype(np.int64)),
        })

    stats = grouped_agg(
        ds.map_batches(parts, batch_format="pyarrow", zero_copy_batch=True),
        ["event_type"], {"s1": ("s1", "sum"), "s2": ("s2", "sum"), "n": ("n", "sum")},
    ).take_all()  # ≤ #event_types rows
    model = {}
    for r in stats:
        mu = r["s1"] / (100.0 * r["n"])
        var = r["s2"] / (10000.0 * r["n"]) - mu * mu
        model[r["event_type"]] = (mu, float(np.sqrt(var)))
    mref = ray.put(model)

    def z(batch: pa.Table) -> pa.Table:
        mdl = ray.get(mref)
        d = batch.column("event_type").combine_chunks().dictionary_encode()
        idx = np.asarray(d.indices)
        lut = np.array([mdl[t] for t in d.dictionary.to_pylist()], dtype=np.float64)
        v = np.asarray(batch.column("value").combine_chunks(), dtype=np.float64)
        zs = (v - lut[idx, 0]) / lut[idx, 1]
        return pa.table({
            "event_id": batch.column("event_id"),
            "event_type": batch.column("event_type"),
            "zscore": pa.array(rnd(zs)),
        })

    return ds.map_batches(z, batch_format="pyarrow", zero_copy_batch=True)


@register(
    "rolling_median7_per_user",
    """
    SELECT event_id, user_id,
           ROUND(median(value) OVER (PARTITION BY user_id ORDER BY ts, event_id
                 ROWS BETWEEN 6 PRECEDING AND CURRENT ROW), 6) AS med7
    FROM events
    """,
)
def rolling_median7_per_user(sf_dir: str):
    """Rolling 7-row median per user (robust smoothing over the event
    stream — the windowed generalization of the reference's 3-point
    rolling median, QRS_features.py preprocessing).  Runs on the bucket
    spine; inside each bucket the whole computation is ONE vectorized
    nanmedian over a NaN-padded sliding-window view (the 6-NaN gap between
    entity segments makes window boundaries per-entity without any
    per-entity Python loop)."""
    W = 7
    ds = _events(sf_dir, ["user_id", "ts", "event_id", "value"])

    def per_bucket(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        if n == 0:
            return pa.table({"event_id": pa.array([], pa.int64()),
                             "user_id": pa.array([], pa.int64()),
                             "med7": pa.array([], pa.float64())})
        starts, ends = entity_segments(tbl, "user_id")
        v = np.asarray(tbl.column("value").combine_chunks(), dtype=np.float64)
        seg_id = np.repeat(np.arange(starts.size), ends - starts)
        padded = np.full(n + (W - 1) * starts.size, np.nan)
        pos = np.arange(n) + (W - 1) * (seg_id + 1)
        padded[pos] = v
        sw = np.lib.stride_tricks.sliding_window_view(padded, W)
        meds = np.nanmedian(sw[pos - (W - 1)], axis=1)
        return pa.table({
            "event_id": tbl.column("event_id"),
            "user_id": tbl.column("user_id"),
            "med7": pa.array(rnd(meds)),
        })

    return grouped_sorted_apply(ds, "user_id", ["ts", "event_id"], per_bucket, NB)


@register(
    "weighted_sample_docs",
    """
    WITH keyed AS (
      SELECT doc_id, n_chars,
             pow(CAST(('0x' || substr(md5(concat('ws|', doc_id)), 1, 13)) AS UBIGINT)
                   / 4503599627370496.0,
                 1.0 / n_chars) AS k
      FROM documents WHERE n_chars > 0
    ),
    r AS (
      SELECT doc_id, n_chars, k,
             row_number() OVER (ORDER BY k DESC, doc_id) AS sample_rank
      FROM keyed
    )
    SELECT doc_id, n_chars, ROUND(k, 6) AS sample_key, sample_rank
    FROM r WHERE sample_rank <= 20
    """,
)
def weighted_sample_docs(sf_dir: str, n: int = 20):
    """Deterministic weighted sampling WITHOUT replacement (Efraimidis-
    Spirakis A-ES, public algorithm): per doc a retry-safe md5-derived
    uniform u, key = u^(1/weight) with weight = n_chars, global top-n by
    key — longer documents are proportionally more likely to be kept, the
    standard size-weighted corpus subsample.  Distributed as block-local
    top-n pre-prune + one O(blocks × n) merge on the per_group_top_k
    spine (single synthetic group) — never a global sort."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def keyed(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id").combine_chunks()).astype(np.int64)
        w = np.asarray(batch.column("n_chars").combine_chunks()).astype(np.float64)
        m = w > 0
        ids, w = ids[m], w[m]
        u = md5_keys(pa.array(ids), "ws|", 13).astype(np.float64) / float(1 << 52)
        k = np.power(u, 1.0 / w)
        return pa.table({
            "doc_id": pa.array(ids),
            "n_chars": pa.array(w.astype(np.int64)),
            "k": pa.array(k),
            "__negk": pa.array(-k),
            "__g": pa.array(np.zeros(ids.size, np.int8)),
        })

    top = per_group_top_k(
        ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True),
        "__g", ["__negk", "doc_id"], n, NB, rank_name="sample_rank",
    )

    def shape(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_chars": batch.column("n_chars"),
            "sample_key": pa.array(rnd(np.asarray(batch.column("k").combine_chunks()))),
            "sample_rank": batch.column("sample_rank"),
        })

    return top.map_batches(shape, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# round-5 additions, part 2: benchmark decontamination, Gopher-style
# repetition filtering, sequence packing — the remaining standard
# LLM-training-data curation operators
# ---------------------------------------------------------------------------

_DECON_N = 3          # token n-gram width.  Production decontamination
                      # uses 8-13 grams (e.g. GPT-3 appendix C); the
                      # synthetic 32-token test corpus has zero 8-gram
                      # overlap, so the gate runs at width 3 — the kernel
                      # and oracle share this one constant.
_DECON_BENCH_MOD = 97  # doc_id % 97 == 0 plays the held-out benchmark set


@register(
    "decontaminate_docs",
    f"""
    WITH arr AS (SELECT doc_id, string_split(text, ' ') AS a FROM documents),
    pos AS (
      SELECT doc_id, a, unnest(range(1, greatest(len(a) - {_DECON_N - 2}, 1))) AS i
      FROM arr
    ),
    g AS (
      SELECT DISTINCT doc_id, array_to_string(a[i:i+{_DECON_N - 1}], ' ') AS gram
      FROM pos
    ),
    bench AS (SELECT DISTINCT gram FROM g WHERE doc_id % {_DECON_BENCH_MOD} = 0)
    SELECT g.doc_id, count(*) AS n_shared
    FROM g JOIN bench USING (gram)
    WHERE g.doc_id % {_DECON_BENCH_MOD} <> 0
    GROUP BY g.doc_id
    """,
)
def decontaminate_docs(sf_dir: str):
    """Benchmark decontamination: flag every training document sharing at
    least one token n-gram (width ``_DECON_N``) with the held-out benchmark
    set (docs with
    ``doc_id % 97 == 0`` stand in for the eval set), reporting the count of
    distinct shared grams.  The published n-gram-overlap decontamination
    procedure of LLM corpus builds (reference analog: none — training-data
    extension, like the dedup family).

    Scale shape: the benchmark side is SMALL by nature (eval sets are
    thousands of docs, not billions), so its distinct-gram set is built in
    one streaming pass, deduped on the driver (bounded by benchmark size,
    fail-loud cap) and BROADCAST via ``ray.put`` — the training corpus then
    streams through one stateless ``map_batches`` membership pass
    (``np.searchsorted`` into the sorted gram-hash array).  No shuffle
    touches the corpus.  Grams are md5-u64 hashed once per DISTINCT gram
    per batch (the minhash kernel's memoization pattern); the oracle
    compares gram STRINGS, which the 64-bit hash reproduces up to a
    ~n²/2⁶⁴ collision probability (same contract as the minhash/ngram
    dedup family)."""
    from ..functions.hashing import md5_u64

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def doc_gram_hashes(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """(doc_idx, gram_u64) pairs — DISTINCT grams per doc, memoized
        across the batch (low-entropy corpora repeat grams heavily)."""
        memo: dict[str, int] = {}
        out_doc: list[int] = []
        out_h: list[int] = []
        for di, t in enumerate(texts):
            toks = t.split(" ")
            if len(toks) < _DECON_N:
                continue
            seen: set[int] = set()
            for j in range(len(toks) - _DECON_N + 1):
                g = " ".join(toks[j : j + _DECON_N])
                h = memo.get(g)
                if h is None:
                    h = memo[g] = md5_u64(g)
                if h not in seen:
                    seen.add(h)
                    out_doc.append(di)
                    out_h.append(h)
        return (np.array(out_doc, dtype=np.int64),
                np.array(out_h, dtype=np.uint64))

    def bench_grams(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id").combine_chunks()).astype(np.int64)
        m = ids % _DECON_BENCH_MOD == 0
        texts = batch.column("text").filter(pa.array(m)).to_pylist()
        _, h = doc_gram_hashes(texts)
        return pa.table({"gram_h": pa.array(np.unique(h))})

    # benchmark gram set: bounded by the (small) benchmark, not the corpus
    rows = ds.map_batches(bench_grams, batch_format="pyarrow", zero_copy_batch=True).take_all()
    bench = np.unique(np.array([r["gram_h"] for r in rows], dtype=np.uint64))
    _guard_oracle_cap(bench.size, 50_000_000, "benchmark distinct n-gram count")
    bref = ray.put(bench)

    def flag(batch: pa.Table) -> pa.Table:
        bset = ray.get(bref)
        ids = np.asarray(batch.column("doc_id").combine_chunks()).astype(np.int64)
        m = ids % _DECON_BENCH_MOD != 0
        ids = ids[m]
        texts = batch.column("text").filter(pa.array(m)).to_pylist()
        di, h = doc_gram_hashes(texts)
        if h.size == 0 or bset.size == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "n_shared": pa.array([], pa.int64())})
        pos = np.searchsorted(bset, h)
        hit = (pos < bset.size) & (bset[np.minimum(pos, bset.size - 1)] == h)
        n = np.bincount(di[hit], minlength=len(texts))
        nz = np.flatnonzero(n)
        return pa.table({"doc_id": pa.array(ids[nz]),
                         "n_shared": pa.array(n[nz].astype(np.int64))})

    return ds.map_batches(flag, batch_format="pyarrow", zero_copy_batch=True)


@register(
    "doc_repetition_filter",
    """
    WITH arr AS (SELECT doc_id, string_split(text, ' ') AS a FROM documents),
    tok AS (SELECT doc_id, unnest(a) AS t FROM arr),
    tf AS (SELECT doc_id, t, count(*) AS c FROM tok GROUP BY 1, 2),
    tt AS (SELECT doc_id, max(c) AS mx, sum(c) AS n FROM tf GROUP BY 1),
    pos AS (
      SELECT doc_id, a, unnest(range(1, greatest(len(a) - 1, 1))) AS i FROM arr
    ),
    g AS (SELECT doc_id, array_to_string(a[i:i+2], ' ') AS gram FROM pos),
    gc AS (
      SELECT doc_id, count(*) AS t_total, count(DISTINCT gram) AS t_distinct
      FROM g GROUP BY 1
    )
    SELECT tt.doc_id,
           CAST(tt.n AS BIGINT) AS n_tokens,
           ROUND(CAST(tt.mx AS DOUBLE) / tt.n, 6) AS top_tok_ratio,
           ROUND(coalesce(CAST(gc.t_total - gc.t_distinct AS DOUBLE) / gc.t_total,
                          0.0), 6) AS dup_tri_ratio,
           CASE WHEN CAST(tt.mx AS DOUBLE) / tt.n <= 0.2
                 AND coalesce(CAST(gc.t_total - gc.t_distinct AS DOUBLE)
                              / gc.t_total, 0.0) <= 0.1
                THEN 1 ELSE 0 END AS keep
    FROM tt LEFT JOIN gc USING (doc_id)
    """,
)
def doc_repetition_filter(sf_dir: str):
    """Gopher-style repetition quality filter (Rae et al. 2021, public):
    per document the duplicate-trigram fraction and the top-token frequency
    fraction, plus a keep flag at the (0.1, 0.2) thresholds.  Reference
    analog: none — training-data extension.

    Scale shape: ONE stateless streaming pass, fully Arrow/numpy
    vectorized — tokenization is ``pc.split_pattern`` + flatten +
    ``dictionary_encode`` (no Python token loop), trigram identity is the
    EXACT packed triple of dictionary ids (21 bits each, fail-loud batch
    vocab cap — no hash collisions at all), and per-doc distinct/max
    statistics are lexsort + run-length reductions.  No shuffle."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def stats(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "n_tokens": pa.array([], pa.int64()),
                             "top_tok_ratio": pa.array([], pa.float64()),
                             "dup_tri_ratio": pa.array([], pa.float64()),
                             "keep": pa.array([], pa.int64())})
        splits = pc.split_pattern(batch.column("text"), " ").combine_chunks()
        lens = np.asarray(pc.list_value_length(splits), dtype=np.int64)
        d = splits.flatten().dictionary_encode()
        if len(d.dictionary) >= (1 << 21):
            raise ValueError(
                f"batch token vocabulary {len(d.dictionary)} >= 2^21: shrink "
                "batch_size so the exact packed-trigram key fits in int64"
            )
        tok = np.asarray(d.indices, dtype=np.int64)
        doc_idx = np.repeat(np.arange(n), lens)
        starts = np.cumsum(lens) - lens

        # top-token multiplicity per doc: runs of (doc, token) after lexsort
        order = np.lexsort((tok, doc_idx))
        sd, st = doc_idx[order], tok[order]
        new_run = np.ones(sd.size, dtype=bool)
        new_run[1:] = (sd[1:] != sd[:-1]) | (st[1:] != st[:-1])
        run_start = np.flatnonzero(new_run)
        run_len = np.diff(np.append(run_start, sd.size))
        run_doc = sd[run_start]
        doc_first_run = np.flatnonzero(
            np.concatenate(([True], run_doc[1:] != run_doc[:-1])))
        mx = np.maximum.reduceat(run_len, doc_first_run)  # every doc has ≥1 token

        # exact trigram distinct count per doc: packed dictionary-id triples
        tri_counts = np.maximum(lens - 2, 0)
        total = int(tri_counts.sum())
        dup_ratio = np.zeros(n, dtype=np.float64)
        if total:
            tri_doc = np.repeat(np.arange(n), tri_counts)
            offs = (np.arange(total)
                    - np.repeat(np.cumsum(tri_counts) - tri_counts, tri_counts))
            p = np.repeat(starts, tri_counts) + offs
            key = (tok[p] << 42) | (tok[p + 1] << 21) | tok[p + 2]
            o2 = np.lexsort((key, tri_doc))
            kd, kk = tri_doc[o2], key[o2]
            nr = np.ones(kd.size, dtype=bool)
            nr[1:] = (kd[1:] != kd[:-1]) | (kk[1:] != kk[:-1])
            distinct = np.bincount(kd[nr], minlength=n)
            has = tri_counts > 0
            dup_ratio[has] = (tri_counts[has] - distinct[has]) / tri_counts[has]

        top_ratio = mx / lens
        keep = ((top_ratio <= 0.2) & (dup_ratio <= 0.1)).astype(np.int64)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_tokens": pa.array(lens),
            "top_tok_ratio": pa.array(rnd(top_ratio)),
            "dup_tri_ratio": pa.array(rnd(dup_ratio)),
            "keep": pa.array(keep),
        })

    return ds.map_batches(stats, batch_format="pyarrow", zero_copy_batch=True)


_PACK_SEQ = 2048       # training sequence length (tokens)
_PACK_RANGE = 4096     # doc_id range width per prefix-scan bucket


@register(
    "pack_sequences",
    f"""
    WITH t AS (
      SELECT doc_id, len(string_split(text, ' ')) AS n_tokens FROM documents
    ),
    c AS (
      SELECT doc_id, n_tokens,
             sum(n_tokens) OVER (ORDER BY doc_id
                                 ROWS UNBOUNDED PRECEDING) AS cum
      FROM t
    )
    SELECT doc_id, n_tokens,
           CAST(cum - n_tokens AS BIGINT) AS tok_start,
           CAST((cum - n_tokens) // {_PACK_SEQ} AS BIGINT) AS seq_start,
           CAST((cum - 1) // {_PACK_SEQ} AS BIGINT) AS seq_end
    FROM c
    """,
)
def pack_sequences(sf_dir: str):
    """Sequence packing (concat-then-chunk): lay every document out on the
    single global token axis in doc_id order and report each doc's token
    offset and the [seq_start, seq_end] range of 2048-token training
    sequences it lands in — the standard LLM pretraining batch-packing
    transform.  Reference analog: the fixed-length record chunking of
    preprocess-300hz.py (≤43200-sample windows), generalized to a packed
    global axis.

    Scale shape: a DISTRIBUTED PREFIX SCAN — pass 1 sums tokens per
    contiguous ``doc_id // {_PACK_RANGE}`` range (partial aggregate, tiny
    exchange), the driver exclusive-scans the ≤ corpus/{_PACK_RANGE} range
    sums (bounded, broadcast via ``ray.put``), pass 2 runs on the bucket
    spine where each range's docs are contiguous and sorted so the
    within-range cumsum is one vectorized pass.  No global sort, no
    sequential driver loop over rows."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def counted(batch: pa.Table) -> pa.Table:
        splits = pc.split_pattern(batch.column("text"), " ").combine_chunks()
        lens = np.asarray(pc.list_value_length(splits), dtype=np.int64)
        ids = np.asarray(batch.column("doc_id").combine_chunks()).astype(np.int64)
        return pa.table({
            "doc_id": pa.array(ids),
            "n_tokens": pa.array(lens),
            "rng": pa.array(ids // _PACK_RANGE),
        })

    tok = ds.map_batches(counted, batch_format="pyarrow", zero_copy_batch=True)
    rng_sums = grouped_agg(tok, ["rng"], {"tok_sum": ("n_tokens", "sum")}).take_all()
    _guard_oracle_cap(len(rng_sums), 10_000_000, "prefix-scan range-bucket count")
    rng_ids = np.array([r["rng"] for r in rng_sums], dtype=np.int64)
    sums = np.array([r["tok_sum"] for r in rng_sums], dtype=np.int64)
    o = np.argsort(rng_ids)
    rng_ids, sums = rng_ids[o], sums[o]
    offsets = dict(zip(rng_ids.tolist(), (np.cumsum(sums) - sums).tolist()))
    oref = ray.put(offsets)

    def pack(tbl: pa.Table) -> pa.Table:
        offs = ray.get(oref)
        if tbl.num_rows == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "n_tokens": pa.array([], pa.int64()),
                             "tok_start": pa.array([], pa.int64()),
                             "seq_start": pa.array([], pa.int64()),
                             "seq_end": pa.array([], pa.int64())})
        starts, ends = entity_segments(tbl, "rng")
        ids = np.asarray(tbl.column("doc_id").combine_chunks())
        nt = np.asarray(tbl.column("n_tokens").combine_chunks())
        cum = np.cumsum(nt)
        # rebase each range segment: subtract the segment-local prefix and
        # add the broadcast global offset of that doc_id range
        seg_id = np.repeat(np.arange(starts.size), ends - starts)
        seg_base = np.concatenate(([0], cum[ends[:-1] - 1]))[seg_id]
        rng_vals = np.asarray(tbl.column("rng").combine_chunks())
        glob = np.array([offs[int(r)] for r in rng_vals[starts]], dtype=np.int64)
        tok_start = cum - nt - seg_base + glob[seg_id]
        tok_end = tok_start + nt
        return pa.table({
            "doc_id": pa.array(ids),
            "n_tokens": pa.array(nt),
            "tok_start": pa.array(tok_start),
            "seq_start": pa.array(tok_start // _PACK_SEQ),
            "seq_end": pa.array((tok_end - 1) // _PACK_SEQ),
        })

    return grouped_sorted_apply(tok, "rng", ["doc_id"], pack, NB)


# ---------------------------------------------------------------------------
# round 5 (part 3): LM-quality scoring, training-shard manifests, product
# quantization — the scoring / output / ANN-compression steps of an LLM
# training-data pipeline
# ---------------------------------------------------------------------------

_LM_MAX_VOCAB = 4_000_000
_LM_SCALE = 2.0**30  # fixed-point grain for per-token log-probs


@register(
    "unigram_logprob_docs",
    """
    WITH tok AS (
      SELECT doc_id, t AS w
      FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS t FROM documents)
      WHERE t <> ''
    ),
    cnt AS (SELECT w, count(*)::BIGINT AS c FROM tok GROUP BY w),
    tot AS (SELECT CAST(sum(c) AS DOUBLE) AS s FROM cnt),
    q AS (
      SELECT w, CAST(round(ln(c / tot.s) * 1073741824.0) AS BIGINT) AS qp
      FROM cnt, tot
    )
    SELECT tok.doc_id,
           count(*) AS n_tokens,
           ROUND(sum(q.qp) / (count(*) * 1073741824.0), 6) AS avg_logprob
    FROM tok JOIN q ON tok.w = q.w
    GROUP BY tok.doc_id
    """,
)
def unigram_logprob_docs(sf_dir: str, max_vocab: int = _LM_MAX_VOCAB):
    """Per-document mean unigram log-probability — the LM-perplexity quality
    proxy of corpus curation (CCNet-style: score every document under a
    language model fit on the corpus itself; low mean log-prob = atypical /
    junk text).  Reference analog: the class-frequency record weighting of
    preprocess-300hz.py:133-141 lifted to an open token vocabulary.

    Same two-pass Spark-MLlib shape as ``tfidf_top_terms``: (1) ONE
    vocabulary-sized ``grouped_agg`` sum over per-batch partial counts —
    O(vocab × blocks) rows ship, never a token stream; (2) the finished
    log-prob table is broadcast once (``ray.put``) and every batch scores
    its documents locally.  The per-token log-prob is QUANTIZED to int64
    fixed-point (round(ln(c/S)·2³⁰), half-away like SQL ROUND) so the
    per-document sum is exact integer arithmetic — independent of summation
    order, which is what makes a float-log aggregate hash-comparable to the
    oracle (same trick as the k-means fixed-point centroid updates).
    Vocabulary must fit a worker heap (fail-loud ``max_vocab``, same
    contract as tfidf); per-doc sums stay < 2⁵³ for docs ≤ ~400 k tokens."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "n_tokens": pa.array([], pa.int64()),
                      "avg_logprob": pa.array([], pa.float64())})
    vocab = _vocab(ds, ("cnt", "sum"), max_vocab)
    if vocab is None:
        return ray.data.from_arrow(empty)
    terms_ref, c = vocab
    c = c.astype(np.float64)
    v = np.log(c / c.sum()) * _LM_SCALE
    qp = np.copysign(np.floor(np.abs(v) + 0.5), v).astype(np.int64)  # SQL ROUND
    qp_ref = ray.put(qp)

    def score(batch: pa.Table) -> pa.Table:
        g = _doc_term_counts(batch)
        if g.num_rows == 0:
            return empty
        doc = np.asarray(g.column("doc_id").combine_chunks()).astype(np.int64)
        cnt = np.asarray(g.column("cnt").combine_chunks()).astype(np.int64)
        idx = pc.index_in(g.column("term"), value_set=ray.get(terms_ref)) \
                .to_numpy(zero_copy_only=False)
        contrib = cnt * ray.get(qp_ref)[idx]  # exact int64
        order = np.argsort(doc, kind="stable")
        d_s = doc[order]
        bounds = np.flatnonzero(np.r_[True, d_s[1:] != d_s[:-1]])
        sums = np.add.reduceat(contrib[order], bounds)
        ntok = np.add.reduceat(cnt[order], bounds)
        return pa.table({
            "doc_id": pa.array(d_s[bounds], pa.int64()),
            "n_tokens": pa.array(ntok, pa.int64()),
            "avg_logprob": pa.array(rnd(sums / (ntok * _LM_SCALE)), pa.float64()),
        })

    return ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


_SHARDS_N = 8
_SHARD_RNG = 256  # order-preserving key-space ranges for the prefix scan


@register(
    "shuffle_shard_manifest",
    f"""
    WITH k AS (
      SELECT doc_id, md5(CAST(doc_id AS VARCHAR)) AS h FROM documents
    )
    SELECT doc_id,
           CAST(('0x' || substr(h, 1, 8))::UBIGINT % {_SHARDS_N} AS BIGINT) AS shard,
           CAST(row_number() OVER (
             PARTITION BY ('0x' || substr(h, 1, 8))::UBIGINT % {_SHARDS_N}
             ORDER BY h
           ) - 1 AS BIGINT) AS pos
    FROM k
    """,
)
def shuffle_shard_manifest(sf_dir: str, n_shards: int = _SHARDS_N):
    """Deterministic global-shuffle shard manifest — the WRITE-side step of
    training-data preparation: every document gets a shard (md5-bucketed)
    and a dense position within its shard in md5 order, i.e. a reproducible
    pseudo-random global permutation with NO RNG state (retry-safe, same
    keying idiom as the Bernoulli/stratified samplers; replaces the
    np.random permutation + np.array_split of preprocess-300hz.py:315-341).

    A per-shard dense rank is a global sort in disguise, so it runs as a
    DISTRIBUTED PREFIX SCAN (the ``pack_sequences`` pattern) instead of a
    driver-side sort: the md5 key's top byte is an order-preserving range
    (256 ranges); per-(range, shard) counts are one tiny aggregate
    (≤ 2048 rows ship), the driver exclusive-scans that bounded grid, and
    one bucket-spine pass rebases block-local ranks by the broadcast
    offsets.  No stage ever materializes the manifest on the driver."""
    import hashlib

    ds = read_table(sf_dir, "documents", columns=["doc_id"])

    def keyed(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        hs = [hashlib.md5(str(i).encode()).hexdigest() for i in ids]
        hi = np.array([int(h[:16], 16) for h in hs], dtype=np.uint64)
        lo = np.array([int(h[16:], 16) for h in hs], dtype=np.uint64)
        shard = ((hi >> np.uint64(32)) % np.uint64(n_shards)).astype(np.int64)
        rng = (hi >> np.uint64(56)).astype(np.int64)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "shard": pa.array(shard), "rng": pa.array(rng),
            "hi": pa.array(hi), "lo": pa.array(lo),
        })

    kds = ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)

    # tiny exchange: per-(range, shard) counts → driver exclusive scan over
    # the bounded 256×n_shards grid → broadcast offset matrix
    counts = np.zeros((_SHARD_RNG, n_shards), dtype=np.int64)
    for r in grouped_agg(kds, ["rng", "shard"], {"n": ("*", "count")}).take_all():
        counts[r["rng"], r["shard"]] = r["n"]
    offs = np.cumsum(counts, axis=0) - counts  # exclusive scan per shard
    oref = ray.put(offs)

    def per_bucket(tbl: pa.Table) -> pa.Table:
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "shard": pa.array([], pa.int64()),
                          "pos": pa.array([], pa.int64())})
        if tbl.num_rows == 0:
            return empty
        # sorted by (rng, shard, hi, lo); rng is the md5 top byte, so this
        # IS md5-lexicographic order within each (rng, shard) run
        rngv = np.asarray(tbl.column("rng").combine_chunks())
        shard = np.asarray(tbl.column("shard").combine_chunks())
        key2 = rngv * n_shards + shard
        new = np.r_[True, key2[1:] != key2[:-1]]
        runstart = np.flatnonzero(new)
        local = np.arange(tbl.num_rows) - runstart[np.cumsum(new) - 1]
        pos = local + ray.get(oref)[rngv, shard]
        return pa.table({
            "doc_id": tbl.column("doc_id"),
            "shard": pa.array(shard.astype(np.int64)),
            "pos": pa.array(pos.astype(np.int64)),
        })

    return grouped_sorted_apply(kds, "rng", ["shard", "hi", "lo"], per_bucket, NB)


_PQ_M = 4
_PQ_K = 16
_PQ_EXPECTED = "/tmp/efr_pq_expected.parquet"


def refresh_pq_expected(sf_dir: str, m: int = _PQ_M, k: int = _PQ_K,
                        iters: int = _KM_ITERS) -> str:
    """(Re)build the independent PQ oracle parquet — same config-hashed
    cache + atomic copy-to-static-path contract as
    :func:`refresh_kmeans_expected` (the registered SQL string is fixed at
    registration so it cannot embed sf_dir; bench refreshes this untimed)."""
    def compute():
        from tests.oracle import oracle_pq

        return oracle_pq(sf_dir, m=m, k=k, iters=iters, scale=_KM_SCALE)

    return _expected_from_oracle(_PQ_EXPECTED, compute,
                                 key=f"{os.path.abspath(sf_dir)}|{m}|{k}|{iters}|{_KM_SCALE}")


@register(
    "pq_codes",
    f"SELECT * FROM read_parquet('{_PQ_EXPECTED}')",
)
def pq_codes(sf_dir: str, m: int = _PQ_M, k: int = _PQ_K, iters: int = _KM_ITERS):
    """Product quantization of the embedding column — the vector-compression
    step of a 100-TB ANN index (Jégou et al., PQ: split each vector into
    ``m`` subspaces, k-means each subspace, store one byte-ish code per
    subspace; 64 float32 dims → 4 codes).  Each subspace codebook trains
    with the SHARED exact fixed-point Lloyd trainer (``_lloyd_centroids``,
    also the k-means/IVF core) over a pruned subvector projection, so the
    whole operator inherits the bounded-exchange scaling story: per pass,
    ≤ k×(d/m+1) sufficient-statistic rows per batch, one tiny grouped sum, and
    the m×k×(d/m) codebook broadcast back via ``ray.put``.  Assignment is
    one streaming pass; ties break toward the lower code (np.argmin).  At
    100 TB the trainer runs on a sample — here it sees every vector, which
    keeps the oracle twin (tests/oracle.oracle_pq) exact."""
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"]).materialize()
    # all m codebooks train together: one streaming pass per Lloyd
    # iteration for every subspace, m× fewer Ray rounds than training them
    # one after another
    cref = ray.put(_lloyd_centroids(ds, k, iters, m))

    def assign(batch: pa.Table) -> pa.Table:
        return _lloyd_assign(batch, ray.get(cref), [f"code_{mi}" for mi in range(m)], "recon_err")

    # refresh the independent-oracle parquet for THIS input (config-hashed
    # cache — repeat runs pay a file copy, not the oracle recompute)
    refresh_pq_expected(sf_dir, m=m, k=k, iters=iters)

    return ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)
