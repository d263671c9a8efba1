"""Round-4 additions: window ranks / rollup / pivot / forward as-of / k-means.

The driver's DuckDB gate already hash-checks each of these on the provided
testdata; these tests cover what that data can't — planted VALUE TIES for the
rank functions (testdata values are continuous doubles, so dense/percent-rank
tie groups never occur there), brute-force semantics for the forward as-of,
and the fixed-point order-independence property that makes distributed
k-means hash-comparable to a single-threaded oracle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ecg_feature_engineering_ray.pipelines.queries import QUERIES, ORACLE


@pytest.fixture(scope="module")
def tied_events_dir(tmp_path_factory):
    """A tiny events table with many exact value ties and same-ts rows."""
    rng = np.random.default_rng(7)
    n = 600
    users = rng.integers(0, 12, n)
    ts = np.sort(rng.integers(0, 10**9, n))  # microseconds
    # values drawn from a SMALL integer grid → guaranteed tie groups
    values = rng.integers(0, 5, n).astype(np.float64) / 2.0
    types = rng.choice(["click", "error", "purchase", "signup", "view"], n)
    tbl = pa.table(
        {
            "event_id": pa.array(np.arange(n), pa.int64()),
            "ts": pa.array(ts, pa.timestamp("us")),
            "user_id": pa.array(users.astype(np.int64), pa.int64()),
            "event_type": pa.array(types, pa.string()),
            "value": pa.array(values, pa.float64()),
            "props": pa.array([""] * n, pa.string()),
        }
    )
    d = tmp_path_factory.mktemp("tied")
    pq.write_table(tbl, str(d / "events.parquet"))
    return str(d)


def _duck_oracle(name: str, sf_dir: str) -> pd.DataFrame:
    import duckdb

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{sf_dir}/events.parquet')"
    )
    return con.execute(ORACLE[name]).df()


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("float64")
    return df.sort_values(list(df.columns), na_position="last").reset_index(drop=True)


def test_rank_functions_with_planted_ties(tied_events_dir):
    got = _norm(QUERIES["rank_events_per_user"](tied_events_dir).to_pandas())
    exp = _norm(_duck_oracle("rank_events_per_user", tied_events_dir))
    pd.testing.assert_frame_equal(got, exp, check_dtype=False, atol=1e-9)


def test_asof_next_event_brute_force(tied_events_dir):
    got = QUERIES["asof_next_event"](tied_events_dir).to_pandas()
    raw = pq.read_table(f"{tied_events_dir}/events.parquet").to_pandas()
    raw = raw.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
    rows = []
    for _, g in raw.groupby("user_id"):
        g = g.reset_index(drop=True)
        for i, r in g.iterrows():
            if r.event_type != "error":
                continue
            nxt = g.iloc[i + 1 :]
            nxt = nxt[nxt.event_type == "purchase"]
            rows.append(
                {
                    "event_id": r.event_id,
                    "user_id": r.user_id,
                    "next_purchase_id": None if nxt.empty else int(nxt.iloc[0].event_id),
                    "gap_us": None
                    if nxt.empty
                    else int(
                        (nxt.iloc[0].ts - r.ts) // pd.Timedelta(microseconds=1)
                    ),
                }
            )
    exp = pd.DataFrame(rows)
    got = got.sort_values("event_id").reset_index(drop=True)
    exp = exp.sort_values("event_id").reset_index(drop=True)
    assert len(got) == len(exp)
    assert (got.event_id.values == exp.event_id.values).all()
    gn = got.next_purchase_id.astype("float64")
    en = exp.next_purchase_id.astype("float64")
    assert gn.isna().equals(en.isna())
    assert np.allclose(gn.fillna(-1), en.fillna(-1))
    assert np.allclose(
        got.gap_us.astype("float64").fillna(-1), exp.gap_us.astype("float64").fillna(-1)
    )


def test_rollup_levels_consistent(tied_events_dir):
    """ROLLUP invariant on real testdata: finest level sums to each coarser
    level exactly (counts are ints; revenue is exact cents both sides)."""
    out = QUERIES["revenue_rollup"]("/root/testdata/sf0.001").to_pandas()
    finest = out[out.segment.notna()]
    per_nation = out[out.nation.notna() & out.segment.isna()]
    total = out[out.nation.isna()]
    assert len(total) == 1
    assert finest.n_orders.sum() == total.n_orders.iloc[0]
    assert per_nation.n_orders.sum() == total.n_orders.iloc[0]
    got = finest.groupby("nation").n_orders.sum().sort_index()
    exp = per_nation.set_index("nation").n_orders.sort_index()
    assert (got.values == exp.values).all()
    # revenue: cents-exact, so level sums agree to < 1e-6 after rounding noise
    assert abs(finest.revenue.sum() - total.revenue.iloc[0]) < 1e-4


def test_pivot_counts_match_long_counts(tied_events_dir):
    out = QUERIES["event_type_pivot"](tied_events_dir).to_pandas()
    raw = pq.read_table(f"{tied_events_dir}/events.parquet").to_pandas()
    exp = raw.pivot_table(
        index="user_id", columns="event_type", values="event_id", aggfunc="count"
    ).fillna(0)
    for t in ["click", "error", "purchase", "signup", "view"]:
        got = out.set_index("user_id")[f"n_{t}"].sort_index()
        e = exp[t].sort_index() if t in exp else pd.Series(0, index=got.index)
        assert (got.values == e.values.astype(np.int64)).all()
    # value_<t> is NULL exactly when the count is 0
    for t in ["click", "error", "purchase", "signup", "view"]:
        z = out[out[f"n_{t}"] == 0]
        assert z[f"value_{t}"].isna().all()


def test_kmeans_fixed_point_update_is_order_independent():
    """The centroid-update arithmetic (Σ rint(x·2²⁰) int64 / (n·2²⁰)) gives
    bit-identical centroids for ANY partitioning of the rows — the property
    that lets the distributed engine hash-match a single-threaded oracle."""
    rng = np.random.default_rng(3)
    X = rng.standard_normal((1000, 16)).astype(np.float32).astype(np.float64)
    scale = 2.0**20
    Q = np.rint(X * scale).astype(np.int64)
    whole = Q.sum(axis=0) / (len(X) * scale)
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(len(X))
        parts = np.array_split(Q[perm], 7)
        s = np.zeros(16, dtype=np.int64)
        for p in parts:
            s += p.sum(axis=0)
        assert (s / (len(X) * scale) == whole).all()  # exact, not allclose


def test_lloyd_partials_empty_batch_and_split_invariance():
    """The Lloyd trainer's per-batch statistics (k-means: one codebook; PQ: m
    subspace codebooks) return the declared ``{key, s}`` int64 schema on a
    zero-row batch, and summing them per key gives the same totals for any
    split of the rows, empty slices included."""
    from ecg_feature_engineering_ray.pipelines.queries import _lloyd_partials

    rng = np.random.default_rng(5)
    X = rng.standard_normal((200, 16)).astype(np.float32)
    batch = pa.table({"vec_id": pa.array(np.arange(len(X)), pa.int64()),
                      "embedding": pa.array(list(X), pa.list_(pa.float32()))})
    schema = pa.schema([("key", pa.int64()), ("s", pa.int64())])

    def totals(tbl: pa.Table) -> dict:
        return dict(zip(tbl.column("key").to_pylist(), tbl.column("s").to_pylist()))

    for m in (1, 4):
        codebooks = rng.standard_normal((m, 6, 16 // m))
        empty = _lloyd_partials(batch.slice(0, 0), codebooks)
        assert empty.schema == schema and empty.num_rows == 0
        parts = pa.concat_tables([
            _lloyd_partials(batch.slice(a, b - a), codebooks)
            for a, b in ((0, 0), (0, 70), (70, 70), (70, 200))
        ])
        summed = parts.group_by("key").aggregate([("s", "sum")]).rename_columns(["key", "s"])
        assert totals(summed) == totals(_lloyd_partials(batch, codebooks))


def test_lloyd_assign_empty_batch_and_split_invariance():
    """The k-means and PQ assignment passes return their declared schema on
    a zero-row embedding batch, and assigning slices of a batch gives the
    rows of assigning it whole."""
    from ecg_feature_engineering_ray.pipelines.queries import _lloyd_assign

    rng = np.random.default_rng(7)
    X = rng.standard_normal((120, 16)).astype(np.float32)
    batch = pa.table({"vec_id": pa.array(np.arange(len(X)), pa.int64()),
                      "embedding": pa.array(list(X), pa.list_(pa.float32()))})
    for code_cols, err_col in ((["cluster"], "dist_sq"),
                               ([f"code_{mi}" for mi in range(4)], "recon_err")):
        codebooks = rng.standard_normal((len(code_cols), 5, 16 // len(code_cols)))
        schema = pa.schema([("vec_id", pa.int64())] + [(c, pa.int64()) for c in code_cols]
                           + [(err_col, pa.float64())])
        empty = _lloyd_assign(batch.slice(0, 0), codebooks, code_cols, err_col)
        assert empty.schema == schema and empty.num_rows == 0
        whole = _lloyd_assign(batch, codebooks, code_cols, err_col)
        assert whole.schema == schema
        parts = pa.concat_tables([
            _lloyd_assign(batch.slice(a, b - a), codebooks, code_cols, err_col)
            for a, b in ((0, 0), (0, 50), (50, 50), (50, 120))
        ])
        assert parts.equals(whole)


def test_kmeans_matches_independent_oracle():
    from tests.oracle import oracle_kmeans

    got = (
        QUERIES["kmeans_embeddings"]("/root/testdata/sf0.001")
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    exp = oracle_kmeans("/root/testdata/sf0.001").sort_values("vec_id").reset_index(drop=True)
    assert (got.cluster.values == exp.cluster.values).all()
    assert np.allclose(got.dist_sq.values, exp.dist_sq.values)
    assert got.cluster.nunique() > 1  # the clustering actually separated data


def test_mode_tie_breaks_to_smaller_value(tmp_path):
    """Planted exact count ties: mode must pick the lexicographically
    smaller event_type, not whichever block arrived first."""
    n_u = 6
    rows = []
    eid = 0
    for u in range(n_u):
        for t in ["view", "click"]:  # exactly 3 each → tie → 'click' wins
            for _ in range(3):
                rows.append((eid, u, t))
                eid += 1
    tbl = pa.table(
        {
            "event_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array(list(range(len(rows))), pa.timestamp("us")),
            "user_id": pa.array([r[1] for r in rows], pa.int64()),
            "event_type": pa.array([r[2] for r in rows], pa.string()),
            "value": pa.array([0.0] * len(rows), pa.float64()),
            "props": pa.array([""] * len(rows), pa.string()),
        }
    )
    pq.write_table(tbl, str(tmp_path / "events.parquet"))
    out = QUERIES["top_event_type_per_user"](str(tmp_path)).to_pandas()
    assert len(out) == n_u
    assert (out.mode_type == "click").all()
    assert (out.n == 3).all()


def test_funnel_brute_force(tied_events_dir):
    got = (
        QUERIES["funnel_signup_purchase"](tied_events_dir)
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    raw = pq.read_table(f"{tied_events_dir}/events.parquet").to_pandas()
    rows = []
    for u, g in raw.groupby("user_id"):
        s = g[g.event_type == "signup"]
        if s.empty:
            continue
        s_ts = s.ts.min()
        p = g[(g.event_type == "purchase") & (g.ts > s_ts)]
        rows.append(
            {
                "user_id": u,
                "signup_ts": s_ts,
                "conversion_ts": None if p.empty else p.ts.min(),
                "converted": int(not p.empty),
            }
        )
    exp = pd.DataFrame(rows).sort_values("user_id").reset_index(drop=True)
    assert len(got) == len(exp)
    assert (got.user_id.values == exp.user_id.values).all()
    assert (got.signup_ts.values == exp.signup_ts.values).all()
    assert (got.converted.values == exp.converted.values).all()
    m = got.converted == 1
    assert (
        got.loc[m, "conversion_ts"].values
        == exp.loc[exp.converted == 1, "conversion_ts"].values
    ).all()
    d = (got.loc[m, "conversion_ts"] - got.loc[m, "signup_ts"]) // pd.Timedelta(
        microseconds=1
    )
    assert (got.loc[m, "delay_us"].values == d.values).all()


def test_decile_assign_with_boundary_collisions(tied_events_dir):
    """The tied fixture's 5-point value grid puts MANY rows exactly on
    decile boundaries — the collision path the continuous testdata never
    hits.  Both sides must resolve them identically (bit-equal operands)."""
    got = (
        QUERIES["value_decile_assign"](tied_events_dir)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    exp = (
        _duck_oracle("value_decile_assign", tied_events_dir)
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    assert (got.decile.values == exp.decile.values.astype(np.int64)).all()
    assert got.decile.min() >= 1 and got.decile.max() <= 10


def test_decile_assign_balanced_on_continuous_data():
    got = QUERIES["value_decile_assign"]("/root/testdata/sf0.001").to_pandas()
    n = len(got)
    counts = got.decile.value_counts()
    # continuous doubles → each decile holds ~n/10 (all 5 types pooled)
    assert set(counts.index) == set(range(1, 11))
    assert counts.max() < 0.2 * n and counts.min() > 0.04 * n


@pytest.fixture(scope="module")
def multiday_events_dir(tmp_path_factory):
    """Events spread over ~60 days with sparse users → window gaps exist."""
    rng = np.random.default_rng(11)
    n = 800
    day_us = 86_400_000_000
    users = rng.integers(0, 25, n)
    ts = rng.integers(0, 60 * day_us, n)
    tbl = pa.table(
        {
            "event_id": pa.array(np.arange(n), pa.int64()),
            "ts": pa.array(np.sort(ts), pa.timestamp("us")),
            "user_id": pa.array(users.astype(np.int64), pa.int64()),
            "event_type": pa.array(["view"] * n, pa.string()),
            "value": pa.array(rng.standard_normal(n), pa.float64()),
            "props": pa.array([""] * n, pa.string()),
        }
    )
    d = tmp_path_factory.mktemp("multiday")
    pq.write_table(tbl, str(d / "events.parquet"))
    return str(d)


def test_rolling_active_users_brute_force(multiday_events_dir):
    day_us = 86_400_000_000
    got = (
        QUERIES["rolling_active_users"](multiday_events_dir)
        .to_pandas()
        .sort_values("day")
        .reset_index(drop=True)
    )
    raw = pq.read_table(f"{multiday_events_dir}/events.parquet").to_pandas()
    raw["day"] = raw.ts.astype("int64") // day_us
    du = raw[["user_id", "day"]].drop_duplicates()
    lo, hi = du.day.min(), du.day.max() + 7
    rows = []
    for d in range(lo, hi):
        users = du[(du.day >= d - 6) & (du.day <= d)].user_id.nunique()
        if users > 0:
            rows.append({"day": d, "active_users": users})
    exp = pd.DataFrame(rows)
    assert len(got) == len(exp)
    assert (got.day.values == exp.day.values).all()
    assert (got.active_users.values == exp.active_users.values).all()


def test_cohort_retention_brute_force(multiday_events_dir):
    week_us = 7 * 86_400_000_000
    got = (
        QUERIES["cohort_retention"](multiday_events_dir)
        .to_pandas()
        .sort_values(["cohort_week", "week_offset"])
        .reset_index(drop=True)
    )
    raw = pq.read_table(f"{multiday_events_dir}/events.parquet").to_pandas()
    raw["week"] = raw.ts.astype("int64") // week_us
    uw = raw[["user_id", "week"]].drop_duplicates()
    f = uw.groupby("user_id").week.min().rename("cohort_week")
    j = uw.join(f, on="user_id")
    j["week_offset"] = j.week - j.cohort_week
    exp = (
        j.groupby(["cohort_week", "week_offset"])
        .size()
        .rename("retained")
        .reset_index()
        .sort_values(["cohort_week", "week_offset"])
        .reset_index(drop=True)
    )
    assert len(got) == len(exp)
    assert (got.cohort_week.values == exp.cohort_week.values).all()
    assert (got.week_offset.values == exp.week_offset.values).all()
    assert (got.retained.values == exp.retained.values).all()
    # offset 0 of each cohort equals the cohort size (everyone active week 0)
    z = got[got.week_offset == 0].set_index("cohort_week").retained
    cs = f.value_counts().sort_index()
    assert (z.sort_index().values == cs.values).all()


def test_events_since_purchase_brute_force(tied_events_dir):
    got = (
        QUERIES["events_since_purchase"](tied_events_dir)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    raw = pq.read_table(f"{tied_events_dir}/events.parquet").to_pandas()
    raw = raw.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
    exp_rows = []
    for _, g in raw.groupby("user_id"):
        last_p = None
        for i, (_, r) in enumerate(g.iterrows()):
            if r.event_type == "purchase":
                last_p = i
            exp_rows.append((r.event_id, None if last_p is None else i - last_p))
    exp = pd.DataFrame(exp_rows, columns=["event_id", "since"]).sort_values(
        "event_id"
    ).reset_index(drop=True)
    g = got.since_purchase.astype("float64")
    e = exp.since.astype("float64")
    assert g.isna().equals(e.isna())
    assert np.allclose(g.fillna(-1), e.fillna(-1))


def test_asof_nearest_brute_force(tied_events_dir):
    got = (
        QUERIES["asof_nearest_event"](tied_events_dir)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    raw = pq.read_table(f"{tied_events_dir}/events.parquet").to_pandas()
    raw = raw.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
    rows = []
    for _, g in raw.groupby("user_id"):
        g = g.reset_index(drop=True)
        for i, r in g.iterrows():
            if r.event_type != "error":
                continue
            prev = g.iloc[:i]
            prev = prev[prev.event_type == "purchase"]
            nxt = g.iloc[i + 1 :]
            nxt = nxt[nxt.event_type == "purchase"]
            best = None
            if not prev.empty:
                p = prev.iloc[-1]
                best = (int((r.ts - p.ts) // pd.Timedelta(microseconds=1)), p.event_id)
            if not nxt.empty:
                q = nxt.iloc[0]
                gq = int((q.ts - r.ts) // pd.Timedelta(microseconds=1))
                if best is None or gq < best[0]:
                    best = (gq, q.event_id)
            rows.append((r.event_id, None if best is None else best[1],
                         None if best is None else best[0]))
    exp = pd.DataFrame(rows, columns=["event_id", "pid", "gap"]).sort_values(
        "event_id"
    ).reset_index(drop=True)
    gp = got.nearest_purchase_id.astype("float64")
    ep = exp.pid.astype("float64")
    assert gp.isna().equals(ep.isna())
    assert np.allclose(gp.fillna(-1), ep.fillna(-1))
    assert np.allclose(
        got.gap_us.astype("float64").fillna(-1), exp.gap.astype("float64").fillna(-1)
    )


def test_phash_popcount_and_banding_complete():
    """SWAR popcount is exact, and 4×16-bit banding is candidate-complete
    for Hamming ≤ 3 (pigeonhole): verified against brute force on random
    64-bit hashes with planted near pairs."""
    from ecg_feature_engineering_ray.functions.hashing import popcount64

    rng = np.random.default_rng(5)
    x = rng.integers(0, 2**63, 2000, dtype=np.int64).astype(np.uint64)
    exp = np.array([bin(int(v)).count("1") for v in x[:200]])
    assert (popcount64(x[:200]) == exp).all()

    base = rng.integers(0, 2**63, 40, dtype=np.int64).astype(np.uint64)
    flips = [np.uint64(0), np.uint64(1), np.uint64(1) << np.uint64(17) | np.uint64(1) << np.uint64(40)]
    hashes = np.array([b ^ f for b in base for f in flips], dtype=np.uint64)
    T = 2
    n = len(hashes)
    iu, ju = np.triu_indices(n, k=1)
    d = popcount64(hashes[iu] ^ hashes[ju])
    close = set(zip(iu[d <= T].tolist(), ju[d <= T].tolist()))
    # banded candidates: pairs sharing at least one 16-bit band
    cand = set()
    for b in range(4):
        bits = (hashes >> np.uint64(16 * b)) & np.uint64(0xFFFF)
        for v in np.unique(bits):
            members = np.flatnonzero(bits == v)
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    cand.add((int(members[i]), int(members[j])))
    assert close <= cand, "banding missed a within-threshold pair"
