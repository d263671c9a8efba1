"""The workloads: inputs, one timed iteration, and its output checks.

Each workload is a closed loop with one client: the next iteration starts only
when the previous one has returned.  ``setup`` builds the inputs from the seed
and warms up with one full iteration, whose output is checked against an
independent oracle; every timed output must reproduce its digest.

- ``pit_stream``: ``pit_features`` (streaming sink) over a mixed-size image
  fixture — decode and the exchange do most of the work.
- ``pit_long``: the same call over long 32-px series with a high SampEn cap —
  the per-bucket merge (SampEn over nested prefixes) does most of the work.
- ``query_mix``: 15 registered queries over seeded relational tables (runnable,
  but not among the workloads BENCHMARK.json lists; see README.md).

``resume_cycle`` runs ``pit_features_checkpointed`` with a late fragment held
back (commit from empty, no-op resume, backfill) for the traced layer sweep.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from .fixtures import ImageProfile, TableProfile, make_image_fixture, make_tables
from .trace import Tracer

# Sizes are set by the time budget of a run: set-up included, each run has to
# end within about a minute on a 4-CPU host (see README.md).
PIT_STREAM = ImageProfile(n_entities=600, total_rows=12000, sigma=0.6, dims=(32, 64, 128),
                          hot_frac=0.2, hot_dim=64, n_queries=2400, sampen_cap=400, buckets=16)
PIT_LONG = ImageProfile(n_entities=8, total_rows=4800, sigma=0.3, dims=(32,), hot_frac=0.0,
                        hot_dim=32, n_queries=4800, sampen_cap=4000, buckets=8, n_late=1)
# image inputs for the layer sweep of a workload that has none of its own
PROBE = ImageProfile(n_entities=40, total_rows=800, sigma=0.6, dims=(32, 64, 128),
                     hot_frac=0.2, hot_dim=64, n_queries=400, sampen_cap=400, buckets=8, n_late=2)
# the row counts of the TPC-H-like sf0.1 data set
TABLES = TableProfile(customers=15000, orders=150000, lineitems=600000, events=100000,
                      users=1500, documents=5000, embeddings=2000)
# tables for the query layers' figures in a pit workload's traced run
PROBE_TABLES = TableProfile(customers=1500, orders=15000, lineitems=60000, events=10000,
                            users=150, documents=500, embeddings=500)
QUERY_MIX = [
    "user_value_stats", "pricing_summary", "revenue_rollup", "value_quantiles_by_type",
    "join_priority_revenue",
    "session_table", "asof_next_event", "rolling_median7_per_user",
    "stratified_sample_docs", "approx_distinct_kmv", "capped_docs_per_source",
    "shuffle_shard_manifest", "tfidf_top_terms",
    "kmeans_embeddings", "pq_codes",
]
ORACLE_SAMPLE = 12  # as-of queries checked against tests/oracle.py
KEY = ["image_id", "as_of_ts"]


class CheckFailed(Exception):
    """An output differs from what set-up verified."""


@dataclass
class Ctx:
    work: str  # run-scoped directory; removed when the run ends
    seed: int
    cpus: int
    tracer: Tracer
    leftovers: list = field(default_factory=list)  # files outside ``work`` to remove at exit

    @property
    def actors(self) -> int:
        return max(1, self.cpus // 2)  # reads always keep a CPU


def frame_digest(df: pd.DataFrame) -> str:
    import hashlib  # noqa: PLC0415

    return hashlib.md5(pd.util.hash_pandas_object(df, index=False).values.tobytes()).hexdigest()


def feature_digest(tbl: pa.Table) -> str:
    df = tbl.to_pandas().sort_values(KEY, kind="stable").reset_index(drop=True)
    return frame_digest(df[sorted(df.columns)])


# --------------------------------------------------------------------------
# per-bucket merge timings: written by Ray workers into the run directory


def timed_buckets(out_dir: str):
    """``instrument`` hook for ``pit_features``: one small JSON file per bucket."""

    def wrap(fn):
        def timed(tbl):
            t0 = time.time()
            res = fn(tbl)
            t1 = time.time()
            with open(os.path.join(out_dir, f"{uuid.uuid4().hex}.json"), "w") as fh:
                json.dump([t0, t1], fh)
            return res

        return timed

    return wrap


def read_bucket_times(out_dir: str) -> list[tuple[float, float]]:
    out = []
    for f in os.listdir(out_dir):
        with open(os.path.join(out_dir, f)) as fh:
            out.append(tuple(json.load(fh)))
    return out


def merge_figures(times: list[tuple[float, float]]) -> dict:
    d = np.array([t1 - t0 for t0, t1 in times]) if times else np.zeros(1)
    return {
        "merge_busy_s": float(d.sum()),
        "merge_span_s": max(t1 for _, t1 in times) - min(t0 for t0, _ in times) if times else 0.0,
        "bucket_s_p50": float(np.percentile(d, 50)),
        "bucket_s_p95": float(np.percentile(d, 95)),
        "bucket_s_max": float(d.max()),
    }


# --------------------------------------------------------------------------
# output checks against the single-threaded oracle (tests/oracle.py)


@contextmanager
def oracle_cap(cap: int):
    """Run ``tests/oracle.py`` with the workload's SampEn cap (its module
    default is the engine default, 400)."""
    from tests import oracle  # noqa: PLC0415

    saved = oracle.SAMPEN_MAX_N, oracle._sampen_pair.__defaults__
    oracle.SAMPEN_MAX_N, oracle._sampen_pair.__defaults__ = cap, (cap,)
    try:
        yield oracle
    finally:
        oracle.SAMPEN_MAX_N, oracle._sampen_pair.__defaults__ = saved


def event_times(events_dir: str) -> dict[str, np.ndarray]:
    t = pq.read_table(events_dir, columns=["image_id", "ts"]).to_pandas()
    t["ts"] = t["ts"].astype("datetime64[us]").astype("int64")
    return {k: np.sort(g.to_numpy()) for k, g in t.groupby("image_id")["ts"]}


def verify_features(tbl: pa.Table, events_dir: str, queries_path: str, cap: int,
                    work: str, seed: int) -> None:
    """Row count, zero leakage on every row, and oracle equality on a sample."""
    from ecg_feature_engineering_ray.pipelines.features import PIT_FEATURE_NAMES  # noqa: PLC0415

    q = pq.read_table(queries_path)
    if tbl.num_rows != q.num_rows:
        raise CheckFailed(f"{tbl.num_rows} feature rows for {q.num_rows} queries")
    df = tbl.to_pandas().sort_values(KEY, kind="stable").reset_index(drop=True)
    ts = event_times(events_dir)
    asof = df["as_of_ts"].astype("datetime64[us]").astype("int64").to_numpy()
    seen = np.array([np.searchsorted(ts.get(e, np.empty(0, np.int64)), a, side="right")
                     for e, a in zip(df["image_id"], asof)])
    if not np.array_equal(seen, df["n_events"].to_numpy()):
        bad = int(np.count_nonzero(seen != df["n_events"].to_numpy()))
        raise CheckFailed(f"{bad} rows count events other than those at or before as_of_ts")

    pick = np.sort(np.random.default_rng(seed).choice(len(df), min(ORACLE_SAMPLE, len(df)),
                                                      replace=False))
    sample = df.iloc[pick]
    sample_path = os.path.join(work, "oracle_sample.parquet")
    pq.write_table(pa.table({"image_id": pa.array(sample["image_id"].tolist(), pa.string()),
                             "as_of_ts": pa.array(sample["as_of_ts"].to_numpy(),
                                                  pa.timestamp("us"))}), sample_path)
    # a query's features depend only on its own entity's events, so the
    # oracle decodes just the sampled entities' rows
    sample_events = os.path.join(work, "oracle_events")
    shutil.rmtree(sample_events, ignore_errors=True)
    os.makedirs(sample_events)
    ids = sorted(set(sample["image_id"]))
    pq.write_table(pq.read_table(events_dir, filters=[("image_id", "in", ids)]),
                   os.path.join(sample_events, "part.parquet"))
    with oracle_cap(cap) as oracle:
        oracle.decode_events.cache_clear()  # keyed by path, and the path is reused
        exp = oracle.oracle_pit_features(sample_events, sample_path)
    got = sample.reset_index(drop=True)
    for name in PIT_FEATURE_NAMES:
        if not np.allclose(got[name].to_numpy(float), exp[name].to_numpy(float),
                           rtol=1e-9, atol=1e-12, equal_nan=True):
            raise CheckFailed(f"feature {name} differs from tests/oracle.py")


# --------------------------------------------------------------------------
# workloads


class Workload:
    name = ""

    def __init__(self):
        self.traced: list[dict] = []  # per-layer figures of traced iterations

    def build(self, ctx: Ctx, dest: str) -> dict:
        """Write this workload's inputs under ``dest``; returns their layout."""
        raise NotImplementedError

    def prepare(self, ctx: Ctx, inputs: dict) -> None:
        """Untimed warm-up over the built inputs."""
        raise NotImplementedError

    def iteration(self, ctx: Ctx) -> int:
        """One timed iteration; returns output rows."""
        raise NotImplementedError

    def check(self, ctx: Ctx) -> None:
        """Check the last iteration's outputs; raises CheckFailed."""
        raise NotImplementedError

    def setup(self, ctx: Ctx) -> None:
        """Build the inputs from the seed, then warm up."""
        t0 = time.time()
        with ctx.tracer.span("setup.build", trace=-1):
            self.inputs = self.build(ctx, os.path.join(ctx.work, "inputs"))
        self.build_s = time.time() - t0
        with ctx.tracer.span("setup.prepare", trace=-1):
            self.prepare(ctx, self.inputs)


class PitStream(Workload):
    name = "pit_stream"
    profile = PIT_STREAM

    def build(self, ctx, dest):
        from ecg_feature_engineering_ray.pipelines.flagship import compute_bucket_plan  # noqa: PLC0415

        fx = make_image_fixture(dest, ctx.seed, self.profile)
        all_dir = os.path.join(dest, "all")
        shutil.copytree(fx["events_dir"], all_dir)
        shutil.copy(fx["late_fragment"], all_dir)
        fx["all_dir"] = all_dir
        t0 = time.time()
        fx["plan"] = compute_bucket_plan(all_dir, fx["queries"], self.profile.buckets,
                                         self.profile.sampen_cap)
        fx["plan_s"] = time.time() - t0
        return fx

    def run_features(self, ctx: Ctx, traced: bool) -> pa.Table:
        """One ``pit_features`` call, consumed.  Traced: spans for the call, the
        decode stage inside it (``stage_times``), the consumption and the
        per-bucket merge (``instrument``); figures go to ``self.traced``."""
        from ecg_feature_engineering_ray.pipelines.flagship import pit_features  # noqa: PLC0415

        p, fx, tr = self.profile, self.inputs, ctx.tracer
        stage: dict = {}
        timer_dir = os.path.join(ctx.work, f"buckets-{uuid.uuid4().hex}")
        if traced:
            os.makedirs(timer_dir)
        t0 = time.time()
        with tr.span("flagship.pit_features"):
            ds = pit_features(fx["all_dir"], fx["queries"], num_buckets=p.buckets,
                              decode_concurrency=ctx.actors, sampen_max_n=p.sampen_cap,
                              bucket_plan=fx["plan"], stage_times=stage,
                              instrument=timed_buckets(timer_dir) if traced else None)
            tr.add("decode.stage", t0, t0 + stage["decode_wall_s"])
        t1 = time.time()
        with tr.span("flagship.consume"):
            tbl = pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow", batch_size=None)),
                                   promote_options="default")
            t2 = time.time()
            if traced:
                times = read_bucket_times(timer_dir)
                tr.add("asof.merge", min(a for a, _ in times), max(b for _, b in times))
        if traced:
            m = merge_figures(times)
            m["pre_merge_s"] = (t2 - t1) - m["merge_span_s"]
            m["merge_share"] = m["merge_span_s"] / (t2 - t0)
            self.traced.append({"flagship.decode_s": stage["decode_wall_s"],
                                "flagship.consume_s": t2 - t1,
                                **{f"asof.{k}": v for k, v in m.items()}})
            shutil.rmtree(timer_dir)
        return tbl

    def prepare(self, ctx, inputs):
        """Warm up with one full call, so every timed iteration follows another
        like it, and check its output against the oracle."""
        out = self.run_features(ctx, traced=False)
        verify_features(out, inputs["all_dir"], inputs["queries"], self.profile.sampen_cap,
                        ctx.work, ctx.seed)
        self.n_queries, self.ref = out.num_rows, feature_digest(out)

    def iteration(self, ctx):
        self.out = self.run_features(ctx, traced=ctx.tracer.enabled)
        return self.out.num_rows

    def check(self, ctx):
        """Each output must reproduce the row count and digest of the one
        checked against the oracle in set-up."""
        if self.out.num_rows != self.n_queries:
            raise CheckFailed(f"{self.out.num_rows} rows for {self.n_queries} queries")
        elif feature_digest(self.out) != self.ref:
            raise CheckFailed("feature table differs from the one checked against the oracle")


class PitLong(PitStream):
    name = "pit_long"
    profile = PIT_LONG


def resume_cycle(ctx: Ctx, fx: dict, p: ImageProfile) -> dict:
    """``pit_features_checkpointed`` with the late fragment held back: commit
    from empty, resume with nothing left to do, then land the late fragment,
    ``invalidate_for_fragments`` and re-run.  Checks every step's outputs and
    returns the ``state.*`` figures."""
    from ecg_feature_engineering_ray.pipelines.flagship import pit_features_checkpointed  # noqa: PLC0415
    from ecg_feature_engineering_ray.state.backfill import invalidate_for_fragments  # noqa: PLC0415
    from ecg_feature_engineering_ray.state.checkpoint import read_output  # noqa: PLC0415

    tr = ctx.tracer
    base = os.path.join(ctx.work, "resume")
    ev, out = os.path.join(base, "ev"), os.path.join(base, "out")
    shutil.copytree(fx["events_dir"], ev)

    def run():
        return pit_features_checkpointed(ev, fx["queries"], out, num_buckets=p.buckets,
                                         bucket_plan=fx["plan"], sampen_max_n=p.sampen_cap,
                                         decode_concurrency=ctx.actors)

    t0 = time.time()
    with tr.span("state.commit", trace=-1):
        commit = run()
    t1 = time.time()
    verify_features(read_output(out), ev, fx["queries"], p.sampen_cap, ctx.work, ctx.seed)
    t2 = time.time()
    with tr.span("state.resume_noop", trace=-1):
        noop = run()
    t3 = time.time()
    if noop:
        raise CheckFailed(f"resume over a committed directory recomputed {len(noop)} buckets")
    late = os.path.join(ev, os.path.basename(fx["late_fragment"]))
    shutil.copy(fx["late_fragment"], late)
    t4 = time.time()
    with tr.span("state.backfill", trace=-1):
        invalid = invalidate_for_fragments(out, [late])
        backfill = run()
    t5 = time.time()
    if {m["bucket"] for m in backfill} != set(invalid):
        raise CheckFailed("backfill recomputed other buckets than it invalidated")
    # the backfilled directory must hold what a run over all events computes
    verify_features(read_output(out), ev, fx["queries"], p.sampen_cap, ctx.work, ctx.seed + 1)
    walls = np.array([m["wall_s"] for m in commit])
    figures = {
        "state.commit_s": t1 - t0,
        "state.resume_noop_s": t3 - t2,
        "state.backfill_s": t5 - t4,
        "state.commits": len(commit) + len(backfill),
        "state.bytes_written": sum(os.path.getsize(os.path.join(out, f))
                                   for f in os.listdir(out)),
        "state.commit_s_p50": float(np.percentile(walls, 50)),
        "state.commit_s_max": float(walls.max()),
        "state.invalidated_buckets": len(invalid),
        "state.buckets_computed": len(backfill),
    }
    shutil.rmtree(base)
    return figures


# --------------------------------------------------------------------------
# query mix


def oracle_frames(sf_dir: str, names: list[str]) -> dict[str, pd.DataFrame]:
    import duckdb  # noqa: PLC0415

    from ecg_feature_engineering_ray.pipelines.queries import ORACLE  # noqa: PLC0415

    con = duckdb.connect()
    for f in sorted(os.listdir(sf_dir)):
        if f.endswith(".parquet"):
            con.sql(f"CREATE VIEW {f[:-8]} AS SELECT * FROM read_parquet('{sf_dir}/{f}')")
    out = {}
    for n in names:
        out[n] = con.sql(ORACLE[n]).df()
    con.close()
    return out


class QueryMix(Workload):
    name = "query_mix"
    tables = TABLES

    def build(self, ctx, dest):
        make_tables(dest, ctx.seed, self.tables)
        return {"sf_dir": dest}

    def run_pass(self, ctx: Ctx) -> dict[str, pd.DataFrame]:
        from ecg_feature_engineering_ray.pipelines.queries import QUERIES  # noqa: PLC0415
        from scripts.check_queries import to_pandas  # noqa: PLC0415

        sf, out, walls = self.inputs["sf_dir"], {}, {}
        for n in QUERY_MIX:
            t0 = time.time()
            with ctx.tracer.span(f"queries.{n}"):
                out[n] = to_pandas(QUERIES[n](sf))
            walls[n] = time.time() - t0
        self.walls = walls
        return out

    def prepare(self, ctx, inputs):
        """Compute the k-means and PQ oracles (the engine caches them per table
        directory, so no timed pass recomputes them), then run one pass and
        check every result against its DuckDB oracle."""
        from ecg_feature_engineering_ray.pipelines import queries as Q  # noqa: PLC0415
        from scripts.check_queries import compare, normalize  # noqa: PLC0415

        sf = inputs["sf_dir"]
        ctx.leftovers += [Q.refresh_kmeans_expected(sf), Q.refresh_pq_expected(sf)]
        got = self.run_pass(ctx)
        exp = oracle_frames(sf, QUERY_MIX)
        for n in QUERY_MIX:
            problems = compare(n, got[n], exp[n])
            if problems:
                raise CheckFailed(f"{n} differs from its DuckDB oracle: {'; '.join(problems)}")
        self.ref = {n: frame_digest(normalize(got[n])) for n in QUERY_MIX}

    def iteration(self, ctx):
        self.out = self.run_pass(ctx)
        if ctx.tracer.enabled:
            self.traced.append(
                {f"queries.{n}_s": w for n, w in self.walls.items()})
        return sum(len(df) for df in self.out.values())

    def check(self, ctx):
        from scripts.check_queries import normalize  # noqa: PLC0415

        for n in QUERY_MIX:
            if frame_digest(normalize(self.out[n])) != self.ref[n]:
                raise CheckFailed(f"{n} result differs from the one checked in set-up")


WORKLOADS = {w.name: w for w in (PitStream, PitLong, QueryMix)}
