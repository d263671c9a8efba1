"""Per-layer figures for a traced run.

Every traced run reports every per-layer metric.  A layer the workload's own
iterations go through is measured there (spans, ``stage_times``, the
``instrument`` hook, per-query walls).  The rest come from probes after the
timed loop: over the workload's own image fixture when it has one, else over
a small one built from the same seed; the resume path always over that small
fixture; the queries over small relational tables built from the same seed.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .workloads import (PROBE, PROBE_TABLES, QUERY_MIX, Ctx, PitStream, QueryMix, Workload,
                        resume_cycle)

UNITS = {
    "host.calib_sampen_per_s": "1/s",
    "sources.read_s": "s", "sources.read_mb_per_s": "MB/s",
    "codec.decode_rows_per_s": "rows/s",
    "decode.stage_s": "s", "decode.rows_out": "count", "decode.pool_efficiency": "ratio",
    "partition.exchange_s": "s", "partition.bucket_rows_max_over_mean": "ratio",
    "partition.job_floor_s": "s",
    "flagship.plan_s": "s", "flagship.decode_s": "s", "flagship.consume_s": "s",
    "asof.merge_busy_s": "s", "asof.merge_span_s": "s", "asof.bucket_s_p50": "s",
    "asof.bucket_s_p95": "s", "asof.bucket_s_max": "s", "asof.pre_merge_s": "s",
    "asof.merge_share": "ratio",
    "features.point_fn_s": "s", "entropy.sampen_s": "s", "entropy.sampen_share": "ratio",
    "state.commit_s": "s", "state.resume_noop_s": "s", "state.backfill_s": "s",
    "state.commits": "count", "state.bytes_written": "bytes", "state.commit_s_p50": "s",
    "state.commit_s_max": "s", "state.invalidated_buckets": "count",
    "state.buckets_computed": "count",
    "queries.pass_s": "s", "queries.over_floor_s": "s",
    **{f"queries.{n}_s": "s" for n in QUERY_MIX},
    "trace.iter_s": "s", "trace.rows_per_s": "rows/s", "trace.unattributed_share": "ratio",
}
N_PREFIXES = 48
FLOOR_REPEATS = 5
SUM_TOLERANCE = 0.01  # self times of one iteration must sum to its wall within 1 %


def _median_dicts(recs: list[dict]) -> dict:
    keys = {k for r in recs for k in r}
    return {k: float(statistics.median([r[k] for r in recs if k in r])) for k in keys}


def _count_fn(tbl: pa.Table) -> pa.Table:
    return pa.table({"n": pa.array([tbl.num_rows], pa.int64())})


def probe_image_layers(ctx: Ctx, fx: dict, cap: int, buckets: int) -> dict:
    import ray  # noqa: PLC0415

    from ecg_feature_engineering_ray.functions.entropy import sampen_hrv  # noqa: PLC0415
    from ecg_feature_engineering_ray.pipelines.features import pit_feature_vector  # noqa: PLC0415
    from ecg_feature_engineering_ray.sources.readers import read_events  # noqa: PLC0415
    from ecg_feature_engineering_ray.stages.decode import DecodeValidate, decode_stage  # noqa: PLC0415
    from ecg_feature_engineering_ray.stages.partition import grouped_sorted_apply  # noqa: PLC0415

    tr, ev, out = ctx.tracer, fx["all_dir"], {}
    reads, size = [], 0
    for _ in range(3):
        t0 = time.time()
        with tr.span("sources.read_events", trace=-1):
            ds = read_events(ev).materialize()
        reads.append(time.time() - t0)
        size = ds.size_bytes()
        del ds
    out["sources.read_s"] = statistics.median(reads)
    out["sources.read_mb_per_s"] = size / 1e6 / out["sources.read_s"]

    raw = pq.read_table(ev)
    kernel = DecodeValidate(verify_roundtrip=False)
    t0 = time.time()
    with tr.span("codec.decode_validate", trace=-1):
        for i in range(0, raw.num_rows, 256):
            kernel(raw.slice(i, 256))
    kernel_s = time.time() - t0
    out["codec.decode_rows_per_s"] = raw.num_rows / kernel_s

    t0 = time.time()
    with tr.span("decode.stage", trace=-1):
        dec = decode_stage(read_events(ev), concurrency=ctx.actors, batch_size=256,
                           verify_roundtrip=False).select_columns(["image_id", "ts", "v"])
        dec = dec.materialize()
    out["decode.stage_s"] = time.time() - t0
    out["decode.rows_out"] = dec.count()
    out["decode.pool_efficiency"] = kernel_s / (out["decode.stage_s"] * ctx.actors)

    t0 = time.time()
    with tr.span("partition.exchange", trace=-1):
        counts = grouped_sorted_apply(dec, "image_id", ["ts"], _count_fn, buckets).take_all()
    out["partition.exchange_s"] = time.time() - t0
    n = np.array([r["n"] for r in counts], dtype=float)
    out["partition.bucket_rows_max_over_mean"] = float(n.max() / n.mean())

    # the feature kernel vs its SampEn part, over a seeded sample of prefixes
    rows = dec.to_arrow_refs()
    tbl = pa.concat_tables(ray.get(rows)).sort_by([("image_id", "ascending"), ("ts", "ascending")])
    ids = np.asarray(tbl.column("image_id").combine_chunks().dictionary_encode().indices)
    ts = np.asarray(tbl.column("ts").cast(pa.int64()).combine_chunks())
    v = np.asarray(tbl.column("v").combine_chunks())
    rng = np.random.default_rng(ctx.seed)
    ends = rng.choice(np.arange(1, len(ts) + 1), N_PREFIXES, replace=False)
    prefixes = []
    for e in ends:
        s = int(np.searchsorted(ids, ids[e - 1], side="left"))
        prefixes.append({"ts": ts[s:e], "v": v[s:e]})
    t0 = time.time()
    with tr.span("features.pit_feature_vector", trace=-1):
        for p in prefixes:
            pit_feature_vector(p, sampen_max_n=cap)
    out["features.point_fn_s"] = time.time() - t0
    t0 = time.time()
    with tr.span("entropy.sampen_hrv", trace=-1):
        for p in prefixes:
            sampen_hrv(np.diff(p["ts"]).astype(np.float64) / 1000.0, max_n=cap)
    out["entropy.sampen_s"] = time.time() - t0
    out["entropy.sampen_share"] = out["entropy.sampen_s"] / out["features.point_fn_s"]
    return out


def probe_job_floor(ctx: Ctx, sf_dir: str) -> float:
    from ecg_feature_engineering_ray.sources.readers import read_table  # noqa: PLC0415
    from ecg_feature_engineering_ray.stages.partition import grouped_sorted_apply  # noqa: PLC0415

    walls = []
    for _ in range(FLOOR_REPEATS):
        t0 = time.time()
        with ctx.tracer.span("partition.job_floor", trace=-1):
            ds = read_table(sf_dir, "events", columns=["user_id", "ts"])
            grouped_sorted_apply(ds, "user_id", ["ts"], _count_fn, 8).take_all()
        walls.append(time.time() - t0)
    return statistics.median(walls)


def iteration_self_times(ctx: Ctx) -> float:
    """Print each traced iteration's self time per span and check that they sum
    to the iteration wall; returns the median unattributed share."""
    tr, shares = ctx.tracer, []
    for trace in sorted({s["trace"] for s in tr.spans if s["trace"] > 0}):
        st = tr.self_times(trace)
        wall = tr.root_wall(trace)
        total = sum(st.values())
        if abs(total - wall) > SUM_TOLERANCE * wall:
            raise AssertionError(f"iteration {trace}: self times sum to {total:.4f} s "
                                 f"but the iteration took {wall:.4f} s")
        shares.append(st.get("iteration", 0.0) / wall)
        parts = " ".join(f"{k}={v:.3f}" for k, v in sorted(st.items(), key=lambda kv: -kv[1]))
        print(f"iteration {trace} wall {wall:.3f} s self: {parts}", file=sys.stderr)
    return statistics.median(shares)


def layer_metrics(ctx: Ctx, wl: Workload, walls: list[float], rps: list[float],
                  calib: float) -> dict:
    vals = {"host.calib_sampen_per_s": calib}
    vals["trace.iter_s"] = statistics.median(walls)
    vals["trace.rows_per_s"] = statistics.median(rps)
    vals["trace.unattributed_share"] = iteration_self_times(ctx)
    vals.update(_median_dicts(wl.traced))

    # the small image fixture from the same seed: the resume path, and every
    # image layer of a workload without images of its own
    probe = PitStream()
    probe.profile = PROBE
    probe.inputs = probe.build(ctx, os.path.join(ctx.work, "probe-images"))
    img = wl if isinstance(wl, PitStream) else probe
    vals["flagship.plan_s"] = img.inputs["plan_s"]
    vals.update(probe_image_layers(ctx, img.inputs, img.profile.sampen_cap, img.profile.buckets))
    if img is probe:
        probe.prepare(ctx, probe.inputs)
        probe.iteration(ctx)
        probe.check(ctx)
        vals.update(probe.traced[-1])
    vals.update(resume_cycle(ctx, probe.inputs, PROBE))

    if isinstance(wl, QueryMix):
        sf_dir = wl.inputs["sf_dir"]
    else:
        qm = QueryMix()
        qm.tables = PROBE_TABLES
        qm.inputs = qm.build(ctx, os.path.join(ctx.work, "probe-tables"))
        qm.prepare(ctx, qm.inputs)  # a cold pass, checked against DuckDB
        qm.iteration(ctx)
        qm.check(ctx)
        vals.update(qm.traced[-1])
        sf_dir = qm.inputs["sf_dir"]
    floor = probe_job_floor(ctx, sf_dir)
    vals["partition.job_floor_s"] = floor
    q = [vals[f"queries.{n}_s"] for n in QUERY_MIX]
    vals["queries.pass_s"] = float(sum(q))
    vals["queries.over_floor_s"] = float(sum(w - floor for w in q))
    return {k: {"value": float(vals[k]), "unit": u} for k, u in UNITS.items()}
