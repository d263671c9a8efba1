"""Benchmark entrypoint: one JSON line per run.

  python bench.py                  # per-query suite over $GRAFT_SF_DIR (default
                                   #   sf0.1), the flagship, then the scaling
                                   #   pair (GRAFT_BENCH_SCALING=0 skips it)
  python bench.py --scaling        # the scaling pair alone
  python bench.py --arm CPUS DIR   # one arm of the pair (the pair starts it)

Ray is sized to the CPU affinity.  The last stdout line is a compact JSON
headline; the full result goes to ``bench_detail.json`` beside this file.

- Flagship: perfbench's ``pit_stream`` workload.  Its set-up builds the
  inputs, warms up and checks the output against ``tests/oracle.py``; one
  traced iteration then gives ``flagship_rows``, the wall time and the
  per-stage figures.
- Scaling pair (the north rule: efficiency ≥ 0.8 from N to 4N): max(1, n // 4)
  → n CPUs, n the CPU affinity.  The parent builds ``SCALING``'s input and
  bucket plan once; each arm is a fresh process that runs ``pit_features``
  over it with that plan.  ``ROUNDS`` rounds with alternating arm order;
  a round's efficiency is hi / (lo · k), k = hi/lo CPUs, and the headline is
  the median over every round: none is gated, dropped, replaced or rescaled.
  The arms must produce the same feature digest.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import pyarrow as pa

from perfbench import host
from perfbench.fixtures import ImageProfile
from perfbench.trace import Tracer
from perfbench.workloads import Ctx, PitStream, feature_digest

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
ROOT = os.path.dirname(os.path.abspath(__file__))
NUM_CPUS = host.host_cpus()
LO_CPUS, HI_CPUS = max(1, NUM_CPUS // 4), NUM_CPUS
ROUNDS = 3
SEED = 42
MAX_LINE = 1900  # the compact line must fit the tail that records a run

# Reference-length series (about 2,400 events per entity, SampEn cap 4,000),
# so the merge's compute, not fixed start-up, dominates both arms.  One bucket
# count for both arms, so they run the same per-bucket work; 5,000 queries
# per wide-arm CPU; at least one fragment (one read→decode task) per wide-arm
# CPU.
SCALING = ImageProfile(n_entities=400, total_rows=960_000, sigma=0.3, dims=(32,),
                       hot_frac=0.0, hot_dim=32, n_queries=5000 * HI_CPUS, sampen_cap=4000,
                       buckets=128, n_fragments=max(16, HI_CPUS))

# block → its queries.  "base" is the headline suite summed into ``value``;
# every other block reports its own "<block>_suite_s" and stays out of it, so
# the headline stays comparable with earlier BENCH artifacts.
SUITES = {
    "base": [
        "asof_error_features", "user_value_stats", "rr_interval_stats",
        "session_table", "lag_lead_row", "rolling_mean3", "pricing_summary",
        "revenue_by_segment", "orders_by_nation", "exact_dedup_docs",
        "minhash_signatures", "knn_neighbor_counts", "doc_token_stats",
    ],
    "neardup": [
        "near_dup_pairs", "ngram_jaccard_pairs", "simhash_near_dups",
        "embedding_near_dups", "phash_near_dups",
    ],
    "sketch": [
        "hopping_window_counts", "approx_distinct_kmv", "value_histogram",
        "stratified_sample_docs", "capped_docs_per_source", "top_docs_per_lang",
        "value_quantiles_by_type",
    ],
    "corpus": ["tfidf_top_terms", "dup_clusters"],
    "join": ["join_late_shipments", "join_priority_revenue", "price_band_revenue"],
    "relml": [
        "rank_events_per_user", "revenue_rollup", "event_type_pivot",
        "asof_next_event", "top_event_type_per_user", "funnel_signup_purchase",
        "kmeans_embeddings", "value_decile_assign", "rolling_active_users",
        "cohort_retention", "events_since_purchase", "asof_nearest_event",
    ],
    "r5": [
        "zscore_by_type", "rolling_median7_per_user", "weighted_sample_docs",
        "decontaminate_docs", "doc_repetition_filter", "pack_sequences",
        "unigram_logprob_docs", "shuffle_shard_manifest", "pq_codes",
    ],
}


class ScalingPit(PitStream):
    profile = SCALING


def start_ray(cpus: int) -> None:
    import ray  # noqa: PLC0415

    ray.init(address="local", num_cpus=cpus, include_dashboard=False)


def flagship() -> dict:
    """Set-up (build, warm-up, oracle check) and one traced iteration of
    perfbench's ``pit_stream``, on the running Ray session."""
    with tempfile.TemporaryDirectory(prefix="bench_flagship_") as work:
        ctx = Ctx(work=work, seed=SEED, cpus=NUM_CPUS, tracer=Tracer(True))
        wl = PitStream()
        wl.setup(ctx)
        t0 = time.time()
        rows = wl.iteration(ctx)
        wall = time.time() - t0
        wl.check(ctx)
    return {"rows": rows, "wall_s": wall,
            "stages": {k: round(v, 4) for k, v in wl.traced[-1].items()}}


def run_suite() -> dict:
    from ecg_feature_engineering_ray.pipelines.queries import (  # noqa: PLC0415
        QUERIES,
        refresh_kmeans_expected,
        refresh_pq_expected,
    )

    start_ray(NUM_CPUS)
    try:
        fl = flagship()
        # the k-means and PQ oracles are cached per sf_dir outside the timed
        # walls, so the suite times the engine, not the oracle
        refresh_kmeans_expected(SF_DIR)
        refresh_pq_expected(SF_DIR)
        times: dict[str, dict[str, float]] = {block: {} for block in SUITES}
        for block, names in SUITES.items():
            for name in names:
                t0 = time.time()
                res = QUERIES[name](SF_DIR)
                if hasattr(res, "count"):  # consume the stream on the workers
                    res.count()
                times[block][name] = round(time.time() - t0, 3)
    finally:
        host.stop_ray()
    return {
        "metric": "as-of join + window-feature rows/sec (flagship PIT pipeline) + operator suite wall time",
        "value": round(sum(times["base"].values()) + fl["wall_s"], 3),
        "unit": "sec",
        "queries": {**{n: t for block in times.values() for n, t in block.items()},
                    "flagship_pit": round(fl["wall_s"], 3)},
        **{f"{block}_suite_s": round(sum(t.values()), 3)
           for block, t in times.items() if block != "base"},
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "profile": PitStream.name,
        "flagship_rows": fl["rows"],
        "flagship_rows_per_s": round(fl["rows"] / fl["wall_s"], 1),
        "stages": fl["stages"],
    }


# --------------------------------------------------------------------------
# scaling pair


def arm(cpus: int, work: str) -> dict:
    """One arm, in its own process: ``pit_features`` over the parent's input
    with the parent's plan on ``cpus`` CPUs, consumed."""
    from ecg_feature_engineering_ray.pipelines.flagship import pit_features  # noqa: PLC0415

    with open(os.path.join(work, "inputs.json")) as f:
        fx = json.load(f)
    calib = host.calib_sampen_per_s()  # before Ray starts
    ticks = host.cpu_ticks()
    start_ray(cpus)
    try:
        t0 = time.time()
        ds = pit_features(fx["all_dir"], fx["queries"], num_buckets=SCALING.buckets,
                          sampen_max_n=SCALING.sampen_cap, bucket_plan=fx["plan"])
        tbl = pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow", batch_size=None)),
                               promote_options="default")
        wall = time.time() - t0
    finally:
        host.stop_ray()
    return {"cpus": cpus, "rows": tbl.num_rows, "wall_s": round(wall, 2),
            "rows_per_s": round(tbl.num_rows / wall, 2), "digest": feature_digest(tbl),
            "calib_sampen_per_s": round(calib, 1),
            "steal": round(host.steal_share(ticks, host.cpu_ticks()), 4)}


def run_arm(cpus: int, work: str) -> dict:
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--arm", str(cpus), work],
                          capture_output=True, text=True, timeout=3600, cwd=ROOT)
    if proc.returncode:
        raise RuntimeError(f"{cpus}-CPU arm exited {proc.returncode}: {proc.stderr[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def arm_order(i: int, lo: int, hi: int) -> tuple[int, int]:
    """Round ``i``'s arm order: the wide arm first in even rounds."""
    return (hi, lo) if i % 2 == 0 else (lo, hi)


def score_round(arms: dict[int, dict], lo: int, hi: int) -> dict:
    """A round's efficiency, hi-arm rows/s / (lo-arm rows/s · hi/lo).  Raises
    when the arms' feature digests differ: then they did not do the same work."""
    a, b = arms[lo], arms[hi]
    if a["digest"] != b["digest"]:
        raise RuntimeError(f"feature digests differ: {lo} CPUs {a['digest']}, "
                           f"{hi} CPUs {b['digest']}")
    return {"eff": round(b["rows_per_s"] / (a["rows_per_s"] * hi / lo), 3),
            "order": list(arms), "arms": {str(c): arms[c] for c in (lo, hi)}}


def summarize(rounds: list[dict], lo: int, hi: int) -> dict:
    """The headline: the median efficiency over every round."""
    return {
        "metric": (f"scaling efficiency (flagship PIT rows/s, {lo}→{hi} CPUs, fresh processes, "
                   f"same input and plan; median of {len(rounds)} rounds, arm order alternating)"),
        "value": round(statistics.median(r["eff"] for r in rounds), 3),
        "unit": "efficiency",
        "per_round_efficiency": [r["eff"] for r in rounds],
        "rows_per_s": {str(c): [r["arms"][str(c)]["rows_per_s"] for r in rounds]
                       for c in (lo, hi)},
        "rounds": rounds,
    }


def run_scaling() -> dict:
    lo, hi = LO_CPUS, HI_CPUS
    with tempfile.TemporaryDirectory(prefix="bench_scaling_") as work:
        start_ray(NUM_CPUS)
        try:
            ctx = Ctx(work=work, seed=SEED, cpus=NUM_CPUS, tracer=Tracer(False))
            fx = ScalingPit().build(ctx, work)
        finally:
            host.stop_ray()
        with open(os.path.join(work, "inputs.json"), "w") as f:
            json.dump(fx, f)
        rounds = []
        for i in range(ROUNDS):
            arms = {c: run_arm(c, work) for c in arm_order(i, lo, hi)}
            rounds.append(score_round(arms, lo, hi))
    return {**summarize(rounds, lo, hi), "plan_s": round(fx["plan_s"], 2)}


# --------------------------------------------------------------------------
# output


def compact_line(res: dict, detail: str | None) -> str:
    """The headline as one JSON line of at most ``MAX_LINE`` characters: the
    suite's keys, the scaling summary, and the path of the full result."""
    compact = {k: res[k] for k in (
        "metric", "value", "unit", "queries", "sf", "num_cpus", "profile",
        "flagship_rows", "flagship_rows_per_s", "calib_sampen_per_s",
    ) if k in res}
    sc = res if res.get("unit") == "efficiency" else res.get("scaling")
    if isinstance(sc, dict) and "value" in sc:
        compact["scaling_efficiency"] = sc["value"]
        compact["scaling_per_round"] = sc["per_round_efficiency"]
    elif isinstance(sc, dict) and "error" in sc:
        compact["scaling_error"] = sc["error"]
    if "queries" in compact:
        compact["queries"] = {k: round(v, 2) for k, v in compact["queries"].items()}
    compact["detail"] = detail
    line = json.dumps(compact, separators=(",", ":"))
    if len(line) > MAX_LINE:
        compact.pop("queries", None)
        compact["queries_in_detail"] = True
        line = json.dumps(compact, separators=(",", ":"))
    return line


def emit(res: dict) -> None:
    detail = os.path.join(ROOT, "bench_detail.json")
    try:
        with open(detail, "w") as f:
            json.dump(res, f, indent=1)
    except OSError:
        detail = None
    print(compact_line(res, detail))


def main(argv: list[str]) -> None:
    if argv[:1] == ["--arm"]:
        print(json.dumps(arm(int(argv[1]), argv[2])))
        return
    calib = round(host.calib_sampen_per_s(), 1)  # before Ray starts
    if "--scaling" in argv:
        res = run_scaling()
    else:
        res = run_suite()
        if os.environ.get("GRAFT_BENCH_SCALING", "1") != "0":
            try:
                res["scaling"] = run_scaling()
                res["scaling_efficiency"] = res["scaling"]["value"]
            except Exception as e:  # noqa: BLE001 — keep the suite's numbers
                traceback.print_exc()
                res["scaling"] = {"error": f"{type(e).__name__}: {e}"[:200]}
    res["calib_sampen_per_s"] = calib
    emit(res)


if __name__ == "__main__":
    main(sys.argv[1:])
