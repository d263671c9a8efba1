"""CLI / ``ray job submit`` entrypoint for the flagship PIT pipeline.

    ray job submit -- python scripts/run_pipeline.py \
        --events <dir> --queries <parquet> --out <dir> [--buckets N] [--resume]

Runs the checkpointed point-in-time feature pipeline; prints a one-line JSON
summary (partitions committed, rows, rows/s, late-data stats).  Re-running
with ``--resume`` (or just re-running — resume is the default behavior of
the checkpointed sink) skips completed partitions.  ``--backfill FRAGMENT``
invalidates the partitions a late fragment touches before running.

This script OWNS its Ray session (library code never calls ray.init).
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--events", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--buckets", type=int, default=64)
    p.add_argument("--num-cpus", type=int, default=None)
    p.add_argument("--backfill", action="append", default=[],
                   help="late fragment path(s): invalidate touched partitions first")
    args = p.parse_args()

    import ray

    if not ray.is_initialized():
        kwargs = {"address": "local", "include_dashboard": False}
        if args.num_cpus:
            kwargs["num_cpus"] = args.num_cpus
        ray.init(**kwargs)

    sys.path.insert(0, ".")
    from ecg_feature_engineering_ray.pipelines.flagship import pit_features_checkpointed
    from ecg_feature_engineering_ray.state.backfill import (
        invalidate_for_fragments,
        late_rows_below_watermark,
    )
    from ecg_feature_engineering_ray.state.checkpoint import read_manifests

    summary: dict = {}
    if args.backfill:
        summary["late_rows"] = late_rows_below_watermark(args.out, args.backfill)
        summary["invalidated"] = sorted(invalidate_for_fragments(args.out, args.backfill))

    t0 = time.time()
    manifests = pit_features_checkpointed(args.events, args.queries, args.out,
                                          num_buckets=args.buckets)
    wall = time.time() - t0
    all_manifests = read_manifests(args.out)
    rows = sum(m["rows"] for m in all_manifests)
    summary.update(
        {
            "partitions_computed": len(manifests),
            "partitions_total": len(all_manifests),
            "rows_total": rows,
            "wall_s": round(wall, 2),
            "rows_per_s": round(sum(m["rows"] for m in manifests) / wall, 1) if wall > 0 else None,
            "out": args.out,
        }
    )
    print(json.dumps(summary))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
