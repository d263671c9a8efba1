"""Late-data backfill: recompute exactly the partitions a late row touches.

The reference never faces late data (each ECG record arrives whole,
SURVEY.md §2.9); a streaming feature store must. Protocol:

1. The checkpointed run persists its partitioning config (``_run.json``:
   num_buckets, fragment list, LPT plan) so bucket assignment is stable
   across runs.
2. A new fragment arrives carrying rows with ``ts`` below a committed
   partition's watermark → those rows are LATE.
3. :func:`invalidate_for_fragments` reads ONLY the key column of the new
   fragments, maps each entity to its one bucket under the saved config
   (:func:`~..stages.partition.bucket_ids`, the shuffle's own rule), and
   deletes the manifests of affected buckets (bounded work: only buckets
   whose entities got late rows).
4. Re-running the checkpointed pipeline recomputes exactly the invalidated
   partitions over the full fragment set — output equal to a from-scratch
   run (tested).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..stages.partition import bucket_ids
from .checkpoint import MANIFEST_SUFFIX, completed_buckets, partition_paths

RUN_CONFIG = "_run.json"


def save_run_config(
    out_dir: str,
    num_buckets: int,
    fragments: list[str],
    plan: dict | None = None,
) -> None:
    """Persist everything bucket assignment depends on.

    ``plan`` ({image_id → bucket}, from LPT packing) makes the cost-model
    placement resume-invariant: a backfill run MUST reuse the committed plan
    even though the fragment set (and hence any recomputed plan) changed."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, RUN_CONFIG)
    with open(path + ".tmp", "w") as f:
        json.dump(
            {
                "num_buckets": num_buckets,
                "fragments": fragments,
                "plan": plan or {},
            },
            f,
        )
    os.replace(path + ".tmp", path)


def load_run_config(out_dir: str) -> dict | None:
    """The saved run config, or None before the first run.

    Configs written before the cost plan became the only skew mechanism may
    carry a non-empty ``hot_keys`` list (dedicated buckets past
    ``num_buckets``) or a non-empty ``salt`` map (an entity's queries split
    over several buckets, its events copied into each); their partitions
    cannot be matched to today's one-bucket-per-entity assignment, so they
    are refused rather than silently re-routed.  An empty ``salt`` loads."""
    path = os.path.join(out_dir, RUN_CONFIG)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        cfg = json.load(f)
    if cfg.get("hot_keys") or cfg.get("salt"):
        raise ValueError(
            f"{path} routes hot keys to dedicated or salted buckets, which this "
            "engine no longer supports — re-run into a fresh out_dir"
        )
    return cfg


def invalidate_for_fragments(out_dir: str, new_fragments: list[str]) -> set[int]:
    """Drop the partitions whose entities appear in ``new_fragments``.

    Reads only the key column of the late fragments. Returns the invalidated
    bucket ids (these will be recomputed by the next checkpointed run).
    """
    cfg = load_run_config(out_dir)
    if cfg is None:
        raise FileNotFoundError(f"no {RUN_CONFIG} in {out_dir} — nothing to backfill against")
    affected: set[int] = set()
    for frag in new_fragments:
        ids = pq.read_table(frag, columns=["image_id"]).column("image_id").unique()
        affected.update(bucket_ids(ids, cfg["num_buckets"], cfg.get("plan")).tolist())
    done = completed_buckets(out_dir)
    invalidated = affected & done
    for b in invalidated:
        data, man = partition_paths(out_dir, b)
        for p in (data, man):
            if os.path.exists(p):
                os.remove(p)
    return invalidated


def late_rows_below_watermark(out_dir: str, new_fragments: list[str]) -> int:
    """Count rows in the new fragments whose ts is below their partition's
    committed watermark (diagnostic: how late was the data?)."""
    cfg = load_run_config(out_dir)
    if cfg is None:
        return 0
    # per-bucket committed watermark; a bucket with none never counts a row
    # as late
    committed = np.zeros(cfg["num_buckets"], dtype=bool)
    mark = np.zeros(cfg["num_buckets"], dtype=np.int64)
    for f in os.listdir(out_dir):
        if f.endswith(MANIFEST_SUFFIX):
            with open(os.path.join(out_dir, f)) as fh:
                m = json.load(fh)
            if m.get("watermark_us") is not None:
                committed[m["bucket"]], mark[m["bucket"]] = True, m["watermark_us"]
    n_late = 0
    for frag in new_fragments:
        t = pq.read_table(frag, columns=["image_id", "ts"])
        b = bucket_ids(t.column("image_id"), cfg["num_buckets"], cfg.get("plan"))
        ts = np.asarray(t.column("ts").cast(pa.int64()).combine_chunks())
        n_late += int(np.count_nonzero(committed[b] & (ts < mark[b])))
    return n_late
