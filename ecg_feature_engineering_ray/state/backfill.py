"""Late-data backfill: recompute exactly the partitions a late row touches.

The reference never faces late data (each ECG record arrives whole,
SURVEY.md §2.9); a streaming feature store must. Protocol:

1. The checkpointed run persists its partitioning config (``_run.json``:
   num_buckets, fragment list, LPT plan, salt map) so bucket assignment is
   stable across runs.
2. A new fragment arrives carrying rows with ``ts`` below a committed
   partition's watermark → those rows are LATE.
3. :func:`invalidate_for_fragments` reads ONLY the key column of the new
   fragments, maps each entity to its bucket under the saved config, and
   deletes the manifests of affected buckets (bounded work: only buckets
   whose entities got late rows).
4. Re-running the checkpointed pipeline recomputes exactly the invalidated
   partitions over the full fragment set — output equal to a from-scratch
   run (tested).
"""

from __future__ import annotations

import json
import os

import pyarrow.parquet as pq

from ..functions.hashing import md5_u64
from .checkpoint import MANIFEST_SUFFIX, completed_buckets, partition_paths

RUN_CONFIG = "_run.json"


def save_run_config(
    out_dir: str,
    num_buckets: int,
    fragments: list[str],
    plan: dict | None = None,
    salt: dict | None = None,
) -> None:
    """Persist everything bucket assignment depends on.

    ``plan`` ({salted key → bucket}, from LPT packing) and ``salt``
    ({image_id → k salt groups}) make the cost-model placement resume-
    invariant: a backfill run MUST reuse the committed plan even though the
    fragment set (and hence any recomputed plan) changed."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, RUN_CONFIG)
    with open(path + ".tmp", "w") as f:
        json.dump(
            {
                "num_buckets": num_buckets,
                "fragments": fragments,
                "plan": plan or {},
                "salt": {k: int(v) for k, v in (salt or {}).items()},
            },
            f,
        )
    os.replace(path + ".tmp", path)


def load_run_config(out_dir: str) -> dict | None:
    """The saved run config, or None before the first run.

    Configs written before the cost plan became the only skew mechanism may
    carry a non-empty ``hot_keys`` list (dedicated buckets past
    ``num_buckets``); their partitions cannot be matched to today's bucket
    assignment, so they are refused rather than silently re-routed."""
    path = os.path.join(out_dir, RUN_CONFIG)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        cfg = json.load(f)
    if cfg.get("hot_keys"):
        raise ValueError(
            f"{path} routes hot keys to dedicated buckets, which this engine no "
            "longer supports — re-run into a fresh out_dir"
        )
    return cfg


def buckets_of(image_id: str, cfg: dict) -> set[int]:
    """All buckets that can hold ``image_id`` rows under a saved run config.

    A salted entity's events are replicated into every salt group
    ``image_id#0..k-1`` (pipelines/flagship._make_tag_fns), so a late event
    row touches EVERY one of those buckets; unsalted entities map to exactly
    one.  Mirrors with_bucket's precedence: explicit plan wins over the
    hash."""
    num_buckets = cfg["num_buckets"]
    plan = cfg.get("plan") or {}
    k = int((cfg.get("salt") or {}).get(image_id, 1))
    skeys = [f"{image_id}#{j}" for j in range(k)] if k > 1 else [image_id]
    return {
        int(plan[s]) if s in plan else md5_u64(s) % num_buckets
        for s in skeys
    }


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
        t = pq.read_table(frag, columns=["image_id"])
        for v in t.column("image_id").combine_chunks().unique().to_pylist():
            affected.update(buckets_of(v, cfg))
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
    import pyarrow as pa  # noqa: PLC0415

    cfg = load_run_config(out_dir)
    if cfg is None:
        return 0
    watermarks: dict[int, int] = {}
    for f in os.listdir(out_dir):
        if f.endswith(MANIFEST_SUFFIX):
            with open(os.path.join(out_dir, f)) as fh:
                m = json.load(fh)
            if m.get("watermark_us") is not None:
                watermarks[m["bucket"]] = m["watermark_us"]
    n_late = 0
    for frag in new_fragments:
        t = pq.read_table(frag, columns=["image_id", "ts"])
        ids = t.column("image_id").to_pylist()
        ts = t.column("ts").cast(pa.int64()).to_pylist()
        for i, v in zip(ts, ids):
            if any(
                b in watermarks and i < watermarks[b] for b in buckets_of(v, cfg)
            ):
                n_late += 1
    return n_late
