"""FeatureSpec registry — the user-extension surface (SURVEY.md §2.10).

The reference grows by hand-written ``X_features.py`` modules plus a driver
loop (/root/reference/LONG_features.py:265-282 pattern).  Here a feature is a
declarative spec:

    FeatureSpec(name, fn, inputs=("v",), scope="entity")

``fn`` is a plain numpy UDF — the same shape as the reference's
``series → float(s)`` functions — receiving {input_name → ordered ndarray}
for one entity (or one session when ``scope="session"``; session vectors are
rolled up to the entity with mean/max/min/std).  ``compile_specs`` fuses any
number of specs into ONE per-bucket pass on the shared shuffle spine, so
adding features never adds shuffles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import pyarrow as pa

from ray.data import Dataset

from .sources.readers import read_events
from .stages.decode import decode_stage
from .stages.partition import entity_segments, grouped_sorted_apply

SESSION_GAP_US = 30_000_000
_ROLLUPS = ("mean", "max", "min", "std")


@dataclass(frozen=True)
class FeatureSpec:
    """One named feature: a numpy UDF over an entity's (or session's) series.

    ``fn(series: dict[str, np.ndarray]) -> float | np.ndarray`` — scalar or a
    fixed-length vector (vector outputs get ``name_0 .. name_{k-1}``).
    ``inputs`` name the series handed to fn: any of "ts" (int64 µs), "v"
    (decoded value), "u" (Δts ms), plus any extra numeric column.
    """

    name: str
    fn: Callable[[dict[str, np.ndarray]], "float | np.ndarray"]
    inputs: tuple[str, ...] = ("v",)
    scope: str = "entity"  # "entity" | "session"
    width: int = 1

    def out_names(self) -> list[str]:
        if self.scope == "session":
            base = [self.name] if self.width == 1 else [f"{self.name}_{i}" for i in range(self.width)]
            return [f"{b}_{r}" for b in base for r in _ROLLUPS]
        return [self.name] if self.width == 1 else [f"{self.name}_{i}" for i in range(self.width)]


def _series_for(inputs, ts: np.ndarray, cols: dict[str, np.ndarray], lo: int, hi: int) -> dict:
    out = {}
    for name in inputs:
        if name == "ts":
            out["ts"] = ts[lo:hi]
        elif name == "u":
            out["u"] = np.diff(ts[lo:hi]).astype(np.float64) / 1000.0
        else:
            out[name] = cols[name][lo:hi]
    return out


def compile_specs(specs: list[FeatureSpec], extra_cols: tuple[str, ...] = ()):
    """Fuse specs into one per-bucket function (one row per entity)."""
    all_names: list[str] = []
    for sp in specs:
        all_names += sp.out_names()

    def per_bucket(tbl: pa.Table) -> pa.Table:
        starts, ends = entity_segments(tbl, "image_id")
        ids = tbl.column("image_id")
        ts = np.asarray(tbl.column("ts").cast(pa.int64()).combine_chunks())
        cols = {"v": np.asarray(tbl.column("v").combine_chunks(), dtype=np.float64)}
        for c in extra_cols:
            cols[c] = np.asarray(tbl.column(c).combine_chunks(), dtype=np.float64)
        out_ids, rows = [], []
        for s, e in zip(starts, ends):
            vals: list[float] = []
            # session boundaries once per entity (shared by session-scoped specs)
            brk = np.flatnonzero(np.diff(ts[s:e]) > SESSION_GAP_US) + 1 + s
            sess = list(zip(np.concatenate(([s], brk)), np.concatenate((brk, [e]))))
            for sp in specs:
                if sp.scope == "entity":
                    r = np.atleast_1d(np.asarray(sp.fn(_series_for(sp.inputs, ts, cols, s, e)), dtype=np.float64))
                    vals += list(r)
                else:
                    per_sess = np.vstack([
                        np.atleast_1d(np.asarray(sp.fn(_series_for(sp.inputs, ts, cols, a, b)), dtype=np.float64))
                        for a, b in sess
                    ])
                    for j in range(per_sess.shape[1]):
                        c = per_sess[:, j]
                        vals += [c.mean(), c.max(), c.min(), c.std()]
            out_ids.append(ids[s].as_py())
            rows.append(vals)
        mat = np.array(rows, dtype=np.float64) if rows else np.empty((0, len(all_names)))
        out = {"image_id": pa.array(out_ids, pa.string())}
        for j, nm in enumerate(all_names):
            out[nm] = pa.array(mat[:, j], pa.float64())
        return pa.table(out)

    return per_bucket, all_names


def extract_features(
    events_dir: str,
    specs: list[FeatureSpec],
    num_buckets: int = 16,
) -> Dataset:
    """Run a spec list over the image event table → one row per entity."""
    decoded = decode_stage(read_events(events_dir), verify_roundtrip=False)
    decoded = decoded.select_columns(["image_id", "ts", "v"])
    per_bucket, _ = compile_specs(specs)
    return grouped_sorted_apply(decoded, "image_id", ["ts"], per_bucket, num_buckets)
