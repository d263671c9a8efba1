"""Corpus windowing pipeline — the reference's secondary flow, streaming.

The reference loads every record into driver RAM (~28 GB), slides fixed
windows with 50% overlap (zero-padded tail), duplicates the label per
window, oversamples per class and splits randomly — all in one process
(/root/reference/challenge2020/preprocess/preprocess-300hz.py:88-470).

Here the same semantics stream: per entity (one sorted-bucket pass) the
value series is windowed (``fixed_windows`` + ``zero_pad``), each window
becomes a row carrying (image_id, window_id, label, train/test split by
deterministic hash, spectrogram-summary features); class-weighted
oversampling is a seeded ``flat_map``.  Nothing materializes on the driver.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ray.data import Dataset

from ..functions.hashing import md5_keys
from ..functions.spectral import spectrogram_tiles
from ..functions.transforms import zero_pad
from ..sources.readers import read_events
from ..stages.decode import decode_stage
from ..stages.partition import entity_segments, grouped_sorted_apply
from ..stages.window import fixed_windows

WINDOW = 32           # rows per window  (≙ WINDOW_SIZE=18000 samples)
OVERLAP = 16          # 50% overlap      (≙ OVERLAP_RATIO=0.5)
TRAIN_FRACTION_BYTE = 204  # md5 first byte < 204/256 ≈ 80% train
SPEC_NPERSEG = 8      # spectrogram frame length (≙ nperseg=64 @300 Hz)
SPEC_NOVERLAP = 4     # frame overlap — shared by the tile call AND _tile_len


def corpus_windows(
    events_dir: str,
    num_buckets: int = 16,
    window: int = WINDOW,
    overlap: int = OVERLAP,
    oversample: dict[str, int] | None = None,
    seed: int = 5,
    emit_tiles: bool = True,
) -> Dataset:
    """One row per (entity × window × label[× oversample copy]).

    With ``emit_tiles`` the full log-power spectrogram tile rides along as a
    typed ``fixed_size_list<float64>`` column (row-major n_bins × n_frames
    flatten) — the reference persists the whole N×33×300 tensor
    (preprocess-300hz.py:254-269,405-470), not just its summary; the tile
    shape is constant because every window is zero-padded to ``window``
    first.  ``spec_checksum`` (6-dp tile sum) is the scalar oracle hook."""
    weights = oversample or {}
    decoded = decode_stage(read_events(events_dir), verify_roundtrip=False)
    decoded = decoded.select_columns(["image_id", "ts", "v", "caption"])

    def per_bucket(tbl: pa.Table) -> pa.Table:
        starts, ends = entity_segments(tbl, "image_id")
        ids = tbl.column("image_id")
        caps = tbl.column("caption")
        v = np.asarray(tbl.column("v").combine_chunks(), dtype=np.float64)
        out = {"image_id": [], "window_id": [], "label": [], "split": [],
               "n_rows": [], "v_mean": [], "spec_power": [], "spec_checksum": []}
        tiles: list[np.ndarray] = []
        train = md5_keys(ids.take(pa.array(starts, pa.int64())), "split|", 2) < TRAIN_FRACTION_BYTE
        for s, e, is_train in zip(starts, ends, train):
            eid = ids[s].as_py()
            labels = caps[s].as_py().split(",")
            split = "train" if is_train else "test"
            series = v[s:e]
            wins = list(fixed_windows(series.size, window, overlap, policy="zero"))
            # deterministic per-(entity, window, label) oversampling draws
            keys = [f"{eid}|{wid}|{lab}" for wid, _, _ in wins for lab in labels]
            fracs = (md5_keys(keys, f"{seed}|", 8) / 0xFFFFFFFF).reshape(len(wins), len(labels))
            for (wid, ws, we), win_fracs in zip(wins, fracs):
                w = zero_pad(series[ws:we], window)
                spec = spectrogram_tiles(w, nperseg=SPEC_NPERSEG, noverlap=SPEC_NOVERLAP)
                flat = np.ascontiguousarray(spec).reshape(-1)
                csum = float(np.round(flat.sum(), 6))
                for lab, frac in zip(labels, win_fracs):  # label duplicated per window (:367-403)
                    reps = weights.get(lab, 1)
                    n_copies = int(reps) + (1 if frac < reps - int(reps) else 0)
                    for _ in range(max(n_copies, 0)):
                        out["image_id"].append(eid)
                        out["window_id"].append(wid)
                        out["label"].append(lab)
                        out["split"].append(split)
                        out["n_rows"].append(we - ws)
                        out["v_mean"].append(float(w.mean()))
                        out["spec_power"].append(float(spec.mean()))
                        out["spec_checksum"].append(csum)
                        if emit_tiles:
                            tiles.append(flat)
        cols = {
            "image_id": pa.array(out["image_id"], pa.string()),
            "window_id": pa.array(out["window_id"], pa.int64()),
            "label": pa.array(out["label"], pa.string()),
            "split": pa.array(out["split"], pa.string()),
            "n_rows": pa.array(out["n_rows"], pa.int64()),
            "v_mean": pa.array(np.round(out["v_mean"], 6), pa.float64()),
            "spec_power": pa.array(np.round(out["spec_power"], 6), pa.float64()),
            "spec_checksum": pa.array(out["spec_checksum"], pa.float64()),
        }
        if emit_tiles:
            tile_len = _tile_len(window)
            assert not tiles or tiles[0].size == tile_len, \
                (tiles[0].size, tile_len)  # empty + populated buckets must agree
            flat_all = np.concatenate(tiles) if tiles else np.empty(0)
            cols["spec_tile"] = pa.FixedSizeListArray.from_arrays(
                pa.array(flat_all, pa.float64()), tile_len
            )
        return pa.table(cols)

    return grouped_sorted_apply(decoded, "image_id", ["ts"], per_bucket, num_buckets)


def _tile_len(window: int, nperseg: int = None, noverlap: int = None) -> int:
    """Constant flattened tile length for zero-padded windows.

    Shares SPEC_NPERSEG/SPEC_NOVERLAP with the spectrogram_tiles call so the
    empty-bucket schema can never diverge from populated buckets."""
    nperseg = SPEC_NPERSEG if nperseg is None else nperseg
    noverlap = SPEC_NOVERLAP if noverlap is None else noverlap
    if window < nperseg:
        raise ValueError(f"window {window} < nperseg {nperseg}")
    n_frames = 1 + (window - nperseg) // (nperseg - noverlap)
    return (nperseg // 2 + 1) * n_frames
