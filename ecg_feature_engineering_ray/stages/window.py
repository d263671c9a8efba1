"""Segment-aware window kernels: lag/lead, rolling aggregates, fixed windows.

These run INSIDE a bucket produced by ``partition.grouped_sorted_apply`` — the
input Arrow table is sorted by (entity, ts) and contains every row of each of
its entities.  All kernels are vectorized across the whole bucket (no Python
loop over rows); entity boundaries are handled by masking against segment
starts.

Reference analogs:
- lag-1 diff chain ``RR = diff(rpeaks)``, ``dRR = diff(RR)``
  (/root/reference/HRV_features.py:106-107) → :func:`lag_column` on ts.
- 3-point rolling median (/root/reference/QRS_features.py:20-27) and
  fixed/overlap segmentation ``SegSig_1d``
  (/root/reference/HRV_features.py:32-58) → :func:`rolling_mean`,
  :func:`fixed_windows`.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .partition import entity_segments


def _row_entity_start(tbl: pa.Table, key: str) -> np.ndarray:
    """Per-row index of the first row of its entity."""
    starts, ends = entity_segments(tbl, key)
    row_start = np.zeros(tbl.num_rows, dtype=np.int64)
    row_start[starts] = starts
    np.maximum.accumulate(row_start, out=row_start)
    return row_start


def lag_column(values: np.ndarray, row_start: np.ndarray, k: int = 1) -> np.ndarray:
    """value at row i-k if still the same entity, else NaN. (SQL LAG)"""
    n = values.size
    out = np.full(n, np.nan)
    idx = np.arange(n) - k
    ok = idx >= row_start
    out[ok] = values[idx[ok]]
    return out


def lead_column(values: np.ndarray, row_start: np.ndarray, ends_of_row: np.ndarray, k: int = 1) -> np.ndarray:
    """value at row i+k if still the same entity, else NaN. (SQL LEAD)"""
    n = values.size
    out = np.full(n, np.nan)
    idx = np.arange(n) + k
    ok = idx < ends_of_row
    out[ok] = values[idx[ok]]
    return out


def _row_entity_end(tbl: pa.Table, key: str) -> np.ndarray:
    starts, ends = entity_segments(tbl, key)
    row_end = np.zeros(tbl.num_rows, dtype=np.int64)
    row_end[starts] = ends
    np.maximum.accumulate(row_end, out=row_end)
    return row_end


def rolling_mean(values: np.ndarray, row_start: np.ndarray, k: int) -> np.ndarray:
    """Trailing k-row mean within entity; partial windows use available rows
    (SQL: AVG OVER (PARTITION BY e ORDER BY ts ROWS k-1 PRECEDING))."""
    n = values.size
    csum = np.concatenate(([0.0], np.cumsum(values)))
    lo = np.maximum(np.arange(n) - k + 1, row_start)
    return (csum[np.arange(n) + 1] - csum[lo]) / (np.arange(n) + 1 - lo)


def prefix_mean(values: np.ndarray, row_start: np.ndarray) -> np.ndarray:
    """Running mean from entity start through the current row (expanding window)."""
    n = values.size
    csum = np.concatenate(([0.0], np.cumsum(values)))
    cnt = np.arange(n) + 1 - row_start
    return (csum[np.arange(n) + 1] - csum[row_start]) / cnt


def fixed_windows(
    n: int, seg_length: int, overlap: int, policy: str = "wrap"
) -> list[tuple[int, int, int]]:
    """Window plan [(win_id, start, stop_pad)] over an n-row entity series.

    ``policy`` is the reference's partial-tail knob: 'wrap' = cyclic pad
    (/root/reference/HRV_features.py:51-56), 'zero' = zero-pad
    (/root/reference/challenge2020/preprocess/preprocess-300hz.py:346-350),
    'drop' = discard partial tail.
    """
    step = seg_length - overlap
    assert step > 0
    out: list[tuple[int, int, int]] = []
    wid = 0
    start = 0
    while start < n:
        if start + seg_length <= n:
            out.append((wid, start, start + seg_length))
        else:
            if policy != "drop":
                out.append((wid, start, n))  # partial tail; consumer pads per policy
            break
        wid += 1
        start += step
    return out


def indicator_grid(
    tbl: pa.Table,
    key: str,
    ts_col: str,
    type_col: str,
    cell_us: int,
    types: list[str],
) -> pa.Table:
    """Per entity, a uniform time grid from its first to last event with one
    0/1 indicator column per event type.

    E2 analog: the reference emits R/P/Q/T wave positions as 0/1 indicator
    time-grids aligned with the signal
    (/root/reference/challenge2020/preprocess/preprocess-300hz.py:190-253);
    here the grid cell is ``cell_us`` and each type column marks cells
    containing at least one event of that type.  Runs inside a sorted bucket
    (grouped_sorted_apply); output rows = Σ per-entity grid length.
    """
    starts, ends = entity_segments(tbl, key)
    ts = np.asarray(tbl.column(ts_col).cast(pa.int64()).combine_chunks())
    d = tbl.column(type_col).combine_chunks().dictionary_encode()
    dict_vals = d.dictionary.to_pylist()
    type_pos = {t: j for j, t in enumerate(types)}
    lut = np.array([type_pos.get(v, -1) for v in dict_vals], dtype=np.int64)
    tcode = lut[np.asarray(d.indices)]
    keys_out, cells_out = [], []
    ind_out = [[] for _ in types]
    key_col = tbl.column(key)
    for s, e in zip(starts, ends):
        t0 = ts[s]
        n_cells = int((ts[e - 1] - t0) // cell_us) + 1
        cell = (ts[s:e] - t0) // cell_us
        grid = np.zeros((n_cells, len(types)), dtype=np.int64)
        code = tcode[s:e]
        ok = code >= 0
        grid[cell[ok], code[ok]] = 1
        keys_out.append(np.repeat(s, n_cells))  # row index of entity head
        cells_out.append(np.arange(n_cells, dtype=np.int64))
        for j in range(len(types)):
            ind_out[j].append(grid[:, j])
    if not keys_out:
        cols = {key: pa.array([], key_col.type), "cell": pa.array([], pa.int64())}
        for t in types:
            cols[f"has_{t}"] = pa.array([], pa.int64())
        return pa.table(cols)
    head_idx = pa.array(np.concatenate(keys_out))
    cols = {
        key: key_col.take(head_idx),
        "cell": pa.array(np.concatenate(cells_out)),
    }
    for j, t in enumerate(types):
        cols[f"has_{t}"] = pa.array(np.concatenate(ind_out[j]))
    return pa.table(cols)
