"""Gap-based sessionization — vectorized over a sorted bucket.

A session breaks when the gap to the previous event of the same entity
exceeds ``gap_us``.  Reference analog: beat segmentation — each R-peak opens
a fiducial sub-window (/root/reference/extract_SHORT.py:56-95); here the
"beats" are event rows and the session is the contiguous burst between long
gaps (SURVEY.md §2.3 E6).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .partition import entity_segments

DEFAULT_GAP_US = 30_000_000  # 30 s


def session_segments(tbl: pa.Table, key: str, ts_col: str = "ts", gap_us: int = DEFAULT_GAP_US):
    """(starts, ends) row ranges of each (entity, session) run."""
    n = tbl.num_rows
    if n == 0:
        return np.array([], dtype=np.int64), np.array([], dtype=np.int64)
    ts = np.asarray(tbl.column(ts_col).cast(pa.int64()).combine_chunks())
    estarts, _ = entity_segments(tbl, key)
    brk = np.zeros(n, dtype=bool)
    brk[estarts] = True
    brk[1:] |= (ts[1:] - ts[:-1]) > gap_us
    starts = np.flatnonzero(brk)
    ends = np.concatenate((starts[1:], [n]))
    return starts, ends
