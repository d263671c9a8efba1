"""Table readers — fragmented parquet (Lance when available), pruned at the read.

Reference analog: the reference's "source" is a directory of per-record
WFDB/.mat files globbed then loaded whole
(/root/reference/challenge2020/preprocess/preprocess-300hz.py:88-121).  Here a
table is a fragmented columnar dataset; *column pruning happens at the read*
(``columns=[...]``) so e.g. a shuffle over (image_id, ts, derived value)
never loads the image ``bytes`` column from storage.

The event table is read as ONE task per fragment that streams the fragment
in small record batches, or in one batch for a projection without the
binary image payload (:class:`FragmentStream`).  Ray's own parquet
reader splits a fragment's output into more blocks whenever there are fewer
fragments than its target parallelism, and a split read never fuses with
the map after it; one unsplit task per fragment does, so decode runs inside
the read task and the image payload never becomes an object-store block.
"""

from __future__ import annotations

import functools
import glob
import math
import os
from typing import Callable

import pyarrow as pa
import pyarrow.parquet as pq

import ray.data
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask

try:  # Lance is the nominal storage format at 10^12 scale; absent here.
    import lance  # type: ignore  # noqa: F401

    HAVE_LANCE = True
except ImportError:
    HAVE_LANCE = False

# rows per streamed batch: with KB-scale image payloads this keeps a read
# task's working set at a few MB whatever the fragment size
FRAGMENT_BATCH_ROWS = 256


def list_fragments(path: str) -> list[str]:
    """Ordered fragment files of a dataset directory (checkpoint lineage unit)."""
    if os.path.isfile(path):
        return [path]
    return sorted(glob.glob(os.path.join(path, "*.parquet")))


def _stream_fragment(path: str, columns: list[str] | None, batch_rows: int):
    # Arrow's jemalloc pool otherwise keeps each freed batch's pages for a
    # second, and a worker streaming MB-scale batches peaks ~90 MB higher
    # (decoding perfbench's 12,000-row pit_stream fixture on a 4-CPU host:
    # per-worker VmHWM 340-360 MB → 250-270 MB)
    try:
        pa.jemalloc_set_decay_ms(0)
    except NotImplementedError:  # an Arrow build without jemalloc
        pass
    # no pre-buffering: page-at-a-time reads, so a task never holds a whole
    # column chunk of image bytes
    f = pq.ParquetFile(path, pre_buffer=False, buffer_size=1 << 20)
    for b in f.iter_batches(batch_size=batch_rows, columns=columns):
        yield pa.Table.from_batches([b])


class FragmentStream(Datasource):
    """One read task per parquet fragment, yielding ``FRAGMENT_BATCH_ROWS``-row
    tables, or the whole fragment as one table when ``columns`` projects no
    binary payload column: a key-only read (a bucket plan's counts) is a few
    bytes per row, and a map fused after it then runs once per fragment, not
    once per 256 rows.  A read of every column keeps the small batches: the
    exchange after a whole-table read (the flagship's query side) makes one
    output partition per input block, so its block count sets the number of
    merge tasks.

    No in-memory size estimate is given, so Ray never splits a task's output
    and a map with ``batch_size=None`` after the read runs in the same task.
    """

    def __init__(self, paths: list[str], columns: list[str] | None = None):
        self._paths = paths
        self._columns = columns
        meta = [pq.read_metadata(p) for p in paths]
        self._rows = [m.num_rows for m in meta]
        schema = meta[0].schema.to_arrow_schema() if meta else None
        if schema is not None and columns is not None:
            schema = pa.schema([schema.field(c) for c in columns])
        self._schema = schema
        self._whole = columns is not None and schema is not None and not any(
            pa.types.is_binary(f.type) or pa.types.is_large_binary(f.type) for f in schema)

    def estimate_inmemory_data_size(self) -> int | None:
        return None

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        return [
            ReadTask(
                functools.partial(_stream_fragment, p, self._columns,
                                  max(n, 1) if self._whole else FRAGMENT_BATCH_ROWS),
                BlockMetadata(num_rows=n, size_bytes=None, input_files=[p], exec_stats=None),
                schema=self._schema,
            )
            for p, n in zip(self._paths, self._rows)
        ]


def read_fragments(path: str, columns: list[str] | None = None) -> ray.data.Dataset:
    """A parquet file or directory as a streaming Dataset: one read task per
    fragment (see :class:`FragmentStream`), columns pruned at the read."""
    paths = list_fragments(path)
    return ray.data.read_datasource(FragmentStream(paths, columns),
                                    override_num_blocks=max(len(paths), 1))


def _is_lance(path: str) -> bool:
    return os.path.isdir(path) and os.path.exists(os.path.join(path, "_versions"))


def read_events(path: str, columns: list[str] | None = None) -> ray.data.Dataset:
    """Read the event table as a streaming Dataset, pruning columns at the read."""
    if HAVE_LANCE and _is_lance(path):
        return ray.data.read_lance(path, columns=columns)
    return read_fragments(path, columns)


def _value_bytes(chunk: pq.ColumnChunkMetaData) -> float:
    """Bytes of one value of a variable-width column chunk: the longer of its
    min/max statistics (exact for a fixed-format key such as ``image_id``),
    else its plain-encoded bytes per value."""
    st = chunk.statistics
    if st is not None and st.has_min_max:
        return max(len(v.encode() if isinstance(v, str) else v) for v in (st.min, st.max))
    return chunk.total_uncompressed_size / max(chunk.num_values, 1)


def _row_bytes(rg: pq.RowGroupMetaData, schema: pa.Schema) -> float:
    """Arrow bytes of one ``schema`` row drawn from row group ``rg``: each
    field's validity bit plus its fixed width, or, for a variable-width
    field, its offset plus its value bytes in ``rg`` (none when ``rg`` lacks
    the column: the field is then a typed null)."""
    chunks = {rg.column(j).path_in_schema: rg.column(j) for j in range(rg.num_columns)}
    total = 0.0
    for f in schema:
        try:
            total += 1 / 8 + f.type.bit_width / 8
        except ValueError:  # variable width
            large = pa.types.is_large_binary(f.type) or pa.types.is_large_string(f.type)
            total += 1 / 8 + (8 if large else 4)
            if f.name in chunks:
                total += _value_bytes(chunks[f.name])
    return total


def fragment_block_bound(path: str, fn: Callable[[pa.Table], pa.Table]) -> int | None:
    """A bound on one read→``fn`` task's output block over :func:`read_fragments`
    of ``path`` (one task per fragment), in bytes, from the fragments'
    parquet metadata alone.  It is the larger of

    - the largest row group's bytes per row × ``FRAGMENT_BATCH_ROWS``, so
      Ray's output buffer, which slices a block of 1.5× its bound or more,
      never splits a streamed read batch;
    - the largest fragment's rows × the Arrow bytes of one row of ``fn``'s
      output (typed by ``fn`` over a zero-row batch), so a task's output
      stays one block.

    ``None`` (keep the session's value) for a Lance dataset and for a path
    with no rows."""
    metas = [] if _is_lance(path) else [pq.read_metadata(p) for p in list_fragments(path)]
    if not metas:
        return None
    out_schema = fn(metas[0].schema.to_arrow_schema().empty_table()).schema
    per_row = per_task = 0.0
    for meta in metas:
        rgs = [rg for rg in map(meta.row_group, range(meta.num_row_groups)) if rg.num_rows]
        per_row = max([per_row, *(rg.total_byte_size / rg.num_rows for rg in rgs)])
        per_task = max(per_task, sum(rg.num_rows * _row_bytes(rg, out_schema) for rg in rgs))
    bound = max(per_row * FRAGMENT_BATCH_ROWS, per_task)
    return math.ceil(bound) if bound else None


def read_table(sf_dir: str, name: str, columns: list[str] | None = None, **kwargs) -> ray.data.Dataset:
    """Read one of the benchmark tables (``{sf_dir}/{name}.parquet``).

    The table is read without its schema metadata: files written from
    pandas carry a ``b"pandas"`` key, and Ray cannot hash a schema with
    metadata when it unifies block schemas (it logs "Failed to hash the
    schemas" instead)."""
    path = os.path.join(sf_dir, f"{name}.parquet")
    schema = pq.read_schema(path).remove_metadata()
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns])
    return ray.data.read_parquet(path, columns=columns, schema=schema, **kwargs)
