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
import os

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


def read_events(path: str, columns: list[str] | None = None) -> ray.data.Dataset:
    """Read the event table as a streaming Dataset, pruning columns at the read."""
    if HAVE_LANCE and os.path.isdir(path) and os.path.exists(os.path.join(path, "_versions")):
        return ray.data.read_lance(path, columns=columns)
    return read_fragments(path, columns)


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
