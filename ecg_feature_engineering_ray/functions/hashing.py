"""Deterministic, process-stable hashing kernels.

Bucket assignment, dedup fingerprints and seeded per-row RNG all need hashes
that are identical across workers, processes and runs (Python's builtin
``hash`` is salted, so it is banned here).  Two families:

- ``splitmix64`` — fast vectorized avalanche hash for int64 key columns.
- ``md5_*``      — cryptographic digests for strings (also what the DuckDB
  oracle uses via its ``md5()`` function, so fingerprints compare exactly).

Reference analog: the reference has no hashing at all (file-per-record);
bucketing replaces its "one file = one unit of work" sharding
(/root/reference/extract_HRV.py:27).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_U64 = np.uint64


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over an int64/uint64 array."""
    z = x.astype(_U64, copy=True)
    with np.errstate(over="ignore"):
        z += _U64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
        z = z ^ (z >> _U64(31))
    return z


def bucket_of_ints(keys: np.ndarray, num_buckets: int) -> np.ndarray:
    """Stable bucket id in [0, num_buckets) for an integer key column."""
    return (splitmix64(keys) % _U64(num_buckets)).astype(np.int32)


def popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount (SWAR) — numpy<2 has no bitwise_count."""
    x = x.astype(_U64, copy=True)
    x -= (x >> _U64(1)) & _U64(0x5555555555555555)
    x = (x & _U64(0x3333333333333333)) + ((x >> _U64(2)) & _U64(0x3333333333333333))
    x = (x + (x >> _U64(4))) & _U64(0x0F0F0F0F0F0F0F0F)
    return ((x * _U64(0x0101010101010101)) >> _U64(56)).astype(np.int64)


def md5_hex(s: str) -> str:
    return hashlib.md5(s.encode("utf-8")).hexdigest()


def md5_u64(s: str) -> int:
    """First 8 bytes of md5 as unsigned 64-bit int (stable string hash)."""
    return int.from_bytes(hashlib.md5(s.encode("utf-8")).digest()[:8], "big")


def md5_keys(keys, prefix: str = "", n_hex: int = 16) -> np.ndarray:
    """``int(md5(prefix + str(key)).hexdigest()[:n_hex], 16)`` per key, as
    uint64 (1 ≤ n_hex ≤ 16) — the row key a DuckDB oracle writes as
    ``('0x' || substr(md5(concat(prefix, key)), 1, n_hex))``.

    ``keys`` is an Arrow array or a sequence of ints or strings.  Each
    distinct key is hashed once (dictionary-encode first), then mapped back
    to its rows.
    """
    if not 1 <= n_hex <= 16:
        raise ValueError(f"n_hex={n_hex} does not fit 64 bits")
    arr = keys if isinstance(keys, (pa.Array, pa.ChunkedArray)) else pa.array(keys)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if len(arr) == 0:
        return np.zeros(0, dtype=_U64)
    d = arr.dictionary_encode()
    uniq = d.dictionary.to_pylist()
    lut = np.fromiter(
        (int(hashlib.md5(f"{prefix}{u}".encode()).hexdigest()[:n_hex], 16) for u in uniq),
        dtype=_U64, count=len(uniq),
    )
    return lut[np.asarray(d.indices)]


def bucket_of_strings(arr: pa.Array | pa.ChunkedArray, num_buckets: int) -> np.ndarray:
    """Stable bucket ids for a string column.

    Hashes each *distinct* value once (dictionary-encode first), then maps
    indices — O(uniques) hashing per batch instead of O(rows).
    """
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    d = arr.dictionary_encode()
    uniq = d.dictionary.to_pylist()
    lut = np.array([md5_u64(u) % num_buckets for u in uniq], dtype=np.int32)
    idx = np.asarray(d.indices)
    return lut[idx]
