"""``md5_keys`` equals the per-row ``hashlib`` key formula it replaces."""

import hashlib

import numpy as np
import pyarrow as pa
import pytest

from ecg_feature_engineering_ray.functions.hashing import md5_keys

INT_KEYS = [0, 7, 7, 123456789, -5, 42, 0]
STR_KEYS = ["doc-1", "", "ünï", "doc-1", "a|b|c"]


def _per_row(keys, prefix, n_hex):
    return [int(hashlib.md5(f"{prefix}{k}".encode()).hexdigest()[:n_hex], 16) for k in keys]


@pytest.mark.parametrize("n_hex", [2, 4, 8, 13, 15])
@pytest.mark.parametrize("prefix", ["", "cap|"])
@pytest.mark.parametrize("keys", [INT_KEYS, STR_KEYS], ids=["int", "str"])
def test_md5_keys_matches_per_row_formula(keys, prefix, n_hex):
    want = _per_row(keys, prefix, n_hex)
    chunked = pa.chunked_array([pa.array(keys[:2]), pa.array(keys[2:])])
    for arg in (keys, pa.array(keys), chunked):
        got = md5_keys(arg, prefix, n_hex)
        assert got.dtype == np.uint64
        assert got.tolist() == want


def test_md5_keys_zero_keys():
    for arg in ([], pa.array([], pa.int64()), pa.chunked_array([], pa.string())):
        got = md5_keys(arg, "split|", 2)
        assert got.dtype == np.uint64 and got.size == 0
