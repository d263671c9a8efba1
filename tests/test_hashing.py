"""``md5_keys`` equals the per-row ``hashlib`` key formula it replaces;
``bucket_ids`` routes null keys to one bucket and follows a plan like a
per-key ``dict.get``."""

import datetime
import hashlib

import numpy as np
import pyarrow as pa
import pytest

from ecg_feature_engineering_ray.functions.hashing import md5_keys

INT_KEYS = [0, 7, 7, 123456789, -5, 42, 0]
STR_KEYS = ["doc-1", "", "ünï", "doc-1", "a|b|c"]
DATE_KEYS = [datetime.date(2024, 1, d) for d in (3, 1, 3, 9)]


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


@pytest.mark.parametrize("keys", [INT_KEYS, STR_KEYS, DATE_KEYS], ids=["int", "str", "date"])
def test_bucket_ids_route_null_keys_to_one_bucket(keys):
    """Null keys share bucket 0; every other key keeps the bucket (hash or
    plan) it has in a column without nulls.  A key type that is neither
    integer nor string (date here) hashes its string form."""
    import warnings

    from ecg_feature_engineering_ray.stages.partition import bucket_ids

    with_nulls = pa.array([None] + keys[:3] + [None] + keys[3:])
    plan = {keys[1]: 5}
    for p in (None, plan):
        want = bucket_ids(pa.array(keys), 8, p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = bucket_ids(pa.chunked_array([with_nulls[:2], with_nulls[2:]]), 8, p)
        assert got.tolist() == [0] + want[:3].tolist() + [0] + want[3:].tolist()
    assert bucket_ids(pa.array([None, None], pa.string()), 8).tolist() == [0, 0]


@pytest.mark.parametrize("kind", ["int", "str"])
def test_bucket_ids_plan_matches_dict_get(kind):
    """With a plan, a key's bucket is ``plan.get(key, hash bucket)``: planned
    keys go where the plan says, the rest keep their hash bucket, in one
    array and across chunks."""
    from ecg_feature_engineering_ray.stages.partition import bucket_ids

    rng = np.random.default_rng(5)
    ints = rng.integers(0, 300, size=2000)
    keys = ints.tolist() if kind == "int" else [f"k{k}" for k in ints.tolist()]
    planned = sorted(set(keys), key=str)[::7]
    plan = {k: int(b) for k, b in zip(planned, rng.integers(0, 16, size=len(planned)))}
    hashed = bucket_ids(pa.array(keys), 16)
    want = [plan.get(k, int(h)) for k, h in zip(keys, hashed)]
    assert any(k not in plan for k in keys) and any(k in plan for k in keys)
    chunked = pa.chunked_array([pa.array(keys[:700]), pa.array(keys[700:1500]), pa.array(keys[1500:])])
    for arg in (pa.array(keys), chunked):
        assert bucket_ids(arg, 16, plan).tolist() == want
