"""Every batch function of the flagship's task maps returns its declared
schema (the one it returns on rows) on a zero-row batch — with or without
chunks."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ecg_feature_engineering_ray.pipelines.flagship import tag_left, tag_right
from ecg_feature_engineering_ray.sources.readers import list_fragments
from ecg_feature_engineering_ray.stages.decode import decode_batch, decode_then


def _empties(tbl: pa.Table) -> list[pa.Table]:
    return [tbl.slice(0, 0), pa.Table.from_batches([], schema=tbl.schema)]


@pytest.fixture(scope="module")
def raw_events(fixture_events):
    events_dir, _ = fixture_events
    return pq.read_table(list_fragments(events_dir)[0]).slice(0, 16)


def test_decode_batch_schema_on_empty_batch(raw_events):
    for verify in (False, True):
        want = decode_batch(raw_events, verify_roundtrip=verify).schema
        for empty in _empties(raw_events):
            assert decode_batch(empty, verify_roundtrip=verify).schema == want


def test_decode_then_tag_schema_on_empty_batch(raw_events):
    want = decode_then(raw_events, tag_right, verify_roundtrip=False).schema
    for empty in _empties(raw_events):
        assert decode_then(empty, tag_right, verify_roundtrip=False).schema == want


def test_tag_left_schema_on_empty_batch(fixture_queries):
    queries = pq.read_table(fixture_queries)
    want = tag_left(queries).schema
    for empty in _empties(queries):
        assert tag_left(empty).schema == want
