"""Every batch function of the flagship's task maps returns its declared
schema (the one it returns on rows) on a zero-row batch — with or without
chunks."""

import functools

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ecg_feature_engineering_ray.pipelines.flagship import _project_events, _project_queries
from ecg_feature_engineering_ray.sources.readers import list_fragments
from ecg_feature_engineering_ray.stages.decode import decode_batch, decode_then
from ecg_feature_engineering_ray.stages.partition import tag_side


def _empties(tbl: pa.Table) -> list[pa.Table]:
    return [tbl.slice(0, 0), pa.Table.from_batches([], schema=tbl.schema)]


@pytest.fixture(scope="module")
def raw_events(fixture_events):
    events_dir, _ = fixture_events
    return pq.read_table(list_fragments(events_dir)[0]).slice(0, 16)


@pytest.fixture(scope="module")
def tags(raw_events, fixture_queries):
    """The flagship's two tag functions, each typed by the other side's
    projection of a zero-row batch, as the two-sided plan builds them."""
    query_cols = _project_queries(pq.read_table(fixture_queries).slice(0, 0)).schema
    event_cols = _project_events(decode_batch(raw_events.slice(0, 0))).schema
    return (functools.partial(tag_side, project=_project_queries, other=event_cols, flag=1),
            functools.partial(tag_side, project=_project_events, other=query_cols, flag=0))


def test_decode_batch_schema_on_empty_batch(raw_events):
    for verify in (False, True):
        want = decode_batch(raw_events, verify_roundtrip=verify).schema
        for empty in _empties(raw_events):
            assert decode_batch(empty, verify_roundtrip=verify).schema == want


def test_decode_then_tag_schema_on_empty_batch(raw_events, tags):
    _, tag_right = tags
    want = decode_then(raw_events, tag_right, verify_roundtrip=False).schema
    for empty in _empties(raw_events):
        assert decode_then(empty, tag_right, verify_roundtrip=False).schema == want


def test_tag_left_schema_on_empty_batch(fixture_queries, tags):
    tag_left, _ = tags
    queries = pq.read_table(fixture_queries)
    want = tag_left(queries).schema
    for empty in _empties(queries):
        assert tag_left(empty).schema == want
