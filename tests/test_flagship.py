"""Flagship PIT pipeline vs the single-threaded oracle, plus checkpoint,
resume, skew and determinism invariants (FIXTURES.md §invariants)."""

import os

import numpy as np
import pandas as pd
import pytest

from ecg_feature_engineering_ray.pipelines.features import PIT_FEATURE_NAMES
from ecg_feature_engineering_ray.pipelines.flagship import (
    pit_features,
    pit_features_checkpointed,
)
from ecg_feature_engineering_ray.state.checkpoint import (
    completed_buckets,
    partition_paths,
    read_manifests,
    read_output,
)

from .oracle import oracle_pit_features


@pytest.fixture(scope="module")
def engine_result(fixture_events, fixture_queries):
    events_dir, _ = fixture_events
    ds = pit_features(events_dir, fixture_queries, num_buckets=8)
    return ds.to_pandas()


@pytest.fixture(scope="module")
def oracle_result(fixture_events, fixture_queries):
    events_dir, _ = fixture_events
    return oracle_pit_features(events_dir, fixture_queries)


def _aligned(engine: pd.DataFrame, oracle: pd.DataFrame):
    key = ["image_id", "as_of_ts"]
    e = engine.sort_values(key).reset_index(drop=True)
    o = oracle.sort_values(key).reset_index(drop=True)
    assert len(e) == len(o)
    assert (e.image_id.values == o.image_id.values).all()
    return e, o


def _assert_exact(got: pd.DataFrame, want: pd.DataFrame):
    """Same rows and bit-equal features (NaN matches NaN)."""
    a, b = _aligned(got, want)
    assert (a.as_of_ts.values == b.as_of_ts.values).all()
    for name in PIT_FEATURE_NAMES:
        va, vb = a[name].values, b[name].values
        assert ((va == vb) | (np.isnan(va) & np.isnan(vb))).all(), name


def test_flagship_matches_oracle(engine_result, oracle_result):
    e, o = _aligned(engine_result, oracle_result)
    for name in PIT_FEATURE_NAMES:
        assert np.allclose(
            e[name].values, o[name].values, rtol=1e-9, atol=1e-12, equal_nan=True
        ), f"feature {name} diverges"


def test_flagship_covers_all_queries(engine_result, fixture_queries):
    import pyarrow.parquet as pq

    n_queries = pq.read_metadata(fixture_queries).num_rows
    assert len(engine_result) == n_queries


def test_checkpointed_equals_streaming(engine_result, fixture_events, fixture_queries, tmp_path):
    events_dir, _ = fixture_events
    out_dir = str(tmp_path / "ckpt")
    manifests = pit_features_checkpointed(events_dir, fixture_queries, out_dir, num_buckets=8)
    assert manifests, "first run must commit partitions"
    for m in manifests:
        assert m["rows"] >= 0 and m["input_fragments"] and "watermark_us" in m
        assert m["rows_per_s"] is None or m["rows_per_s"] >= 0

    got = read_output(out_dir).to_pandas()
    key = ["image_id", "as_of_ts"]
    a = got.sort_values(key).reset_index(drop=True)
    b = engine_result.sort_values(key).reset_index(drop=True)
    assert len(a) == len(b)
    for name in PIT_FEATURE_NAMES:
        va, vb = a[name].values, b[name].values
        assert ((va == vb) | (np.isnan(va) & np.isnan(vb))).all(), name


def test_resume_skips_completed_and_reproduces(fixture_events, fixture_queries, tmp_path):
    events_dir, _ = fixture_events
    full_dir = str(tmp_path / "full")
    pit_features_checkpointed(events_dir, fixture_queries, full_dir, num_buckets=8)
    full = read_output(full_dir).to_pandas()

    # simulate a crash: copy output, delete 3 partitions, resume
    resume_dir = str(tmp_path / "resume")
    os.makedirs(resume_dir)
    import shutil

    for f in os.listdir(full_dir):
        shutil.copy(os.path.join(full_dir, f), resume_dir)
    victims = sorted(completed_buckets(resume_dir))[:3]
    for b in victims:
        data, man = partition_paths(resume_dir, b)
        os.remove(data)
        os.remove(man)

    before = completed_buckets(resume_dir)
    manifests = pit_features_checkpointed(events_dir, fixture_queries, resume_dir, num_buckets=8)
    recomputed = {m["bucket"] for m in manifests}
    assert recomputed == set(victims), "resume must recompute exactly the missing partitions"
    assert before.isdisjoint(recomputed)

    key = ["image_id", "as_of_ts"]
    a = read_output(resume_dir).to_pandas().sort_values(key).reset_index(drop=True)
    b = full.sort_values(key).reset_index(drop=True)
    assert len(a) == len(b)
    for name in PIT_FEATURE_NAMES:
        assert np.allclose(a[name].values, b[name].values, equal_nan=True)


def test_hot_entity_matches_oracle(fixture_events, engine_result, oracle_result):
    """The planted hot entity (30% of rows) is answered, and its features
    match the oracle."""
    _, manifest = fixture_events
    e, o = _aligned(engine_result, oracle_result)
    mask = e.image_id == manifest["hot_entity"]
    assert mask.any()
    for name in PIT_FEATURE_NAMES:
        assert np.allclose(e[name].values[mask], o[name].values[mask], equal_nan=True)


def test_determinism_two_runs(fixture_events, fixture_queries):
    events_dir, _ = fixture_events
    a = pit_features(events_dir, fixture_queries, num_buckets=8).to_pandas()
    b = pit_features(events_dir, fixture_queries, num_buckets=4).to_pandas()
    key = ["image_id", "as_of_ts"]
    a = a.sort_values(key).reset_index(drop=True)
    b = b.sort_values(key).reset_index(drop=True)
    for name in PIT_FEATURE_NAMES:
        va, vb = a[name].values, b[name].values
        assert ((va == vb) | (np.isnan(va) & np.isnan(vb))).all(), name


def test_backfill_late_fragment(fixture_events, fixture_queries, tmp_path):
    """A late-arriving fragment invalidates exactly the touched partitions and
    the backfilled output equals a from-scratch run over all fragments."""
    import shutil

    import pyarrow.parquet as pq

    from ecg_feature_engineering_ray.state.backfill import (
        invalidate_for_fragments,
        late_rows_below_watermark,
    )

    events_dir, _ = fixture_events
    # hold back part of one fragment as the "late" arrival
    frags = sorted(os.listdir(events_dir))
    staged = tmp_path / "staged_events"
    staged.mkdir()
    for f in frags[:-1]:
        shutil.copy(os.path.join(events_dir, f), staged)
    late_path = tmp_path / "late.parquet"
    pq.write_table(pq.read_table(os.path.join(events_dir, frags[-1])), str(late_path))

    out_dir = str(tmp_path / "out")
    m1 = pit_features_checkpointed(str(staged), fixture_queries, out_dir, num_buckets=8)
    assert m1

    # the held-back fragment contains rows below committed watermarks
    assert late_rows_below_watermark(out_dir, [str(late_path)]) > 0

    # late fragment lands in the dataset dir; invalidate + recompute
    shutil.copy(str(late_path), os.path.join(str(staged), frags[-1]))
    invalidated = invalidate_for_fragments(out_dir, [str(late_path)])
    assert invalidated
    m2 = pit_features_checkpointed(str(staged), fixture_queries, out_dir, num_buckets=8)
    assert {m["bucket"] for m in m2} == invalidated

    # compare to scratch run over the full data
    scratch_dir = str(tmp_path / "scratch")
    pit_features_checkpointed(str(staged), fixture_queries, scratch_dir, num_buckets=8)
    key = ["image_id", "as_of_ts"]
    a = read_output(out_dir).to_pandas().sort_values(key).reset_index(drop=True)
    b = read_output(scratch_dir).to_pandas().sort_values(key).reset_index(drop=True)
    assert len(a) == len(b)
    for name in PIT_FEATURE_NAMES:
        va, vb = a[name].values, b[name].values
        assert ((va == vb) | (np.isnan(va) & np.isnan(vb))).all(), name


def test_bucket_plan_places_hot_entity_alone(fixture_events, fixture_queries):
    """LPT is the only skew mechanism: at a coarse and a fine bucket grid the
    planted hot entity (30% of rows) is placed, and no other placed entity
    shares its bucket."""
    from ecg_feature_engineering_ray.pipelines.flagship import compute_bucket_plan

    events_dir, manifest = fixture_events
    hot = manifest["hot_entity"]
    for num_buckets in (16, 64):
        cfg = compute_bucket_plan(events_dir, fixture_queries, num_buckets=num_buckets)
        assert set(cfg) == {"plan"}
        plan = cfg["plan"]
        assert hot in plan, f"hot entity not placed at {num_buckets} buckets"
        assert all(0 <= b < num_buckets for b in plan.values())
        assert [k for k, b in plan.items() if b == plan[hot]] == [hot]


@pytest.mark.parametrize("empty", ["queries", "events", "both"])
def test_compute_bucket_plan_zero_rows(fixture_events, fixture_queries, tmp_path, empty):
    """A zero-row side plans like a side without entities: zero-row events
    (one empty fragment) place nothing, and a zero-row queries file prices
    every entity with no queries."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ecg_feature_engineering_ray.pipelines.flagship import compute_bucket_plan
    from ecg_feature_engineering_ray.stages.partition import plan_buckets

    events_dir, queries = fixture_events[0], fixture_queries
    if empty in ("events", "both"):
        first = sorted(f for f in os.listdir(events_dir) if f.endswith(".parquet"))[0]
        schema = pq.read_schema(os.path.join(events_dir, first))
        events_dir = str(tmp_path / "events")
        os.makedirs(events_dir)
        pq.write_table(schema.empty_table(), os.path.join(events_dir, "part-0.parquet"))
    if empty in ("queries", "both"):
        queries = str(tmp_path / "queries.parquet")
        pq.write_table(pq.read_schema(fixture_queries).empty_table(), queries)

    got = compute_bucket_plan(events_dir, queries, num_buckets=16)
    if empty == "queries":
        ids = pq.read_table(events_dir, columns=["image_id"]).column("image_id").to_numpy()
        keys, n = np.unique(ids, return_counts=True)
        want = plan_buckets(pa.array(keys), np.minimum(n, 400) ** 2 + n, 16)
        assert want and list(got["plan"].items()) == list(want.items())
    else:
        assert got == {"plan": {}}


def test_checkpointed_lpt_plan_resume_and_balance(
    fixture_events, fixture_queries, oracle_result, tmp_path
):
    """The checkpointed path gets the SAME cost-model plan as the throughput
    path: the plan persists in the run config, the output matches the
    oracle at 64 buckets, resume reuses the committed plan, and a
    conflicting plan is rejected like a num_buckets mismatch."""
    from ecg_feature_engineering_ray.pipelines.flagship import compute_bucket_plan
    from ecg_feature_engineering_ray.state.backfill import load_run_config

    events_dir, manifest = fixture_events
    hot = manifest["hot_entity"]
    cfg = compute_bucket_plan(events_dir, fixture_queries, num_buckets=64)

    out_dir = str(tmp_path / "planned")
    pit_features_checkpointed(
        events_dir, fixture_queries, out_dir, num_buckets=64, bucket_plan=cfg
    )
    rc = load_run_config(out_dir)
    assert rc["plan"] == cfg["plan"] and hot in rc["plan"], "the plan must persist"
    assert set(rc) == {"num_buckets", "fragments", "plan"}

    # values still exact vs the oracle
    key = ["image_id", "as_of_ts"]
    a = read_output(out_dir).to_pandas().sort_values(key).reset_index(drop=True)
    o = oracle_result.sort_values(key).reset_index(drop=True)
    assert len(a) == len(o)
    for name in PIT_FEATURE_NAMES:
        assert np.allclose(a[name].values, o[name].values, rtol=1e-9, atol=1e-12, equal_nan=True), name

    # a conflicting plan on resume is a hard error
    with pytest.raises(ValueError, match="bucket_plan differs"):
        pit_features_checkpointed(
            events_dir, fixture_queries, out_dir, num_buckets=64,
            bucket_plan={"plan": {}},
        )

    # resume with no plan argument reuses the committed plan: recompute one
    # victim partition, byte-equal output
    victims = sorted(completed_buckets(out_dir))[:1]
    for b in victims:
        data, man = partition_paths(out_dir, b)
        os.remove(data)
        os.remove(man)
    m2 = pit_features_checkpointed(events_dir, fixture_queries, out_dir, num_buckets=64)
    assert {m["bucket"] for m in m2} == set(victims)
    _assert_exact(read_output(out_dir).to_pandas(), a)


@pytest.mark.parametrize("legacy", ["hot_keys", "salt"])
def test_legacy_hot_key_run_config_is_refused(fixture_events, fixture_queries, tmp_path, legacy):
    """A ``_run.json`` that routes hot keys to dedicated buckets or splits
    them over salted buckets (written by engines that still had them) cannot
    be resumed or backfilled: every reader raises instead of re-routing
    those rows to one bucket."""
    import json

    from ecg_feature_engineering_ray.state.backfill import (
        RUN_CONFIG,
        invalidate_for_fragments,
        late_rows_below_watermark,
    )

    events_dir, manifest = fixture_events
    hot = manifest["hot_entity"]
    routing = {"hot_keys": [hot]} if legacy == "hot_keys" else {"salt": {hot: 3}}
    out_dir = str(tmp_path / "legacy")
    os.makedirs(out_dir)
    with open(os.path.join(out_dir, RUN_CONFIG), "w") as f:
        json.dump({"num_buckets": 8, "fragments": [], "plan": {}, **routing}, f)
    frag = os.path.join(events_dir, sorted(os.listdir(events_dir))[0])
    with pytest.raises(ValueError, match="fresh out_dir"):
        pit_features_checkpointed(events_dir, fixture_queries, out_dir, num_buckets=8)
    with pytest.raises(ValueError, match="fresh out_dir"):
        invalidate_for_fragments(out_dir, [frag])
    with pytest.raises(ValueError, match="fresh out_dir"):
        late_rows_below_watermark(out_dir, [frag])
    assert not completed_buckets(out_dir)


def test_run_config_with_empty_salt_resumes(fixture_events, fixture_queries, tmp_path):
    """A ``_run.json`` written with an empty ``salt`` map next to its plan
    (engines that could salt wrote one on every run) still resumes: exactly
    the one victim bucket is recomputed, and the output is unchanged."""
    import json

    from ecg_feature_engineering_ray.state.backfill import RUN_CONFIG, load_run_config

    events_dir, _ = fixture_events
    out_dir = str(tmp_path / "empty_salt")
    pit_features_checkpointed(events_dir, fixture_queries, out_dir, num_buckets=8)
    full = read_output(out_dir).to_pandas()
    path = os.path.join(out_dir, RUN_CONFIG)
    with open(path) as f:
        rc = json.load(f)
    assert rc["plan"], "the fixture's hot entity must be placed"
    with open(path, "w") as f:
        json.dump({**rc, "salt": {}}, f)
    assert load_run_config(out_dir)["salt"] == {}

    victims = sorted(completed_buckets(out_dir))[:1]
    for b in victims:
        data, man = partition_paths(out_dir, b)
        os.remove(data)
        os.remove(man)
    m2 = pit_features_checkpointed(events_dir, fixture_queries, out_dir, num_buckets=8)
    assert {m["bucket"] for m in m2} == set(victims)
    _assert_exact(read_output(out_dir).to_pandas(), full)


def test_commit_partition_idempotent_retry(tmp_path):
    """A replayed commit task (worker lost after manifest write) must be a
    no-op returning the committed manifest; only CONTENT mismatch raises."""
    import time as _time

    import pyarrow as pa

    from ecg_feature_engineering_ray.state.checkpoint import commit_partition

    t = pa.table({"a": pa.array([1, 2, 3], pa.int64())})
    m1 = commit_partition(str(tmp_path), 0, t, ["frag"], 5, _time.time())
    m2 = commit_partition(str(tmp_path), 0, t, ["frag"], 5, _time.time())
    assert m2["rows"] == m1["rows"] == 3
    with pytest.raises(FileExistsError, match="refusing to overwrite"):
        commit_partition(
            str(tmp_path), 0, pa.table({"a": pa.array([1], pa.int64())}),
            ["frag"], 5, _time.time(),
        )


def test_decode_is_one_fused_task_per_fragment(fixture_events, fixture_queries, tmp_path):
    """The flagship's staged event side is one fused read→decode→tag
    operator holding at most one block per fragment (a split read leaves
    many more), and holds exactly the tagged decode of every event row, one
    tagged row per decoded event.  Under its derived output bound, fragments
    of the largest (128-px) rows still reach ``tag`` in whole 256-row read
    batches: Ray slices no batch."""
    import functools

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray

    from ecg_feature_engineering_ray.pipelines.flagship import (
        _project_events,
        _project_queries,
        _tagged_events,
    )
    from ecg_feature_engineering_ray.sources.readers import FRAGMENT_BATCH_ROWS, list_fragments
    from ecg_feature_engineering_ray.stages.decode import decode_batch
    from ecg_feature_engineering_ray.stages.partition import tag_side

    events_dir, queries_path = fixture_events[0], fixture_queries
    query_cols = _project_queries(pq.read_table(queries_path).slice(0, 0)).schema
    tag_right = functools.partial(tag_side, project=_project_events, other=query_cols, flag=0)
    ds = _tagged_events(events_dir, tag_right)
    assert ds.num_blocks() <= len(list_fragments(events_dir))
    assert "ReadFragmentStream->MapBatches(decode_then)" in ds.stats()
    order = [("image_id", "ascending"), ("__ts", "ascending")]
    got = pa.concat_tables(ray.get(ds.to_arrow_refs())).sort_by(order)
    decoded = decode_batch(pq.read_table(events_dir), verify_roundtrip=False)
    assert got.num_rows == decoded.num_rows
    assert got.equals(tag_right(decoded).sort_by(order))

    big_dir, calls = tmp_path / "big", tmp_path / "calls"
    big_dir.mkdir()
    calls.mkdir()
    big = pq.read_table(events_dir)
    big = big.filter(pc.equal(big.column("w"), 128))
    half = big.num_rows // 2
    parts = [big.slice(0, half), big.slice(half)]
    assert min(t.num_rows for t in parts) > FRAGMENT_BATCH_ROWS
    for k, part in enumerate(parts):
        pq.write_table(part, str(big_dir / f"frag-{k:05d}.parquet"))

    def counted(batch: pa.Table) -> pa.Table:  # one line per call, per task
        if batch.num_rows:
            with open(calls / ray.get_runtime_context().get_task_id(), "a") as fh:
                fh.write(f"{batch.num_rows}\n")
        return tag_right(batch)

    ds = _tagged_events(str(big_dir), counted)
    assert ds.num_blocks() <= len(parts)
    got = sorted([int(n) for n in f.read_text().split()] for f in calls.iterdir())

    def streamed(n):
        return ([FRAGMENT_BATCH_ROWS] * (n // FRAGMENT_BATCH_ROWS)
                + [n % FRAGMENT_BATCH_ROWS] * (n % FRAGMENT_BATCH_ROWS > 0))

    assert got == sorted(streamed(t.num_rows) for t in parts)  # ⌈rows/256⌉ calls each


def test_decode_tasks_start_together(fixture_events, fixture_queries, tmp_path):
    """Every read→decode task of the staged event side starts at once under
    a small object store (perfbench's 768 MB).  Until an operator has
    produced output, Ray prices each of its tasks at ``target_max_block_size``
    × 2 pending blocks; at the session's 128 MiB that admits one task at a
    time here, and the second starts only when the first, which sleeps
    ``sleep`` s in its first ``tag`` call, is done."""
    import subprocess
    import sys

    import pyarrow.parquet as pq

    cpus, sleep = 2, 4.0
    events, marks = tmp_path / "ev", tmp_path / "marks"
    events.mkdir()
    marks.mkdir()
    tbl = pq.read_table(fixture_events[0])
    cut = tbl.num_rows // cpus
    for k in range(cpus):  # one fragment, so one task, per CPU
        part = tbl.slice(k * cut, cut if k < cpus - 1 else None)
        pq.write_table(part, str(events / f"frag-{k:05d}.parquet"))
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = (
        "import os, time, ray, pyarrow.parquet as pq\n"
        f"ray.init(address='local', num_cpus={cpus}, object_store_memory=768 * 1024**2,\n"
        "         include_dashboard=False)\n"
        "from ecg_feature_engineering_ray.pipelines.flagship import (\n"
        "    _project_events, _project_queries, _tagged_events)\n"
        "from ecg_feature_engineering_ray.stages.partition import tag_side\n"
        f"other = _project_queries(pq.read_table({fixture_queries!r}).slice(0, 0)).schema\n"
        "def tag(batch):  # the task's first call records its start, then sleeps\n"
        "    if batch.num_rows:\n"
        f"        mark = os.path.join({str(marks)!r}, ray.get_runtime_context().get_task_id())\n"
        "        if not os.path.exists(mark):\n"
        "            with open(mark, 'w') as fh:\n"
        "                fh.write(repr(time.time()))\n"
        f"            time.sleep({sleep})\n"
        "    return tag_side(batch, project=_project_events, other=other, flag=0)\n"
        f"_tagged_events({str(events)!r}, tag)\n"
        "ray.shutdown()\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=180, cwd=repo, env=dict(os.environ, RAY_ADDRESS="local"))
    assert proc.returncode == 0, proc.stderr[-2000:]
    starts = [float(f.read_text()) for f in marks.iterdir()]
    assert len(starts) == cpus
    assert max(starts) - min(starts) < sleep / 2, starts


def test_block_bound_stays_on_the_event_side(fixture_events, fixture_queries, monkeypatch):
    """``pit_features`` puts the derived output bound on the staged event
    Dataset's own context: the session's ``DataContext`` is not written, and
    the returned Dataset (the exchange and the merge, on the query side's
    context) keeps the session's block size."""
    import functools

    from ray.data import DataContext

    from ecg_feature_engineering_ray.pipelines import flagship
    from ecg_feature_engineering_ray.sources.readers import fragment_block_bound
    from ecg_feature_engineering_ray.stages.decode import decode_then

    events_dir, _ = fixture_events
    session = DataContext.get_current().target_max_block_size
    staged, real = [], flagship._tagged_events

    def spy(events_dir, tag):
        staged.append((tag, real(events_dir, tag)))
        return staged[-1][1]

    monkeypatch.setattr(flagship, "_tagged_events", spy)
    out = flagship.pit_features(events_dir, fixture_queries, num_buckets=8)
    assert DataContext.get_current().target_max_block_size == session
    assert out.context.target_max_block_size == session
    [(tag, ds)] = staged
    bound = fragment_block_bound(
        events_dir, functools.partial(decode_then, then=tag, verify_roundtrip=False))
    assert ds.context.target_max_block_size == bound < session


def test_pit_features_on_one_cpu(engine_result, fixture_events, fixture_queries, tmp_path):
    """With no decode actor to hold the only CPU, a 1-CPU Ray session runs
    the whole pipeline, and its output equals the multi-CPU one."""
    import subprocess
    import sys

    import pyarrow.parquet as pq

    events_dir, _ = fixture_events
    out = str(tmp_path / "one_cpu.parquet")
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = (
        "import ray, pyarrow as pa, pyarrow.parquet as pq\n"
        "ray.init(address='local', num_cpus=1, include_dashboard=False)\n"
        "from ecg_feature_engineering_ray.pipelines.flagship import pit_features\n"
        f"ds = pit_features({events_dir!r}, {fixture_queries!r}, num_buckets=8)\n"
        "tbl = pa.concat_tables(list(ds.iter_batches(batch_format='pyarrow', batch_size=None)))\n"
        f"pq.write_table(tbl, {out!r})\n"
        "ray.shutdown()\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=180, cwd=repo, env=dict(os.environ, RAY_ADDRESS="local"))
    assert proc.returncode == 0, proc.stderr[-2000:]
    key = ["image_id", "as_of_ts"]
    a = pq.read_table(out).to_pandas().sort_values(key).reset_index(drop=True)
    b = engine_result.sort_values(key).reset_index(drop=True)
    assert len(a) == len(b)
    assert (a.image_id.values == b.image_id.values).all()
    for name in PIT_FEATURE_NAMES:
        va, vb = a[name].values, b[name].values
        assert ((va == vb) | (np.isnan(va) & np.isnan(vb))).all(), name
