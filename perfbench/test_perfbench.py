"""Tests of the benchmark itself:  python -m pytest perfbench -q

The end-to-end tests shrink every input profile to a few hundred rows and run
each workload in-process for one iteration; the whole file takes a few minutes
on a 4-CPU host.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from perfbench import fixtures, host, run, sweep, workloads
from perfbench.trace import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def test_one_cpu_is_refused_before_anything_starts(capsys):
    with pytest.raises(ValueError, match="at least 2 CPUs"):
        host.check_cpus(1)
    rc = run.main(["--workload", "pit_stream", "--seed", "1", "--seconds", "1", "--cpus", "1"])
    out = capsys.readouterr()
    assert rc != 0 and out.out == "" and "at least 2 CPUs" in out.err


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "pit_stream",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0 and p.stdout == ""


def test_self_times_sum_to_the_root_wall():
    tr = Tracer(True)
    with tr.span("iteration", trace=1):
        with tr.span("a"):
            time.sleep(0.02)
            tr.add("a.inner", time.time() - 0.01, time.time())
        with tr.span("b"):
            time.sleep(0.01)
    st = tr.self_times(1)
    assert set(st) == {"iteration", "a", "a.inner", "b"}
    assert sum(st.values()) == pytest.approx(tr.root_wall(1), rel=1e-9)
    assert st["a.inner"] == pytest.approx(0.01, abs=0.005)


def test_tables_are_a_function_of_the_seed(tmp_path):
    small = dataclasses.replace(workloads.TABLES, orders=300, lineitems=900, events=400,
                                customers=50, documents=40, embeddings=40)
    digests = []
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        fixtures.make_tables(str(tmp_path / name), seed, small)
        digests.append(fixtures.dir_digest(str(tmp_path / name)))
    assert digests[0] == digests[1] != digests[2]


def test_image_fixture_is_a_function_of_the_seed(tmp_path):
    small = dataclasses.replace(workloads.PROBE, n_entities=8, total_rows=80, n_queries=20,
                                n_fragments=2, n_late=1)
    host.start_ray(2, ROOT, str(tmp_path / "ray"))
    try:
        digests = []
        for name, seed in (("a", 5), ("b", 5), ("c", 6)):
            fixtures.make_image_fixture(str(tmp_path / name), seed, small)
            digests.append(fixtures.dir_digest(str(tmp_path / name)))
    finally:
        host.stop_ray()
    assert digests[0] == digests[1] != digests[2]


TINY_IMAGES = dataclasses.replace(workloads.PROBE, n_entities=16, total_rows=240, n_queries=80,
                                  buckets=4, n_fragments=2, n_late=2)
TINY_LONG = dataclasses.replace(workloads.PIT_LONG, n_entities=3, total_rows=360, n_queries=60,
                                buckets=4, n_fragments=2)
TINY_TABLES = dataclasses.replace(workloads.TABLES, customers=100, orders=600, lineitems=2000,
                                  events=800, users=30, documents=60, embeddings=64)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads.PitStream, "profile", TINY_IMAGES)
    monkeypatch.setattr(workloads.PitLong, "profile", TINY_LONG)
    monkeypatch.setattr(workloads.QueryMix, "tables", TINY_TABLES)
    monkeypatch.setattr(sweep, "PROBE_TABLES", TINY_TABLES)
    monkeypatch.setattr(sweep, "PROBE", TINY_IMAGES)


def _run(workload: str, trace: int) -> dict:
    args = run.parse(["--workload", workload, "--seed", "3", "--seconds", "0",
                      "--trace", str(trace)])
    return run.measure(args)


def _assert_metrics(res: dict, spec: list[dict]) -> None:
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in res["metrics"].items()}
    for k, v in res["metrics"].items():
        assert isinstance(v["value"], float), k


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_every_end_to_end_metric(tiny, workload):
    res = _run(workload, trace=0)
    _assert_metrics(res, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_tiny_traced_run_prints_every_per_layer_metric(tiny):
    _assert_metrics(_run("pit_stream", trace=1), SPEC["per_layer"])
