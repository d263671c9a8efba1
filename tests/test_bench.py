"""bench.py's pure helpers: the scaling pair's rounds and the compact line."""

import json
import statistics

import pytest

import bench


def _arm(cpus, rows_per_s, digest="d0"):
    return {"cpus": cpus, "rows_per_s": rows_per_s, "digest": digest}


def test_eff_is_hi_over_lo_times_k():
    rec = bench.score_round({4: _arm(4, 300.0), 1: _arm(1, 100.0)}, 1, 4)
    assert rec["eff"] == 0.75
    rec = bench.score_round({2: _arm(2, 50.0), 8: _arm(8, 180.0)}, 2, 8)
    assert rec["eff"] == 0.9


def test_digest_mismatch_raises():
    with pytest.raises(RuntimeError, match="digests differ"):
        bench.score_round({1: _arm(1, 100.0, "a"), 4: _arm(4, 300.0, "b")}, 1, 4)


def test_arm_order_alternates():
    orders = [bench.arm_order(i, 1, 4) for i in range(bench.ROUNDS)]
    assert orders[:3] == [(4, 1), (1, 4), (4, 1)]
    assert all(sorted(o) == [1, 4] for o in orders)


def test_every_round_is_in_the_median():
    """A round whose narrow arm ran slow reads high, and it still counts:
    dropping it would move the median from 0.9 to 0.8."""
    rounds = [bench.score_round({1: _arm(1, lo), 4: _arm(4, hi)}, 1, 4)
              for lo, hi in ((100.0, 280.0), (50.0, 320.0), (100.0, 360.0))]
    assert [r["eff"] for r in rounds] == [0.7, 1.6, 0.9]
    res = bench.summarize(rounds, 1, 4)
    assert res["value"] == statistics.median([0.7, 1.6, 0.9]) == 0.9
    assert res["per_round_efficiency"] == [0.7, 1.6, 0.9]
    assert res["rows_per_s"] == {"1": [100.0, 50.0, 100.0], "4": [280.0, 320.0, 360.0]}


def _suite_result():
    queries = {n: 123.456 for names in bench.SUITES.values() for n in names}
    return {"metric": "m" * 90, "value": 1234.567, "unit": "sec",
            "queries": {**queries, "flagship_pit": 12.345}, "sf": "/data/sf0.1",
            "num_cpus": 64, "profile": "pit_stream", "flagship_rows": 2400,
            "flagship_rows_per_s": 1234.5, "calib_sampen_per_s": 1234.5,
            "stages": {"flagship.decode_s": 1.0}}


@pytest.mark.parametrize("scaling", [False, True])
def test_compact_line_keeps_the_contract_keys(scaling):
    res = _suite_result()
    keys = {"metric", "value", "unit", "queries", "flagship_rows_per_s", "calib_sampen_per_s"}
    if scaling:
        rounds = [bench.score_round({16: _arm(16, 1234.56), 64: _arm(64, 4567.89)}, 16, 64)
                  for _ in range(bench.ROUNDS)]
        res["scaling"] = bench.summarize(rounds, 16, 64)
        res["scaling_efficiency"] = res["scaling"]["value"]
        keys.add("scaling_efficiency")
    line = bench.compact_line(res, "/a/checkout/of/the/repository/bench_detail.json")
    assert len(line) <= bench.MAX_LINE
    got = json.loads(line)
    assert keys <= set(got)
    assert len(got["queries"]) == len(res["queries"])
