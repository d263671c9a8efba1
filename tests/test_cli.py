"""Smoke-gate the ``ray job submit`` entrypoint (scripts/run_pipeline.py).

The checkpointed pipeline itself is value-gated by test_flagship; this
drives the actual CLI surface a cluster operator submits — fresh process,
its own Ray session — and checks the submit-then-resubmit contract: the
second invocation computes zero partitions and leaves output byte-stable.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_cli(events_dir: str, queries_path: str, out_dir: str) -> dict:
    env = dict(os.environ, RAY_ADDRESS="local")
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO, "scripts", "run_pipeline.py"),
         "--events", events_dir, "--queries", queries_path, "--out", out_dir,
         "--buckets", "4", "--num-cpus", "4"],
        capture_output=True, text=True, timeout=420, cwd=REPO, env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = [l for l in proc.stdout.strip().splitlines() if l.startswith("{")][-1]
    return json.loads(line)


def test_cli_submit_and_resume(fixture_events, fixture_queries, tmp_path):
    events_dir, _ = fixture_events
    out_dir = str(tmp_path / "out")

    first = _run_cli(events_dir, fixture_queries, out_dir)
    assert first["partitions_computed"] == first["partitions_total"] > 0
    assert first["rows_total"] > 0
    snap = {
        f: os.path.getmtime(os.path.join(out_dir, f)) for f in sorted(os.listdir(out_dir))
    }

    second = _run_cli(events_dir, fixture_queries, out_dir)
    assert second["partitions_computed"] == 0  # resume skipped everything
    assert second["partitions_total"] == first["partitions_total"]
    assert second["rows_total"] == first["rows_total"]
    after = {
        f: os.path.getmtime(os.path.join(out_dir, f)) for f in sorted(os.listdir(out_dir))
    }
    assert after == snap  # committed partitions untouched by the re-submit
