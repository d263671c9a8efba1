"""Ray-side-only sweep of every ``queries()`` entry at a given sf_dir.

No DuckDB oracle — this is the SCALE smoke (does every registered query run
end-to-end and produce rows at this input size?), complementing
``check_queries.py`` which is the correctness gate at the driver's sf.
Found its reason to exist in round 4: ``ngram_jaccard_pairs`` was
hash-green at sf0.001/0.01 but tripped its candidate-degree cap only at
sf0.1.

Usage:  python scripts/sweep_ray_only.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys
import time

import ray


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.1"
    only = set(sys.argv[2:])
    ray.init(address="local", num_cpus=len(os.sched_getaffinity(0)), include_dashboard=False)
    sys.path.insert(0, ".")
    import __ray_entry__ as entry

    queries = entry.queries()
    fails = 0
    for name, fn in queries.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            res = fn(sf_dir)
            n = res.count() if hasattr(res, "count") else len(res)
            print(f"PASS {name} ({n} rows, {time.time() - t0:.1f}s)", flush=True)
        except Exception as e:  # noqa: BLE001 — sweep must report every query
            fails += 1
            print(f"FAIL {name}: {type(e).__name__}: {str(e)[:200]}", flush=True)
    ray.shutdown()
    print(f"\n{len(queries) - fails} pass, {fails} fail")
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
