"""Local replica of the driver's correctness gate.

Runs every ``queries()`` entry at the given sf_dir, runs the matching
``oracle_sql()`` in DuckDB over the same parquet tables, and compares
row-count, schema (column names) and order-insensitive values.

Usage:  python scripts/check_queries.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd
import ray

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    from ray.data import Dataset

    if isinstance(res, Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype("float64")
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("float64")  # int vs nullable-int parity
        elif df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), na_position="last").reset_index(drop=True)


def compare(name: str, ray_df: pd.DataFrame, ora_df: pd.DataFrame) -> list[str]:
    problems = []
    if len(ray_df) != len(ora_df):
        problems.append(f"rowcount ray={len(ray_df)} oracle={len(ora_df)}")
    if sorted(ray_df.columns) != sorted(ora_df.columns):
        problems.append(f"schema ray={sorted(ray_df.columns)} oracle={sorted(ora_df.columns)}")
        return problems
    # driver's hash is dtype-sensitive: int64 42 vs float64 42.0 mismatch —
    # flag kind differences BEFORE the value-compare coercion
    for c in sorted(ray_df.columns):
        ka = "f" if pd.api.types.is_float_dtype(ray_df[c]) else ("i" if pd.api.types.is_integer_dtype(ray_df[c]) else None)
        kb = "f" if pd.api.types.is_float_dtype(ora_df[c]) else ("i" if pd.api.types.is_integer_dtype(ora_df[c]) else None)
        if ka is not None and kb is not None and ka != kb:
            problems.append(f"col {c}: dtype kind ray={ray_df[c].dtype} oracle={ora_df[c].dtype} (driver hash mismatch)")
    a, b = normalize(ray_df), normalize(ora_df)
    if len(a) == len(b):
        for c in a.columns:
            if pd.api.types.is_datetime64_any_dtype(a[c]):
                av = a[c].values.astype("int64")  # NaT → same sentinel both sides
                bv = b[c].values.astype("int64")
                if not (av == bv).all():
                    i = int(np.argmax(av != bv))
                    problems.append(f"col {c}: {np.count_nonzero(av != bv)} diffs, first ray={a[c].values[i]!r} oracle={b[c].values[i]!r}")
            elif pd.api.types.is_float_dtype(a[c]):
                av, bv = a[c].values, b[c].values
                ok = (np.isnan(av) & np.isnan(bv)) | (av == bv)
                if not ok.all():
                    i = int(np.argmax(~ok))
                    problems.append(f"col {c}: {np.count_nonzero(~ok)} diffs, first ray={av[i]!r} oracle={bv[i]!r}")
            else:
                if not (a[c].values == b[c].values).all():
                    neq = a[c].values != b[c].values
                    i = int(np.argmax(neq))
                    problems.append(f"col {c}: {np.count_nonzero(neq)} diffs, first ray={a[c].values[i]!r} oracle={b[c].values[i]!r}")
    return problems


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    ray.init(address="local", num_cpus=len(os.sched_getaffinity(0)), include_dashboard=False, ignore_reinit_error=True)
    sys.path.insert(0, ".")
    import __ray_entry__ as e

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    qs, oracles = e.queries(), e.oracle_sql()
    # one untimed Ray Data job first, so Ray's worker and executor start-up
    # is not charged to whichever query runs first
    ray.data.range(8, override_num_blocks=2).map_batches(lambda b: b).take_all()
    n_pass = n_fail = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            ray_df = to_pandas(fn(sf_dir))
        except Exception as ex:
            print(f"FAIL {name}: ray error: {type(ex).__name__}: {ex}")
            n_fail += 1
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"ok   {name}: rows-only ({len(ray_df)} rows, {dt:.1f}s)")
            n_pass += 1
            continue
        try:
            ora_df = con.sql(oracles[name]).df()
        except Exception as ex:
            print(f"FAIL {name}: oracle SQL error: {ex}")
            n_fail += 1
            continue
        problems = compare(name, ray_df, ora_df)
        if problems:
            print(f"FAIL {name} ({dt:.1f}s): " + "; ".join(problems))
            n_fail += 1
        else:
            print(f"PASS {name} ({len(ray_df)} rows, {dt:.1f}s)")
            n_pass += 1
    print(f"\n{n_pass} pass, {n_fail} fail")
    ray.shutdown()
    return 1 if n_fail else 0


if __name__ == "__main__":
    raise SystemExit(main())
