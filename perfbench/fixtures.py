"""Seeded benchmark inputs: the image event fixture and the relational tables.

Everything here is a pure function of ``seed`` and a size profile, written
into a run-scoped directory, so the same seed gives the same files and no run
sees another run's state.  The engine only ever receives the written files.

Image events are rendered by the engine's own fixture generator
(``sources.fixture.generate_entity_rows``).  The benchmark fixes the total row
count and rotates image sizes over entities, so a new seed changes which
entity is long or short and what its images hold, but not how much work a run
does; that keeps run-to-run spread down to what the engine itself adds.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

DATE0_US = 788_918_400_000_000  # 1995-01-01T00:00:00Z
EVENTS0_US = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z
DAY_US = 86_400_000_000


@dataclass(frozen=True)
class ImageProfile:
    """Size of one image-event fixture (see BENCHMARK.json for each workload's)."""

    n_entities: int
    total_rows: int  # rows over all entities, hot entity included
    sigma: float  # log-normal spread of per-entity row counts
    dims: tuple  # image sizes, rotated over the non-hot entities by row count
    hot_frac: float  # share of rows held by entity 0
    hot_dim: int
    n_queries: int
    sampen_cap: int
    buckets: int
    n_fragments: int = 4
    n_late: int = 3  # non-hot entities whose rows form the late fragment


MIN_ROWS = 4  # rows every entity gets before the log-normal share


def _entity_counts(p: ImageProfile, rng: np.random.Generator) -> np.ndarray:
    """Per-entity row counts summing to ``total_rows``: entity 0 holds
    ``hot_frac`` of them, the others ``MIN_ROWS`` plus a log-normal share of
    the rest (largest-remainder rounding).  With ``hot_frac`` 0, entity 0 is
    drawn like the others."""
    hot = int(round(p.hot_frac * p.total_rows))
    n = p.n_entities - 1 if hot else p.n_entities
    spare = p.total_rows - hot - MIN_ROWS * n
    if spare < 0:
        raise ValueError("profile too small for MIN_ROWS rows per entity")
    w = np.exp(rng.normal(0.0, p.sigma, n))
    exact = w / w.sum() * spare
    counts = np.floor(exact).astype(np.int64)
    short = spare - int(counts.sum())
    counts[np.argsort(exact - counts)[::-1][:short]] += 1
    counts += MIN_ROWS
    return np.concatenate(([hot], counts)) if hot else counts


def _render_part(specs: list, seed: int, path: str) -> None:
    from ecg_feature_engineering_ray.sources.fixture import generate_entity_rows  # noqa: PLC0415

    tables = [generate_entity_rows(i, n, seed, dim_choices=(d,)) for i, n, d in specs]
    tbl = pa.concat_tables(tables)
    # arrival order: ts-interleaved within the fragment, like a stream
    order = np.argsort(np.asarray(tbl.column("ts").cast(pa.int64())), kind="stable")
    pq.write_table(tbl.take(pa.array(order)), path)


def make_image_fixture(root: str, seed: int, p: ImageProfile) -> dict:
    """Write ``root/ev`` (fragments), ``root/late`` (held-back fragment) and
    ``root/queries.parquet``.  Returns the layout and the row counts.

    The late fragment holds every row of ``n_late`` non-hot entities; the
    as-of queries are drawn over all events, late ones included.
    """
    import ray  # noqa: PLC0415

    from ecg_feature_engineering_ray.sources.fixture import generate_asof_queries  # noqa: PLC0415

    rng = np.random.default_rng(seed)
    counts = _entity_counts(p, rng)
    ids = [f"img{k:08d}" for k in range(p.n_entities)]
    # image sizes rotate over the entities in order of row count, so each size
    # holds about the same share of rows whatever the seed
    first = 1 if p.hot_frac else 0
    dims = [p.hot_dim] * p.n_entities
    for j, k in enumerate(first + np.argsort(counts[first:], kind="stable")):
        dims[k] = p.dims[j % len(p.dims)]
    late = set(rng.choice(np.arange(1, p.n_entities), size=p.n_late, replace=False).tolist())
    main = [k for k in range(p.n_entities) if k not in late]

    # balance render cost (rows × pixels) over the fragments, heaviest first
    cost = {k: counts[k] * dims[k] ** 2 for k in main}
    parts: list[list] = [[] for _ in range(p.n_fragments)]
    load = np.zeros(p.n_fragments)
    for k in sorted(main, key=lambda k: -cost[k]):
        j = int(np.argmin(load))
        parts[j].append((ids[k], int(counts[k]), dims[k]))
        load[j] += cost[k]
    ev_dir, late_dir = os.path.join(root, "ev"), os.path.join(root, "late")
    os.makedirs(ev_dir, exist_ok=True)
    os.makedirs(late_dir, exist_ok=True)
    late_tmp = os.path.join(ev_dir, "frag-late.parquet")
    jobs = [(specs, os.path.join(ev_dir, f"frag-{j:05d}.parquet")) for j, specs in enumerate(parts)]
    jobs.append(([(ids[k], int(counts[k]), dims[k]) for k in sorted(late)], late_tmp))
    render = ray.remote(_render_part)
    ray.get([render.remote(specs, seed, path) for specs, path in jobs])

    q_path = os.path.join(root, "queries.parquet")
    generate_asof_queries(ev_dir, q_path, n_queries=p.n_queries, seed=seed + 1)
    late_path = os.path.join(late_dir, "frag-late.parquet")
    os.replace(late_tmp, late_path)
    return {"events_dir": ev_dir, "late_fragment": late_path, "queries": q_path}


# ---------------------------------------------------------------------------
# relational tables for the query mix (TPC-H-like star schema + events,
# documents, embeddings — the column sets the registered queries read)

WORDS = (
    "join hash row batch scan column customer filter small slow merge order vector "
    "line table data agg value key stream window a spark part group big sort query "
    "fast the"
).split()
LANGS = ["en", "zh", "es", "de", "fr"]
LANG_P = [0.44, 0.14, 0.14, 0.14, 0.14]
EVENT_TYPES = ["signup", "error", "click", "view", "purchase"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]


@dataclass(frozen=True)
class TableProfile:
    customers: int
    orders: int
    lineitems: int
    events: int
    users: int
    documents: int
    embeddings: int
    dim: int = 64


def _ts(us: np.ndarray) -> pa.Array:
    return pa.array(us.astype(np.int64), pa.timestamp("us"))


def make_tables(out_dir: str, seed: int, p: TableProfile) -> None:
    """Write ``{out_dir}/{name}.parquet`` for every table the query mix reads."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng([seed, 7])
    t: dict[str, pa.Table] = {}
    t["nation"] = pa.table({
        "n_nationkey": pa.array(np.arange(25), pa.int32()),
        "n_name": pa.array([f"NATION_{i}" for i in range(25)]),
        "n_regionkey": pa.array(np.arange(25) % 5, pa.int32()),
    })
    t["customer"] = pa.table({
        "c_custkey": pa.array(np.arange(p.customers), pa.int64()),
        "c_name": pa.array([f"Customer#{i:09d}" for i in range(p.customers)]),
        "c_nationkey": pa.array(rng.integers(0, 25, p.customers), pa.int32()),
        "c_acctbal": pa.array(np.round(rng.uniform(-999.99, 9999.99, p.customers), 2)),
        "c_mktsegment": pa.array(rng.choice(SEGMENTS, p.customers)),
    })
    odate = DATE0_US + rng.integers(0, 2404, p.orders) * DAY_US
    t["orders"] = pa.table({
        "o_orderkey": pa.array(np.arange(p.orders), pa.int64()),
        "o_custkey": pa.array(rng.integers(0, p.customers, p.orders), pa.int64()),
        "o_orderstatus": pa.array(rng.choice(["F", "O", "P"], p.orders)),
        "o_totalprice": pa.array(np.round(rng.uniform(1000.0, 500000.0, p.orders), 2)),
        "o_orderdate": _ts(odate),
        "o_orderpriority": pa.array(rng.choice(PRIORITIES, p.orders)),
    })
    lo = rng.integers(0, p.orders, p.lineitems)
    qty = rng.integers(1, 51, p.lineitems).astype(np.float64)
    t["lineitem"] = pa.table({
        "l_orderkey": pa.array(lo, pa.int64()),
        "l_partkey": pa.array(rng.integers(0, max(p.orders // 7, 1), p.lineitems), pa.int64()),
        "l_suppkey": pa.array(rng.integers(0, 100, p.lineitems), pa.int64()),
        "l_linenumber": pa.array(rng.integers(1, 8, p.lineitems), pa.int32()),
        "l_quantity": pa.array(qty),
        "l_extendedprice": pa.array(np.round(qty * rng.uniform(900.0, 2100.0, p.lineitems), 2)),
        "l_discount": pa.array(rng.integers(0, 11, p.lineitems) / 100.0),
        "l_tax": pa.array(rng.integers(0, 9, p.lineitems) / 100.0),
        "l_returnflag": pa.array(rng.choice(["A", "N", "R"], p.lineitems)),
        "l_linestatus": pa.array(rng.choice(["F", "O"], p.lineitems)),
        "l_shipdate": _ts(odate[lo] + rng.integers(1, 122, p.lineitems) * DAY_US),
    })
    ets = np.sort(EVENTS0_US + rng.integers(0, 30 * DAY_US, p.events))
    t["events"] = pa.table({
        "event_id": pa.array(np.arange(p.events), pa.int64()),
        "ts": _ts(ets),
        "user_id": pa.array(rng.integers(0, p.users, p.events), pa.int64()),
        "event_type": pa.array(rng.choice(EVENT_TYPES, p.events)),
        "value": pa.array(np.maximum(np.round(rng.exponential(50.0, p.events), 2), 0.01)),
        "props": pa.array([f'{{"k": {k}}}' for k in rng.integers(0, 100, p.events)]),
    })
    n_words = rng.integers(10, 100, p.documents)
    texts = [" ".join(rng.choice(WORDS, n)) for n in n_words]
    for i in rng.choice(p.documents, max(p.documents // 20, 1), replace=False):
        texts[i] += " dup"
    t["documents"] = pa.table({
        "doc_id": pa.array(np.arange(p.documents), pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(rng.choice(LANGS, p.documents, p=LANG_P)),
        "source": pa.array([f"src{i % 20}" for i in range(p.documents)]),
        "n_chars": pa.array([len(s) for s in texts], pa.int64()),
    })
    centers = rng.normal(0.0, 1.0, (10, p.dim))
    labels = rng.integers(0, 10, p.embeddings)
    x = centers[labels] + rng.normal(0.0, 0.8, (p.embeddings, p.dim))
    x = (x / np.linalg.norm(x, axis=1, keepdims=True)).astype(np.float32)
    t["embeddings"] = pa.table({
        "vec_id": pa.array(np.arange(p.embeddings), pa.int64()),
        "embedding": pa.array(list(x), pa.list_(pa.float32())),
        "label": pa.array(labels, pa.int32()),
    })
    for name, tbl in t.items():
        pq.write_table(tbl, os.path.join(out_dir, f"{name}.parquet"))


def dir_digest(path: str) -> str:
    """md5 over the bytes of every file under ``path`` (sorted walk)."""
    h = hashlib.md5()
    for base, dirs, files in sorted(os.walk(path)):
        dirs.sort()
        for f in sorted(files):
            full = os.path.join(base, f)
            h.update(os.path.relpath(full, path).encode())
            with open(full, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()
