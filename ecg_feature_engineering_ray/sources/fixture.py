"""Deterministic synthetic image+caption event table (the north-star input).

Generates the exact ``input_hint`` schema (BASELINE.json):

    image_id: string, bytes: binary, w: int32, h: int32, fmt: string,
    caption: string, phash: int64, ts: timestamp[us]

Plants (FIXTURES.md F1) so every hard path has ground truth:
- **skew**: one hot entity holds ``hot_frac`` (default 30%) of all rows, and
  5% of entities share one phash bucket;
- **out-of-order**: 10% of rows arrive shuffled behind later rows of the
  same entity (backfill fixture);
- **session gaps**: inter-event gaps are 50–500 ms within a session and
  >30 s at seeded session breaks (gap-sessionization ground truth —
  reference analog: beat segmentation, /root/reference/extract_SHORT.py:56).

Output is written as a **fragmented parquet dataset** (``frag-%05d.parquet``)
standing in for Lance fragments (the ``lance`` package is absent in this
container; ``read_events`` transparently uses Lance when importable).
Everything is keyed by (seed, image_id, event index) — no global RNG state,
so generation is reproducible and parallelizable.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..functions.codec import CHUNK_BYTES, ahash64, encode_image
from ..functions.hashing import md5_u64

LABELS = ["AF", "I-AVB", "LBBB", "Normal", "PAC", "PVC", "RBBB", "STD", "STE"]
SESSION_GAP_US = 30_000_000  # > 30 s ⇒ new session
BASE_TS_US = 1_700_000_000_000_000  # 2023-11-14T22:13:20Z
SCHEMA = pa.schema(
    [
        ("image_id", pa.string()),
        ("bytes", pa.binary()),
        ("w", pa.int32()),
        ("h", pa.int32()),
        ("fmt", pa.string()),
        ("caption", pa.string()),
        ("phash", pa.int64()),
        ("ts", pa.timestamp("us")),
    ]
)


def _entity_rng(seed: int, image_id: str) -> np.random.Generator:
    return np.random.default_rng((seed * 0x9E3779B9 + md5_u64(image_id)) % (1 << 63))


def _make_pixels(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """Seeded gradient + noise image (FIXTURES.md F1 'bytes' rule)."""
    yy, xx = np.mgrid[0:h, 0:w]
    base = ((yy * 255 // max(h - 1, 1) + xx * 255 // max(w - 1, 1)) // 2).astype(np.int32)
    img = np.stack([base, (base + 60) % 256, (base + 120) % 256], axis=2)
    noise = rng.integers(-25, 26, size=(h, w, 3))
    return np.clip(img + noise, 0, 255).astype(np.uint8)


def generate_entity_rows(image_id: str, n_events: int, seed: int,
                         dim_choices=(32, 64, 128)) -> pa.Table:
    """All rows of one entity, in ts order."""
    rng = _entity_rng(seed, image_id)
    dim = int(rng.choice(list(dim_choices)))
    fmt = "png" if rng.random() < 0.7 else "jpeg"
    n_labels = int(rng.integers(1, 4))
    caption = ",".join(sorted(rng.choice(LABELS, size=n_labels, replace=False)))

    # inter-event gaps: RR-like 50–500 ms, with ~8% session breaks of 30–300 s
    gaps_ms = rng.uniform(50, 500, size=n_events)
    breaks = rng.random(n_events) < 0.08
    gaps_ms[breaks] = rng.uniform(31_000, 300_000, size=int(breaks.sum()))
    gaps_ms[0] = rng.uniform(0, 1000)
    ts = BASE_TS_US + np.cumsum(gaps_ms * 1000.0).astype(np.int64)

    blobs, phashes = [], np.empty(n_events, dtype=np.int64)
    per = max(1, CHUNK_BYTES // (dim * dim * 3))  # images hashed per call
    for start in range(0, n_events, per):
        px = np.stack([_make_pixels(rng, dim, dim) for _ in range(min(per, n_events - start))])
        blobs += [encode_image(p, fmt) for p in px]
        phashes[start: start + len(px)] = ahash64(px)
    return pa.table(
        {
            "image_id": pa.array([image_id] * n_events, pa.string()),
            "bytes": pa.array(blobs, pa.binary()),
            "w": pa.array([dim] * n_events, pa.int32()),
            "h": pa.array([dim] * n_events, pa.int32()),
            "fmt": pa.array([fmt] * n_events, pa.string()),
            "caption": pa.array([caption] * n_events, pa.string()),
            "phash": pa.array(phashes, pa.int64()),
            "ts": pa.array(ts, pa.timestamp("us")),
        },
        schema=SCHEMA,
    )


def generate_events(
    out_dir: str,
    n_entities: int = 200,
    seed: int = 42,
    hot_frac: float = 0.30,
    n_fragments: int = 8,
    out_of_order_frac: float = 0.10,
) -> dict:
    """Write the fragmented event table; returns a manifest dict.

    Row counts per entity are log-normal (median ~40, min 8); the first
    entity (``img00000000``) is the planted hot key sized to ``hot_frac`` of
    all rows.  5% of entities get a shared phash (the hot phash bucket).
    Rows are interleaved across fragments in *arrival* order with
    ``out_of_order_frac`` of rows displaced behind later rows — the
    backfill/late-data plant.
    """
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    counts = np.maximum(8, np.round(np.exp(rng.normal(np.log(40), 0.6, n_entities)))).astype(int)
    normal_total = counts[1:].sum()
    counts[0] = max(8, int(hot_frac / (1 - hot_frac) * normal_total))
    ids = [f"img{k:08d}" for k in range(n_entities)]

    tables = [generate_entity_rows(ids[k], int(counts[k]), seed) for k in range(n_entities)]

    # shared-phash plant: 5% of entities collapse onto entity 1's first phash
    if n_entities >= 20:
        shared = int(tables[1].column("phash")[0].as_py())
        for k in range(2, n_entities, 20):
            t = tables[k]
            tables[k] = t.set_column(
                t.schema.get_field_index("phash"),
                "phash",
                pa.array([shared] * t.num_rows, pa.int64()),
            )

    full = pa.concat_tables(tables)
    # arrival order: mostly ts-interleaved, with a planted out-of-order tail
    order = np.argsort(np.asarray(full.column("ts").cast(pa.int64())), kind="stable")
    n = len(order)
    n_late = int(out_of_order_frac * n)
    if n_late:
        late_pick = rng.choice(n, size=n_late, replace=False)
        late_mask = np.zeros(n, dtype=bool)
        late_mask[late_pick] = True
        arrival = np.concatenate([order[~late_mask[order]], order[late_mask[order]]])
    else:
        arrival = order
    full = full.take(pa.array(arrival))

    bounds = np.linspace(0, n, n_fragments + 1).astype(int)
    frag_paths = []
    for i in range(n_fragments):
        p = os.path.join(out_dir, f"frag-{i:05d}.parquet")
        pq.write_table(full.slice(bounds[i], bounds[i + 1] - bounds[i]), p)
        frag_paths.append(p)
    manifest = {
        "n_entities": n_entities,
        "n_rows": n,
        "seed": seed,
        "hot_entity": ids[0],
        "fragments": frag_paths,
    }
    return manifest


def generate_asof_queries(events_dir: str, out_path: str, n_queries: int = 300, seed: int = 43) -> pa.Table:
    """Left side of the point-in-time join (FIXTURES.md F2).

    Mixes exactly-at-event, between-events, before-first and after-last
    timestamps, plus 2% unknown entities (no-match path).
    """
    import pyarrow.dataset as pads  # noqa: PLC0415

    ds = pads.dataset(events_dir, format="parquet")
    t = ds.to_table(columns=["image_id", "ts"])
    rng = np.random.default_rng(seed)
    ids = t.column("image_id").to_pylist()
    ts = np.asarray(t.column("ts").cast(pa.int64()))
    # group event times by entity once (bench-scale fixtures have 100k+ rows)
    d = pa.chunked_array([pa.array(ids)]).combine_chunks().dictionary_encode()
    idx = np.asarray(d.indices)
    names = d.dictionary.to_pylist()
    order = np.argsort(idx, kind="stable")
    sidx, sts = idx[order], ts[order]
    cuts = np.concatenate(
        (np.flatnonzero(np.concatenate(([True], sidx[1:] != sidx[:-1]))), [len(sidx)])
    )
    by_id = {
        names[sidx[cuts[i]]]: np.sort(sts[cuts[i] : cuts[i + 1]]) for i in range(len(cuts) - 1)
    }
    uniq = sorted(by_id)
    q_ids, q_ts = [], []
    for _ in range(n_queries):
        r = rng.random()
        if r < 0.02:
            q_ids.append(f"unknown{rng.integers(0, 1000):04d}")
            q_ts.append(BASE_TS_US + int(rng.integers(0, 10_000_000_000)))
            continue
        e = uniq[int(rng.integers(0, len(uniq)))]
        ets = by_id[e]
        kind = rng.random()
        if kind < 0.25:
            q_ts.append(int(ets[rng.integers(0, ets.size)]))       # exactly at event (tie)
        elif kind < 0.6 and ets.size >= 2:
            j = int(rng.integers(0, ets.size - 1))
            q_ts.append(int((ets[j] + ets[j + 1]) // 2))            # between events
        elif kind < 0.8:
            q_ts.append(int(ets[0] - rng.integers(1, 10_000_000)))  # before first
        else:
            q_ts.append(int(ets[-1] + rng.integers(1, 10_000_000))) # after last
        q_ids.append(e)
    out = pa.table(
        {"image_id": pa.array(q_ids, pa.string()), "as_of_ts": pa.array(q_ts, pa.timestamp("us"))}
    )
    if out_path:
        pq.write_table(out, out_path)
    return out
