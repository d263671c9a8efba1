"""ngram_jaccard_pairs: prefix-filter candidate completeness + exact verify.

Two independent gates: (1) the full pipeline equals a brute-force all-pairs
python oracle on a planted adversarial corpus (exact dups, just-above and
just-below threshold pairs, <3-token docs, disjoint background); (2) a
hypothesis test of the core AllPairs/PPJoin lemma as implemented — for any
pair with J(A,B) ≥ τ, the md5-ordered prefixes of length
|X| − ⌈τ·|X|⌉ + 1 (integer ceil) intersect, so candidate generation has no
false negatives by construction.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecg_feature_engineering_ray.functions.hashing import md5_hex
from ecg_feature_engineering_ray.functions.text import jaccard, token_ngrams
from ecg_feature_engineering_ray.pipelines.queries import ngram_jaccard_pairs, rnd

TAU_NUM, TAU_DEN = 3, 5


def _brute_pairs(texts_by_id: dict[int, str]) -> set[tuple[int, int, float]]:
    out = set()
    ids = sorted(texts_by_id)
    for i, a in enumerate(ids):
        ga = token_ngrams(texts_by_id[a], 3)
        if not ga:
            continue  # <3-token docs have no grams: excluded on both sides
        for b in ids[i + 1 :]:
            gb = token_ngrams(texts_by_id[b], 3)
            if not gb:
                continue
            j = jaccard(ga, gb)
            if j >= TAU_NUM / TAU_DEN:
                out.add((a, b, float(rnd(j))))
    return out


def test_ngram_jaccard_matches_bruteforce(ray_session, tmp_path):
    words = [f"w{i}" for i in range(40)]
    base = " ".join(words)
    corpus: dict[int, str] = {
        0: base,                                   # exact-dup group {0,1}
        1: base,
        2: " ".join(words[:39] + ["zz"]),          # near 0/1, J just under 1
        3: " ".join(words[:20]),                   # prefix half: J ≈ 18/38 < 0.6 vs 0
        4: " ".join(words[:34]),                   # long prefix: J = 32/38 ≥ 0.6 vs 0
        5: "only two",                             # <3 tokens: no grams, never pairs
        6: "x y",                                  # second gramless doc (J=1 on empty
                                                   # sets must NOT leak a pair)
        7: " ".join(f"q{i}" for i in range(30)),   # disjoint background
        8: " ".join(f"r{i}" for i in range(30)),
    }
    # a clique of moderate similarity around a shared core
    core = [f"c{i}" for i in range(25)]
    for k in range(3):
        corpus[100 + k] = " ".join(core + [f"tail{k}", f"tail{k}b"])
    pq.write_table(
        pa.table({"doc_id": pa.array(sorted(corpus), pa.int64()),
                  "text": pa.array([corpus[k] for k in sorted(corpus)], pa.string())}),
        str(tmp_path / "documents.parquet"),
    )

    out = ngram_jaccard_pairs(str(tmp_path)).to_pandas()
    got = {(int(r.doc_a), int(r.doc_b), float(r.jaccard)) for r in out.itertuples()}
    want = _brute_pairs(corpus)
    assert got == want
    assert (0, 1, 1.0) in want            # sanity: the planted structure is live
    assert any(a == 0 and b == 4 for a, b, _ in want)
    assert all(not (a == 0 and b == 3) for a, b, _ in want)
    assert all(a not in (5, 6) and b not in (5, 6) for a, b, _ in want)


def test_ngram_bucket_cap_raises(ray_session, tmp_path):
    txt = "the same shared phrase repeated here " * 3
    pq.write_table(
        pa.table({"doc_id": pa.array(list(range(6)), pa.int64()),
                  "text": pa.array([txt] * 6, pa.string())}),
        str(tmp_path / "documents.parquet"),
    )
    with pytest.raises(Exception, match="max_bucket"):
        ngram_jaccard_pairs(str(tmp_path), max_bucket=1).materialize()


def _prefix(keys: list[str], n: int) -> list[str]:
    p = n - (TAU_NUM * n + TAU_DEN - 1) // TAU_DEN + 1
    return sorted(keys)[:p]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_prefix_lemma_no_false_negatives(data):
    """Any pair with J ≥ τ shares an md5-ordered prefix gram — the exact
    property candidate generation relies on, including the integer-ceil
    prefix length (float ceil(0.6·5)=4 would falsify this test)."""
    universe = [f"g{i}" for i in range(24)]
    a = data.draw(st.sets(st.sampled_from(universe), min_size=1))
    b = data.draw(st.sets(st.sampled_from(universe), min_size=1))
    j = jaccard(a, b)
    if j < TAU_NUM / TAU_DEN:
        return
    ka = [md5_hex(g)[:16] for g in a]
    kb = [md5_hex(g)[:16] for g in b]
    assert set(_prefix(ka, len(ka))) & set(_prefix(kb, len(kb))), (
        f"J={j} pair with disjoint prefixes: |A|={len(a)} |B|={len(b)}"
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_length_filter_no_false_negatives(data):
    """The AllPairs LENGTH filter keeps every pair with J ≥ τ: J(A,B) ≥ τ
    forces min(|A|,|B|)/max(|A|,|B|) ≥ τ, so the integer pruning test
    tau_den·min ≥ tau_num·max (as implemented in ngram_jaccard_pairs'
    ``_band_pairs`` pair function) never drops a true pair."""
    universe = [f"g{i}" for i in range(24)]
    a = data.draw(st.sets(st.sampled_from(universe), min_size=1))
    b = data.draw(st.sets(st.sampled_from(universe), min_size=1))
    j = jaccard(a, b)
    if j < TAU_NUM / TAU_DEN:
        return
    lo, hi = min(len(a), len(b)), max(len(a), len(b))
    assert TAU_DEN * lo >= TAU_NUM * hi, (
        f"J={j} pair pruned by length filter: |A|={len(a)} |B|={len(b)}"
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_positional_filter_no_false_negatives(data):
    """The PPJoin POSITIONAL filter keeps every pair with J >= tau: at any
    shared prefix gram with positions (i_a, i_b) in the canonically sorted
    gram lists, overlap <= min(i_a,i_b) + min(n_a-i_a, n_b-i_b), and J >= tau
    forces overlap >= alpha = ceil(tau_num*(n_a+n_b)/(tau_num+tau_den)) —
    so min(slack) over co-occurrences (as aggregated in ngram_jaccard_pairs)
    is never negative for a true pair."""
    universe = [f"g{i}" for i in range(24)]
    a = data.draw(st.sets(st.sampled_from(universe), min_size=1))
    b = data.draw(st.sets(st.sampled_from(universe), min_size=1))
    j = jaccard(a, b)
    if j < TAU_NUM / TAU_DEN:
        return
    ka = sorted(md5_hex(g)[:16] for g in a)
    kb = sorted(md5_hex(g)[:16] for g in b)
    na, nb = len(ka), len(kb)
    alpha = (TAU_NUM * (na + nb) + TAU_NUM + TAU_DEN - 1) // (TAU_NUM + TAU_DEN)
    pa_, pb_ = _prefix(ka, na), _prefix(kb, nb)
    shared = set(pa_) & set(pb_)
    assert shared  # prefix lemma, re-asserted so failures localize
    for g in shared:
        ia, ib = ka.index(g), kb.index(g)
        bound = min(ia, ib) + min(na - ia, nb - ib)
        assert bound - alpha >= 0, (
            f"J={j} pair killed by positional filter: bound={bound} alpha={alpha} "
            f"(|A|={na} i_a={ia}, |B|={nb} i_b={ib})"
        )
