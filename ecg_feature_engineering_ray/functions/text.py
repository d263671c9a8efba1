"""Text-analysis kernels for the documents table (training-data pipeline ops).

Deduplication fingerprints (exact md5, MinHash, SimHash, shingles), token
statistics, a stopword language-ID heuristic and a quality score.  All
hashes are md5-derived so the DuckDB oracle (``md5()``) can reproduce the
SQL-expressible ones exactly; tokenization is a plain single-space split to
match ``string_split(text, ' ')``.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .hashing import md5_hex, md5_u64


def tokens(text: str) -> list[str]:
    """Split on single spaces — EXACTLY DuckDB ``string_split(text, ' ')``."""
    return text.split(" ")


def token_count(text: str) -> int:
    return len(tokens(text))


def fingerprint_md5(text: str) -> str:
    """Exact-dedup fingerprint (oracle: ``md5(text)``)."""
    return md5_hex(text)


_U64_MAX = np.uint64(0xFFFFFFFFFFFFFFFF)


def minhash_matrix(gram_lists: "list[list[str]]", num_perm: int) -> np.ndarray:
    """(n_docs, num_perm) uint64 MinHash matrix — vectorized batch kernel.

    Permutation ``p``'s hash of gram ``g`` is ``(a + p·b) mod 2**64`` with
    ``(a, b)`` the little-endian 8-byte halves of ``md5(g)`` — Kirsch-
    Mitzenmacher double hashing, bit-exact with DuckDB::

        CAST((CAST(md5_number_upper(g) AS HUGEINT)
              + p * CAST(md5_number_lower(g) AS HUGEINT))
             % 18446744073709551616 AS UBIGINT)

    Each DISTINCT gram in the batch is md5'd ONCE (dict-memoized across the
    whole batch); permutation derivation and per-doc minima are numpy
    (uint64 wraparound + ``minimum.reduceat`` over doc segments).  Duplicate
    grams within a doc are harmless — min is set-semantic.  A doc with no
    grams gets the all-(2**64−1) sentinel row.  Replaces the per-
    (perm × gram) Python ``md5_hex`` loop that dominated minhash CPU at
    scale (the signature pass is the whole-corpus stage of LSH dedup).
    """
    n_docs = len(gram_lists)
    out = np.full((n_docs, num_perm), _U64_MAX, dtype=np.uint64)
    index: dict[str, int] = {}
    lut_a: list[int] = []
    lut_b: list[int] = []
    # per-doc DISTINCT gram ids (duplicate instances are redundant under
    # min) — on low-entropy corpora this shrinks the hash matrix ~4-5×
    inv: list[int] = []
    counts = np.zeros(n_docs, dtype=np.int64)
    for i, grams in enumerate(gram_lists):
        seen: set[int] = set()
        for g in grams:
            k = index.get(g)
            if k is None:
                k = len(index)
                index[g] = k
                d = hashlib.md5(g.encode("utf-8")).digest()
                lut_a.append(int.from_bytes(d[:8], "little"))
                lut_b.append(int.from_bytes(d[8:16], "little"))
            elif k in seen:
                continue
            seen.add(k)
            inv.append(k)
        counts[i] = len(seen)
    if not inv:
        return out
    ix = np.array(inv, dtype=np.int64)
    A = np.array(lut_a, dtype=np.uint64)[ix]
    B = np.array(lut_b, dtype=np.uint64)[ix]
    P = np.arange(num_perm, dtype=np.uint64)
    with np.errstate(over="ignore"):
        H = A[:, None] + P[None, :] * B[:, None]
    nonempty = counts > 0
    starts = (np.cumsum(counts) - counts)[nonempty]
    out[nonempty] = np.minimum.reduceat(H, starts, axis=0)
    return out


def shingle_lists(texts: "list[str]", n: int = 5) -> "list[list[str]]":
    """Char n-gram lists per text for :func:`minhash_matrix`.

    Matches the SQL gram generator ``substr(text, i, n)`` for
    ``i <= greatest(length(text) - n + 1, 1)``: texts shorter than ``n``
    yield themselves as their only gram; empty texts yield no grams."""
    out = []
    for t in texts:
        if len(t) < n:
            out.append([t] if t else [])
        else:
            out.append([t[i : i + n] for i in range(len(t) - n + 1)])
    return out


def simhash64_batch(texts: "list[str]") -> np.ndarray:
    """Vectorized batch SimHash — bit-identical to the original per-token
    loop (each token's md5_u64 bit i votes ±1 on bit i; final bit b_i set
    when the vote sum is > 0; packed with shift-0 as the MSB).

    Each DISTINCT token in the batch is md5'd ONCE; per-doc vote sums are a
    ``reduceat`` over instance bit rows (multiplicity preserved — SimHash
    weights repeated tokens, unlike MinHash).  ``split(" ")`` always yields
    ≥ 1 token (the empty text votes with md5(""), exactly like the
    original loop).  Returns int64."""
    n_docs = len(texts)
    index: dict[str, int] = {}
    lut: list[int] = []
    inv: list[int] = []
    counts = np.zeros(n_docs, dtype=np.int64)
    for i, t in enumerate(texts):
        toks = t.split(" ")
        for g in toks:
            k = index.get(g)
            if k is None:
                k = len(index)
                index[g] = k
                lut.append(md5_u64(g))
            inv.append(k)
        counts[i] = len(toks)
    if not index:
        return np.zeros(n_docs, dtype=np.int64)
    U = np.array(lut, dtype=np.uint64)
    shifts = np.arange(64, dtype=np.uint64)
    votes = (2 * ((U[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int64)) - 1
    ix = np.array(inv, dtype=np.int64)
    starts = np.cumsum(counts) - counts  # every doc has ≥ 1 token
    acc = np.add.reduceat(votes[ix], starts, axis=0)
    weights = np.uint64(1) << (np.uint64(63) - shifts)  # shift 0 → MSB
    vals = ((acc > 0).astype(np.uint64) * weights).sum(axis=1, dtype=np.uint64)
    return vals.view(np.int64)


def char_ngrams(text: str, n: int = 5) -> set[str]:
    """Character shingles (n-gram Jaccard dedup unit)."""
    if len(text) < n:
        return {text} if text else set()
    return {text[i : i + n] for i in range(len(text) - n + 1)}


def token_ngrams(text: str, n: int = 3) -> set[str]:
    """Word n-grams (space-joined) — the n-gram Jaccard dedup unit.

    A doc with fewer than ``n`` tokens has NO grams (matches the SQL
    positional self-join oracle, which produces zero rows for it), unlike
    ``char_ngrams`` which falls back to the whole text.
    """
    toks = tokens(text)
    if len(toks) < n:
        return set()
    return {" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)}


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    u = len(a | b)
    return len(a & b) / u if u else 0.0


def rolling_fingerprint(text: str, window: int = 16, keep_mod: int = 8) -> list[int]:
    """Winnowing-style document fingerprint: rolling-hash windows, keep hashes
    ≡ 0 (mod keep_mod).  Reference analog: none (training-data extension)."""
    return rolling_fingerprints_batch([text], window=window, keep_mod=keep_mod)[0]


def rolling_fingerprints_batch(texts: "list[str]", window: int = 16,
                               keep_mod: int = 8) -> "list[list[int]]":
    """Batch winnowing with cross-doc window memoization: each DISTINCT
    window string in the batch is md5'd once (duplicated/boilerplate spans —
    the whole point of winnowing — repeat windows heavily, so the memo
    removes most of the hash cost).  Per-doc output is identical to
    :func:`rolling_fingerprint`: the sorted set of 32-bit window hashes
    ≡ 0 (mod keep_mod); short texts hash whole, empty texts have none."""
    memo: dict[str, int] = {}
    out: list[list[int]] = []
    for t in texts:
        if len(t) < window:
            out.append([md5_u64(t) % (1 << 32)] if t else [])
            continue
        fps: set[int] = set()
        for i in range(len(t) - window + 1):
            w = t[i : i + window]
            h = memo.get(w)
            if h is None:
                h = memo[w] = md5_u64(w) % (1 << 32)
            if h % keep_mod == 0:
                fps.add(h)
        out.append(sorted(fps))
    return out


_STOPWORDS = {
    "en": {"the", "a", "of", "and", "to", "in", "is", "that", "it", "for"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "zu", "mit", "von"},
    "fr": {"le", "la", "les", "de", "et", "est", "un", "une", "que", "pour"},
    "es": {"el", "la", "los", "de", "y", "es", "un", "una", "que", "por"},
}


def lang_id(text: str) -> str:
    """Stopword-ratio language heuristic → best of {en,de,fr,es} or 'und'."""
    toks = [t.lower() for t in tokens(text)]
    if not toks:
        return "und"
    best, best_score = "und", 0.0
    for lang, sw in _STOPWORDS.items():
        score = sum(1 for t in toks if t in sw) / len(toks)
        if score > best_score:
            best, best_score = lang, score
    return best if best_score > 0.0 else "und"


def quality_score(text: str) -> float:
    """Heuristic quality in [0,1]: length band, mean word length band,
    alpha ratio (C4/Gopher-style public heuristics, simplified)."""
    if not text:
        return 0.0
    toks = [t for t in tokens(text) if t]
    if not toks:
        return 0.0
    n_chars = len(text)
    mean_wl = np.mean([len(t) for t in toks])
    alpha_ratio = sum(c.isalpha() or c == " " for c in text) / n_chars
    s = 0.0
    s += 0.4 if 50 <= n_chars <= 100_000 else 0.1
    s += 0.3 if 3 <= mean_wl <= 12 else 0.05
    s += 0.3 * alpha_ratio
    return float(round(min(s, 1.0), 6))


def bpe_ish_token_count(text: str) -> int:
    """Sub-word-ish token estimate: whitespace tokens + extra tokens for long
    words (every 4 chars beyond 8 starts a new piece) — a deterministic,
    vocabulary-free stand-in for BPE counting."""
    n = 0
    for t in tokens(text):
        n += 1 + max(0, (len(t) - 8) + 3) // 4 if len(t) > 8 else 1
    return n
