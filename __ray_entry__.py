"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship point-in-time feature pipeline on sf0.001;
``queries()`` exposes every implemented operator/pipeline from SURVEY.md §2;
``oracle_sql()`` gives the DuckDB-equivalent SQL for the SQL-expressible ones
(same column names both sides — the driver hash-compares values).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in the library) calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: point-in-time (as-of)
    feature vectors for every 'error' event over the user's prior history."""
    from ecg_feature_engineering_ray.pipelines.queries import QUERIES

    return QUERIES["asof_error_features"]("/root/testdata/sf0.001")


# The per-round correctness artifact (CORRECTNESS_r0N.json) snapshots the
# FIRST 50 dict entries, so ordering is coverage policy: a query leaves the
# window only once such an artifact has recorded it passing.  Order: the
# queries with no recorded pass in CORRECTNESS_r04/r05, then the queries
# whose only recorded pass is r05's, in registry order.  Pushed past the
# window: the four with passes recorded in r02–r05 (minhash_signatures,
# near_dup_pairs, knn_ivf, qrs_features_family) and five kernel twins with
# an r05 pass (kernel_zigzag, kernel_thres_cross, kernel_mad_cov,
# kernel_poincare, kernel_bins).  The full registry is still run locally
# every round (CHECKS_local_r0N.txt).
_SNAPSHOT_FIRST = [
    # no recorded pass in r04/r05 (label_dim_join was last sampled in r03,
    # asof_windowed_features in r01)
    "label_dim_join", "asof_windowed_features", "rolling_time_window",
    "users_in_both_sources", "orders_only_customers", "revenue_share_by_nation",
    "kernel_autocorr", "events_since_purchase", "asof_nearest_event",
    # one recorded pass (r05)
    "kernel_yuxi", "kernel_session_rollup",
    "indicator_grid_hourly", "doc_fingerprints", "simhash_near_dups",
    "bernoulli_sample_docs", "hopping_window_counts", "approx_distinct_kmv",
    "stratified_sample_docs", "value_histogram", "heavy_hitter_tokens",
    "value_quantiles_by_type", "capped_docs_per_source", "top_docs_per_lang",
    "tfidf_top_terms", "dup_clusters", "join_late_shipments",
    "join_priority_revenue", "price_band_revenue", "event_session_join",
    "rank_events_per_user", "revenue_rollup", "event_type_pivot",
    "asof_next_event", "kmeans_embeddings", "top_event_type_per_user",
    "funnel_signup_purchase", "value_decile_assign", "rolling_active_users",
    "cohort_retention", "join_user_order_activity", "phash_near_dups",
    "zscore_by_type", "rolling_median7_per_user", "weighted_sample_docs",
    "decontaminate_docs", "doc_repetition_filter", "pack_sequences",
    "unigram_logprob_docs", "shuffle_shard_manifest", "pq_codes",
]


def queries() -> dict[str, Callable[[str], Any]]:
    from ecg_feature_engineering_ray.pipelines.queries import QUERIES

    ordered = {n: QUERIES[n] for n in _SNAPSHOT_FIRST if n in QUERIES}
    ordered.update({n: f for n, f in QUERIES.items() if n not in ordered})
    return ordered


def oracle_sql() -> dict[str, str]:
    from ecg_feature_engineering_ray.pipelines.queries import ORACLE

    return dict(ORACLE)
