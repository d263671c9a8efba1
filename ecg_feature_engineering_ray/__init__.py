"""Ray-Data-native point-in-time feature engine.

A from-scratch engine (NOT a port) with the query/data-processing
capabilities of hhc1997/ECG-Feature-Engineering, re-expressed as
``ray.data.Dataset`` pipelines:

- ``sources``   — table readers/writers (fragmented parquet, Lance when available),
                  deterministic fixture generator for the image+caption input table.
- ``functions`` — pure numpy / pyarrow kernels (stats, spectral, wavelet, entropy,
                  codec, text, hashing).  These are the vectorized re-statements of
                  the reference's per-record formulas (see SURVEY.md §2.4).
- ``stages``    — Ray Data stage builders: entity-bucket partitioning and the one
                  two-sided join plan, windows / lag-lead, sessionization, as-of,
                  shuffle and interval joins, grouped aggregation, decode tasks.
- ``pipelines`` — end-to-end compositions (flagship point-in-time feature pipeline,
                  feature-family extraction + join).
- ``state``     — per-partition checkpoint manifests (lineage, watermark, metrics)
                  and resume logic.

Nothing in this package calls ``ray.init()`` / ``ray.shutdown()``; the caller
owns the Ray session.
"""

__version__ = "0.1.0"
