"""Reference bucketing of per-user results, kept as the plain per-t loop.

`bucket_report` aggregates whole columns of per-user results; this loop
reads each user's record at one t at a time instead, and the two must
agree exactly. `mean_accuracy` is the per-t mean the report's buckets
average.
"""

from __future__ import annotations

import numpy as np

from spc import BucketReport, SpcError, run_user_stream


def user_results(streams, protos, strategy):
    """run_user_stream per user: results that hold the top-1, which
    run_streams does not take."""
    return {user: run_user_stream(records, protos, strategy)
            for user, records in streams.items()}


def columns(results):
    """Per user, the true classes, the upper-limit flags, the rank
    positions and the top-1 as lists, so dicts of results compare."""
    return {user: (r.true_class.tolist(), r.in_initial.tolist(),
                   r.in_union.tolist(), r.rank.tolist(),
                   None if r.predicted is None else r.predicted.tolist())
            for user, r in results.items()}


def mean_accuracy(results, t, k):
    """Fraction of users whose record at index t was a top-k hit.

    Users whose stream is shorter than t are excluded; if none reaches t,
    that is an error.
    """
    hits = [bool(r.rank[t - 1] < k) for r in results.values() if t <= len(r)]
    if not hits:
        raise SpcError(f"no user has a record at t={t}")
    return sum(hits) / len(hits)


def reference_bucket_report(results, bucket_width=50, k_list=(1, 5)):
    if not results or all(len(r) == 0 for r in results.values()):
        raise SpcError("no outcomes to report")
    if bucket_width < 1:
        raise SpcError("bucket width must be >= 1")
    lengths = {len(r) for r in results.values() if len(r)}
    T = max(lengths)
    ragged = len(lengths) > 1
    buckets = [(lo, min(lo + bucket_width - 1, T))
               for lo in range(1, T + 1, bucket_width)]
    partial = T % bucket_width != 0

    k_list = tuple(k_list)
    accuracy = {k: [] for k in k_list}
    in_initial, in_union = [], []
    cond_initial = {k: [] for k in k_list}
    cond_outside = {k: [] for k in k_list}
    for lo, hi in buckets:
        ts = range(lo, hi + 1)
        per_t_rates = {"init": [], "union": [], **{k: [] for k in k_list}}
        pool_in = {k: [] for k in k_list}
        pool_out = {k: [] for k in k_list}
        for t in ts:
            at_t = [r for r in results.values() if t <= len(r)]
            if not at_t:
                continue
            i = t - 1
            per_t_rates["init"].append(
                np.mean([bool(r.in_initial[i]) for r in at_t]))
            per_t_rates["union"].append(
                np.mean([bool(r.in_union[i]) for r in at_t]))
            for k in k_list:
                per_t_rates[k].append(
                    np.mean([bool(r.rank[i] < k) for r in at_t]))
            for r in at_t:
                pool = pool_in if r.in_initial[i] else pool_out
                for k in k_list:
                    pool[k].append(bool(r.rank[i] < k))
        in_initial.append(float(np.mean(per_t_rates["init"])))
        in_union.append(float(np.mean(per_t_rates["union"])))
        for k in k_list:
            accuracy[k].append(float(np.mean(per_t_rates[k])))
            cond_initial[k].append(
                float(np.mean(pool_in[k])) if pool_in[k] else None)
            cond_outside[k].append(
                float(np.mean(pool_out[k])) if pool_out[k] else None)

    return BucketReport(bucket_width=bucket_width, buckets=buckets,
                        k_list=k_list, accuracy=accuracy,
                        in_initial=in_initial, in_union=in_union,
                        cond_initial=cond_initial, cond_outside=cond_outside,
                        ragged=ragged, partial_final_bucket=partial)
