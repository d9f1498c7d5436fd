"""Reference bucketing of per-record outcomes, kept as the plain per-t loop.

`bucket_report` aggregates the columns of per-user results; this loop walks
per-record Outcome objects one t at a time instead, and the two must agree
exactly. `mean_accuracy` is the per-t mean the report's buckets average.
"""

from __future__ import annotations

import numpy as np

from spc import BucketReport, SpcError


def views(results):
    """Each user's Outcome views as a list, so dicts of results compare."""
    return {user: list(result) for user, result in results.items()}


def mean_accuracy(results, t, k):
    """Fraction of users whose record at index t was a top-k hit.

    Users whose stream is shorter than t are excluded; if none reaches t,
    that is an error.
    """
    hits = [bool(r.rank[t - 1] < k) for r in results.values() if t <= len(r)]
    if not hits:
        raise SpcError(f"no user has a record at t={t}")
    return sum(hits) / len(hits)


def reference_bucket_report(outcomes, bucket_width=50, k_list=(1, 5)):
    if not outcomes or all(len(v) == 0 for v in outcomes.values()):
        raise SpcError("no outcomes to report")
    if bucket_width < 1:
        raise SpcError("bucket width must be >= 1")
    lengths = {len(v) for v in outcomes.values() if v}
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
            at_t = [o[t - 1] for o in outcomes.values() if t <= len(o)]
            if not at_t:
                continue
            per_t_rates["init"].append(np.mean([o.in_initial for o in at_t]))
            per_t_rates["union"].append(np.mean([o.in_union for o in at_t]))
            for k in k_list:
                per_t_rates[k].append(np.mean([o.hits[k] for o in at_t]))
            for o in at_t:
                pool = pool_in if o.in_initial else pool_out
                for k in k_list:
                    pool[k].append(o.hits[k])
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
