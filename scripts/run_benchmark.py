#!/usr/bin/env python3
"""End-to-end benchmark driver.

Generates the default synthetic benchmark, builds the common prototype set,
replays every stream through the personalized classifier and the baselines,
and writes bucketed accuracy tables plus a weight sweep and the
cross-validated weight choice.
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from spc import (Strategy, SubsetSpec, SynthConfig, TrainIndex,  # noqa: E402
                 build_prototypes, coverage, cross_validate_w, evaluate,
                 generate_synthetic, group_by_user, render_report,
                 select_classes, sweep_table, sweep_w, write_report)

STRATEGIES = [
    Strategy(kind="spc", w=0.85),
    Strategy(kind="spc-sum", w_s=0.5),
    Strategy(kind="1nn"),
    Strategy(kind="1nn-star"),
    Strategy(kind="ncm-fixed"),
    Strategy(kind="ncm-incr", mean_mode="full-history"),
    Strategy(kind="ncm-incr", mean_mode="mean-as-one"),
]

W_GRID = [round(0.70 + 0.05 * i, 2) for i in range(7)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--users", type=int, default=200)
    ap.add_argument("--out-dir", default="benchmark-out")
    ap.add_argument("--format", choices=("tsv", "markdown"), default="tsv")
    ap.add_argument("--skip-sweep", action="store_true")
    args = ap.parse_args()

    ext = {"tsv": "tsv", "markdown": "md"}[args.format]
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    cfg = SynthConfig(seed=args.seed, users=args.users)
    train, stream, registry, _ = generate_synthetic(cfg)
    streams = group_by_user(stream)
    index = TrainIndex.from_records(train)
    classes = select_classes(index, SubsetSpec())
    protos = build_prototypes(train, classes, SubsetSpec())
    print(f"benchmark: {len(streams)} users x {cfg.records_per_user} records,"
          f" {len(protos)} prototype classes,"
          f" coverage {coverage(classes, index):.3f}"
          f" ({time.perf_counter() - t0:.1f}s)")

    for strategy in STRATEGIES:
        t0 = time.perf_counter()
        report = evaluate(streams, protos, strategy)
        table = report.to_table(strategy.label())
        name = strategy.label().replace(" ", "").replace("(", "-") \
            .replace(")", "").replace("=", "")
        path = out_dir / f"eval-{name}.{ext}"
        write_report(table, path, fmt=args.format)
        top1 = ["%.1f" % (100 * a) for a in report.accuracy[1]]
        print(f"{strategy.label():28s} top-1 by bucket: {' '.join(top1)} "
              f"({time.perf_counter() - t0:.1f}s) -> {path}")

    if not args.skip_sweep:
        t0 = time.perf_counter()
        results = sweep_w(streams, protos, W_GRID)
        path = out_dir / f"sweep-w.{ext}"
        write_report(sweep_table(results, "w", (1, 5), 50), path,
                     fmt=args.format)
        best = max(results, key=lambda r: r[1].accuracy[1][-1])
        print(f"w sweep: final-bucket argmax w={best[0]:g} "
              f"({time.perf_counter() - t0:.1f}s) -> {path}")

        t0 = time.perf_counter()
        cv = cross_validate_w(streams, protos, W_GRID, seed=args.seed)
        path = out_dir / f"cv-w.{ext}"
        write_report(cv.to_table(), path, fmt=args.format)
        print(f"cross-validated choice: w={cv.chosen_w:g} "
              f"({time.perf_counter() - t0:.1f}s) -> {path}")
        print()
        print(render_report(cv.to_table(), fmt=args.format))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
