"""Command-line surface: synth, build-prototypes, eval, sweep, cv, and bench,
the paper's full experiment (every strategy, the w sweep and its
cross-validated choice) on a synthetic benchmark built in memory.

Every subcommand that draws randomness takes a single --seed; errors go to
stderr with a machine-parsable "spc: error:" prefix and a nonzero exit.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

from .core import SpcError, check_topk
from .data_io import (read_prototypes, read_records, write_manifest,
                      write_prototypes, write_records, write_report)
from .prototypes import SubsetSpec, TrainIndex, build_prototypes, coverage, \
    select_classes
from .stream import (BUCKET_WIDTH, K_LIST, Strategy, bucket_report,
                     cross_validate_w, cv_settings, group_by_user,
                     report_settings, run_streams, sweep_table, sweep_w,
                     sweep_ws)
from .synth import SynthConfig, generate_synthetic

# --strategy name -> the strategy at its default settings, in report order
STRATEGIES = {
    "spc": Strategy(kind="spc"),
    "spc-sum": Strategy(kind="spc-sum"),
    "1nn": Strategy(kind="1nn"),
    "1nn-star": Strategy(kind="1nn-star"),
    "ncm-fixed": Strategy(kind="ncm-fixed"),
    "ncm-incr:full": Strategy(kind="ncm-incr", mean_mode="full-history"),
    "ncm-incr:one": Strategy(kind="ncm-incr", mean_mode="mean-as-one"),
}
# spc synth flag -> the SynthConfig field it sets, in --help order
SYNTH_FLAGS = {
    "users": "users", "records": "records_per_user", "dim": "dim",
    "classes": "num_common_classes", "novel-per-user": "novel_classes_per_user",
    "novel-mass": "novel_mass", "zipf": "zipf_exponent",
    "sigma-user": "sigma_user", "sigma-sample": "sigma_sample",
    "confusable-groups": "confusable_group_count",
    "group-tightness": "group_tightness", "seed": "seed",
}
# --format value -> file extension
FORMATS = {"tsv": "tsv", "markdown": "md"}
BENCH_W_GRID = "0.70:0.05:1.00"
# most values a start:step:end grid may hold: each is one more strategy in
# every replay, and a weight lies in [0, 1], so 1e-4 steps are fine enough
MAX_GRID_VALUES = 10_000


class UsageError(SpcError):
    pass


def parse_grid(spec: str) -> list[float]:
    """Parse "start:step:end" or a comma-separated list of values."""
    spec = spec.strip()
    if not spec:
        raise UsageError("empty grid")
    try:
        parts = [float(x) for x in spec.split(":" if ":" in spec else ",")]
        if not all(map(math.isfinite, parts)):
            raise ValueError("values must be finite")
        if ":" not in spec:
            return parts
        if len(parts) != 3:
            raise ValueError("expected start:step:end")
        start, step, end = parts
        if step <= 0 or end < start:
            raise ValueError("need step > 0 and end >= start")
        if (end - start) / step >= MAX_GRID_VALUES:
            raise ValueError(f"more than {MAX_GRID_VALUES} values")
        values = []
        while (v := round(start + len(values) * step, 10)) <= end + 1e-12:
            values.append(v)
        return values
    except ValueError as e:
        raise UsageError(f"bad grid {spec!r}: {e}") from None


def parse_topk(spec: str) -> tuple[int, ...]:
    try:
        return check_topk([int(x) for x in spec.split(",")])
    except (ValueError, SpcError) as e:
        raise UsageError(f"bad --topk {spec!r}: {e}") from None


def parse_strategy(name: str, w: float | None, ws: float | None,
                   learn: bool = True) -> Strategy:
    if name not in STRATEGIES:
        raise UsageError(f"unknown strategy {name!r}")
    base = STRATEGIES[name]
    if base.kind == "spc-sum" and ws is None:
        raise UsageError("spc-sum needs --ws")
    for flag, value, kind in (("--w", w, "spc"), ("--ws", ws, "spc-sum")):
        if value is not None and base.kind != kind:
            raise UsageError(f"{flag} does not apply to strategy {name!r}")
    weights = {key: value for key, value in (("w", w), ("w_s", ws))
               if value is not None}
    return dataclasses.replace(base, learn=learn, **weights)


def cmd_synth(args) -> int:
    cfg = SynthConfig(**{name: getattr(args, flag.replace("-", "_"))
                         for flag, name in SYNTH_FLAGS.items()})
    train, streams, registry, manifest = generate_synthetic(cfg)
    os.makedirs(args.out_dir, exist_ok=True)
    train_path = os.path.join(args.out_dir, "train.records")
    stream_path = os.path.join(args.out_dir, "stream.records")
    manifest_path = os.path.join(args.out_dir, "manifest.json")
    write_records(train, train_path, registry=registry, dim=cfg.dim)
    write_records(streams, stream_path, registry=registry, dim=cfg.dim)
    write_manifest(manifest, manifest_path)
    print(train_path)
    print(stream_path)
    print(manifest_path)
    print(f"generated {len(train)} train records, {len(streams)} stream "
          f"records, {cfg.users} users, {cfg.num_common_classes} common "
          f"classes, seed {cfg.seed}")
    return 0


def cmd_build_prototypes(args) -> int:
    records, registry = read_records(args.train)
    if not records:
        raise SpcError("training file has no records")
    index = TrainIndex.from_records(records)
    spec = SubsetSpec(min_records=args.min_records,
                      per_class_cap=args.per_class_cap)
    classes = select_classes(index, spec)
    if not classes:
        raise SpcError(f"no class has >= {args.min_records} records; "
                       "lower --min-records")
    protos = build_prototypes(records, classes, spec, seed=args.seed)
    write_prototypes(protos, args.out, registry=registry)
    cov = coverage(classes, index)
    print(f"{len(protos)} classes, coverage {cov:.4f}, wrote {args.out}")
    return 0


def _load_eval_inputs(args):
    protos, registry = (read_prototypes(args.prototypes)
                        if args.prototypes is not None else (None, None))
    records, registry = read_records(args.stream, registry=registry)
    return group_by_user(records), protos


def cmd_eval(args) -> int:
    strategy = parse_strategy(args.strategy, args.w, args.ws,
                              learn=not args.no_learn)
    settings = report_settings(args.bucket, parse_topk(args.topk))
    streams, protos = _load_eval_inputs(args)
    report = bucket_report(run_streams(streams, protos, strategy), *settings)
    table = report.to_table(strategy.label())
    write_report(table, args.out, fmt=args.format, precise=args.precise)
    print(f"wrote {args.out}")
    return 0


def cmd_sweep(args) -> int:
    if (args.w_grid is None) == (args.ws_grid is None):
        raise UsageError("give exactly one of --w-grid or --ws-grid")
    k_list = parse_topk(args.topk)
    sweep, spec, param = ((sweep_w, args.w_grid, "w")
                          if args.w_grid is not None
                          else (sweep_ws, args.ws_grid, "w_s"))
    grid = parse_grid(spec)
    bucket, k_list = report_settings(args.bucket, k_list)
    streams, protos = _load_eval_inputs(args)
    results = sweep(streams, protos, grid, k_list=k_list,
                    bucket_width=bucket)
    table = sweep_table(results, param, k_list, bucket)
    write_report(table, args.out, fmt=args.format, precise=args.precise)
    print(f"wrote {args.out} ({len(results)} rows)")
    return 0


def cmd_cv(args) -> int:
    grid = parse_grid(args.w_grid)
    settings = cv_settings(args.folds, args.objective_k, args.seed)
    streams, protos = _load_eval_inputs(args)
    result = cross_validate_w(streams, protos, grid, *settings)
    if args.out:
        write_report(result.to_table(), args.out, fmt=args.format,
                     precise=args.precise)
    print(f"chosen w = {result.chosen_w:g}")
    return 0


def cmd_bench(args) -> int:
    train, stream, _, _ = generate_synthetic(
        SynthConfig(users=args.users, seed=args.seed))
    classes = select_classes(TrainIndex.from_records(train), SubsetSpec())
    protos = build_prototypes(train, classes, SubsetSpec())
    streams = group_by_user(stream)
    grid = parse_grid(BENCH_W_GRID)
    # a label such as "spc (w=0.85)" names the file eval-spc-w0.85
    munge = str.maketrans("(", "-", " )=")
    tables = [(f"eval-{s.label().translate(munge)}",
               bucket_report(run_streams(streams, protos, s))
               .to_table(s.label()))
              for s in STRATEGIES.values()]
    tables.append(("sweep-w", sweep_table(sweep_w(streams, protos, grid), "w",
                                          K_LIST, BUCKET_WIDTH)))
    cv = cross_validate_w(streams, protos, grid, seed=args.seed)
    tables.append(("cv-w", cv.to_table()))
    os.makedirs(args.out_dir, exist_ok=True)
    for name, table in tables:
        path = os.path.join(args.out_dir, f"{name}.{FORMATS[args.format]}")
        write_report(table, path, fmt=args.format)
        print(f"wrote {path}")
    print(f"chosen w = {cv.chosen_w:g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spc",
        description="Sequential personalized classifier experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic benchmark")
    defaults = {f.name: f.default for f in dataclasses.fields(SynthConfig)}
    for flag, name in SYNTH_FLAGS.items():
        p.add_argument(f"--{flag}", type=type(defaults[name]),
                       default=defaults[name])
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("build-prototypes",
                       help="select classes and compute mean prototypes")
    p.add_argument("--train", required=True)
    p.add_argument("--min-records", type=int, default=1)
    p.add_argument("--per-class-cap", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_prototypes)

    def add_eval_common(p):
        p.add_argument("--prototypes", default=None)
        p.add_argument("--stream", required=True)
        p.add_argument("--topk", default=",".join(map(str, K_LIST)))
        p.add_argument("--bucket", type=int, default=BUCKET_WIDTH)
        p.add_argument("--out", required=True)
        p.add_argument("--format", choices=FORMATS, default="tsv")
        p.add_argument("--precise", action="store_true")

    p = sub.add_parser("eval", help="replay streams through one strategy")
    p.add_argument("--strategy", required=True, choices=STRATEGIES)
    p.add_argument("--w", type=float, default=None)
    p.add_argument("--ws", type=float, default=None)
    p.add_argument("--no-learn", action="store_true",
                   help="disable user-store registration (diagnostic)")
    add_eval_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="evaluate a grid of w or w_s values")
    p.add_argument("--w-grid", default=None,
                   help="start:step:end or comma list")
    p.add_argument("--ws-grid", default=None)
    add_eval_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("cv", help="choose w by cross-validation over users")
    p.add_argument("--w-grid", required=True)
    p.add_argument("--folds", type=int, default=2)
    p.add_argument("--objective-k", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prototypes", default=None)
    p.add_argument("--stream", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=FORMATS, default="tsv")
    p.add_argument("--precise", action="store_true")
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("bench", help="run the full experiment on a synthetic "
                       "benchmark: every strategy, the w sweep and cv")
    p.add_argument("--users", type=int, default=defaults["users"])
    p.add_argument("--seed", type=int, default=defaults["seed"])
    p.add_argument("--format", choices=FORMATS, default="tsv")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpcError, OSError) as e:
        print(f"spc: error: {e}", file=sys.stderr)
        return 2 if isinstance(e, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
