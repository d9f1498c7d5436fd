"""Command-line surface: synth, build-prototypes, eval, sweep, cv.

Every subcommand that draws randomness takes a single --seed; errors go to
stderr with a machine-parsable "spc: error:" prefix and a nonzero exit.
"""

from __future__ import annotations

import argparse
import os
import sys

from .core import SpcError
from .data_io import (FileFormatError, read_prototypes, read_records,
                      write_manifest, write_prototypes, write_records,
                      write_report)
from .engine import MeanState
from .prototypes import SubsetSpec, TrainIndex, build_prototypes, coverage, \
    select_classes
from .stream import (Strategy, cross_validate_w, evaluate, group_by_user,
                     sweep_table, sweep_w, sweep_ws)
from .synth import SynthConfig, generate_synthetic


class UsageError(SpcError):
    pass


def parse_grid(spec: str) -> list[float]:
    """Parse "start:step:end" or a comma-separated list of values."""
    spec = spec.strip()
    if not spec:
        raise UsageError("empty grid")
    try:
        if ":" in spec:
            parts = [float(x) for x in spec.split(":")]
            if len(parts) != 3:
                raise ValueError("expected start:step:end")
            start, step, end = parts
            if step <= 0 or end < start:
                raise ValueError("need step > 0 and end >= start")
            values, i = [], 0
            while True:
                v = round(start + i * step, 10)
                if v > end + 1e-12:
                    break
                values.append(v)
                i += 1
            return values
        return [float(x) for x in spec.split(",")]
    except ValueError as e:
        raise UsageError(f"bad grid {spec!r}: {e}") from None


def parse_topk(spec: str) -> tuple[int, ...]:
    try:
        ks = tuple(int(x) for x in spec.split(","))
    except ValueError:
        raise UsageError(f"bad --topk {spec!r}") from None
    if not ks or any(k < 1 for k in ks) or len(set(ks)) != len(ks):
        raise UsageError(f"bad --topk {spec!r}")
    return ks


def parse_strategy(name: str, w: float | None, ws: float | None,
                   learn: bool = True) -> Strategy:
    base = {"learn": learn}
    if name == "spc":
        return Strategy(kind="spc", w=0.85 if w is None else w, **base)
    if name == "spc-sum":
        if ws is None:
            raise UsageError("spc-sum needs --ws")
        if w is not None:
            raise UsageError("--w does not apply to spc-sum")
        return Strategy(kind="spc-sum", w_s=ws, **base)
    if w is not None or ws is not None:
        raise UsageError(f"--w/--ws do not apply to strategy {name!r}")
    if name in ("ncm-fixed", "1nn", "1nn-star"):
        return Strategy(kind=name, **base)
    if name == "ncm-incr:full":
        return Strategy(kind="ncm-incr", mean_mode=MeanState.FULL_HISTORY,
                        **base)
    if name == "ncm-incr:one":
        return Strategy(kind="ncm-incr", mean_mode=MeanState.MEAN_AS_ONE,
                        **base)
    raise UsageError(f"unknown strategy {name!r}")


def cmd_synth(args) -> int:
    cfg = SynthConfig(
        dim=args.dim, num_common_classes=args.classes, users=args.users,
        records_per_user=args.records, zipf_exponent=args.zipf,
        novel_classes_per_user=args.novel_per_user,
        novel_mass=args.novel_mass, sigma_user=args.sigma_user,
        sigma_sample=args.sigma_sample,
        confusable_group_count=args.confusable_groups,
        group_tightness=args.group_tightness, seed=args.seed)
    try:
        cfg.validate()
    except SpcError as e:
        raise UsageError(str(e)) from None
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
    registry = None
    protos = None
    if args.prototypes is not None:
        protos, registry = read_prototypes(args.prototypes)
    records, registry = read_records(args.stream, registry=registry)
    return group_by_user(records), protos


def cmd_eval(args) -> int:
    strategy = parse_strategy(args.strategy, args.w, args.ws,
                              learn=not args.no_learn)
    k_list = parse_topk(args.topk)
    streams, protos = _load_eval_inputs(args)
    report = evaluate(streams, protos, strategy, k_list=k_list,
                      bucket_width=args.bucket)
    table = report.to_table(strategy.label())
    write_report(table, args.out, fmt=args.format, precise=args.precise)
    print(f"wrote {args.out}")
    return 0


def cmd_sweep(args) -> int:
    if (args.w_grid is None) == (args.ws_grid is None):
        raise UsageError("give exactly one of --w-grid or --ws-grid")
    k_list = parse_topk(args.topk)
    streams, protos = _load_eval_inputs(args)
    sweep, spec, param = ((sweep_w, args.w_grid, "w")
                          if args.w_grid is not None
                          else (sweep_ws, args.ws_grid, "w_s"))
    try:
        results = sweep(streams, protos, parse_grid(spec), k_list=k_list,
                        bucket_width=args.bucket)
        table = sweep_table(results, param, k_list, args.bucket)
    except SpcError as e:
        raise UsageError(str(e)) from None
    write_report(table, args.out, fmt=args.format, precise=args.precise)
    print(f"wrote {args.out} ({len(results)} rows)")
    return 0


def cmd_cv(args) -> int:
    grid = parse_grid(args.w_grid)
    streams, protos = _load_eval_inputs(args)
    result = cross_validate_w(streams, protos, grid, folds=args.folds,
                              objective_k=args.objective_k, seed=args.seed)
    if args.out:
        write_report(result.to_table(), args.out, fmt=args.format,
                     precise=args.precise)
    print(f"chosen w = {result.chosen_w:g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spc",
        description="Sequential personalized classifier experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic benchmark")
    p.add_argument("--users", type=int, default=200)
    p.add_argument("--records", type=int, default=300)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--classes", type=int, default=213)
    p.add_argument("--novel-per-user", type=int, default=20)
    p.add_argument("--novel-mass", type=float, default=0.3)
    p.add_argument("--zipf", type=float, default=1.1)
    p.add_argument("--sigma-user", type=float, default=0.25)
    p.add_argument("--sigma-sample", type=float, default=0.5)
    p.add_argument("--confusable-groups", type=int, default=40)
    p.add_argument("--group-tightness", type=float, default=0.08)
    p.add_argument("--seed", type=int, default=42)
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
        p.add_argument("--topk", default="1,5")
        p.add_argument("--bucket", type=int, default=50)
        p.add_argument("--out", required=True)
        p.add_argument("--format", choices=("tsv", "markdown"), default="tsv")
        p.add_argument("--precise", action="store_true")

    p = sub.add_parser("eval", help="replay streams through one strategy")
    p.add_argument("--strategy", required=True,
                   choices=("spc", "spc-sum", "ncm-fixed", "ncm-incr:full",
                            "ncm-incr:one", "1nn", "1nn-star"))
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
    p.add_argument("--format", choices=("tsv", "markdown"), default="tsv")
    p.add_argument("--precise", action="store_true")
    p.set_defaults(func=cmd_cv)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"spc: error: {e}", file=sys.stderr)
        return 2
    except (SpcError, FileFormatError, OSError) as e:
        print(f"spc: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
