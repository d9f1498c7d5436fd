#!/usr/bin/env python3
"""spc benchmark: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0

Workloads: paper, long-stream, online (see perfbench/README.md). With
--trace 0 the last line of standard output is a JSON object holding every
end-to-end metric; with --trace 1 it holds every per-layer metric, taken
from spans recorded around the calls into each layer, and the lines above
it give each span's self time, the tracing overhead on each end-to-end
metric and the split of one replay into matrix products and per-step work.
--smoke runs the workload at a tiny size. Time metrics are scaled to a
reference host speed, measured by a probe run between samples (see
HostProbe in workloads.py); each metric's line gives its unadjusted value.

The program is imported from the `src/` directory next to this one, never
from an installed copy. Working files go to `.perfbench-work/` at the root
of the checkout and are removed when the run ends; a traced run leaves its
spans there as one JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench-work"
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="how long the measured passes run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run the workload at a tiny size")
    return ap.parse_args(argv)


def import_program():
    """Import `spc` from this checkout's src/ or exit without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    try:
        import spc
    except ImportError as e:
        sys.exit(f"perfbench: cannot import spc from {src}: {e}")
    if src.resolve() not in Path(spc.__file__).resolve().parents:
        sys.exit(f"perfbench: spc was imported from {spc.__file__}, "
                 f"not from {src}")


def blas_threads_in_use():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes

    import numpy as np
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in BLAS_THREAD_QUERIES:
            query = getattr(handle, name, None)
            if query is not None:
                query.restype = ctypes.c_int
                return query()
    return None


def machine_record(seed: int) -> dict:
    import numpy as np
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_in_use": blas_threads_in_use(),
        "seed": seed,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # BLAS reads its thread count once, when numpy first loads it
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    import_program()
    import workloads as W

    try:
        wl = W.workload(args.workload, smoke=args.smoke)
    except KeyError as e:
        sys.exit(f"perfbench: {e.args[0]}")
    machine = machine_record(args.seed)
    workdir = WORK / f"{wl.name}-seed{args.seed}-pid{os.getpid()}"
    bench = W.Bench(wl, args.seed, workdir, smoke=args.smoke)
    try:
        bench.run(args.seconds, trace=bool(args.trace))
        e2e = bench.end_to_end()
        if args.trace:
            layer, table = bench.per_layer()
            trace_path = WORK / f"trace-{wl.name}-seed{args.seed}.json"
            bench.tracer.write(trace_path, {
                "workload": wl.name, "machine": machine,
                "per_layer": layer, "replay_split": bench.replay_split})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {wl.name} seed {args.seed} "
          f"{'traced' if args.trace else 'untraced'}"
          f"{' smoke' if args.smoke else ''}")
    print("machine " + json.dumps(machine, sort_keys=True))
    for name, digest in sorted((bench.digests or {}).items()):
        print(f"report {name} sha256 {digest}")
    for name, unit in W.END_TO_END.items():
        if name in e2e:
            print(f"  {name} = {e2e[name]:.6g} {unit} "
                  f"({bench.describe(name)})")
    failed_frac = bench.failed / max(bench.attempted, 1)
    print(f"  failed_frac = {failed_frac:.6g} 1 "
          f"({bench.failed} of {bench.attempted} checked operations)")

    if args.trace:
        traced = sum(1 for t, _ in bench.passes if t)
        print(f"traced passes: {traced} of {len(bench.passes)}; "
              f"spans: {len(bench.tracer.spans)} -> {trace_path}")
        print("tracing overhead (traced / untraced - 1, median over adjacent "
              "pairs of set-ups or passes):")
        for name, (ratio, pairs) in bench.overhead().items():
            print(f"  {name}: " + (
                f"{100 * ratio:+.1f}% over {pairs} pairs" if ratio is not None
                else f"unresolved, {pairs} pairs (fewer than "
                     f"{W.MIN_OVERHEAD_PAIRS})"))
        print("  peak_rss_mb: none; it is read once, after the first pass, "
              "which is untraced")
        print("replay split (one user's run_user_stream, summed over users; "
              "Gram and prototype products timed alone on the same queries):")
        for key, sp in bench.replay_split.items():
            blas = sp["replay_blas_s"] / sp["replay_s"]
            fixed_us = ((sp["prefix_s"] - sp["prefix_blas_s"]) * 1e6
                        / sp["prefix_records"])
            fixed = fixed_us * sp["replay_records"] / 1e6 / sp["replay_s"]
            print(f"  {key}: {sp['replay_s']:.4g} s for "
                  f"{sp['replay_records']:g} records; matrix products "
                  f"{100 * blas:.0f}%; fixed per-step work {fixed_us:.1f} us "
                  f"a step (first {W.FIXED_STEP_PREFIX} records), "
                  f"{100 * fixed:.0f}%; the rest, per-step work that grows "
                  f"with t, {100 * (1 - blas - fixed):.0f}%")
        print("span self times (median per pass or set-up): name, spans, "
              "total ms, self ms")
        for name, count, total_ms, self_ms in table:
            print(f"  {name:40s} {count:8g} {total_ms:12.3f} {self_ms:12.3f}")
        print("per-layer metrics:")
        for name in sorted(layer):
            unit = W.PER_LAYER.get(name) or (
                "us" if name.endswith("_us") else "s")
            print(f"  {name} = {layer[name]:.6g} {unit}")
        metrics, units = layer, W.PER_LAYER
    else:
        metrics, units = e2e, W.END_TO_END

    missing = [name for name in units if name not in metrics]
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
