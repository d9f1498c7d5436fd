"""Tests of the benchmark itself, at smoke size:

    PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402
from spans import NullTracer, Span, Tracer  # noqa: E402
from spc import generate_synthetic  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300)


def test_declared_metrics_match_the_code():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == W.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == W.PER_LAYER
    assert [w["name"] for w in BENCH["workloads"]] == list(W.WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", list(W.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench(["--workload", workload, "--seed", "42", "--seconds",
                      "0.1", "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    text = "\n".join(lines[:-1])
    for m in declared:
        assert f"  {m['name']} = " in text
        line = next(ln for ln in lines if ln.startswith(f"  {m['name']} = "))
        assert line.split()[3] == m["unit"]
    assert "  failed_frac = 0 1 " in text
    assert "machine {" in text
    if trace:
        assert "tracing overhead" in text and "span self times" in text


def smoke_bench(tmp_path, name="paper", golden=None):
    return W.Bench(W.workload(name, smoke=True), W.DEFAULT_SEED,
                   tmp_path / name, golden=golden, smoke=True)


def test_golden_digests_match_at_the_default_seed(tmp_path):
    bench = smoke_bench(tmp_path)
    assert bench.golden, "no golden digests for the smoke paper workload"
    bench.run(0, trace=False)
    assert bench.failed == 0 and bench.attempted > 0
    assert bench.digests == bench.golden


def test_a_corrupted_golden_digest_is_a_failure(tmp_path):
    golden = W.load_golden()
    reports = golden["reports"]["paper@smoke"]
    name = sorted(reports)[0]
    reports[name] = "0" * 64
    bench = smoke_bench(tmp_path, golden=golden)
    bench.run(0, trace=False)
    assert bench.failed >= 1
    assert bench.failed / bench.attempted > 0


def test_a_corrupted_dot_count_is_a_failure(tmp_path, monkeypatch):
    real = W.expected_dots
    monkeypatch.setattr(W, "expected_dots", lambda *a: real(*a) + 1)
    bench = smoke_bench(tmp_path, "online")
    bench.run(0, trace=False)
    # stream.dots misses the corrupted count once, engine.dots every round
    requests = bench.wl.synth.users * bench.wl.synth.records_per_user
    calls = W.SEGMENT_CALLS * sum(len(out["client"])
                                  for _, out in bench.passes)
    assert bench.failed == 1 + calls // requests


def test_dot_counts_follow_the_replay_formula(tmp_path):
    bench = smoke_bench(tmp_path, "online")
    bench.run(0, trace=False)
    cfg = bench.wl.synth
    want = W.expected_dots([cfg.records_per_user] * cfg.users,
                           cfg.num_common_classes)
    assert bench.counts["engine.dots"] == bench.counts["stream.dots"] == want


def test_the_seed_changes_the_generated_data():
    wl = W.workload("paper", smoke=True)

    def vectors(seed):
        _, stream, _, _ = generate_synthetic(W.synth_config(wl, seed))
        return np.stack([r.vec for r in stream])

    assert np.array_equal(vectors(1), vectors(1))
    assert not np.array_equal(vectors(1), vectors(2))
    assert not np.array_equal(W.client_scales(1, 50), W.client_scales(2, 50))
    assert (W.client_scales(1, 50) > 0).all()


def test_self_time_subtracts_the_union_of_child_spans():
    tr = Tracer()
    tr.spans = [Span(0, None, "r", "parent", 0, 100, 0, {}),
                Span(1, 0, "r", "a", 10, 30, 0, {}),
                Span(2, 0, "r", "b", 20, 50, 0, {}),
                Span(3, 0, "r", "c", 60, 70, 0, {})]
    assert tr.self_times() == {0: 50, 1: 20, 2: 30, 3: 10}


def test_a_changed_record_file_is_a_failure(tmp_path):
    bench = smoke_bench(tmp_path, "online")
    bench.setup(NullTracer())
    lines = bench.stream_path.read_text().splitlines(keepends=True)
    lines[5] = lines[5].replace('"label":"', '"label":"renamed-', 1)
    bench.stream_path.write_text("".join(lines))
    protos, registry, records, _ = bench.load(NullTracer(), "test")
    bench.check_load(protos, registry, records)
    assert bench.failed == 1


def pass_samples(seconds, ref, calls=4):
    """A pass whose every sample took `seconds`, each client call too."""
    out = {name: [(seconds, ref)] for name in W.END_TO_END}
    out["eval_s"] = [(seconds / 2, ref), (seconds / 2, ref)]
    out["client"] = [(np.full((3, calls), seconds), ref)]
    return out


def test_tracing_overhead_needs_three_adjacent_pairs(tmp_path):
    bench = smoke_bench(tmp_path, "online")
    ref = W.PROBE_S
    bench.setup_times = [(False, (1.0, ref)), (True, (1.1, ref))] * 3
    samples = {False: pass_samples(1.0, ref), True: pass_samples(1.2, ref)}
    bench.passes = [(t, samples[t]) for t in (False, True)] * 2
    assert bench.overhead()["setup_s"] == (pytest.approx(0.1), 3)
    assert bench.overhead()["load_s"] == (None, 2)
    bench.passes *= 2
    assert bench.overhead()["eval_s"] == (pytest.approx(0.2), 4)
    assert bench.overhead()["predict_p99_us"] == (pytest.approx(0.2), 4)


def test_times_are_scaled_to_the_reference_speed(tmp_path):
    ref = W.PROBE_S
    # a mean of 2 s, taken while the probe ran at half the reference speed
    assert W.adjusted([(1.0, 2 * ref), (3.0, 2 * ref)]) == pytest.approx(1.0)
    # a host twice as slow doubles both the samples and the probes
    bench = smoke_bench(tmp_path, "online")
    values = []
    for slow in (1, 2):
        bench.passes = [(False, pass_samples(slow * 0.02, slow * ref))]
        bench.setup_times = [(False, (slow * 0.5, slow * ref))]
        values.append(bench.end_to_end())
    assert values[0] == pytest.approx(values[1])
    assert values[0]["load_s"] == pytest.approx(0.02)
    assert values[0]["eval_s"] == pytest.approx(0.02)
    assert values[0]["predict_p50_us"] == pytest.approx(2e4)
    assert values[0]["online_records_per_s"] == pytest.approx(
        W.SEGMENT_CALLS / (3 * 4 * 0.02))
    assert values[0]["setup_s"] == pytest.approx(0.5)


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench" / f.name)
    shutil.copy(HERE / "golden.json", tmp_path / "perfbench" / "golden.json")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_bench(["--workload", "paper", "--seed", "1", "--seconds", "1",
                      "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
