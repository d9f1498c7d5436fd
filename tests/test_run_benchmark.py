"""Smoke test of scripts/run_benchmark.py: its evaluation reports must be
the ones the library renders for the same strategies."""

import runpy
import subprocess
import sys
from pathlib import Path

from spc import (SubsetSpec, SynthConfig, TrainIndex, build_prototypes,
                 evaluate, generate_synthetic, group_by_user, render_report,
                 select_classes)

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_benchmark.py"


def test_eval_reports_match_the_library(tmp_path):
    subprocess.run([sys.executable, str(SCRIPT), "--users", "4",
                    "--out-dir", str(tmp_path)],
                   check=True, capture_output=True, timeout=300)
    strategies = runpy.run_path(str(SCRIPT))["STRATEGIES"]

    train, stream, _, _ = generate_synthetic(SynthConfig(seed=42, users=4))
    protos = build_prototypes(
        train, select_classes(TrainIndex.from_records(train), SubsetSpec()),
        SubsetSpec())
    streams = group_by_user(stream)
    want = {s.label(): render_report(
                evaluate(streams, protos, s).to_table(s.label()))
            for s in strategies}

    written = sorted(tmp_path.glob("eval-*.tsv"))
    assert len(written) == len(strategies)
    for path in written:
        data = path.read_bytes()
        # the first row of a report is labeled with its strategy
        label = data.decode("utf-8").splitlines()[1].split("\t")[0]
        assert data == want.pop(label).encode("utf-8"), path.name
    assert (tmp_path / "sweep-w.tsv").exists()
    assert (tmp_path / "cv-w.tsv").exists()
