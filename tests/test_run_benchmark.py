"""Smoke test of scripts/run_benchmark.py: its evaluation reports must be
the ones the library renders for the same strategies."""

import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from spc import (SubsetSpec, SynthConfig, TrainIndex, build_prototypes,
                 evaluate, generate_synthetic, group_by_user, render_report,
                 select_classes)

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_benchmark.py"


@pytest.mark.parametrize("fmt,ext", [("tsv", "tsv"), ("markdown", "md")],
                         ids=["tsv", "markdown"])
def test_eval_reports_match_the_library(tmp_path, fmt, ext):
    subprocess.run([sys.executable, str(SCRIPT), "--users", "4",
                    "--out-dir", str(tmp_path), "--format", fmt],
                   check=True, capture_output=True, timeout=300)
    strategies = runpy.run_path(str(SCRIPT))["STRATEGIES"]

    train, stream, _, _ = generate_synthetic(SynthConfig(seed=42, users=4))
    protos = build_prototypes(
        train, select_classes(TrainIndex.from_records(train), SubsetSpec()),
        SubsetSpec())
    streams = group_by_user(stream)
    want = [render_report(evaluate(streams, protos, s).to_table(s.label()),
                          fmt=fmt).encode("utf-8")
            for s in strategies]

    written = sorted(tmp_path.glob(f"eval-*.{ext}"))
    assert sorted(path.read_bytes() for path in written) == sorted(want)
    assert (tmp_path / f"sweep-w.{ext}").exists()
    assert (tmp_path / f"cv-w.{ext}").exists()
