import json

import pytest

from spc import cli


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SYNTH_ARGS = ["synth", "--users", "4", "--records", "30", "--dim", "16",
              "--classes", "10", "--novel-per-user", "2",
              "--confusable-groups", "2", "--seed", "5"]


@pytest.fixture()
def bench(tmp_path, capsys):
    out = tmp_path / "bench"
    code, stdout, _ = run(SYNTH_ARGS + ["--out-dir", str(out)], capsys)
    assert code == 0
    code, stdout, _ = run(
        ["build-prototypes", "--train", str(out / "train.records"),
         "--out", str(out / "common.protos")], capsys)
    assert code == 0
    return out


class TestParsers:
    def test_grid_range_syntax(self):
        assert cli.parse_grid("0.70:0.05:0.80") == [0.70, 0.75, 0.80]
        assert cli.parse_grid("0.5,1.0") == [0.5, 1.0]

    def test_grid_errors(self):
        for bad in ("", "0.1:0.2", "1:0:2", "abc", "0.9:0.1:0.5"):
            with pytest.raises(cli.UsageError):
                cli.parse_grid(bad)

    def test_topk(self):
        assert cli.parse_topk("1,5") == (1, 5)
        for bad in ("", "0", "1,1", "x"):
            with pytest.raises(cli.UsageError):
                cli.parse_topk(bad)

    def test_strategy_flag_scoping(self):
        assert cli.parse_strategy("spc", None, None).w == 0.85
        assert cli.parse_strategy("spc", 0.9, None).w == 0.9
        assert cli.parse_strategy("spc-sum", None, 0.3).w_s == 0.3
        assert cli.parse_strategy("ncm-incr:one", None, None).mean_mode \
            == "mean-as-one"
        for name, w, ws in (("spc-sum", None, None), ("spc-sum", 0.9, 0.3),
                            ("1nn", 0.9, None), ("ncm-fixed", None, 0.3),
                            ("nope", None, None)):
            with pytest.raises(cli.UsageError):
                cli.parse_strategy(name, w, ws)


class TestSynthCommand:
    def test_writes_three_files(self, tmp_path, capsys):
        out = tmp_path / "b"
        code, stdout, _ = run(SYNTH_ARGS + ["--out-dir", str(out)], capsys)
        assert code == 0
        for name in ("train.records", "stream.records", "manifest.json"):
            assert (out / name).exists()
            assert str(out / name) in stdout
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["users"] == 4

    def test_byte_identical_across_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(SYNTH_ARGS + ["--out-dir", str(out)], capsys)[0] == 0
        for name in ("train.records", "stream.records", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestBuildPrototypesCommand:
    def test_reports_coverage(self, tmp_path, capsys):
        out = tmp_path / "b"
        run(SYNTH_ARGS + ["--out-dir", str(out)], capsys)
        code, stdout, _ = run(
            ["build-prototypes", "--train", str(out / "train.records"),
             "--min-records", "1", "--out", str(out / "p.protos")], capsys)
        assert code == 0
        assert "10 classes, coverage 1.0000" in stdout

    def test_min_records_drops_classes(self, tmp_path, capsys):
        out = tmp_path / "b"
        run(SYNTH_ARGS + ["--out-dir", str(out)], capsys)
        code, stdout, _ = run(
            ["build-prototypes", "--train", str(out / "train.records"),
             "--min-records", "100000", "--out", str(out / "p.protos")],
            capsys)
        assert code == 1
        assert "spc: error:" in capsys.readouterr().err or code == 1


class TestEvalCommand:
    def test_tsv_report(self, bench, capsys):
        report = bench / "spc.tsv"
        code, stdout, _ = run(
            ["eval", "--strategy", "spc", "--w", "0.85",
             "--prototypes", str(bench / "common.protos"),
             "--stream", str(bench / "stream.records"),
             "--bucket", "10", "--out", str(report)], capsys)
        assert code == 0
        lines = report.read_text().splitlines()
        assert lines[0].startswith("method\t")
        assert lines[1].startswith("spc (w=0.85)\t")
        assert any(line.startswith("upper limit (union)") for line in lines)

    def test_identity_between_strategy_names(self, bench, capsys):
        out_a, out_b = bench / "a.tsv", bench / "b.tsv"
        run(["eval", "--strategy", "spc", "--w", "1.0",
             "--prototypes", str(bench / "common.protos"),
             "--stream", str(bench / "stream.records"),
             "--bucket", "10", "--out", str(out_a), "--precise"], capsys)
        run(["eval", "--strategy", "1nn",
             "--prototypes", str(bench / "common.protos"),
             "--stream", str(bench / "stream.records"),
             "--bucket", "10", "--out", str(out_b), "--precise"], capsys)
        strip = lambda p: [line.split("\t", 1)[1]
                           for line in p.read_text().splitlines()]
        assert strip(out_a) == strip(out_b)

    def test_prototype_strategies_require_prototypes(self, bench, capsys):
        code, _, err = run(
            ["eval", "--strategy", "ncm-fixed",
             "--stream", str(bench / "stream.records"),
             "--out", str(bench / "x.tsv")], capsys)
        assert code != 0

    def test_missing_file_is_clean_error(self, bench, capsys):
        code, _, err = run(
            ["eval", "--strategy", "spc",
             "--stream", str(bench / "nope.records"),
             "--out", str(bench / "x.tsv")], capsys)
        assert code == 1
        assert err.startswith("spc: error:")

    def test_nan_record_fails_with_line_number(self, bench, capsys):
        stream = bench / "stream.records"
        lines = stream.read_text().splitlines()
        dim = json.loads(lines[0])["dim"]
        rec = json.loads(lines[5])
        rec["vec"] = [float("nan")] * dim
        lines[5] = json.dumps(rec)
        stream.write_text("\n".join(lines) + "\n")
        assert '"vec": [NaN, NaN' in lines[5]
        report = bench / "x.tsv"
        code, _, err = run(
            ["eval", "--strategy", "spc",
             "--prototypes", str(bench / "common.protos"),
             "--stream", str(stream), "--out", str(report)], capsys)
        assert code != 0
        assert err.startswith("spc: error:") and ":6:" in err
        assert not report.exists()

    def test_markdown_format(self, bench, capsys):
        report = bench / "spc.md"
        code, _, _ = run(
            ["eval", "--strategy", "spc",
             "--prototypes", str(bench / "common.protos"),
             "--stream", str(bench / "stream.records"),
             "--bucket", "10", "--format", "markdown",
             "--out", str(report)], capsys)
        assert code == 0
        assert report.read_text().startswith("| method |")


class TestSweepCommand:
    def test_w_sweep(self, bench, capsys):
        report = bench / "sweep.tsv"
        code, stdout, _ = run(
            ["sweep", "--w-grid", "0.7,0.85,1.0",
             "--prototypes", str(bench / "common.protos"),
             "--stream", str(bench / "stream.records"),
             "--bucket", "10", "--out", str(report)], capsys)
        assert code == 0
        labels = [line.split("\t")[0]
                  for line in report.read_text().splitlines()[1:]]
        assert labels == ["w=0.7", "w=0.85", "w=1"]

    def test_exactly_one_grid_required(self, bench, capsys):
        base = ["sweep", "--prototypes", str(bench / "common.protos"),
                "--stream", str(bench / "stream.records"),
                "--out", str(bench / "s.tsv")]
        assert run(base, capsys)[0] == 2
        assert run(base + ["--w-grid", "0.8,0.9",
                           "--ws-grid", "0.1,0.2"], capsys)[0] == 2


class TestCvCommand:
    def test_prints_chosen_w(self, bench, capsys):
        code, stdout, _ = run(
            ["cv", "--w-grid", "0.7,0.85,1.0",
             "--prototypes", str(bench / "common.protos"),
             "--stream", str(bench / "stream.records"),
             "--seed", "1", "--out", str(bench / "cv.tsv")], capsys)
        assert code == 0
        assert stdout.splitlines()[-1].startswith("chosen w = ")
        chosen = float(stdout.rsplit("=", 1)[1])
        assert chosen in (0.7, 0.85, 1.0)
        assert (bench / "cv.tsv").exists()

    def test_deterministic(self, bench, capsys):
        outs = []
        for _ in range(2):
            _, stdout, _ = run(
                ["cv", "--w-grid", "0.7,0.85,1.0",
                 "--prototypes", str(bench / "common.protos"),
                 "--stream", str(bench / "stream.records"),
                 "--seed", "1"], capsys)
            outs.append(stdout)
        assert outs[0] == outs[1]
