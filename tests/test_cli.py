import base64
import contextlib
import json
import re
import signal
from dataclasses import asdict, replace

import numpy as np
import pytest

from spc import (SubsetSpec, SynthConfig, TrainIndex, bucket_report,
                 build_prototypes, cli, cross_validate_w, generate_synthetic,
                 group_by_user, read_records, render_report, run_streams,
                 select_classes, sweep_table, sweep_w)


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


@contextlib.contextmanager
def returns_in_one_second(what):
    def hang(signum, frame):
        raise TimeoutError(f"{what} did not return in 1 s")

    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(1)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


class TestParsers:
    def test_grid_range_syntax(self):
        assert cli.parse_grid("0.70:0.05:0.80") == [0.70, 0.75, 0.80]
        assert cli.parse_grid("0.5,1.0") == [0.5, 1.0]

    def test_grid_errors(self):
        for bad in ("", "0.1:0.2", "1:0:2", "abc", "0.9:0.1:0.5",
                    "0:1e-9:1"):
            with returns_in_one_second(f"parse_grid({bad!r})"), \
                    pytest.raises(cli.UsageError):
                cli.parse_grid(bad)

    def test_grid_value_count_is_capped(self):
        cap = cli.MAX_GRID_VALUES
        assert len(cli.parse_grid(f"1:1:{cap}")) == cap
        with pytest.raises(cli.UsageError, match=re.escape(
                f"bad grid '1:1:{cap + 1}': more than {cap} values")):
            cli.parse_grid(f"1:1:{cap + 1}")

    @pytest.mark.parametrize("bad", ["0.7:0.05:inf", "0.7:nan:1.0",
                                     "nan:0.1:1", "-inf:0.1:1", "0.7,inf",
                                     "nan", "0.7:1e400:1"])
    def test_grid_refuses_non_finite_values(self, bad):
        with returns_in_one_second(f"parse_grid({bad!r})"), \
                pytest.raises(cli.UsageError, match="values must be finite"):
            cli.parse_grid(bad)

    def test_topk(self):
        assert cli.parse_topk("1,5") == (1, 5)
        for bad in ("", "0", "1,1", "x", "-1", "1.5", "5,1,5"):
            with pytest.raises(cli.UsageError):
                cli.parse_topk(bad)
        # the shared top-k rule says what is wrong
        with pytest.raises(cli.UsageError, match=re.escape(
                "bad --topk '1,1': top-k list must be distinct and "
                "non-empty, got (1, 1)")):
            cli.parse_topk("1,1")
        with pytest.raises(cli.UsageError, match=re.escape(
                "bad --topk '2,0': top-k must be an integer from 1 to "
                "2**63 - 1, got 0")):
            cli.parse_topk("2,0")

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

    def test_record_files_read_back_bit_for_bit(self, tmp_path, capsys):
        out = tmp_path / "b"
        assert run(SYNTH_ARGS + ["--out-dir", str(out)], capsys)[0] == 0
        cfg = SynthConfig(**json.loads(
            (out / "manifest.json").read_text())["config"])
        train, streams, registry, _ = generate_synthetic(cfg)
        for name, want in (("train.records", train),
                           ("stream.records", streams)):
            path = out / name
            header = json.loads(path.read_text().splitlines()[0])
            assert header["version"] == 2
            got, got_registry = read_records(path)
            assert [(r.user, r.t, got_registry.resolve(r.class_id))
                    for r in got] == \
                [(r.user, r.t, registry.resolve(r.class_id)) for r in want]
            np.testing.assert_array_equal(
                np.stack([r.vec for r in got]).view(np.uint32),
                np.stack([r.vec for r in want]).view(np.uint32))

    @pytest.mark.parametrize("flags, fields", [
        (["--users", "2", "--records", "5"],
         dict(users=2, records_per_user=5)),
        (["--users", "2", "--records", "5", "--dim", "8", "--classes", "6",
          "--novel-per-user", "1", "--novel-mass", "0.2", "--zipf", "0.9",
          "--sigma-user", "0.3", "--sigma-sample", "0.4",
          "--confusable-groups", "1", "--group-tightness", "0.1",
          "--seed", "7"],
         dict(users=2, records_per_user=5, dim=8, num_common_classes=6,
              novel_classes_per_user=1, novel_mass=0.2, zipf_exponent=0.9,
              sigma_user=0.3, sigma_sample=0.4, confusable_group_count=1,
              group_tightness=0.1, seed=7)),
    ], ids=["defaults", "every-flag"])
    def test_flags_set_synth_config_fields(self, tmp_path, capsys, flags,
                                           fields):
        out = tmp_path / "b"
        assert run(["synth", *flags, "--out-dir", str(out)], capsys)[0] == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == asdict(replace(SynthConfig(), **fields))

    def test_bad_config_is_a_data_error(self, tmp_path, capsys):
        out = tmp_path / "b"
        code, _, err = run(["synth", "--users", "0", "--out-dir", str(out)],
                           capsys)
        assert code == 1
        assert err.startswith("spc: error: users must be an integer from 1 "
                              "to 2**63 - 1, got 0")
        assert not out.exists()

    def test_flags_keep_their_order(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["synth", "--help"])
        options = capsys.readouterr().out.split("options:\n")[1]
        assert [line.split()[0] for line in options.splitlines()] == [
            "-h,", "--users", "--records", "--dim", "--classes",
            "--novel-per-user", "--novel-mass", "--zipf", "--sigma-user",
            "--sigma-sample", "--confusable-groups", "--group-tightness",
            "--seed", "--out-dir"]


class TestBadSettings:
    # a stream file that does not exist: a setting must be refused before
    # any file is read
    MISSING = ["--stream", "{bench}/missing.records", "--out", "{out}"]

    @pytest.mark.parametrize("argv, code, message", [
        (["synth", "--seed", "-1", "--out-dir", "{out}"],
         1, "seed must be an integer from 0 to 2**63 - 1, got -1"),
        (["synth", "--zipf", "nan", "--out-dir", "{out}"],
         1, "zipf_exponent must be finite and >= 0, got nan"),
        (["synth", "--zipf", "inf", "--out-dir", "{out}"],
         1, "zipf_exponent must be finite and >= 0, got inf"),
        (["synth", "--sigma-user", "inf", "--out-dir", "{out}"],
         1, "sigma_user must be finite and >= 0, got inf"),
        (["bench", "--users", "2", "--seed", "-1", "--out-dir", "{out}"],
         1, "seed must be an integer from 0 to 2**63 - 1, got -1"),
        (["cv", "--w-grid", "0.8,0.9", "--seed", "-1",
          "--prototypes", "{bench}/common.protos",
          "--stream", "{bench}/stream.records", "--out", "{out}"],
         1, "seed must be an integer from 0 to 2**63 - 1, got -1"),
        (["build-prototypes", "--train", "{bench}/train.records",
          "--per-class-cap", "2", "--seed", "-1", "--out", "{out}"],
         1, "seed must be an integer from 0 to 2**63 - 1, got -1"),
        (["eval", "--strategy", "spc", "--bucket", "0", *MISSING],
         1, "bucket_width must be an integer from 1 to 2**63 - 1, got 0"),
        (["sweep", "--w-grid", "0.8,0.9", "--bucket", "0", *MISSING],
         1, "bucket_width must be an integer from 1 to 2**63 - 1, got 0"),
        (["cv", "--w-grid", "0.8,0.9", "--folds", "1", *MISSING],
         1, "folds must be an integer from 2 to 2**63 - 1, got 1"),
        (["sweep", "--w-grid", "0.8:0:0.9", *MISSING],
         2, "bad grid '0.8:0:0.9': need step > 0 and end >= start")],
        ids=["synth-seed", "synth-zipf", "synth-zipf-inf",
             "synth-sigma-user-inf", "bench-seed", "cv-seed",
             "build-prototypes-seed", "eval-bucket", "sweep-bucket",
             "cv-folds", "sweep-grid"])
    def test_one_error_line_and_no_output(self, bench, tmp_path, capsys,
                                          argv, code, message):
        out = tmp_path / "out"
        assert run([a.format(bench=bench, out=out) for a in argv],
                   capsys) == (code, "", f"spc: error: {message}\n")
        assert not out.exists()


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
        rec["vec"] = base64.b64encode(
            np.full(dim, np.nan, "<f4").tobytes()).decode()
        lines[5] = json.dumps(rec)
        stream.write_text("\n".join(lines) + "\n")
        report = bench / "x.tsv"
        code, _, err = run(
            ["eval", "--strategy", "spc",
             "--prototypes", str(bench / "common.protos"),
             "--stream", str(stream), "--out", str(report)], capsys)
        assert code == 1
        assert err.startswith(
            f"spc: error: {stream}:6: vector norm nan is not 1 within")
        assert not report.exists()

    @pytest.mark.parametrize("name,field,value",
                             [("stream.records", "t", 1.7),
                              ("common.protos", "count", 2.5),
                              ("stream.records", "t", 2**63),
                              ("common.protos", "count", 2**63)])
    def test_bad_field_fails_without_a_report(self, bench, capsys, name,
                                              field, value):
        path = bench / name
        lines = path.read_text().splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]), field: value})
        path.write_text("\n".join(lines) + "\n")
        report = bench / "x.tsv"
        code, _, err = run(
            ["eval", "--strategy", "spc",
             "--prototypes", str(bench / "common.protos"),
             "--stream", str(bench / "stream.records"),
             "--out", str(report)], capsys)
        assert code == 1
        assert err.startswith(f"spc: error: {path}:2: {field} must be")
        assert not report.exists()

    @pytest.mark.parametrize("lineno", [1, 2])
    def test_non_utf8_byte_fails_without_a_report(self, bench, capsys,
                                                  lineno):
        stream = bench / "stream.records"
        lines = stream.read_bytes().split(b"\n")
        lines[lineno - 1] = b"\xff" + lines[lineno - 1]
        stream.write_bytes(b"\n".join(lines))
        report = bench / "x.tsv"
        code, _, err = run(
            ["eval", "--strategy", "spc",
             "--prototypes", str(bench / "common.protos"),
             "--stream", str(stream), "--out", str(report)], capsys)
        assert code == 1
        assert err.startswith(f"spc: error: {stream}:{lineno}: malformed ")
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

    # a header-only prototype file is an empty set of its dim
    @pytest.mark.parametrize("dim, rows, grid",
                             [(2, 1, "0.8"), (2, 0, "0.8"),
                              (None, 1, "0.8,1.5")],
                             ids=["dim-mismatch", "empty-set-dim-mismatch",
                                  "w-out-of-range"])
    def test_data_error_exits_1_as_in_eval(self, bench, capsys, dim, rows,
                                           grid):
        protos = bench / "common.protos"
        if dim is not None:
            protos = bench / "other.protos"
            protos.write_text(
                json.dumps({"format": "spc-prototypes", "version": 1,
                            "dim": dim}) + "\n"
                + (json.dumps({"label": "c", "vec": [0.6, 0.8]}) + "\n")
                * rows)
        inputs = ["--prototypes", str(protos),
                  "--stream", str(bench / "stream.records")]
        code, _, err = run(["sweep", "--w-grid", grid, *inputs,
                            "--out", str(bench / "s.tsv")], capsys)
        assert code == 1 and err.startswith("spc: error:")
        code, _, eval_err = run(["eval", "--strategy", "spc", "--w",
                                 grid.split(",")[-1], *inputs,
                                 "--out", str(bench / "e.tsv")], capsys)
        assert (code, eval_err) == (1, err)
        assert not (bench / "s.tsv").exists()


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


BENCH_FILES = ["eval-spc-w0.85", "eval-spc-sum-w_s0.5", "eval-1nn",
               "eval-1nn-star", "eval-ncm-fixed", "eval-ncm-incr-full-history",
               "eval-ncm-incr-mean-as-one", "sweep-w", "cv-w"]


@pytest.fixture(scope="module")
def bench_tables():
    """The tables `spc bench --users 4` must write, in BENCH_FILES order,
    and the chosen w, computed through the library."""
    train, stream, _, _ = generate_synthetic(SynthConfig(users=4, seed=42))
    protos = build_prototypes(
        train, select_classes(TrainIndex.from_records(train), SubsetSpec()),
        SubsetSpec())
    streams = group_by_user(stream)
    grid = [0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0]
    tables = [bucket_report(run_streams(streams, protos, s)).to_table(
        s.label()) for s in cli.STRATEGIES.values()]
    tables.append(sweep_table(sweep_w(streams, protos, grid), "w", (1, 5), 50))
    cv = cross_validate_w(streams, protos, grid, seed=42)
    tables.append(cv.to_table())
    return tables, cv.chosen_w


class TestBenchCommand:
    def test_defaults_come_from_synth_config(self):
        args = cli.build_parser().parse_args(["bench", "--out-dir", "x"])
        assert (args.users, args.seed) == (SynthConfig().users,
                                           SynthConfig().seed)

    @pytest.mark.parametrize("fmt,ext", [("tsv", "tsv"), ("markdown", "md")],
                             ids=["tsv", "markdown"])
    def test_reports_match_the_library(self, tmp_path, capsys, bench_tables,
                                       fmt, ext):
        code, stdout, _ = run(["bench", "--users", "4", "--format", fmt,
                               "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        tables, chosen_w = bench_tables
        paths = [tmp_path / f"{name}.{ext}" for name in BENCH_FILES]
        assert sorted(tmp_path.iterdir()) == sorted(paths)
        for path, table in zip(paths, tables):
            assert path.read_bytes() == \
                render_report(table, fmt=fmt).encode("utf-8"), path.name
        assert stdout.splitlines() == [f"wrote {p}" for p in paths] + [
            f"chosen w = {chosen_w:g}"]
