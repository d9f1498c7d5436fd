"""Every file of the usual CLI report set, pinned by its sha256.

The set, written through cli.main into one directory:
  - `spc bench --users 20`, in tsv and in markdown;
  - `spc synth` and `build-prototypes` (at its defaults and capped), which
    pins the format-version-2 record and prototype bytes, and `spc synth`
    with every sigma at 0, which draws only the directions;
  - `spc eval --precise` for all seven strategies, with prototypes, and
    with `--no-learn` on the capped prototypes at other report settings;
    the nearest-neighbour strategies also without prototypes;
  - `spc sweep` over w (with and without prototypes) and over w_s;
  - `spc cv`, on two grids.

Like perfbench's golden.json, the digests rest on this host's BLAS
rounding, the `--precise` reports most of all: a product that rounds
differently can move a rank or a printed digit. A host that rounds
differently fails here, naming each file that differs. A change that
alters a report on purpose records the new digests (running this file as
a script prints the whole set as JSON) and names each changed file.
"""

import contextlib
import hashlib
import json
import pathlib
import sys
import tempfile

import pytest

from spc import cli

GOLDEN = pathlib.Path(__file__).with_name("golden_reports.json")

EVAL = ["spc", "spc-sum", "1nn", "1nn-star", "ncm-fixed", "ncm-incr:full",
        "ncm-incr:one"]


def commands(out: pathlib.Path) -> list[list[str]]:
    """The report set's argv lists, writing under out."""
    data = out / "data"
    stream = ["--stream", str(data / "stream.records")]
    protos = {"common": ["--prototypes", str(data / "common.protos")],
              "capped": ["--prototypes", str(data / "capped.protos")],
              "none": []}
    argvs = [["bench", "--users", "20", "--out-dir", str(out / "bench-tsv")],
             ["bench", "--users", "20", "--format", "markdown",
              "--out-dir", str(out / "bench-md")],
             ["synth", "--users", "6", "--records", "200", "--seed", "3",
              "--out-dir", str(data)],
             ["synth", "--users", "3", "--records", "300", "--sigma-user",
              "0", "--sigma-sample", "0", "--group-tightness", "0",
              "--out-dir", str(out / "noiseless")],
             ["build-prototypes", "--train", str(data / "train.records"),
              "--out", str(data / "common.protos")],
             ["build-prototypes", "--train", str(data / "train.records"),
              "--per-class-cap", "5", "--seed", "1",
              "--out", str(data / "capped.protos")]]
    runs = [(name, "common", []) for name in EVAL]
    runs += [(name, "capped", ["--no-learn", "--topk", "1,3,7",
                               "--bucket", "30"]) for name in EVAL]
    runs += [(name, "none", []) for name in EVAL[:4]]
    for name, which, extra in runs:
        weight = ["--ws", "0.4"] if name == "spc-sum" else []
        tag = name.replace(":", "-") + ("-no-learn" if extra else "")
        argvs.append(["eval", "--strategy", name, *weight, *protos[which],
                      *stream, *extra, "--precise",
                      "--out", str(out / "eval" / f"{which}-{tag}.tsv")])
    for tag, grid, which in (("w", ["--w-grid", "0.5:0.1:1.0"], "common"),
                             ("ws", ["--ws-grid", "0.2,0.5,0.8"], "common"),
                             ("w-none", ["--w-grid", "0.6,1.0"], "none")):
        argvs.append(["sweep", *grid, *protos[which], *stream, "--precise",
                      "--out", str(out / "sweep" / f"{tag}.tsv")])
    argvs.append(["cv", "--w-grid", "0.6:0.1:1.0", *protos["common"],
                  *stream, "--precise", "--out", str(out / "cv" / "a.tsv")])
    argvs.append(["cv", "--w-grid", "0.8,0.9,1.0", "--folds", "3",
                  "--objective-k", "5", *protos["common"], *stream,
                  "--format", "markdown", "--out", str(out / "cv" / "b.md")])
    return argvs


def write_reports(out: pathlib.Path) -> None:
    for sub in ("eval", "sweep", "cv"):
        (out / sub).mkdir(parents=True)
    for argv in commands(out):
        assert cli.main(argv) == 0, f"spc {' '.join(argv)} failed"


def digests(out: pathlib.Path) -> dict[str, str]:
    """sha256 of every file under out, by its path relative to out."""
    return {path.relative_to(out).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()}


def mismatches(got: dict, want: dict) -> list[str]:
    """One line per file whose digest differs, or that one side lacks."""
    return [f"{name}: now {got.get(name)}"
            for name in sorted(got.keys() | want.keys())
            if got.get(name) != want.get(name)]


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    out = tmp_path_factory.mktemp("reports")
    write_reports(out)
    return out


def test_every_report_matches_its_golden_digest(reports):
    bad = mismatches(digests(reports), json.loads(GOLDEN.read_text()))
    assert not bad, f"reports differ from {GOLDEN.name}:\n" + "\n".join(bad)


def test_a_one_byte_edit_names_its_file(reports, tmp_path):
    want = json.loads(GOLDEN.read_text())
    name = "eval/common-ncm-incr-one.tsv"
    data = bytearray((reports / name).read_bytes())
    data[-2] ^= 1
    (tmp_path / "eval").mkdir()
    (tmp_path / name).write_bytes(bytes(data))
    got = {**want, **digests(tmp_path)}
    assert mismatches(got, want) == [f"{name}: now {got[name]}"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(sys.stderr):
            write_reports(pathlib.Path(tmp))
        print(json.dumps(digests(pathlib.Path(tmp)), indent=1))
