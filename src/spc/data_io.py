"""Line-oriented text formats: record streams, prototype sets, and report
tables. Every file starts with a JSON header line carrying the format name,
a version, and the embedding dimension, so readers can fail fast.

Vector components are float32 values, each written as `"%.9g" % x`
(exactly zero as `repr(x)`, so -0.0 keeps its sign). That is exact: nine
significant digits lie within 5e-9 relative of x, and half a float32 ulp
is at least 2**-25 (about 3e-8) relative, so parsing to float64 and
rounding to float32 gives back x bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .core import (LabeledRecord, LabelRegistry, PrototypeSet, SpcError,
                   check_unit, normalize, stack_records)

RECORDS_FORMAT = "spc-records"
PROTOS_FORMAT = "spc-prototypes"
FORMAT_VERSION = 1


class FileFormatError(SpcError):
    pass


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _dump_with_vec(fields: dict, vec: np.ndarray) -> str:
    """`_dump(fields)` with a last key "vec" holding a float32 vector."""
    # not %#.9g: it writes 331719808. which is not JSON
    parts = ["%.9g" % x if x else repr(x) for x in vec.tolist()]
    return _dump(fields)[:-1] + ',"vec":[' + ",".join(parts) + "]}"


def _read_header(line: str, path, expected_format: str) -> dict:
    try:
        header = json.loads(line)
    except json.JSONDecodeError as e:
        raise FileFormatError(f"{path}:1: malformed header: {e}") from None
    if header.get("format") != expected_format:
        raise FileFormatError(
            f"{path}:1: expected format {expected_format!r}, "
            f"got {header.get('format')!r}")
    if header.get("version") != FORMAT_VERSION:
        raise FileFormatError(f"{path}:1: unsupported version "
                              f"{header.get('version')!r}")
    if not isinstance(header.get("dim"), int) or header["dim"] < 1:
        raise FileFormatError(f"{path}:1: bad dim {header.get('dim')!r}")
    return header


def _check_label(label, path, lineno: int) -> None:
    if not isinstance(label, str) or not label:
        raise FileFormatError(f"{path}:{lineno}: label must be a non-empty "
                              f"string, got {label!r}")


def _check_vec(vec: np.ndarray, dim: int, path, lineno: int,
               renorm: bool = False) -> np.ndarray:
    """The line's vector, checked to be unit or, when renorm, normalized."""
    if vec.shape != (dim,):
        raise FileFormatError(
            f"{path}:{lineno}: vec length "
            f"{vec.shape[0] if vec.ndim == 1 else '?'} does not match dim {dim}")
    try:
        if renorm:
            return normalize(vec)
        check_unit(vec)
        return vec
    except SpcError as e:
        raise FileFormatError(f"{path}:{lineno}: {e}") from None


def write_records(records, path, registry: LabelRegistry | None = None,
                  dim: int | None = None) -> None:
    """Write labeled records as header + one JSON object per line. A
    record read_records would refuse is named before the file is opened."""
    records = list(records)
    if dim is None:
        if not records:
            raise SpcError("cannot infer dim from an empty record list")
        dim = len(records[0].vec)
    vecs = stack_records(records, dim, np.float32)
    resolve = registry.resolve if registry is not None else str
    with open(path, "w", encoding="utf-8") as f:
        f.write(_dump({"format": RECORDS_FORMAT, "version": FORMAT_VERSION,
                       "dim": dim, "normalize": False}) + "\n")
        for rec, vec in zip(records, vecs):
            f.write(_dump_with_vec({"user": rec.user, "t": rec.t,
                                    "label": resolve(rec.class_id)}, vec)
                    + "\n")


def read_records(path, registry: LabelRegistry | None = None):
    """Parse a record file; returns (records, registry).

    Vectors are normalized on load when the header says normalize=true,
    otherwise they must already be unit within tolerance. Errors cite the
    offending line number.
    """
    if registry is None:
        registry = LabelRegistry()
    records: list[LabeledRecord] = []
    with open(path, "r", encoding="utf-8") as f:
        header = _read_header(f.readline(), path, RECORDS_FORMAT)
        dim = header["dim"]
        renorm = bool(header.get("normalize", False))
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                user, t, label = obj["user"], obj["t"], obj["label"]
                vec = np.asarray(obj["vec"], dtype=np.float32)
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
                raise FileFormatError(f"{path}:{lineno}: malformed record: {e}") \
                    from None
            if not isinstance(user, str):
                raise FileFormatError(
                    f"{path}:{lineno}: user must be a string, got {user!r}")
            # bool is an int subclass, 1.0 would pass for 1; t goes to int64
            if type(t) is not int or not 1 <= t < 2**63:
                raise FileFormatError(
                    f"{path}:{lineno}: t must be an integer from 1 to "
                    f"2**63 - 1, got {t!r}")
            _check_label(label, path, lineno)
            vec = _check_vec(vec, dim, path, lineno, renorm)
            records.append(LabeledRecord(user=user, t=t,
                                         class_id=registry.intern(label),
                                         vec=vec))
    return records, registry


def write_prototypes(protos: PrototypeSet, path,
                     registry: LabelRegistry | None = None) -> None:
    """One line per class: label, training count, prototype vector."""
    resolve = registry.resolve if registry is not None else str
    with open(path, "w", encoding="utf-8") as f:
        f.write(_dump({"format": PROTOS_FORMAT, "version": FORMAT_VERSION,
                       "dim": protos.dim}) + "\n")
        for i, c in enumerate(protos.class_ids):
            count = protos.counts.get(int(c)) if protos.counts else None
            f.write(_dump_with_vec({"label": resolve(int(c)), "count": count},
                                   protos.matrix[i]) + "\n")


def read_prototypes(path, registry: LabelRegistry | None = None):
    """Parse a prototype file; returns (PrototypeSet, registry).

    An empty file (header only) is a legal empty prototype set.
    """
    if registry is None:
        registry = LabelRegistry()
    with open(path, "r", encoding="utf-8") as f:
        header = _read_header(f.readline(), path, PROTOS_FORMAT)
        dim = header["dim"]
        seen: set[str] = set()
        ids, vecs, counts = [], [], {}
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                label, count = obj["label"], obj.get("count")
                vec = np.asarray(obj["vec"], dtype=np.float32)
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
                raise FileFormatError(f"{path}:{lineno}: malformed line: {e}") \
                    from None
            _check_label(label, path, lineno)
            if count is not None and (type(count) is not int
                                      or not 1 <= count < 2**63):
                raise FileFormatError(
                    f"{path}:{lineno}: count must be null or an integer "
                    f"from 1 to 2**63 - 1, got {count!r}")
            if label in seen:
                raise FileFormatError(f"{path}:{lineno}: duplicate label "
                                      f"{label!r}")
            seen.add(label)
            _check_vec(vec, dim, path, lineno)
            cid = registry.intern(label)
            ids.append(cid)
            vecs.append(vec)
            if count is not None:
                counts[cid] = count
    vectors = np.stack(vecs) if vecs else None
    return PrototypeSet(dim=dim, class_ids=ids, vectors=vectors,
                        counts=counts or None), registry


@dataclass
class ReportTable:
    """A report: one label per row, one value per (bucket, k) column.

    Values are fractions in [0, 1]; None renders as a blank cell
    (e.g. a conditional accuracy over an empty subset).
    """

    columns: list[str]
    rows: list[tuple[str, list[float | None]]]
    notes: list[str] = field(default_factory=list)


def _render_cell(value: float | None) -> str:
    return "-" if value is None else f"{100.0 * value:.1f}"


def _render_precise(value: float | None) -> str:
    return "-" if value is None else repr(value)


def render_report(table: ReportTable, fmt: str = "tsv",
                  precise: bool = False) -> str:
    """Render a report table; percent with one decimal, deterministic."""
    columns = list(table.columns)
    if precise:
        columns += [c + " (raw)" for c in table.columns]
    rows = [[label] + [_render_cell(v) for v in values]
            + ([_render_precise(v) for v in values] if precise else [])
            for label, values in table.rows]
    if fmt == "tsv":
        out = ["\t".join(["method"] + columns)]
        out += ["\t".join(cells) for cells in rows]
        out += [f"# {note}" for note in table.notes]
    elif fmt == "markdown":
        out = ["| method | " + " | ".join(columns) + " |",
               "|" + "---|" * (len(columns) + 1)]
        out += ["| " + " | ".join(cells) + " |" for cells in rows]
        for note in table.notes:
            out += ["", f"_{note}_"]
    else:
        raise SpcError(f"unknown report format {fmt!r}")
    return "\n".join(out) + "\n"


def write_report(table: ReportTable, path, fmt: str = "tsv",
                 precise: bool = False) -> None:
    if not table.rows:
        raise SpcError("refusing to write an empty report")
    text = render_report(table, fmt=fmt, precise=precise)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def write_manifest(manifest: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
