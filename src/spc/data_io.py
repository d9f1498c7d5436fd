"""Line-oriented text formats: record streams, prototype sets, and report
tables. Every file starts with a JSON header line carrying the format name,
a version, and the embedding dimension, so readers can fail fast. Field
rules live in core; the one read loop adds path:line to what a line breaks.

Version 2 writes each vector as a base64 string of its little-endian
float32 bytes: the bytes are the value, so a round trip is bit-exact on
any host, but vectors are no longer readable as text. Version 1 files,
whose vectors are JSON lists of numbers, still read.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field

import numpy as np

from .core import (LabeledRecord, LabelRegistry, PrototypeSet, SpcError,
                   check_int, check_unit, normalize, stack_records)

RECORDS_FORMAT = "spc-records"
PROTOS_FORMAT = "spc-prototypes"
FORMAT_VERSION = 2


class FileFormatError(SpcError):
    pass


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _load_vec(value, version: int) -> np.ndarray:
    """A line's "vec" as float32: a JSON list in a version 1 file, base64 of
    little-endian float32 bytes in a version 2 file."""
    if isinstance(value, str) != (version == 2):
        raise ValueError(f"vec must be a {('list', 'string')[version - 1]} "
                         f"in a version {version} file")
    if version == 1:
        return np.asarray(value, dtype=np.float32)
    # frombuffer's array is read-only: astype makes a native, writable copy
    return np.frombuffer(base64.b64decode(value, validate=True),
                         "<f4").astype(np.float32)


class _Fields(dict):
    def __missing__(self, key):
        raise SpcError(f"malformed line: missing key {key!r}")


def _check_header(line: bytes, expected_format: str) -> dict:
    try:
        header = json.loads(line.decode("utf-8"))
        fmt = header.get("format")
    except (ValueError, AttributeError) as e:  # bad UTF-8, JSON or object
        raise SpcError(f"malformed header: {e}") from None
    if fmt != expected_format:
        raise SpcError(f"expected format {expected_format!r}, got {fmt!r}")
    if check_int(header.get("version"), "version", 1) not in (1, 2):
        raise SpcError(f"unsupported version {header['version']!r}")
    check_int(header.get("dim"), "dim", 1)
    if not isinstance(header.setdefault("normalize", False), bool):
        raise SpcError(f"normalize must be true or false, "
                       f"got {header['normalize']!r}")
    return header


def _read_lines(path, expected_format: str, read_line) -> dict:
    """Check a line file's header and call read_line(header, obj, vec) on
    each non-blank line, vec as float32; returns the header. An SpcError
    from either is raised again as a FileFormatError citing path:line."""
    decode = json.JSONDecoder(object_hook=_Fields).decode
    lineno = 1
    with open(path, "rb") as f:  # decoded per line: bad UTF-8 cites its line
        try:
            header = _check_header(f.readline(), expected_format)
            for lineno, line in enumerate(f, start=2):
                try:
                    line = line.decode("utf-8")
                    if not line.strip():
                        continue
                    obj = decode(line)
                    vec = _load_vec(obj["vec"], header["version"])
                except (TypeError, ValueError) as e:  # bad UTF-8, JSON, vec
                    raise SpcError(f"malformed line: {e}") from None
                read_line(header, obj, vec)
        except SpcError as e:
            raise FileFormatError(f"{path}:{lineno}: {e}") from None
    return header


def _check_vec(vec: np.ndarray, dim: int, renorm: bool = False) -> np.ndarray:
    """The line's vector, checked to be unit or, when renorm, normalized."""
    if vec.shape != (dim,):
        raise SpcError(f"vec length {vec.shape[0] if vec.ndim == 1 else '?'} "
                       f"does not match dim {dim}")
    if renorm:
        return normalize(vec)
    check_unit(vec)
    return vec


def _write_lines(path, fmt: str, header: dict, rows) -> None:
    """Write a header line of format fmt, then one line per (fields, vec)."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(_dump({"format": fmt, "version": FORMAT_VERSION, **header})
                + "\n")
        for fields, vec in rows:
            vec = base64.b64encode(vec.astype("<f4").tobytes()).decode()
            f.write(_dump({**fields, "vec": vec}) + "\n")


def write_records(records, path, registry: LabelRegistry | None = None,
                  dim: int | None = None) -> None:
    """Write labeled records as header + one JSON object per line. A
    record read_records would refuse, or one whose class id the registry
    lacks, is named before the file is opened."""
    records = list(records)
    if dim is None:
        if not records:
            raise SpcError("cannot infer dim from an empty record list")
        dim = len(records[0].vec)
    vecs = stack_records(records, dim, np.float32)
    resolve = registry.resolve if registry is not None else str
    labels = [resolve(rec.class_id) for rec in records]
    _write_lines(path, RECORDS_FORMAT, {"dim": dim, "normalize": False},
                 (({"user": rec.user, "t": rec.t, "label": label}, vec)
                  for rec, label, vec in zip(records, labels, vecs)))


def read_records(path, registry: LabelRegistry | None = None):
    """Parse a record file; returns (records, registry).

    Vectors are normalized on load when the header says normalize=true,
    otherwise they must already be unit within tolerance. Errors cite the
    offending line number.
    """
    if registry is None:
        registry = LabelRegistry()
    records: list[LabeledRecord] = []

    def read_line(header, obj, vec):
        records.append(LabeledRecord(
            user=obj["user"], t=obj["t"],
            class_id=registry.intern(obj["label"]),
            vec=_check_vec(vec, header["dim"], header["normalize"])))

    _read_lines(path, RECORDS_FORMAT, read_line)
    return records, registry


def write_prototypes(protos: PrototypeSet, path,
                     registry: LabelRegistry | None = None) -> None:
    """One line per class: label, training count, prototype vector. Every
    label is resolved before the file is opened."""
    resolve = registry.resolve if registry is not None else str
    ids = protos.class_ids.tolist()
    labels = [resolve(c) for c in ids]
    _write_lines(path, PROTOS_FORMAT, {"dim": protos.dim},
                 (({"label": label, "count": protos.counts.get(c)}, vec)
                  for c, label, vec in zip(ids, labels, protos.matrix)))


def read_prototypes(path, registry: LabelRegistry | None = None):
    """Parse a prototype file; returns (PrototypeSet, registry).

    An empty file (header only) is a legal empty prototype set.
    """
    if registry is None:
        registry = LabelRegistry()
    rows, counts = {}, {}

    def read_line(header, obj, vec):
        cid = registry.intern(obj["label"])
        if obj.get("count") is not None:
            counts[cid] = check_int(obj["count"], "count", 1)
        if cid in rows:
            raise SpcError(f"duplicate label {obj['label']!r}")
        rows[cid] = _check_vec(vec, header["dim"])

    dim = _read_lines(path, PROTOS_FORMAT, read_line)["dim"]
    return PrototypeSet(dim, list(rows), list(rows.values()), counts), registry


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
