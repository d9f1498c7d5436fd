"""Line-oriented text formats: record streams, prototype sets, and report
tables. Every file starts with a JSON header line carrying the format name,
a version, and the embedding dimension, so readers can fail fast. Field
rules live in core; the one read loop adds path:line to what a line breaks.

A file is read in blocks of whole lines, about READ_BLOCK bytes each. A
version 2 block takes one UTF-8 decode, one JSON parse, one float32 matrix
of its vectors and one norm check. A block in which any check fails, and
every block of a version 1 file, is read again line by line, so the error
cites its line, and the first fault in the file is the one reported.

Version 2 writes each vector as a base64 string of its little-endian
float32 bytes: the bytes are the value, so a round trip is bit-exact on
any host, but vectors are no longer readable as text. Version 1 files,
whose vectors are JSON lists of numbers, still read.
"""

from __future__ import annotations

import json
from base64 import b64decode
from binascii import b2a_base64
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .core import (UNIT_NORM_TOL, LabeledRecord, LabelRegistry,
                   PrototypeSet, SpcError, check_int, check_unit, normalize,
                   row_norms, stack_records)

RECORDS_FORMAT = "spc-records"
PROTOS_FORMAT = "spc-prototypes"
FORMAT_VERSION = 2
# bytes of whole lines read per block (f.readlines' hint): a block holds a
# few hundred lines at dim 64, and its text, JSON and vectors are freed
# before the next block is read
READ_BLOCK = 1 << 18


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
    return np.frombuffer(b64decode(value, validate=True),
                         "<f4").astype(np.float32)


class _Fields(dict):
    def __missing__(self, key):
        raise SpcError(f"malformed line: missing key {key!r}")


_decode = json.JSONDecoder(object_hook=_Fields).decode


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


def _check_vec(vec: np.ndarray, dim: int, renorm: bool = False) -> np.ndarray:
    """The line's vector, checked to be unit or, when renorm, normalized."""
    if vec.shape != (dim,):
        raise SpcError(f"vec length {vec.shape[0] if vec.ndim == 1 else '?'} "
                       f"does not match dim {dim}")
    if renorm:
        return normalize(vec)
    check_unit(vec)
    return vec


def _read_block(lines, dim: int, renorm: bool, read_rows) -> bool:
    """Read a block of a version 2 file's lines at once and pass their
    rows to read_rows, with the identity as their check; returns False,
    having changed nothing but what read_rows interned, where any check
    fails.

    The block is parsed as one JSON array that holds each line in an
    array of its own, joined by a newline, which no JSON string holds.
    With no bracket in the lines, each inner array holds exactly its
    line's tokens: empty for a blank line, and one object for a line that
    is one object alone. The count is of bytes, so a "[" inside a string
    (a label such as "rice [cooked]") also sends its block to the
    per-line code; that costs time, not correctness."""
    data = b"]\n,[".join(lines)
    # the brackets must balance, so a line with no "[" holds no "]" either
    if data.count(b"[") != len(lines) - 1:
        return False
    try:
        wrapped = json.loads("[[" + data.decode("utf-8") + "]]")
        objs = list(chain.from_iterable(wrapped))
        raw = [b64decode(obj["vec"], validate=True) for obj in objs]
    except (KeyError, TypeError, ValueError):  # UTF-8, JSON, vec, base64
        return False
    # a line of more than one value, or a vector not of dim values
    if max(map(len, wrapped)) > 1 or {*map(len, raw)} - {4 * dim}:
        return False
    matrix = np.frombuffer(b"".join(raw), "<f4").reshape(-1, dim)
    matrix64 = matrix.astype(np.float64)
    # normalize's and check_unit's norm of each row, bit for bit
    norms = row_norms(matrix64)
    if renorm:
        if not (np.isfinite(norms) & (norms != 0.0)).all():
            return False
        matrix = (matrix64 / norms[:, None]).astype(np.float32)
    elif (np.abs(norms - 1.0) <= UNIT_NORM_TOL).all():
        matrix = matrix.astype(np.float32)  # native and writable
    else:
        return False
    try:
        read_rows(objs, matrix, lambda vec: vec)
    except (KeyError, SpcError):  # a missing key, or a field's rule
        return False
    return True


def _read_lines(path, expected_format: str, read_rows,
                renorm: bool = False) -> dict:
    """Check a line file's header, then call read_rows(objs, vecs, check)
    on its non-blank lines: their JSON objects, their vectors as float32,
    and check(vec), which returns a line's vector once it is checked to
    have the header's dim and unit norm or, with renorm and a header that
    says normalize, normalized. read_rows must check each line in turn
    and keep nothing of a call that raises. Returns the header.

    A file is read in blocks of whole lines of about READ_BLOCK bytes.
    A version 2 block is read at once when every check passes; otherwise,
    and in a version 1 file, the block is read again line by line, one
    read_rows call per line, and an SpcError is raised again as a
    FileFormatError citing path:line."""
    lineno = 1
    with open(path, "rb") as f:
        try:
            header = _check_header(f.readline(), expected_format)
            dim, version = header["dim"], header["version"]
            renorm = renorm and header["normalize"]
            check = partial(_check_vec, dim=dim, renorm=renorm)
            while lines := f.readlines(READ_BLOCK):
                if version == 2 and _read_block(lines, dim, renorm,
                                                read_rows):
                    lineno += len(lines)
                    continue
                for lineno, line in enumerate(lines, start=lineno + 1):
                    try:  # decoded per line: bad UTF-8 cites its line
                        line = line.decode("utf-8")
                        if not line.strip():
                            continue
                        obj = _decode(line)
                        vec = _load_vec(obj["vec"], version)
                    except (TypeError, ValueError) as e:  # UTF-8, JSON, vec
                        raise SpcError(f"malformed line: {e}") from None
                    read_rows([obj], [vec], check)
        except SpcError as e:
            raise FileFormatError(f"{path}:{lineno}: {e}") from None
    return header


def _write_lines(path, fmt: str, header: dict, fields, matrix) -> None:
    """Write a header line of format fmt, then one line per row of matrix:
    a JSON object of that row's fields, already formatted as JSON members,
    and the row as "vec", base64 of its little-endian float32 bytes. The
    lines are those json.dumps would write, with no spaces."""
    head = _dump({"format": fmt, "version": FORMAT_VERSION, **header})
    matrix = np.ascontiguousarray(matrix, "<f4")
    with open(path, "w", encoding="utf-8") as f:
        f.write(head + "\n")
        for members, row in zip(fields, matrix):
            f.write('{%s,"vec":"%s"}\n'
                    % (members, b2a_base64(row, newline=False).decode()))


def write_records(records, path, registry: LabelRegistry | None = None,
                  dim: int | None = None) -> None:
    """Write labeled records as header + one JSON object per line. A
    record read_records would refuse, or one whose class id the registry
    lacks, is named before the file is opened, and every line's fields
    are formatted before it is."""
    records = list(records)
    if dim is None:
        if not records:
            raise SpcError("cannot infer dim from an empty record list")
        dim = len(records[0].vec)
    dim = check_int(dim, "dim", 1)
    vecs = stack_records(records, dim, np.float32)
    resolve = registry.resolve if registry is not None else str
    fields = ['"user":%s,"t":%d,"label":%s'
              % (_quote(rec.user), check_int(rec.t, "t", 1),
                 _quote(resolve(rec.class_id)))
              for rec in records]
    _write_lines(path, RECORDS_FORMAT, {"dim": dim, "normalize": False},
                 fields, vecs)


def read_records(path, registry: LabelRegistry | None = None):
    """Parse a record file; returns (records, registry).

    Vectors are normalized on load when the header says normalize=true,
    otherwise they must already be unit within tolerance. Errors cite the
    offending line number.
    """
    if registry is None:
        registry = LabelRegistry()
    records: list[LabeledRecord] = []

    def read_rows(objs, vecs, check):
        records.extend([LabeledRecord(
            user=obj["user"], t=obj["t"],
            class_id=registry.intern(obj["label"]), vec=check(vec))
            for obj, vec in zip(objs, vecs)])

    _read_lines(path, RECORDS_FORMAT, read_rows, renorm=True)
    return records, registry


def write_prototypes(protos: PrototypeSet, path,
                     registry: LabelRegistry | None = None) -> None:
    """One line per class: label, training count (null where unknown),
    prototype vector. Every line's fields are formatted, each label
    resolved, before the file is opened."""
    resolve = registry.resolve if registry is not None else str
    counts = protos.counts
    fields = ['"label":%s,"count":%s'
              % (_quote(resolve(c)),
                 "null" if counts.get(c) is None else "%d" % counts[c])
              for c in protos.class_ids.tolist()]
    _write_lines(path, PROTOS_FORMAT, {"dim": protos.dim}, fields,
                 protos.matrix)


def read_prototypes(path, registry: LabelRegistry | None = None):
    """Parse a prototype file; returns (PrototypeSet, registry).

    An empty file (header only) is a legal empty prototype set.
    """
    if registry is None:
        registry = LabelRegistry()
    rows, counts = {}, {}

    def read_rows(objs, vecs, check):
        new_rows, new_counts = {}, {}
        for obj, vec in zip(objs, vecs):
            cid = registry.intern(obj["label"])
            if obj.get("count") is not None:
                new_counts[cid] = check_int(obj["count"], "count", 1)
            if cid in rows or cid in new_rows:
                raise SpcError(f"duplicate label {obj['label']!r}")
            new_rows[cid] = check(vec)
        rows.update(new_rows)
        counts.update(new_counts)

    dim = _read_lines(path, PROTOS_FORMAT, read_rows)["dim"]
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
