"""File formats: data matrices, mixture models, iteration traces.

Matrices travel either as plain CSV (shortest-round-trip decimal floats, so
write-then-read is bit exact) or as a little-endian binary container with a
four-byte magic; readers sniff the magic to pick the decoder.  Models are
JSON documents; traces are CSV with a fixed column header.

CSV matrices are read by numpy's C reader (``np.loadtxt``), which converts
each cell with the same routine as ``float()``, so values are bit-identical
to a per-cell parse.  Input it refuses (quoted cells, ``1_0``, non-ASCII
digits, blank lines holding spaces, ragged or bad rows) is parsed again cell
by cell with the :mod:`csv` module, which also words every error.
"""

from __future__ import annotations

import csv
import io as _stdio
import json
import re
import struct
from pathlib import Path

import numpy as np

from .core import EgdParams, MixtureModel, ScatterMatrix

__all__ = [
    "MATRIX_MAGIC",
    "MATRIX_VERSION",
    "TRACE_COLUMNS",
    "write_matrix_binary",
    "write_matrix_csv",
    "read_matrix",
    "write_model",
    "read_model",
    "write_trace",
    "read_trace",
    "trace_rows",
]

MATRIX_MAGIC = b"EGDM"
MATRIX_VERSION = 1

_HEADER = struct.Struct("<4sIQQ")
_NONBLANK = re.compile(rb"[^\r\n]")
_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")

MODEL_FORMAT = "egd-mixture-v1"

TRACE_COLUMNS = ("iter", "avg_loglik", "residual", "alpha",
                 "lambda_max", "lambda_min", "elapsed_ms")


def _as_matrix(array) -> np.ndarray:
    m = np.ascontiguousarray(np.asarray(array, dtype="<f8"))
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError("expected a two-dimensional matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def write_matrix_binary(path, array) -> None:
    m = _as_matrix(array)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MATRIX_MAGIC, MATRIX_VERSION, m.shape[0],
                              m.shape[1]))
        fh.write(m.tobytes(order="C"))


def write_matrix_csv(path, array) -> None:
    m = _as_matrix(array)
    with open(path, "w", newline="") as fh:
        for row in m:
            fh.write(",".join(map(repr, row.tolist())))
            fh.write("\n")


def _read_matrix_binary(raw: bytes) -> np.ndarray:
    if len(raw) < _HEADER.size:
        raise ValueError(f"matrix file is {len(raw)} bytes, shorter than the "
                         f"{_HEADER.size}-byte header")
    magic, version, rows, cols = _HEADER.unpack_from(raw)
    if version != MATRIX_VERSION:
        raise ValueError(f"unsupported matrix file version {version}")
    expected = _HEADER.size + 8 * rows * cols
    if len(raw) != expected:
        raise ValueError(f"matrix payload is {len(raw) - _HEADER.size} bytes, "
                         f"expected {8 * rows * cols} for a {rows}x{cols} "
                         "matrix")
    m = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    return _as_matrix(m.reshape(rows, cols))


def _read_matrix_csv(raw: bytes) -> np.ndarray:
    stream = _stdio.BytesIO(raw)
    try:
        first = next(csv.reader(line.decode("utf-8") for line in stream), [])
    except (csv.Error, ValueError):
        return _parse_csv_cells(raw.decode("utf-8"))
    try:
        float(first[0])
        stream.seek(0)  # the first line is data: read it too
    except (IndexError, ValueError):
        pass  # a header, or a blank line: both are skipped
    matrix = None
    # left to the cell parser: input without data, on which loadtxt only
    # warns, and cells padded with the separators \x1c-\x1f, which loadtxt
    # strips as whitespace and float() refuses
    if (_NONBLANK.search(raw, stream.tell())
            and not any(sep in raw for sep in _SEPARATORS)):
        try:
            matrix = np.loadtxt(stream, dtype="<f8", delimiter=",",
                                comments=None, ndmin=2, encoding="utf-8")
        except ValueError:
            pass
    if matrix is None:
        return _parse_csv_cells(raw.decode("utf-8"))
    return _as_matrix(matrix)


def _parse_csv_cells(text: str) -> np.ndarray:
    """Reference CSV parser, one ``float()`` per cell."""
    rows = []
    reader = csv.reader(_stdio.StringIO(text))
    try:
        for line_no, row in enumerate(reader):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if line_no == 0:
                # a non-numeric first line is treated as a header
                try:
                    float(row[0])
                except ValueError:
                    continue
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ValueError(f"line {line_no + 1}: {exc}") from None
    except csv.Error as exc:  # e.g. a bare carriage return ending a line
        raise ValueError(f"line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError("no numeric rows found")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError("rows have inconsistent column counts")
    return _as_matrix(rows)


def read_matrix(path) -> np.ndarray:
    """Load a matrix, sniffing binary versus CSV by the leading magic.

    The file is read in one pass so pipes and process substitutions work.
    """
    raw = Path(path).read_bytes()
    if raw[:len(MATRIX_MAGIC)] == MATRIX_MAGIC:
        return _read_matrix_binary(raw)
    return _read_matrix_csv(raw)


def write_model(path, model: MixtureModel, fit_info: dict | None = None) -> None:
    doc = {
        "format": MODEL_FORMAT,
        "dim": model.dim,
        "components": [
            {
                "weight": float(p),
                "a": comp.shape_a,
                "b": comp.scale_b,
                "scatter": [float(v) for v in comp.scatter.entries.ravel()],
            }
            for comp, p in zip(model.components, model.mix_probs)
        ],
        "fit_info": fit_info or {},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _number(entry: dict, key: str, where: str) -> float:
    value = entry.get(key)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"{where}: '{key}' missing or not a number")


def read_model(path):
    """Load a mixture model document; returns ``(model, fit_info)``.

    A missing or mistyped key raises ``ValueError`` naming the key.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a {MODEL_FORMAT} document")
    dim = doc.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ValueError(f"{path}: 'dim' missing or not a positive integer")
    entries = doc.get("components")
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"{path}: 'components' missing or not a nonempty list")
    comps = []
    weights = []
    for j, entry in enumerate(entries):
        where = f"{path}: component {j}"
        if not isinstance(entry, dict):
            raise ValueError(f"{where} is not an object")
        a, b, weight = (_number(entry, key, where)
                        for key in ("a", "b", "weight"))
        if not isinstance(entry.get("scatter"), list):
            raise ValueError(f"{where}: 'scatter' missing or not a list")
        try:
            flat = np.asarray(entry["scatter"], dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{where}: 'scatter' must hold numbers") from None
        if flat.size != dim * dim:
            raise ValueError(f"component {j}: scatter has {flat.size} entries, "
                             f"expected {dim * dim}")
        comps.append(EgdParams(ScatterMatrix(flat.reshape(dim, dim)), a, b))
        weights.append(weight)
    weights = np.asarray(weights)
    if abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError(f"component weights sum to {weights.sum()!r}, "
                         "expected 1")
    model = MixtureModel(comps, weights / weights.sum())
    return model, doc.get("fit_info", {})


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def trace_rows(report):
    """Rows for :func:`write_trace` from a scatter fit report.

    Every row holds its iterate's stationarity residual, the quantity the
    fit stops on; step-size columns are empty for algorithms without one.
    """
    alphas = report.alpha_trace
    lmax = report.lambda_max_trace
    lmin = report.lambda_min_trace
    rows = []
    for i in range(report.iterations):
        rows.append((
            i,
            report.loglik_trace[i],
            report.residual_trace[i],
            alphas[i] if alphas is not None else None,
            lmax[i] if lmax is not None else None,
            lmin[i] if lmin is not None else None,
            report.elapsed_ms_trace[i],
        ))
    return rows


def write_trace(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS))
        fh.write("\n")
        for row in rows:
            if len(row) != len(TRACE_COLUMNS):
                raise ValueError(f"trace row has {len(row)} fields, expected "
                                 f"{len(TRACE_COLUMNS)}")
            it, rest = row[0], row[1:]
            fh.write(",".join([str(int(it))] + [_fmt(v) for v in rest]))
            fh.write("\n")


def read_trace(path):
    """Parse a trace file into a list of dicts keyed by column name."""
    with open(path, newline="") as fh:
        text = fh.read()
    reader = csv.reader(_stdio.StringIO(text))
    out = []
    try:
        header = next(reader, None)
        if header is None or tuple(header) != TRACE_COLUMNS:
            raise ValueError("trace header does not match expected columns")
        for row in reader:
            if not row:
                continue
            if len(row) != len(TRACE_COLUMNS):
                raise ValueError("trace row has wrong field count")
            record = {"iter": int(row[0])}
            for name, cell in zip(TRACE_COLUMNS[1:], row[1:]):
                record[name] = float(cell) if cell else None
            out.append(record)
    except csv.Error as exc:  # e.g. a bare carriage return inside a line
        raise ValueError(f"line {reader.line_num}: {exc}") from None
    return out
