"""Dense-matrix file formats and dataset-bundle ingestion.

Matrices travel as plain 2-D float64 ``numpy`` arrays.  Two on-disk formats
are supported:

* binary: magic ``SNPM``, two little-endian uint32 dims (rows, cols), then
  rows*cols little-endian float32 values, row-major;
* csv: header-less numeric rows.

A dataset bundle groups node features (N x d), predicted probabilities
(N x K), integer labels in [0, K) and an undirected edge list, wired
together by a small ``key = value`` manifest file.

Label and edge files are read in blocks of ``_BLOCK`` bytes, so a loader
holds about one block besides its output; ``save_bundle`` formats them with
array operations, byte-equal to formatting each value with ``str``.
"""

from __future__ import annotations

import os
import re
import struct
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError

_MAGIC = b"SNPM"
PROB_ROW_SUM_TOL = 1e-4

_MANIFEST_KEYS = ("features", "probabilities", "labels", "edges", "classes")


@dataclass(frozen=True)
class DatasetBundle:
    """Validated, immutable view of one dataset.

    ``edges`` holds deduplicated directed arcs (both directions of every
    undirected edge, self-loops removed) sorted lexicographically.
    """

    name: str
    features: np.ndarray
    probabilities: np.ndarray
    labels: np.ndarray
    num_classes: int
    edges: np.ndarray
    self_loops_dropped: int = 0

    @property
    def n(self) -> int:
        return self.features.shape[0]


def _check_int(value, what: str, low: int | None = None) -> None:
    """The one count check: ``value`` must be a Python or numpy integer, not
    a bool, and at least ``low`` when given; ``what`` names it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{what} must be an integer")
    if low is not None and value < low:
        raise ValidationError(f"{what} must be >= {low}")


def _plain_float(value):
    """``value`` with a numpy floating scalar read as the Python float of its
    decimal text, ``float(str(x))``: configs then hold JSON numbers, and the
    decimal ``conformal_rank`` reads from alpha is kept.  Anything else is
    returned as it is."""
    return float(str(value)) if isinstance(value, np.floating) else value


def validate_matrix(mat: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Coerce to 2-D float64 and reject non-finite entries."""
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2:
        raise ValidationError(f"{what}: expected 2-D array, got ndim={mat.ndim}")
    bad = ~np.isfinite(mat)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise ValidationError(f"{what}: non-finite value at row {r}, col {c}")
    return mat


def _label_fault(labels: np.ndarray, num_classes: int) -> tuple[int, bool] | None:
    """The label rule: (index, whether it is an integer) of the first of
    ``labels`` that is not an integer in [0, num_classes), or None.  Integer
    arrays skip the integer test; the range test reads min and max first."""
    if labels.dtype.kind not in "biu":
        whole = np.isfinite(labels) & (labels == np.floor(labels))
        if not whole.all():
            return int(np.argmin(whole)), False
    if labels.size and not (labels.min() >= 0 and labels.max() < num_classes):
        return int(np.argmax((labels < 0) | (labels >= num_classes))), True
    return None


def _row_of(row_offsets: np.ndarray, arc: int) -> int:
    """The row that holds position ``arc`` of the arc arrays."""
    return int(np.searchsorted(row_offsets, arc, side="right")) - 1


def _index_array(values, bound: int, what: str,
                 row_offsets: np.ndarray | None = None) -> np.ndarray:
    """``values`` as a 1-D int64 array of integers in [0, bound).  The first
    entry that is not (1.5, NaN, out of range) is rejected, named by its
    position or, given ``row_offsets``, by its row; ``what`` names the
    array."""
    a = np.asarray(values)
    if a.ndim != 1:
        raise ValidationError(f"{what}: expected a 1-D array, got ndim={a.ndim}")
    if a.dtype.kind not in "biuf":
        raise ValidationError(f"{what}: expected integers, got dtype {a.dtype}")
    fault = _label_fault(a, bound)
    if fault is not None:
        i, whole = fault
        at = f"entry {i}" if row_offsets is None else f"row {_row_of(row_offsets, i)}"
        raise ValidationError(f"{what}: {at} holds {a[i]}, " + (
            f"out of range [0, {bound})" if whole else "not an integer"))
    return a.astype(np.int64, copy=False)


def _label_array(labels) -> np.ndarray:
    """``labels`` as an array, which must be 1-D."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValidationError(f"labels must be 1-D, got shape {labels.shape}")
    return labels


def _node_labels(labels, idx: np.ndarray, num_classes: int, what: str) -> np.ndarray:
    """The int64 labels of the nodes ``idx`` (nonempty) in the 1-D
    ``labels``; a label that is not an integer in [0, num_classes) is
    rejected, naming its node.  ``what`` names the nodes; labels of other
    nodes are not read."""
    labels = _label_array(labels)
    if labels.shape[0] <= idx.max():
        raise ValidationError(f"{labels.shape[0]} labels, but the largest {what} "
                              f"index is {idx.max()}")
    picked = np.take(labels, idx)
    fault = _label_fault(picked, num_classes)
    if fault is not None:
        i, whole = fault
        raise ValidationError(f"{what} node {idx[i]} has label {picked[i]} " + (
            f"out of range [0, {num_classes})" if whole else "that is not an integer"))
    return picked.astype(np.int64, copy=False)


def validate_labels(labels, num_classes: int) -> np.ndarray:
    """``labels`` as int64; a value that is not an integer (2.7, NaN) or lies
    outside [0, num_classes) is rejected, naming its first row."""
    labels = np.asarray(labels)
    fault = _label_fault(labels, num_classes)
    if fault is not None:
        r, whole = fault
        raise ValidationError(f"label {labels[r]} at row {r} " + (
            f"out of range [0, {num_classes})" if whole else "is not an integer"))
    return labels.astype(np.int64, copy=False)


def validate_probabilities(probs, what: str = "probabilities") -> np.ndarray:
    """``validate_matrix``, then reject rows whose sum is more than
    ``PROB_ROW_SUM_TOL`` from 1, naming the first such row."""
    probs = validate_matrix(probs, what)
    sums = probs.sum(axis=1)
    off = np.abs(sums - 1.0) > PROB_ROW_SUM_TOL
    if off.any():
        r = int(np.argmax(off))
        raise ValidationError(
            f"{what}: probability row {r} sums to {sums[r]:.6f}, expected 1 "
            f"+/- {PROB_ROW_SUM_TOL:g}"
        )
    return probs


def _text_lines(path: Path):
    """Yield (line number, line) of a UTF-8 text file, read in text mode
    (lines end at LF, CRLF or CR).  A line that is not UTF-8 raises
    ValidationError naming the file and the line, once the lines before it
    have been read: undecodable bytes come through as lone surrogates, which
    no UTF-8 text holds and which cannot be encoded back."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise ValidationError(
                        f"{path}: not UTF-8 text at line {lineno}") from None
            yield lineno, line


def _require_file(path: Path) -> None:
    if not path.is_file():
        raise ValidationError(f"no such file: {path}")


def _infer_format(path: Path) -> str:
    if path.suffix == ".csv":
        return "csv"
    return "binary"


def load_matrix(path, format: str | None = None) -> np.ndarray:
    """Load a dense matrix from ``path`` in the given (or inferred) format."""
    path = Path(path)
    _require_file(path)
    fmt = format or _infer_format(path)
    if fmt == "binary":
        return _load_binary(path)
    if fmt == "csv":
        return _load_csv(path)
    raise ValidationError(f"unknown matrix format: {fmt!r}")


def _load_binary(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    if len(raw) < 12 or raw[:4] != _MAGIC:
        raise ValidationError(f"{path}: missing {_MAGIC.decode()} header")
    rows, cols = struct.unpack("<II", raw[4:12])
    expected = rows * cols * 4
    if len(raw) - 12 != expected:
        raise ValidationError(
            f"{path}: header says {rows}x{cols} ({expected} payload bytes), "
            f"found {len(raw) - 12}"
        )
    data = np.frombuffer(raw, dtype="<f4", offset=12).astype(np.float64)
    return validate_matrix(data.reshape(rows, cols), str(path))


def _load_csv(path: Path) -> np.ndarray:
    rows: list[list[float]] = []
    for lineno, line in _text_lines(path):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        parsed = []
        for colno, cell in enumerate(cells):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise ValidationError(
                    f"{path}: malformed cell at row {lineno}, col {colno}: {cell!r}"
                ) from None
        rows.append(parsed)
    if not rows:
        raise ValidationError(f"{path}: empty CSV matrix")
    width = len(rows[0])
    for lineno, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ValidationError(
                f"{path}: ragged CSV, row {lineno} has {len(row)} cells, expected {width}"
            )
    return validate_matrix(np.array(rows, dtype=np.float64), str(path))


def write_matrix(mat: np.ndarray, path, format: str | None = None) -> None:
    """Write a matrix; binary payload is float32 little-endian, row-major.
    The file is replaced atomically, so a failed write keeps the old one."""
    path = Path(path)
    mat = validate_matrix(mat, "matrix to write")
    fmt = format or _infer_format(path)
    if fmt == "binary":
        rows, cols = mat.shape
        with atomic_open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<II", rows, cols))
            fh.write(np.ascontiguousarray(mat, dtype="<f4").tobytes())
    elif fmt == "csv":
        with atomic_open(path, "w", encoding="utf-8") as fh:
            for row in mat:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
    else:
        raise ValidationError(f"unknown matrix format: {fmt!r}")


# byte classes of plain label and edge files: 0 space or tab, 1 newline,
# 2 digit, 3 minus, 4 anything else
_BYTE_CLASS = np.full(256, 4, dtype=np.uint8)
_BYTE_CLASS[[ord(" "), ord("\t")]] = 0
_BYTE_CLASS[ord("\n")] = 1
_BYTE_CLASS[ord("0"):ord("9") + 1] = 2
_BYTE_CLASS[ord("-")] = 3


def _scan_tokens(raw: bytes, top: int):
    """(byte classes, token starts, token ends, tokens per line) of ASCII
    text whose lines end at LF, where a token is a run of digits and '-';
    None when a byte's class is above ``top``."""
    cls = np.take(_BYTE_CLASS, np.frombuffer(raw, dtype=np.uint8))
    if (cls > top).any():
        return None
    token = np.zeros(cls.size + 2, dtype=bool)
    np.greater_equal(cls, 2, out=token[1:-1])
    # token bytes open and close in turn
    bounds = np.flatnonzero(token[1:] != token[:-1])
    starts, ends = bounds[0::2], bounds[1::2]
    before = np.searchsorted(starts, np.flatnonzero(cls == 1))
    return cls, starts, ends, np.diff(before, prepend=0, append=starts.size)


# bytes per read of a label or edge file: a loader holds about one block,
# and the parse's temporaries of it, besides its output
_BLOCK = 1 << 17


def _line_blocks(path: Path):
    """Yield the bytes of ``path`` in blocks of about ``_BLOCK`` bytes, each
    cut after its last CR or LF, so that no line spans two blocks.  A CRLF
    split between two blocks only adds a blank line, which both text
    grammars skip."""
    with open(path, "rb") as fh:
        rest = b""
        while chunk := fh.read(_BLOCK):
            block = rest + chunk
            cut = max(block.rfind(b"\n"), block.rfind(b"\r")) + 1
            if cut:
                yield block[:cut]
            rest = block[cut:]
        if rest:
            yield rest


def _parse_blocks(path: Path, parse, per_line: int) -> np.ndarray | None:
    """The int64 values ``parse`` reads from each block of ``path``, in
    order, as one flat array; None as soon as a block is outside the
    grammar of ``parse`` (which reads at most ``per_line`` values a line).

    A first pass counts lines, so the result is allocated once: blank and
    comment lines are the only slack, trimmed at the end."""
    lines = 0
    for block in _line_blocks(path):
        # lines end at LF, CRLF or CR, and the last one may end the file
        lines += (np.count_nonzero(np.frombuffer(block, dtype=np.uint8) == 10)
                  + (block[-1:] not in b"\r\n"))
        if b"\r" in block:
            lines += block.count(b"\r") - block.count(b"\r\n")
    out = np.empty(lines * per_line, dtype=np.int64)
    filled = 0
    for block in _line_blocks(path):
        values = parse(block)
        # more values than the first pass made room for: the file changed
        if values is None or filled + values.size > out.size:
            return None
        out[filled:filled + values.size] = values.ravel()
        filled += values.size
    return out if filled == out.size else out[:filled].copy()


def load_labels(path, num_classes: int | None = None) -> np.ndarray:
    """One integer label per line, each in [0, num_classes); the first label
    outside that range is named by its file, line and value.

    A plain file is parsed block by block (``_parse_label_bytes``); any other
    file goes through the line loop, which gives the same labels or names
    the first bad line."""
    path = Path(path)
    _require_file(path)
    # without a class count, any label an int64 holds
    limit = 2 ** 63 if num_classes is None else num_classes
    labels = _parse_blocks(path, lambda raw: _parse_label_bytes(raw, limit), 1)
    return _load_label_lines(path, limit) if labels is None else labels


def _parse_label_bytes(raw: bytes, limit: int) -> np.ndarray | None:
    """The labels of an ASCII file in which every line is blank (spaces and
    tabs) or one token ``[0-9]{1,18}`` with a value below ``limit``, between
    spaces or tabs; None for any other file.  Lines end at LF, CRLF or CR,
    as in text-mode reading."""
    if not raw.isascii():
        return None
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    scan = _scan_tokens(raw, 2)
    if scan is None:
        return None
    _, starts, ends, per_line = scan
    # one token per line, of at most 18 digits
    if (ends - starts > 18).any() or (per_line > 1).any():
        return None
    if not starts.size:
        return np.empty(0, dtype=np.int64)
    labels = np.fromstring(raw, dtype=np.int64, sep=" ")
    if labels.size != starts.size or labels.max() >= limit:
        return None
    return labels


def _load_label_lines(path: Path, limit: int) -> np.ndarray:
    out = []
    for lineno, line in _text_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            label = int(line)
        except ValueError:
            raise ValidationError(
                f"{path}: bad label at line {lineno}: {line!r}"
            ) from None
        if not 0 <= label < limit:
            raise ValidationError(
                f"{path}: label {label} at line {lineno} out of range [0, {limit})"
            )
        out.append(label)
    return np.asarray(out, dtype=np.int64)


def load_edges(path) -> np.ndarray:
    """Whitespace-separated node-index pairs, one edge per line; blank lines
    and lines starting with ``#`` are skipped.

    The file is parsed block by block (``_parse_edge_bytes``); a file with
    any block outside that parser's plain-ASCII grammar goes through the line
    loop (``_load_edge_lines``), which gives the same pairs or names the
    first bad line.
    """
    path = Path(path)
    _require_file(path)
    pairs = _parse_blocks(path, _parse_edge_bytes, 2)
    return _load_edge_lines(path) if pairs is None else pairs.reshape(-1, 2)


_COMMENT_LINE = re.compile(rb"^[ \t]*#.*$", re.MULTILINE)


def _parse_edge_bytes(raw: bytes) -> np.ndarray | None:
    """(edges, 2) int64 pairs of an ASCII edge file in which every line is
    blank (spaces and tabs), a comment (first other byte ``#``) or two
    tokens ``-?[0-9]{1,18}`` separated by spaces or tabs; None for any other
    file.  Lines end at LF, CRLF or CR, as in text-mode reading."""
    if not raw.isascii():
        return None
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if b"#" in raw:
        raw = _COMMENT_LINE.sub(b"", raw)
    scan = _scan_tokens(raw, 3)
    if scan is None:
        return None
    cls, starts, ends, per_line = scan
    if not starts.size:
        return np.empty((0, 2), dtype=np.int64)
    signed = cls[starts] == 3
    digits = ends - starts - signed
    # every '-' opens a token, a token holds 1 to 18 digits, and a line
    # holds no token or the two of one edge
    if (np.count_nonzero(cls == 3) != np.count_nonzero(signed)
            or (digits < 1).any() or (digits > 18).any()
            or ((per_line != 0) & (per_line != 2)).any()):
        return None
    values = np.fromstring(raw, dtype=np.int64, sep=" ")
    return values.reshape(-1, 2) if values.size == starts.size else None


def _load_edge_lines(path: Path) -> np.ndarray:
    pairs = []
    for lineno, line in _text_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValidationError(f"{path}: expected 'u v' at line {lineno}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValidationError(
                f"{path}: bad edge endpoints at line {lineno}"
            ) from None
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


def _parse_manifest(path: Path) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, line in _text_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}: expected 'key = value' at line {lineno}")
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    missing = [k for k in _MANIFEST_KEYS if k not in entries]
    if missing:
        raise ValidationError(f"{path}: manifest missing keys {missing}")
    return entries


def symmetrize_edges(edges: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """Drop self-loops, mirror every edge and deduplicate.

    Returns (directed arcs sorted lexicographically, self-loops dropped).
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size:
        if edges.min() < 0 or edges.max() >= n:
            bad = edges[(edges < 0).any(axis=1) | (edges >= n).any(axis=1)][0]
            raise ValidationError(f"edge endpoint out of range: {tuple(bad)} (n={n})")
    loops = edges[:, 0] == edges[:, 1]
    dropped = int(np.count_nonzero(loops))
    if dropped:
        edges = edges[~loops]
    m = edges.shape[0]
    if m == 0:
        return np.empty((0, 2), dtype=np.int64), dropped
    # one int64 key per arc orders arcs lexicographically, as 0 <= v < n;
    # an in-place sort and an adjacent-difference mask dedup them (np.unique
    # hashes in numpy 2.4: 0.066 s against 0.0013 s on 100k keys)
    keys = np.empty(2 * m, dtype=np.int64)
    np.multiply(edges[:, 0], n, out=keys[:m])
    keys[:m] += edges[:, 1]
    np.multiply(edges[:, 1], n, out=keys[m:])
    keys[m:] += edges[:, 0]
    keys.sort()
    keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
    arcs = np.empty((keys.shape[0], 2), dtype=np.int64)
    np.floor_divide(keys, n, out=arcs[:, 0])
    np.remainder(keys, n, out=arcs[:, 1])
    return arcs, dropped


def make_bundle(
    name: str,
    features: np.ndarray,
    probabilities: np.ndarray,
    labels: np.ndarray,
    num_classes: int,
    edges: np.ndarray,
    renormalize: bool = False,
) -> DatasetBundle:
    """Cross-validate the pieces of a dataset and assemble a bundle.

    Probability rows are validated against a unit sum, never silently fixed;
    pass ``renormalize=True`` to rescale rows explicitly.
    """
    features = validate_matrix(features, "features")
    probabilities = validate_matrix(probabilities, "probabilities")
    labels = np.asarray(labels)
    n = features.shape[0]
    if probabilities.shape[0] != n or labels.shape[0] != n:
        raise ValidationError(
            f"row-count mismatch: features {n}, probabilities "
            f"{probabilities.shape[0]}, labels {labels.shape[0]}"
        )
    if num_classes < 1:
        raise ValidationError("num_classes must be >= 1")
    if probabilities.shape[1] != num_classes:
        raise ValidationError(
            f"probabilities have {probabilities.shape[1]} columns, expected {num_classes}"
        )
    labels = validate_labels(labels, num_classes)
    if renormalize:
        sums = probabilities.sum(axis=1)
        if (sums <= 0).any():
            raise ValidationError("cannot renormalize: nonpositive probability row sum")
        probabilities = probabilities / sums[:, None]
    else:
        validate_probabilities(probabilities)
    arcs, dropped = symmetrize_edges(edges, n)
    if dropped:
        warnings.warn(f"{name}: dropped {dropped} self-loop edge(s)", stacklevel=2)
    features.setflags(write=False)
    probabilities.setflags(write=False)
    labels.setflags(write=False)
    arcs.setflags(write=False)
    return DatasetBundle(
        name=name,
        features=features,
        probabilities=probabilities,
        labels=labels,
        num_classes=num_classes,
        edges=arcs,
        self_loops_dropped=dropped,
    )


def load_bundle(manifest, renormalize: bool = False) -> DatasetBundle:
    """Load and cross-validate the dataset named by a manifest file."""
    manifest = Path(manifest)
    if not manifest.is_file():
        raise ValidationError(f"no such manifest: {manifest}")
    entries = _parse_manifest(manifest)
    try:
        num_classes = int(entries["classes"])
    except ValueError:
        raise ValidationError(f"{manifest}: classes must be an integer") from None
    paths = {key: manifest.parent / entries[key]
             for key in ("features", "probabilities", "labels", "edges")}
    for key, path in paths.items():
        if not path.is_file():
            raise ValidationError(f"{manifest}: {key} file {path} does not exist")
    name = entries.get("name", manifest.stem)
    features = load_matrix(paths["features"])
    probabilities = load_matrix(paths["probabilities"])
    labels = load_labels(paths["labels"], num_classes)
    edges = load_edges(paths["edges"])
    # the files disagree with each other or with the manifest's class count
    try:
        return make_bundle(
            name, features, probabilities, labels, num_classes, edges,
            renormalize=renormalize,
        )
    except ValidationError as exc:
        raise ValidationError(f"{manifest}: {exc}") from None


def save_bundle(bundle: DatasetBundle, out_dir) -> Path:
    """Write a bundle's files plus a manifest; returns the manifest path.

    Edges are stored once per undirected pair (u < v).  Each file is replaced
    atomically (``atomic_open``): a failed write keeps that file's previous
    contents, and the manifest is written last.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_matrix(bundle.features, out_dir / "features.snpm")
    write_matrix(bundle.probabilities, out_dir / "probabilities.snpm")
    with atomic_open(out_dir / "labels.txt", "wb") as fh:
        _write_int_rows(fh, bundle.labels[:, None])
    with atomic_open(out_dir / "edges.txt", "wb") as fh:
        _write_int_rows(fh, bundle.edges[bundle.edges[:, 0] < bundle.edges[:, 1]])
    manifest = out_dir / "manifest.txt"
    with atomic_open(manifest, "w", encoding="utf-8") as fh:
        fh.write(f"name = {bundle.name}\n")
        fh.write("features = features.snpm\n")
        fh.write("probabilities = probabilities.snpm\n")
        fh.write("labels = labels.txt\n")
        fh.write("edges = edges.txt\n")
        fh.write(f"classes = {bundle.num_classes}\n")
    return manifest


# 10^0 .. 10^18: an int64 has at most 19 decimal digits
_POW10 = 10 ** np.arange(19, dtype=np.uint64)


def _write_int_rows(fh, table: np.ndarray) -> None:
    """Write an integer table to the binary file ``fh`` as decimal text, one
    row a line, values separated by one space: the bytes of
    ``" ".join(f"{v}" for v in row) + "\\n"`` for each row, made with array
    operations on blocks of rows."""
    table = np.asarray(table, dtype=np.int64)
    cols = table.shape[1]
    step = max(1, _BLOCK // (8 * cols))
    for lo in range(0, table.shape[0], step):
        flat = table[lo:lo + step].ravel()
        neg = flat < 0
        # |v| as uint64; abs wraps -2^63 onto itself, whose bits read 2^63
        mag = np.abs(flat).view(np.uint64)
        digits = np.maximum(np.searchsorted(_POW10, mag, side="right"), 1)
        # each value's field (sign, digits, separator) ends at its separator
        ends = np.cumsum(digits + neg + 1) - 1
        text = np.empty(ends[-1] + 1, dtype=np.uint8)
        text[ends] = ord(" ")
        text[ends[cols - 1::cols]] = ord("\n")
        text[(ends - digits - 1)[neg]] = ord("-")
        # the digits from the last: every value writes one, and those with
        # more left go on to the next
        pos, rest, ten = ends - 1, mag, np.uint64(10)
        while pos.size:
            quot = rest // ten
            text[pos] = (rest - quot * ten).astype(np.uint8) + np.uint8(ord("0"))
            more = quot != 0
            pos, rest = pos[more] - 1, quot[more]
        fh.write(text.tobytes())


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a sibling temp file for writing and move it over ``path`` when the
    block completes; if the block raises, the temp file is removed and
    ``path`` keeps its previous contents."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, mode.replace("w", "x"), **kwargs)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def file_sha256(path) -> bytes:
    import hashlib  # loads OpenSSL: kept out of every bundle read and write

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.digest()
