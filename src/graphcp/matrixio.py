"""Dense-matrix file formats and dataset-bundle ingestion.

Matrices travel as plain 2-D float64 ``numpy`` arrays.  Two on-disk formats
are supported:

* binary: magic ``SNPM``, two little-endian uint32 dims (rows, cols), then
  rows*cols little-endian float32 values, row-major;
* csv: header-less numeric rows.

A dataset bundle groups node features (N x d), predicted probabilities
(N x K), integer labels in [0, K) and an undirected edge list, wired
together by a small ``key = value`` manifest file.
"""

from __future__ import annotations

import hashlib
import os
import re
import secrets
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


def validate_labels(labels, num_classes: int) -> np.ndarray:
    """Coerce to int64 and reject labels outside [0, num_classes), naming the
    first bad row."""
    labels = np.asarray(labels, dtype=np.int64)
    bad = (labels < 0) | (labels >= num_classes)
    if bad.any():
        r = int(np.argmax(bad))
        raise ValidationError(
            f"label {labels[r]} at row {r} out of range [0, {num_classes})"
        )
    return labels


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
    payload = raw[12:]
    expected = rows * cols * 4
    if len(payload) != expected:
        raise ValidationError(
            f"{path}: header says {rows}x{cols} ({expected} payload bytes), "
            f"found {len(payload)}"
        )
    data = np.frombuffer(payload, dtype="<f4").astype(np.float64)
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


def load_labels(path, num_classes: int | None = None) -> np.ndarray:
    """One integer label per line, each in [0, num_classes); the first label
    outside that range is named by its file, line and value.

    A plain file is parsed at once (``_parse_label_bytes``); any other file
    goes through the line loop, which gives the same labels or names the
    first bad line."""
    path = Path(path)
    _require_file(path)
    # without a class count, any label an int64 holds
    limit = 2 ** 63 if num_classes is None else num_classes
    labels = _parse_label_bytes(path.read_bytes(), limit)
    return _load_label_lines(path, limit) if labels is None else labels


def _parse_label_bytes(raw: bytes, limit: int) -> np.ndarray | None:
    """The labels of an ASCII file in which every line is blank (spaces and
    tabs) or one token ``[0-9]{1,18}`` with a value below ``limit``, between
    spaces or tabs; None for any other file.  Lines end at LF, CRLF or CR,
    as in text-mode reading."""
    if not raw.isascii():
        return None
    raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    cls = _BYTE_CLASS[np.frombuffer(raw, dtype=np.uint8)]
    if (cls > 2).any():
        return None
    bounds = np.diff((cls == 2).view(np.int8), prepend=0, append=0)
    starts, ends = np.flatnonzero(bounds == 1), np.flatnonzero(bounds == -1)
    # one token per line, of at most 18 digits
    lines = np.searchsorted(np.flatnonzero(cls == 1), starts)
    if (ends - starts > 18).any() or (lines[1:] == lines[:-1]).any():
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

    The whole file is parsed at once (``_parse_edge_bytes``); a file outside
    that parser's plain-ASCII grammar goes through the line loop
    (``_load_edge_lines``), which gives the same pairs or names the first bad
    line.
    """
    path = Path(path)
    _require_file(path)
    pairs = _parse_edge_bytes(path.read_bytes())
    return _load_edge_lines(path) if pairs is None else pairs


_COMMENT_LINE = re.compile(rb"^[ \t]*#.*$", re.MULTILINE)


def _parse_edge_bytes(raw: bytes) -> np.ndarray | None:
    """(edges, 2) int64 pairs of an ASCII edge file in which every line is
    blank (spaces and tabs), a comment (first other byte ``#``) or two
    tokens ``-?[0-9]{1,18}`` separated by spaces or tabs; None for any other
    file.  Lines end at LF, CRLF or CR, as in text-mode reading."""
    if not raw.isascii():
        return None
    raw = _COMMENT_LINE.sub(b"", raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n"))
    cls = _BYTE_CLASS[np.frombuffer(raw, dtype=np.uint8)]
    if (cls == 4).any():
        return None
    bounds = np.diff((cls >= 2).view(np.int8), prepend=0, append=0)
    starts, ends = np.flatnonzero(bounds == 1), np.flatnonzero(bounds == -1)
    signed = cls[starts] == 3
    digits = ends - starts - signed
    # every '-' opens a token, and a token holds 1 to 18 digits
    if (np.count_nonzero(cls == 3) != np.count_nonzero(signed)
            or (digits < 1).any() or (digits > 18).any() or starts.size % 2):
        return None
    # the two tokens of an edge share a line, and each edge has its own
    lines = np.searchsorted(np.flatnonzero(cls == 1), starts)
    if (lines[0::2] != lines[1::2]).any() or (lines[2::2] == lines[1:-1:2]).any():
        return None
    values = np.fromstring(raw, dtype=np.int64, sep=" ")
    # np.fromstring reads a blank string as [0]; such a file is left to the
    # line loop
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
    dropped = int(loops.sum())
    edges = edges[~loops]
    if edges.size == 0:
        return np.empty((0, 2), dtype=np.int64), dropped
    # one int64 key per arc orders arcs lexicographically, as 0 <= v < n;
    # a sort and an adjacent-difference mask dedup them (np.unique hashes in
    # numpy 2.4: 0.066 s against 0.0013 s on 100k keys)
    keys = np.sort(np.concatenate([edges[:, 0] * n + edges[:, 1],
                                   edges[:, 1] * n + edges[:, 0]]))
    keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
    return np.column_stack([keys // n, keys % n]), dropped


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
    labels = np.asarray(labels, dtype=np.int64)
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
    # tolist() gives Python ints, several times faster to format than
    # numpy scalars
    with atomic_open(out_dir / "labels.txt", "w", encoding="utf-8") as fh:
        fh.writelines(f"{lab}\n" for lab in bundle.labels.tolist())
    upper = bundle.edges[bundle.edges[:, 0] < bundle.edges[:, 1]]
    with atomic_open(out_dir / "edges.txt", "w", encoding="utf-8") as fh:
        fh.writelines(f"{u} {v}\n" for u, v in upper.tolist())
    manifest = out_dir / "manifest.txt"
    with atomic_open(manifest, "w", encoding="utf-8") as fh:
        fh.write(f"name = {bundle.name}\n")
        fh.write("features = features.snpm\n")
        fh.write("probabilities = probabilities.snpm\n")
        fh.write("labels = labels.txt\n")
        fh.write("edges = edges.txt\n")
        fh.write(f"classes = {bundle.num_classes}\n")
    return manifest


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a sibling temp file for writing and move it over ``path`` when the
    block completes; if the block raises, the temp file is removed and
    ``path`` keeps its previous contents."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    fh = open(tmp, mode.replace("w", "x"), **kwargs)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def file_sha256(path) -> bytes:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.digest()
