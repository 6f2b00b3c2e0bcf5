import io
import struct
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graphcp as g
from graphcp.errors import ValidationError


def _write_binary(path, rows, cols, values):
    with open(path, "wb") as fh:
        fh.write(b"SNPM")
        fh.write(struct.pack("<II", rows, cols))
        fh.write(np.asarray(values, dtype="<f4").tobytes())


def test_binary_identity(tmp_path):
    p = tmp_path / "m.snpm"
    _write_binary(p, 2, 2, [1, 0, 0, 1])
    mat = g.load_matrix(p)
    assert mat.shape == (2, 2)
    assert np.array_equal(mat, np.eye(2))


def test_csv_single_row(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("0.5,0.3,0.2\n")
    mat = g.load_matrix(p)
    assert mat.shape == (1, 3)
    assert mat.sum() == pytest.approx(1.0)


def test_binary_dimension_mismatch(tmp_path):
    p = tmp_path / "bad.snpm"
    _write_binary(p, 3, 2, [1, 2, 3, 4, 5])  # 5 values, header wants 6
    with pytest.raises(ValidationError, match="header"):
        g.load_matrix(p)


def test_nonfinite_reported_with_position(tmp_path):
    p = tmp_path / "nan.snpm"
    _write_binary(p, 2, 2, [1.0, np.nan, 3.0, 4.0])
    with pytest.raises(ValidationError, match="row 0, col 1"):
        g.load_matrix(p)


def test_malformed_csv_cell(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1.0,2.0\n3.0,zap\n")
    with pytest.raises(ValidationError, match="malformed cell"):
        g.load_matrix(p)


def test_csv_write_read_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    mat = rng.normal(size=(4, 3))
    p = tmp_path / "m.csv"
    g.write_matrix(mat, p, format="csv")
    assert np.array_equal(g.load_matrix(p, format="csv"), mat)


def test_binary_roundtrip_byte_identical(tmp_path):
    rng = np.random.default_rng(0)
    mat = rng.normal(size=(7, 5)).astype(np.float32).astype(np.float64)
    a, b = tmp_path / "a.snpm", tmp_path / "b.snpm"
    g.write_matrix(mat, a)
    g.write_matrix(g.load_matrix(a), b)
    assert a.read_bytes() == b.read_bytes()


def _write_bundle_files(tmp_path, probs, labels, edges, features=None, classes=None):
    n, k = probs.shape
    features = features if features is not None else np.random.default_rng(1).normal(size=(n, 3))
    g.write_matrix(np.asarray(features, dtype=float), tmp_path / "x.snpm")
    g.write_matrix(np.asarray(probs, dtype=float), tmp_path / "p.snpm")
    (tmp_path / "y.txt").write_text("".join(f"{v}\n" for v in labels))
    (tmp_path / "e.txt").write_text("".join(f"{u} {v}\n" for u, v in edges))
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(
        "name = demo\nfeatures = x.snpm\nprobabilities = p.snpm\n"
        f"labels = y.txt\nedges = e.txt\nclasses = {classes or k}\n"
    )
    return manifest


def test_bundle_symmetrizes_path_graph(tmp_path):
    probs = np.full((3, 2), 0.5)
    manifest = _write_bundle_files(tmp_path, probs, [0, 1, 0], [(0, 1), (1, 2)])
    bundle = g.load_bundle(manifest)
    assert bundle.edges.shape == (4, 2)
    assert {(int(u), int(v)) for u, v in bundle.edges} == {(0, 1), (1, 0), (1, 2), (2, 1)}


def test_bundle_rejects_bad_probability_row(tmp_path):
    probs = np.full((3, 2), 0.5)
    probs[1] = [0.5, 0.4]  # sums to 0.90
    manifest = _write_bundle_files(tmp_path, probs, [0, 1, 0], [(0, 1)])
    with pytest.raises(ValidationError, match="row 1"):
        g.load_bundle(manifest)


def test_bundle_renormalize_escape_hatch(tmp_path):
    probs = np.full((3, 2), 0.5)
    probs[1] = [0.5, 0.4]
    manifest = _write_bundle_files(tmp_path, probs, [0, 1, 0], [(0, 1)])
    bundle = g.load_bundle(manifest, renormalize=True)
    assert np.allclose(bundle.probabilities.sum(axis=1), 1.0)


def test_bundle_drops_self_loop_with_warning(tmp_path):
    probs = np.full((6, 2), 0.5)
    manifest = _write_bundle_files(tmp_path, probs, [0, 1, 0, 1, 0, 1],
                                   [(0, 1), (5, 5)])
    with pytest.warns(UserWarning, match="self-loop"):
        bundle = g.load_bundle(manifest)
    assert bundle.self_loops_dropped == 1
    assert bundle.edges.shape == (2, 2)


def test_bundle_edge_order_insensitive(tmp_path):
    probs = np.full((4, 2), 0.5)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    m1 = _write_bundle_files(tmp_path / "a", probs, [0, 1, 0, 1],
                             [(0, 1), (2, 3), (1, 2)])
    m2 = _write_bundle_files(tmp_path / "b", probs, [0, 1, 0, 1],
                             [(1, 2), (0, 1), (2, 3)])
    b1, b2 = g.load_bundle(m1), g.load_bundle(m2)
    assert np.array_equal(b1.edges, b2.edges)


def test_bundle_duplicate_edges_deduplicated(tmp_path):
    probs = np.full((3, 2), 0.5)
    manifest = _write_bundle_files(tmp_path, probs, [0, 1, 0],
                                   [(0, 1), (1, 0), (0, 1)])
    bundle = g.load_bundle(manifest)
    assert bundle.edges.shape == (2, 2)


def test_bundle_label_out_of_range(tmp_path):
    probs = np.full((3, 2), 0.5)
    manifest = _write_bundle_files(tmp_path, probs, [0, 2, 0], [(0, 1)])
    with pytest.raises(ValidationError, match="label"):
        g.load_bundle(manifest)
    labels = tmp_path / "y.txt"
    for text, line, value in (("0\n2\n0\n", 2, 2), ("0\n\n1\n-1\n", 4, -1)):
        labels.write_text(text)
        with pytest.raises(ValidationError) as exc:
            g.load_bundle(manifest)
        assert str(exc.value) == f"{labels}: label {value} at line {line} out of range [0, 2)"


@pytest.mark.parametrize("bad, shown", [(2.7, "2.7"), (np.nan, "nan"),
                                        (np.inf, "inf")])
def test_make_bundle_rejects_non_integer_labels(bad, shown):
    # a fractional or non-finite label is named with its row, never cast
    labels = np.array([0.0, 1.0, 1.0, bad, 0.0])
    with pytest.raises(ValidationError) as exc:
        g.make_bundle("b", np.zeros((5, 2)), np.full((5, 2), 0.5), labels, 2,
                      np.empty((0, 2), dtype=np.int64))
    assert str(exc.value) == f"label {shown} at row 3 is not an integer"
    # whole float labels are read as the integers they hold
    labels[3] = 1.0
    bundle = g.make_bundle("b", np.zeros((5, 2)), np.full((5, 2), 0.5), labels, 2,
                           np.empty((0, 2), dtype=np.int64))
    assert bundle.labels.dtype == np.int64 and bundle.labels.tolist() == [0, 1, 1, 1, 0]


def test_bundle_edge_endpoint_out_of_range(tmp_path):
    probs = np.full((3, 2), 0.5)
    manifest = _write_bundle_files(tmp_path, probs, [0, 1, 0], [(0, 7)])
    with pytest.raises(ValidationError, match="endpoint"):
        g.load_bundle(manifest)


def test_bundle_row_count_mismatch(tmp_path):
    probs = np.full((3, 2), 0.5)
    features = np.zeros((4, 2))
    manifest = _write_bundle_files(tmp_path, probs, [0, 1, 0], [(0, 1)],
                                   features=features)
    with pytest.raises(ValidationError, match="mismatch"):
        g.load_bundle(manifest)


def test_manifest_missing_key(tmp_path):
    p = tmp_path / "manifest.txt"
    p.write_text("features = x.snpm\n")
    with pytest.raises(ValidationError, match="missing keys"):
        g.load_bundle(p)


def test_save_and_reload_bundle(tmp_path, small_bundle):
    manifest = g.save_bundle(small_bundle, tmp_path / "out")
    back = g.load_bundle(manifest)
    assert back.n == small_bundle.n
    assert back.num_classes == small_bundle.num_classes
    assert np.array_equal(back.labels, small_bundle.labels)
    assert np.array_equal(back.edges, small_bundle.edges)
    # matrices survive the float32 container
    assert np.allclose(back.features, small_bundle.features, atol=1e-5)
    assert np.allclose(back.probabilities, small_bundle.probabilities, atol=1e-6)


def test_large_k_softmax_survives_float32_round_trip(tmp_path):
    # each element rounds relative to itself, so a row sum moves by at most
    # 2^-24 whatever K is
    logits = np.random.default_rng(5).normal(scale=3.0, size=(6, 4096))
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    p = tmp_path / "p.snpm"
    g.write_matrix(probs, p)
    sums = g.load_matrix(p).sum(axis=1)
    assert np.abs(sums - probs.sum(axis=1)).max() <= 2.0 ** -24
    assert np.abs(sums - 1.0).max() <= g.matrixio.PROB_ROW_SUM_TOL


def _symmetrize_reference(edges):
    """Drop self-loops, mirror, and dedup with ``np.unique(axis=0)``."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    edges = edges[edges[:, 0] != edges[:, 1]]
    arcs = np.concatenate([edges, edges[:, ::-1]], axis=0)
    return np.unique(arcs, axis=0).reshape(-1, 2)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=40))))
@example((5, []))
@example((1, [(0, 0), (0, 0)]))
@example((4, [(1, 2), (2, 1), (1, 2), (3, 3), (0, 3)]))
def test_symmetrize_edges_matches_unique_rows(case):
    n, edges = case
    arcs, dropped = g.symmetrize_edges(np.array(edges, dtype=np.int64), n)
    ref = _symmetrize_reference(edges)
    assert arcs.dtype == np.int64 and arcs.shape == ref.shape
    assert np.array_equal(arcs, ref)
    assert dropped == sum(u == v for u, v in edges)


def _load_edges_by_line(path):
    """The line-at-a-time edge parser, as reference."""
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
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


def _outcome(load, path):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return load(path)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


# pieces Python's int() and str.split() read differently from a plain
# decimal: signs, underscores, non-ASCII digits and spaces, control bytes
_EDGE_PIECES = ["0", "7", "12", "-3", "-", "+4", "007", "1_0", "9" * 19, "-" + "9" * 18,
                " ", "  ", "\t", "#", "x", "\x00", "\x0b", "\x0c", "\x1c", "\xa0",
                "\u0663", "\ufeff", "\u00e9", "\r", "\r\n", "\n"]
_EDGE_PAIR = st.tuples(st.integers(-10 ** 6, 10 ** 6), st.sampled_from([" ", "\t", " \t "]),
                       st.integers(-10 ** 6, 10 ** 6)).map(lambda t: f"{t[0]}{t[1]}{t[2]}")
_EDGE_LINES = st.one_of(
    _EDGE_PAIR, _EDGE_PAIR, _EDGE_PAIR,
    st.lists(st.sampled_from(_EDGE_PIECES), max_size=8).map("".join),
    st.sampled_from(["", "  ", "# u v", "  #x y z", "#\x0b\xff"]),
)


_EDGE_FILES = (st.lists(_EDGE_LINES, max_size=10), st.sampled_from(["\n", "\r\n", "\r"]),
               st.booleans(), st.sampled_from([b"", b"\xff", b"\xc3"]))


@settings(max_examples=300, deadline=None)
@given(*_EDGE_FILES)
@example(["0 1", "# c", "", "2\t3"], "\n", True, b"")
@example(["0 1 2"], "\n", False, b"")
@example(["0 -"], "\n", False, b"")
@example(["1 2", "0 1 2 3"], "\n", False, b"")
@example(["4-7 1"], "\n", False, b"")
@example(["9" * 19 + " 1"], "\n", False, b"")
def test_load_edges_matches_line_parser(tmp_path_factory, lines, sep, trailing, tail):
    _check_edge_file(tmp_path_factory, lines, sep, trailing, tail)


@pytest.mark.parametrize("block", [1, 7, 64])
@settings(max_examples=300, deadline=None)
@given(*_EDGE_FILES)
@example(["0 1", "# c", "", "2\t3"], "\r\n", True, b"")
@example(["0 1", "#" * 9, "12 -345"], "\r", False, b"\xff")
def test_load_edges_matches_line_parser_in_small_blocks(tmp_path_factory, block, lines,
                                                         sep, trailing, tail):
    # blocks cut inside lines' tokens, CRLF pairs, comments and non-UTF-8 tails
    with mock.patch.object(g.matrixio, "_BLOCK", block):
        _check_edge_file(tmp_path_factory, lines, sep, trailing, tail)


def _check_edge_file(tmp_path_factory, lines, sep, trailing, tail):
    path = tmp_path_factory.mktemp("edges") / "e.txt"
    path.write_bytes((sep.join(lines) + (sep if trailing else "")).encode() + tail)
    got, want = _outcome(g.load_edges, path), _outcome(_load_edges_by_line, path)
    if isinstance(want, tuple) and want[0] is UnicodeDecodeError:
        # bytes that are not UTF-8 are a ValidationError naming the file (or
        # an earlier line's fault is)
        assert got[0] is ValidationError and got[1].startswith(f"{path}: ")
    elif isinstance(want, tuple):
        assert got == want
    else:
        assert got.dtype == np.int64 and np.array_equal(got, want)
        assert got.shape == want.shape


def test_plain_edge_file_is_parsed_in_one_pass():
    raw = b"# header\n0 1\n\n  -2\t30 \r\n# 5\r7 0118\n"
    assert g.matrixio._parse_edge_bytes(raw).tolist() == [[0, 1], [-2, 30], [7, 118]]
    assert g.matrixio._parse_edge_bytes(b"").shape == (0, 2)
    assert g.matrixio._parse_edge_bytes(b"0 1 2\n") is None


def _load_labels_by_line(path, num_classes):
    """The line-at-a-time label parser, as reference."""
    limit = 2 ** 63 if num_classes is None else num_classes
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
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


_LABEL_PIECES = ["0", "3", "12", "007", "-0", "-2", "+4", "1_0", "9" * 18, "9" * 19,
                 " ", "\t", "#", "x", "\x00", "\x0b", "\x0c", "\x1c", "\xa0",
                 "\u0663", "\ufeff", "\r", "\n"]
_LABEL_LINES = st.one_of(
    st.tuples(st.sampled_from(["", " ", "\t "]), st.integers(0, 9),
              st.sampled_from(["", " ", " \t"])).map(lambda t: f"{t[0]}{t[1]}{t[2]}"),
    st.lists(st.sampled_from(_LABEL_PIECES), max_size=6).map("".join),
    st.sampled_from(["", "  ", "\t"]),
)


_LABEL_FILES = (st.lists(_LABEL_LINES, max_size=10), st.sampled_from(["\n", "\r\n", "\r"]),
                st.booleans(), st.sampled_from([b"", b"\xff", b"\xc3"]),
                st.sampled_from([None, 6, 10]))


@settings(max_examples=300, deadline=None)
@given(*_LABEL_FILES)
@example(["0", "", " 5\t", "3"], "\r\n", True, b"", 6)
@example(["0", "6"], "\n", False, b"", 6)
@example(["1 2"], "\n", False, b"", None)
@example(["9" * 18, "9" * 19], "\r", False, b"", None)
@example([], "\n", False, b"", 6)
def test_load_labels_matches_line_parser(tmp_path_factory, lines, sep, trailing, tail,
                                         num_classes):
    _check_label_file(tmp_path_factory, lines, sep, trailing, tail, num_classes)


@pytest.mark.parametrize("block", [1, 7, 64])
@settings(max_examples=300, deadline=None)
@given(*_LABEL_FILES)
@example(["0", "", " 5\t", "3"], "\r\n", True, b"", 6)
@example(["1", "9" * 18, "2 3"], "\r\n", False, b"\xc3", None)
def test_load_labels_matches_line_parser_in_small_blocks(tmp_path_factory, block, lines,
                                                          sep, trailing, tail, num_classes):
    with mock.patch.object(g.matrixio, "_BLOCK", block):
        _check_label_file(tmp_path_factory, lines, sep, trailing, tail, num_classes)


def _check_label_file(tmp_path_factory, lines, sep, trailing, tail, num_classes):
    path = tmp_path_factory.mktemp("labels") / "y.txt"
    path.write_bytes((sep.join(lines) + (sep if trailing else "")).encode() + tail)
    got = _outcome(lambda p: g.load_labels(p, num_classes), path)
    want = _outcome(lambda p: _load_labels_by_line(p, num_classes), path)
    if isinstance(want, tuple) and want[0] is UnicodeDecodeError:
        # bytes that are not UTF-8 are a ValidationError naming the file (or
        # an earlier line's fault is)
        assert got[0] is ValidationError and got[1].startswith(f"{path}: ")
    elif isinstance(want, tuple):
        assert got == want
    else:
        assert got.dtype == np.int64 and np.array_equal(got, want)
        assert got.shape == want.shape


def test_load_edges_peak_memory_is_bounded_by_its_output(tmp_path):
    pairs = np.random.default_rng(3).integers(0, 100_000, size=(250_000, 2))
    path = tmp_path / "e.txt"
    with open(path, "wb") as fh:
        g.matrixio._write_int_rows(fh, pairs)
    tracemalloc.start()
    try:
        got = g.load_edges(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, pairs)
    # the output, its trim copy at most, and one block's parse temporaries
    assert peak <= 2 * got.nbytes + 16 * g.matrixio._BLOCK


_INT64S = st.one_of(
    st.integers(-2 ** 63, 2 ** 63 - 1),
    st.integers(0, 18).flatmap(
        lambda p: st.sampled_from([10 ** p, 10 ** p - 1, -10 ** p, 1 - 10 ** p])),
    st.sampled_from([0, -2 ** 63, 2 ** 63 - 1]),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda cols: st.lists(
           st.lists(_INT64S, min_size=cols, max_size=cols), max_size=40).map(
           lambda rows: np.array(rows, dtype=np.int64).reshape(-1, cols))),
       st.sampled_from([8, 64, g.matrixio._BLOCK]))
def test_int_writer_matches_fstring_joins(table, block):
    fh = io.BytesIO()
    with mock.patch.object(g.matrixio, "_BLOCK", block):
        g.matrixio._write_int_rows(fh, table)
    want = "".join(" ".join(f"{v}" for v in row) + "\n" for row in table.tolist())
    assert fh.getvalue() == want.encode()


def test_plain_label_file_is_parsed_in_one_pass():
    raw = b"3\n\n  0\t\r\n007\r1\n"
    assert g.matrixio._parse_label_bytes(raw, 8).tolist() == [3, 0, 7, 1]
    assert g.matrixio._parse_label_bytes(b"", 8).shape == (0,)
    # out of range, two tokens on a line, a sign: left to the line loop
    for raw in (b"3\n8\n", b"1 2\n", b"-0\n", b"+1\n"):
        assert g.matrixio._parse_label_bytes(raw, 8) is None


@pytest.mark.parametrize("load, name", [
    (g.load_labels, "labels.txt"),
    (g.load_edges, "edges.txt"),
    (g.load_matrix, "m.csv"),
    (g.matrixio._parse_manifest, "manifest.txt"),
])
def test_non_utf8_text_is_validation_error_naming_file_and_line(tmp_path, load, name):
    path = tmp_path / name
    # blank lines, which every loader skips, ending at CRLF and CR
    path.write_bytes(b"\r\n\r  \xff 5\n")
    with pytest.raises(ValidationError) as exc:
        load(path)
    assert str(exc.value) == f"{path}: not UTF-8 text at line 3"


def corrupt(data, raw):
    """``raw`` truncated, with one bit flipped, or extended."""
    kind = data.draw(st.sampled_from(["truncate", "flip", "extend"]), label="kind")
    if kind == "truncate":
        return raw[:data.draw(st.integers(0, len(raw) - 1), label="size")]
    if kind == "flip":
        bit = data.draw(st.integers(0, 8 * len(raw) - 1), label="bit")
        bad = bytearray(raw)
        bad[bit // 8] ^= 1 << (bit % 8)
        return bytes(bad)
    return raw + data.draw(st.binary(min_size=1, max_size=64), label="tail")


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    bundle = g.generate_synthetic(n=200, num_classes=3, dim=4, homophily=0.8,
                                  class_sep=2.0, noise=1.0, seed=8)
    return g.save_bundle(bundle, tmp_path_factory.mktemp("bundle")).parent


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_corrupt_manifest_is_validation_error_naming_a_bundle_file(bundle_dir, data):
    manifest = bundle_dir / "fuzzed.txt"
    manifest.write_bytes(corrupt(data, (bundle_dir / "manifest.txt").read_bytes()))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g.load_bundle(manifest)
    except ValidationError as exc:
        # the manifest, or a bundle file it names that is itself at fault
        assert str(manifest) in str(exc) or str(bundle_dir) in str(exc)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_corrupt_csv_matrix_is_validation_error_naming_the_file(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    values = np.random.default_rng(2).normal(size=(4, 3))
    g.write_matrix(values, path)
    path.write_bytes(corrupt(data, path.read_bytes()))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mat = g.load_matrix(path)
    except ValidationError as exc:
        assert str(path) in str(exc)
    else:
        assert mat.ndim == 2 and np.isfinite(mat).all()


def test_failed_bundle_write_keeps_previous_files(tmp_path, small_bundle, monkeypatch):
    out = tmp_path / "out"
    g.save_bundle(small_bundle, out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def disk_full(*args, **kwargs):
        raise OSError(28, "No space left on device")

    class HalfWritten:
        """A file whose ``write`` stores half of its bytes, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            disk_full()

    # the disk fills after the features file's magic
    with monkeypatch.context() as m:
        m.setattr(g.matrixio, "struct", SimpleNamespace(pack=disk_full))
        with pytest.raises(OSError, match="No space"):
            g.save_bundle(small_bundle, out)
    # then midway through a write to the labels file, and to the edges file
    for name in ("labels.txt", "edges.txt"):
        def failing_open(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            return HalfWritten(fh) if Path(path).name.startswith(f".{name}.") else fh

        with monkeypatch.context() as m:
            m.setattr(g.matrixio, "open", failing_open, raising=False)
            with pytest.raises(OSError, match="No space"):
                g.save_bundle(small_bundle, out)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
