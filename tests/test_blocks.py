"""The collection and feature readers at block boundaries.

Both files are read a block of lines at a time (textcore._BLOCK). Every
error and warning must name the same line whatever the block size, and
a file must load to the same values as a line-at-a-time reference kept
here: the reader each was before block reading."""

import logging
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsr import CaptionDoc, Collection, FeatureStore, load_collection, textcore
from tsr.collection import load_features, parse_categories
from oracles import assert_same_collection

SIZES = [1, 2, 3, textcore._BLOCK]


@pytest.fixture(params=SIZES, ids=lambda n: f"block{n}")
def block_size(request, monkeypatch):
    monkeypatch.setattr(textcore, "_BLOCK", request.param)
    return request.param


def write(path, lines, end="\n"):
    path.write_text("".join(line + end for line in lines), encoding="utf-8")
    return path


GOOD_CAPTIONS = [f"c{i}\timg{i // 2}\tw{i} x" for i in range(7)]

# (bad line, message), the bad line inserted at every position.
CAPTION_ERRORS = {
    "one field": ("c9 img9 w", "expected 3 or 4 tab-separated fields, got 1"),
    "five fields": ("c9\ti\tw\tk\tz", "expected 3 or 4 tab-separated fields, got 5"),
    "empty caption_id": ("\timg9\tw", "empty caption_id or image_id"),
    "empty image_id": ("c9\t\tw", "empty caption_id or image_id"),
    "empty caption": ("c9\timg9\t  ", "empty caption 'c9'"),
}


@pytest.mark.parametrize("kind", CAPTION_ERRORS)
def test_caption_error_names_its_line(tmp_path, block_size, kind):
    bad, message = CAPTION_ERRORS[kind]
    for at in range(len(GOOD_CAPTIONS) + 1):
        lines = list(GOOD_CAPTIONS)
        lines.insert(at, bad)
        path = write(tmp_path / "coll.tsv", lines)
        with pytest.raises(ValueError) as err:
            load_collection(path)
        assert str(err.value) == f"{path}:{at + 1}: {message}"


def test_first_bad_line_wins_within_a_block(tmp_path, block_size):
    """A record rule refused on an earlier line is named before a field
    count refused on a later line, whichever block each falls in."""
    for at in range(1, len(GOOD_CAPTIONS)):
        lines = list(GOOD_CAPTIONS)
        lines[at - 1] = "\timg\tw"
        lines[at] = "only one field"
        path = write(tmp_path / "coll.tsv", lines)
        with pytest.raises(ValueError) as err:
            load_collection(path)
        assert str(err.value) == f"{path}:{at}: empty caption_id or image_id"


def test_blank_lines_keep_line_numbers(tmp_path, block_size):
    """Blank and whitespace-only lines, a block of nothing else among
    them, are skipped; later lines keep their numbers."""
    lines = [GOOD_CAPTIONS[0], "", " ", "\t", "", GOOD_CAPTIONS[1], "",
             "c9\timg9\t", GOOD_CAPTIONS[2]]
    path = write(tmp_path / "coll.tsv", lines)
    with pytest.raises(ValueError) as err:
        load_collection(path)
    assert str(err.value) == f"{path}:8: empty caption 'c9'"
    del lines[7]
    padded = load_collection(write(tmp_path / "padded.tsv", lines))
    clean = write(tmp_path / "clean.tsv", GOOD_CAPTIONS[:3])
    assert_same_collection(padded, load_collection(clean))


def test_skip_empty_warns_each_line(tmp_path, block_size, caplog):
    lines = list(GOOD_CAPTIONS)
    for at in (6, 3, 2, 0):
        lines.insert(at, f"e{at}\timg\t ")
    lines.insert(5, "")
    path = write(tmp_path / "coll.tsv", lines)
    with caplog.at_level(logging.WARNING, logger="tsr.collection"):
        coll = load_collection(path, skip_empty=True)
    assert coll.caption_ids == [f"c{i}" for i in range(7)]
    assert [r.getMessage() for r in caplog.records] == [
        f"{path}:{line}: skipping empty caption 'e{at}'"
        for line, at in [(1, 0), (4, 2), (7, 3), (11, 6)]
    ]
    with pytest.raises(ValueError, match=":1: empty caption 'e0'$"):
        load_collection(path)


def test_skip_empty_can_drop_a_whole_block(tmp_path, block_size):
    lines = [f"e{i}\timg\t" for i in range(5)] + GOOD_CAPTIONS[:2]
    lines.insert(3, "c9\t\tw")  # an empty image id is never skipped
    path = write(tmp_path / "coll.tsv", lines)
    with pytest.raises(ValueError) as err:
        load_collection(path, skip_empty=True)
    assert str(err.value) == f"{path}:4: empty caption_id or image_id"
    del lines[3]
    coll = load_collection(write(path, lines), skip_empty=True)
    assert coll.caption_ids == ["c0", "c1"]


def test_duplicate_caption_id_in_another_block(tmp_path, block_size):
    for at in range(1, len(GOOD_CAPTIONS) + 1):
        lines = list(GOOD_CAPTIONS)
        lines.insert(at, "c0\timg9\tz")
        lines.insert(0, "")
        path = write(tmp_path / "coll.tsv", lines)
        with pytest.raises(ValueError) as err:
            load_collection(path)
        assert str(err.value) == f"{path}:{at + 2}: duplicate caption_id 'c0'"


GOOD_FEATURES = [f"i{i}\t{i}.5 -{i}" for i in range(7)]

FEATURE_ERRORS = {
    "no tab": ("i9 1 2", "expected image_id<TAB>components"),
    "non-numeric": ("i9\t1 x", "non-numeric feature component"),
    "empty vector": ("i9\t ", "empty feature vector"),
    "short vector": (
        "i9\t1",
        "vector length 1 != 2; feature vectors must share one dimension",
    ),
    "not finite": ("i9\t1 nan", "non-finite feature component"),
    "not finite once rounded": ("i9\t1e39 0", "non-finite feature component"),
    "repeated id": ("i0\t1 2", "repeated image_id 'i0'"),
}


@pytest.mark.parametrize("kind", FEATURE_ERRORS)
def test_feature_error_names_its_line(tmp_path, block_size, kind):
    bad, message = FEATURE_ERRORS[kind]
    first = 1 if kind in ("repeated id", "short vector") else 0
    for at in range(first, len(GOOD_FEATURES) + 1):
        lines = list(GOOD_FEATURES)
        lines.insert(at, bad)
        lines.insert(at, "  ")
        path = write(tmp_path / "feats.tsv", lines)
        with pytest.raises(ValueError) as err:
            load_features(path)
        assert str(err.value) == f"{path}:{at + 2}: {message}"


def test_first_row_sets_the_dimension(tmp_path, block_size):
    lines = ["i0\t1 2 3", *GOOD_FEATURES[1:]]
    path = write(tmp_path / "feats.tsv", lines)
    with pytest.raises(ValueError) as err:
        load_features(path)
    assert str(err.value) == (
        f"{path}:2: vector length 2 != 3;"
        " feature vectors must share one dimension"
    )


def test_vectors_built_in_code():
    """A nested vector fails as a length error, as it did row by row;
    the literals float() reads load."""
    for vectors in ({"a": [1.0, 2.0], "b": [[1.0, 2.0]]}, {"b": [[1.0, 2.0]]}):
        with pytest.raises(ValueError) as err:
            FeatureStore(vectors)
        assert str(err.value) == (
            "image 'b': vector length 2 != 2;"
            " feature vectors must share one dimension"
        )
    with pytest.raises(ValueError, match="^image 'b': vector length 1 != 2"):
        FeatureStore({"a": [1.0, 2.0], "b": 3.0})
    with pytest.raises(ValueError, match="^image 'b': non-numeric"):
        FeatureStore({"a": [1.0, 2.0], "b": [1.0, [2.0, 3.0]]})
    feats = FeatureStore({"a": ["1_0", "١٢"], "b": np.array([0.5, 2.0])})
    assert feats.matrix.tolist() == [[10.0, 12.0], [0.5, 2.0]]


# -- random files against line-at-a-time references -------------------


def reference_collection(path):
    """The docs of a collection file read one line at a time, or the
    error that reading gives."""
    docs, lines = [], []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            fields = line.rstrip("\n").split("\t")
            if len(fields) not in (3, 4):
                raise ValueError(
                    f"{where}: expected 3 or 4 tab-separated fields,"
                    f" got {len(fields)}"
                )
            cid, image, text = fields[:3]
            if not cid or not image:
                raise ValueError(f"{where}: empty caption_id or image_id")
            if not text.split():
                raise ValueError(f"{where}: empty caption {cid!r}")
            cats = parse_categories(fields[3]) if len(fields) == 4 else None
            docs.append(CaptionDoc(cid, image, tuple(text.split()), cats))
            lines.append(lineno)
    ids = [d.caption_id for d in docs]
    for i, cid in enumerate(ids):
        if cid in ids[:i]:
            raise ValueError(f"{path}:{lines[i]}: duplicate caption_id {cid!r}")
    return docs


@np.errstate(over="ignore")
def reference_features(path):
    """The id-to-row map and float32 matrix of a feature file read one
    row at a time, or the error that reading gives."""
    row_of, rows, dim = {}, [], 0
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 2:
                raise ValueError(f"{where}: expected image_id<TAB>components")
            image_id, text = fields
            if image_id in row_of:
                raise ValueError(f"{where}: repeated image_id {image_id!r}")
            try:
                row = np.asarray(text.split(), np.float64).astype(np.float32)
            except ValueError:
                raise ValueError(f"{where}: non-numeric feature component")
            if not row.size:
                raise ValueError(f"{where}: empty feature vector")
            dim = dim or row.size
            if row.shape != (dim,):
                raise ValueError(
                    f"{where}: vector length {row.size} != {dim};"
                    " feature vectors must share one dimension"
                )
            if not np.isfinite(row).all():
                raise ValueError(f"{where}: non-finite feature component")
            row_of[image_id] = len(row_of)
            rows.append(row)
    return row_of, np.array(rows, np.float32).reshape(len(row_of), dim)


def outcome(read, path):
    try:
        return read(path), None
    except ValueError as exc:
        return None, str(exc)


BLANK = st.sampled_from(["", " ", "\t", "  \t "])
NAME = st.sampled_from(["", "a", "b", "c", "d", "e"])
WORDS = st.lists(st.sampled_from(["x", "y", "zz", "ü"]), max_size=3)
CAPTION_LINE = st.one_of(
    BLANK,
    st.tuples(NAME, NAME, WORDS, st.sampled_from([None, "", "k", "k,j,"])).map(
        lambda t: "\t".join(
            [t[0], t[1], " ".join(t[2])] + ([] if t[3] is None else [t[3]])
        )
    ),
    st.sampled_from(["a b", "a\tb", "a\tb\tc\td\te"]),
)
NUMBER = st.one_of(
    st.floats(width=64).map(repr),
    st.sampled_from(["1e39", "-1e39", "1_0", "١٢", "x", "0x1", ".5", "-0"]),
)
FEATURE_LINE = st.one_of(
    BLANK,
    st.tuples(NAME, st.lists(NUMBER, max_size=3)).map(
        lambda t: f"{t[0]}\t{' '.join(t[1])}"
    ),
    st.sampled_from(["a 1 2", "a\t1\t2"]),
)


def file_of(lines):
    return st.tuples(
        st.lists(lines, max_size=12),
        st.sampled_from(["\n", "\r\n"]),
        st.booleans(),
        st.sampled_from(SIZES),
    )


@settings(max_examples=150, deadline=None)
@given(file_of(CAPTION_LINE))
def test_collection_file_loads_as_read_line_by_line(drawn):
    lines, end, last_newline, size = drawn
    text = end.join(lines) + (end if last_newline else "")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "coll.tsv"
        path.write_bytes(text.encode("utf-8"))
        docs, error = outcome(reference_collection, path)
        with mock.patch.object(textcore, "_BLOCK", size):
            coll, got = outcome(load_collection, path)
        # A file that loads is loaded again, through the sidecar the
        # first load wrote.
        colls = [coll, load_collection(path)] if error is None else []
    assert got == error
    for coll in colls:
        assert_same_collection(coll, Collection(docs))
        assert coll.caption_ids == [d.caption_id for d in docs]


@settings(max_examples=150, deadline=None)
@given(file_of(FEATURE_LINE))
def test_feature_file_loads_as_read_row_by_row(drawn):
    lines, end, last_newline, size = drawn
    text = end.join(lines) + (end if last_newline else "")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "feats.tsv"
        path.write_bytes(text.encode("utf-8"))
        want, error = outcome(reference_features, path)
        with mock.patch.object(textcore, "_BLOCK", size):
            feats, got = outcome(load_features, path)
        # A file that loads is loaded again, through the sidecar the
        # first load wrote.
        stores = [feats, load_features(path)] if error is None else []
    assert got == error
    for feats in stores:
        row_of, matrix = want
        assert feats._row == row_of
        assert feats.matrix.dtype == np.float32
        assert feats.matrix.shape == matrix.shape
        assert feats.matrix.view(np.uint32).tolist() == (
            matrix.view(np.uint32).tolist()
        )
