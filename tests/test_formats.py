"""The rules every text artifact shares: round trips through each writer
and reader, one corrupted line failing as ``path:line``, whitespace-only
lines skipped, and the atomic writer."""

import os
import re
import stat
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tsr import (
    CaptionDoc,
    Collection,
    FeatureStore,
    Hypothesis,
    IdfTable,
    KBestList,
    load_collection,
    load_features,
    read_kbest,
    read_queries,
    save_collection,
    write_kbest,
)
from tsr.textcore import write_lines

WORD = st.text(alphabet="abcxyzäß019-'", min_size=1, max_size=5)
SCORE = st.floats(allow_nan=False, allow_infinity=False)


def round_trip(write, read, value, name):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        write(value, path)
        return read(path)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 50).flatmap(
    lambda n: st.tuples(
        st.just(n), st.dictionaries(WORD, st.integers(1, n), max_size=8)
    )
))
def test_idf_table_round_trip(drawn):
    table = IdfTable(*drawn)
    assert round_trip(IdfTable.save, IdfTable.load, table, "idf.txt") == table


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(
    WORD,
    st.tuples(
        WORD,
        st.lists(WORD, min_size=1, max_size=5),
        st.none() | st.frozensets(WORD, min_size=1, max_size=3),
    ),
    max_size=6,
))
def test_collection_round_trip(drawn):
    coll = Collection([
        CaptionDoc(cid, image, tuple(tokens), cats)
        for cid, (image, tokens, cats) in drawn.items()
    ])
    loaded = round_trip(save_collection, load_collection, coll, "coll.tsv")
    assert loaded == coll
    assert loaded.vocab == coll.vocab


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(
    WORD,
    st.lists(
        st.tuples(st.lists(WORD, max_size=4).map(tuple), SCORE),
        min_size=1,
        max_size=5,
        unique_by=lambda hyp: hyp[0],
    ),
    max_size=5,
))
def test_kbest_round_trip(drawn):
    lists = [
        KBestList(sent_id, [
            Hypothesis(tokens, score)
            for (tokens, _), score in zip(
                hyps, sorted((s for _, s in hyps), reverse=True)
            )
        ])
        for sent_id, hyps in drawn.items()
    ]
    loaded = round_trip(write_kbest, read_kbest, lists, "kbest.txt")
    assert loaded == lists


# One valid artifact per reader, and ways to break any one of its lines.
ARTIFACTS = {
    "idf": (
        IdfTable.load,
        ["N=4", "a\t4", "dog\t1", "man\t2"],
        {"no tab": lambda l: l.replace("\t", " "),
         "bad df": lambda l: l.split("\t")[0] + "\tx",
         "df above N": lambda l: l.split("\t")[0] + "\t99",
         "df zero": lambda l: l.split("\t")[0] + "\t0"},
    ),
    "collection": (
        load_collection,
        ["c1\ti1\ta man\tperson", "c2\ti1\ta horse", "c3\ti2\tthe dog\tdog"],
        {"no tabs": lambda l: l.replace("\t", " "),
         "empty caption": lambda l: "\t".join(l.split("\t")[:2] + [" "]),
         "empty caption_id": lambda l: "\t" + l.split("\t", 1)[1]},
    ),
    "kbest": (
        read_kbest,
        ["s1 ||| a man ||| -1.0", "s1 ||| the man ||| -2.0",
         "s2 ||| a dog ||| -0.5"],
        {"no separators": lambda l: l.replace(" ||| ", " "),
         "bad score": lambda l: l.rsplit(" ||| ", 1)[0] + " ||| x"},
    ),
    "features": (
        load_features,
        ["i1\t0.0 1.0", "i2\t3.0 4.0", "i3\t-1 2e3"],
        {"no tab": lambda l: l.replace("\t", " "),
         "bad component": lambda l: l + "x",
         "empty vector": lambda l: l.split("\t")[0] + "\t ",
         "infinite": lambda l: l.split("\t")[0] + "\t0.0 inf",
         "float32 overflow": lambda l: l.split("\t")[0] + "\t1e39 0.0"},
    ),
    "queries": (
        read_queries,
        ["s1\ti1\tperson", "s2\t-", "s3\ti2\tdog,person"],
        {"no tabs": lambda l: l.replace("\t", " "),
         "extra field": lambda l: l + "\tx\ty"},
    ),
}
CORRUPTIONS = [
    (name, kind) for name, (_, _, kinds) in ARTIFACTS.items() for kind in kinds
]


@pytest.mark.parametrize("name, kind", CORRUPTIONS)
def test_corrupted_line_fails_with_its_location(tmp_path, name, kind):
    read, lines, kinds = ARTIFACTS[name]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    read(path)
    first = 2 if name == "idf" else 1
    for lineno in range(first, len(lines) + 1):
        broken = list(lines)
        broken[lineno - 1] = kinds[kind](broken[lineno - 1])
        path.write_text("\n".join(broken) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{lineno}: "):
            read(path)


def test_idf_header_below_one_names_the_file(tmp_path):
    path = tmp_path / "idf.txt"
    path.write_text("N=0\na\t1\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        IdfTable.load(path)
    assert str(err.value) == f"{path}: doc_count must be positive"


def test_library_records_check_themselves():
    with pytest.raises(ValueError, match="^empty caption_id or image_id$"):
        CaptionDoc("", "i1", ("a",))
    with pytest.raises(ValueError, match="^image 'b': vector length 2 != 1"):
        FeatureStore({"a": [1.0], "b": [1.0, 2.0]})


def comparable(loaded):
    if isinstance(loaded, FeatureStore):
        return loaded.ids, loaded.matrix.tolist()
    return loaded


@pytest.mark.parametrize("name", list(ARTIFACTS))
def test_whitespace_only_lines_are_skipped(tmp_path, name):
    read, lines, _ = ARTIFACTS[name]
    clean, padded = tmp_path / "clean", tmp_path / "padded"
    clean.write_text("\n".join(lines) + "\n", encoding="utf-8")
    padded.write_text(
        "\n".join([lines[0], "", "  ", *lines[1:], " \t "]) + "\n",
        encoding="utf-8",
    )
    assert comparable(read(padded)) == comparable(read(clean))


def test_write_lines_failure_keeps_earlier_file(tmp_path):
    path = tmp_path / "out.txt"
    write_lines(path, ["old", "lines"])
    before = path.read_bytes()

    def lines():
        yield "new"
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError, match="interrupted"):
        write_lines(path, lines())
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["out.txt"]


def test_write_lines_mode_matches_plain_open(tmp_path):
    plain = tmp_path / "plain.txt"
    with open(plain, "w", encoding="utf-8"):
        pass
    write_lines(tmp_path / "fresh.txt", ["x"])
    assert stat.S_IMODE((tmp_path / "fresh.txt").stat().st_mode) == (
        stat.S_IMODE(plain.stat().st_mode)
    )
    assert (tmp_path / "fresh.txt").read_text(encoding="utf-8") == "x\n"


def test_write_lines_error_names_the_output(tmp_path):
    path = tmp_path / "missing" / "out.txt"
    with pytest.raises(FileNotFoundError) as err:
        write_lines(path, ["x"])
    assert str(err.value) == (
        f"[Errno 2] No such file or directory: '{path}'"
    )
