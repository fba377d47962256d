"""The rules every text artifact shares: round trips through each writer
and reader, one corrupted line failing as ``path:line``, whitespace-only
lines skipped, and the atomic writer."""

import os
import re
import stat
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from tsr import (
    CaptionDoc,
    Collection,
    FeatureStore,
    Hypothesis,
    IdfTable,
    KBestList,
    load_collection,
    read_kbest,
    read_matchlists,
    write_diagnostics,
    write_matchlists,
    write_output,
)
from tsr.cli import main
from tsr.collection import load_features
from tsr.evalsig import read_sentence_file
from tsr.rerank import RerankedOutput
from tsr.retrieval import MatchList, read_queries
from tsr.textcore import read_records, read_token_lines, write_lines
from oracles import assert_same_collection, both_loads

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
    loaded = round_trip(IdfTable.save, IdfTable.load, table, "idf.txt")
    assert (loaded.doc_count, loaded.df) == (table.doc_count, table.df)


# Pieces of the ids, tokens and labels of a collection round trip:
# non-ASCII text, the k-best separator, NUL and, but in tokens, spaces.
PIECE = st.sampled_from(["a", "b", "é", "ß", "𝔞", "|||", "\x00", "0"])
TOKEN = st.lists(PIECE, min_size=1, max_size=4).map("".join)
FIELD = st.lists(PIECE | st.just(" "), min_size=1, max_size=4).map("".join)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(
    FIELD,
    st.tuples(
        FIELD,
        st.lists(TOKEN, min_size=1, max_size=5),
        st.none() | st.frozensets(FIELD, min_size=1, max_size=3),
    ),
    max_size=6,
))
def test_collection_round_trip(drawn):
    """Records load, by the text route and through the sidecar the
    first load writes, to the collection built from them in code."""
    docs = [
        CaptionDoc(cid, image, tuple(tokens), cats)
        for cid, (image, tokens, cats) in drawn.items()
    ]
    lines = [
        record_line(d.caption_id, d.image_id, d.tokens, d.categories)
        for d in docs
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "coll.tsv"
        write_lines(path, lines)
        for loaded in both_loads(path):
            assert_same_collection(loaded, Collection(docs))


def record_line(caption_id, image_id, tokens, labels):
    """A collection record's line in normal form."""
    text = [",".join(sorted(labels))] if labels else []
    return "\t".join([caption_id, image_id, " ".join(tokens), *text])


# A messy collection file that load_collection accepts: ids that may
# start with a space, captions of words and runs of spaces and U+3000
# (none but spaces is an empty caption), label fields with empty,
# repeated and unsorted labels, and blank lines between records.
MESSY_RECORD = st.tuples(
    st.tuples(st.sampled_from(["", " "]), WORD).map("".join),
    WORD,
    st.lists(WORD | st.sampled_from([" ", "  ", "\u3000"]), max_size=6)
    .map("".join),
    st.none() | st.lists(WORD | st.just(""), max_size=4).map(",".join),
)
BLANK = st.sampled_from(["", "   ", "\u3000", " \t "])


def normal_form(caption_id, image_id, text, labels):
    """A messy record's normal-form line; None for an empty caption."""
    tokens = text.split()
    kept = set(labels.split(",")) - {""} if labels else None
    return record_line(caption_id, image_id, tokens, kept) if tokens else None


@settings(max_examples=100, deadline=None)
@given(
    st.lists(MESSY_RECORD, max_size=8, unique_by=lambda r: r[0]),
    st.lists(st.tuples(st.integers(0, 8), BLANK), max_size=3),
)
@example([("c1", "i", " a\u3000\u3000b ", "y,,x,y"), ("c2", "i", " ", ",")],
         [(1, "  ")])
def test_build_index_writes_the_normal_form(records, blanks):
    """build-index --skip-empty writes each record with a token in normal
    form; its output is a fixed point and loads as the input does. An
    empty caption without --skip-empty fails and writes nothing."""
    lines = ["\t".join(f for f in r if f is not None) for r in records]
    for at, blank in blanks:
        lines.insert(min(at, len(lines)), blank)
    want = [line for line in (normal_form(*r) for r in records) if line]
    refused = len(want) < len(records)
    with tempfile.TemporaryDirectory() as tmp:
        src, out, again = (Path(tmp) / n for n in ("in", "out", "again"))
        write_lines(src, lines)
        assert main(["build-index", str(src), str(out)]) == refused
        kept = ["in.tsr-index.npz", "out"] * (not refused)
        assert sorted(os.listdir(tmp)) == ["in", *kept]
        assert main(["build-index", str(src), str(out), "--skip-empty"]) == 0
        assert out.read_text("utf-8") == "".join(f"{l}\n" for l in want)
        assert main(["build-index", str(out), str(again)]) == 0
        assert again.read_bytes() == out.read_bytes()
        for loaded in both_loads(out):
            assert_same_collection(
                loaded, load_collection(src, skip_empty=True)
            )


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
    lines = [
        f"{kb.sent_id} ||| {' '.join(hyp.tokens)} ||| {hyp.decoder_score!r}"
        for kb in lists
        for hyp in kb.hyps
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "kbest.txt"
        write_lines(path, lines)
        assert read_kbest(path) == lists


# Ids, tokens and labels: words, or pieces a line format may not hold.
HOSTILE = WORD | st.lists(
    st.sampled_from(["a", "b", " ", "\t", ",", "|||", " ||| ", "\n", "\r"]),
    min_size=1,
    max_size=4,
).map("".join)


def refused_or_read_back(write, read, value, name):
    """What read gives for the file write made of value; None when write
    refused value with ValueError and left no file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        try:
            write(value, path)
        except ValueError:
            assert os.listdir(tmp) == []
            return None
        return read(path)


def by_stripped_id(items, *attrs):
    return [
        (item.sent_id.strip(), *(getattr(item, a) for a in attrs))
        for item in items
    ]


# Matches: rows of a three-caption collection or beside it, and any
# score, positive or not, finite or not.
MATCH = st.tuples(st.integers(-1, 3), st.floats())


@settings(max_examples=200, deadline=None)
@given(
    st.lists(HOSTILE, min_size=3, max_size=3, unique=True),
    st.lists(
        st.tuples(HOSTILE, st.lists(MATCH, max_size=3), st.booleans()),
        max_size=4,
    ),
)
@example(["a\nb", "c", "d"], [("s1", [(0, 1.0)], False)])
@example(["c", "d", "e"], [("s\r1", [], True)])
@example(["c", "d", "e"], [("s1", [(2, 1.0), (-1, 1.0)], False)])
@example(["c", "d", "e"], [("s1", [(3, 1.0)], False)])
@example(["c", "d", "e"], [("s1", [(0, float("nan"))], False)])
@example(["c", "d", "e"], [("s1", [(0, 0.0)], False)])
@example(["-", "d", "e"], [("s1", [(0, -0.0)], False)])
@example(["c", "d", "e"], [("s1", [(0, -2.5)], False)])
def test_match_lines_read_back_or_fail(caption_ids, drawn):
    coll = Collection([CaptionDoc(cid, "i", ("a",)) for cid in caption_ids])
    mls = [MatchList(*match_list) for match_list in drawn]
    loaded = refused_or_read_back(
        lambda value, path: write_matchlists(value, coll, path),
        lambda path: read_matchlists(path, coll),
        mls,
        "matches.txt",
    )
    if loaded is not None:
        attrs = ("used_fallback", "matches")
        assert by_stripped_id(loaded, *attrs) == by_stripped_id(mls, *attrs)


def reranked(sent_id, tokens, combined=-1.0, relevance=0.0, flag=False):
    """A rerank result choosing tokens at decoder rank 1."""
    hyp = Hypothesis(tokens, combined)
    return RerankedOutput(sent_id, hyp, combined, relevance, 1, flag)


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(HOSTILE, st.lists(HOSTILE, max_size=3).map(tuple)),
    max_size=4,
))
@example([("s1", ("x y",))])
@example([("a ||| b", ("x",))])
@example([("s\n1", ("x",))])
def test_output_lines_read_back_or_fail(drawn):
    outputs = [reranked(sent_id, tokens) for sent_id, tokens in drawn]
    loaded = refused_or_read_back(
        write_output, read_sentence_file, outputs, "output.txt"
    )
    if loaded is not None:
        ids, sentences = loaded
        assert list(zip(ids or [], map(tuple, sentences))) == [
            (out.sent_id.strip(), out.chosen.tokens) for out in outputs
        ]


def read_diagnostics(path):
    records = read_records(path, " ||| ", (5,), "expected 5 fields")
    return [
        (sent_id, int(rank), float(combined), float(rel), bool(int(flag)))
        for _, (sent_id, rank, combined, rel, flag) in records
    ]


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(HOSTILE, SCORE, SCORE, st.booleans()), max_size=4
))
@example([("a ||| b", -1.0, 0.5, False)])
@example([("s\r1", -1.0, 0.5, True)])
def test_diagnostics_lines_read_back_or_fail(drawn):
    outputs = [
        reranked(sent_id, ("x",), combined, rel, flag)
        for sent_id, combined, rel, flag in drawn
    ]
    loaded = refused_or_read_back(
        write_diagnostics, read_diagnostics, outputs, "diagnostics.txt"
    )
    if loaded is not None:
        assert loaded == [
            (out.sent_id, 1, out.combined_score, out.relevance, flag)
            for out, (*_, flag) in zip(outputs, drawn)
        ]


MATCH_COLL = Collection([
    CaptionDoc("c1", "i1", ("a", "man")),
    CaptionDoc("c2", "i2", ("a", "dog")),
])


@pytest.mark.parametrize("write, value, named", [
    (lambda value, path: write_matchlists(value, MATCH_COLL, path),
     [MatchList("s1", [(0, 1.0)]), MatchList(" s1", [])],
     "sentence ' s1' written twice"),
    (write_output, [reranked("s1", ("x y",))], "sentence 's1'"),
    (write_diagnostics, [reranked("s1", ("x",)), reranked("a\nb", ("x",))],
     "sentence 'a\\nb'"),
], ids=["matches", "output", "diagnostics"])
def test_refused_record_is_named(tmp_path, write, value, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        write(value, tmp_path / "out.txt")
    assert os.listdir(tmp_path) == []


def replace_field(at: int, value: str):
    """A corruption setting field at of a ``|||``-separated line."""
    def corrupt(line):
        fields = line.split(" ||| ")
        fields[at] = value
        return " ||| ".join(fields)
    return corrupt


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
         "extra field": lambda l: l + "\tx\ty",
         "empty image_id": lambda l: l.split("\t")[0] + "\t"},
    ),
    "matches": (
        lambda path: read_matchlists(path, MATCH_COLL),
        ["s1 ||| c1 ||| 2.0 ||| 0", "s1 ||| c2 ||| 1.5 ||| 0",
         "s2 ||| c2 ||| 0.5 ||| 1"],
        {"three fields": lambda l: l.rsplit(" ||| ", 1)[0],
         "bad score": replace_field(2, "x"),
         "flag 7": replace_field(3, "7"),
         "unknown caption id": replace_field(1, "nosuch")},
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


SENTENCES = ["s1 ||| a man", "s2 ||| a dog", "s3 ||| the horse"]
SENTENCE_CORRUPTIONS = {
    "extra field": (1, lambda l: l + " ||| x"),
    "untagged": (2, lambda l: l.split(" ||| ")[1]),
    "repeated id": (2, replace_field(0, "s1")),
}


@pytest.mark.parametrize("kind", SENTENCE_CORRUPTIONS)
def test_corrupted_sentence_line_fails_with_its_location(tmp_path, kind):
    # Not an ARTIFACTS entry: a blank line is a sentence in these files.
    # An untagged line or a repeated id is only wrong after line 1.
    first, corrupt = SENTENCE_CORRUPTIONS[kind]
    path = tmp_path / "sentences.txt"
    path.write_text("\n".join(SENTENCES) + "\n", encoding="utf-8")
    read_sentence_file(path)
    for lineno in range(first, len(SENTENCES) + 1):
        broken = list(SENTENCES)
        broken[lineno - 1] = corrupt(broken[lineno - 1])
        path.write_text("\n".join(broken) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{lineno}: "):
            read_sentence_file(path)


@pytest.mark.parametrize("header, message", [
    ("N=0", "doc_count must be positive"),
    ("N=abc", "bad doc_count in header"),
], ids=["below-one", "not-an-integer"])
def test_bad_idf_header_names_the_file(tmp_path, header, message):
    path = tmp_path / "idf.txt"
    path.write_text(f"{header}\na\t1\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        IdfTable.load(path)
    assert str(err.value) == f"{path}: {message}"


def test_library_records_check_themselves():
    with pytest.raises(ValueError, match="^empty caption_id or image_id$"):
        CaptionDoc("", "i1", ("a",))
    with pytest.raises(ValueError, match="^empty category set on caption 'c'$"):
        CaptionDoc("c", "i", ("x",), frozenset())
    with pytest.raises(ValueError, match="^image 'b': vector length 2 != 1"):
        FeatureStore({"a": [1.0], "b": [1.0, 2.0]})


def comparable(loaded):
    if isinstance(loaded, FeatureStore):
        return loaded._row, loaded.matrix.tolist()
    if isinstance(loaded, IdfTable):
        return loaded.doc_count, loaded.df
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
    got, want = read(padded), read(clean)
    if isinstance(want, Collection):
        assert_same_collection(got, want)
    else:
        assert comparable(got) == comparable(want)


READERS = {
    **{name: (read, lines) for name, (read, lines, _) in ARTIFACTS.items()},
    "sentences": (read_sentence_file, SENTENCES),
    "tokens": (lambda path: list(read_token_lines(path)), ["a man", "a dog"]),
}


@pytest.mark.parametrize("name", list(READERS))
def test_byte_order_mark_fails_at_line_one(tmp_path, name):
    """A UTF-8 byte-order mark would read as part of the first field
    (an id, or the idf header), so every reader refuses it."""
    read, lines = READERS[name]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    read(path)
    path.write_text("\ufeff" + "\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read(path)
    assert str(err.value) == (
        f"{path}:1: starts with a byte-order mark;"
        " save the file as UTF-8 without one"
    )


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
