import numpy as np
import pytest

from tsr import (
    CaptionDoc,
    Collection,
    FeatureStore,
    Hypothesis,
    KBestList,
    Retriever,
    load_collection,
)
from tsr.collection import load_features, write_normal_form
from oracles import FixedIdf, assert_same_collection, oracle_index


def make_docs():
    return [
        CaptionDoc("c1", "img1", ("a", "dog", "runs"), frozenset({"dog"})),
        CaptionDoc("c2", "img1", ("the", "dog", "sleeps")),
        CaptionDoc("c3", "img2", ("a", "cat", "sits"), frozenset({"cat"})),
    ]


def write_tsv(path, lines):
    """path holding lines, each ended by a newline."""
    path.write_text("".join(line + "\n" for line in lines), "utf-8")
    return path


def test_empty_stream_gives_empty_collection(tmp_path):
    coll = load_collection(write_tsv(tmp_path / "empty.tsv", []))
    assert len(coll) == 0
    assert coll.vocab == {}
    assert coll.matrix.shape == (0, 0)


def row_types(coll, i):
    """Term types of doc i, read back from its CSR row through vocab."""
    terms = {tid: term for term, tid in coll.vocab.items()}
    start, end = coll.matrix.indptr[i], coll.matrix.indptr[i + 1]
    return [terms[int(t)] for t in coll.matrix.indices[start:end]]


def test_shared_term_rows():
    coll = Collection(make_docs())
    rows = [row_types(coll, i) for i in range(len(coll))]
    assert ["dog" in row for row in rows] == [True, True, False]
    assert ["cat" in row for row in rows] == [False, False, True]
    assert "zebra" not in coll.vocab


def test_matrix_rows_reflect_types_exactly():
    rng = np.random.default_rng(11)
    vocab = [f"t{i}" for i in range(40)]
    for _ in range(20):
        docs = [
            CaptionDoc(
                f"c{i}",
                f"img{i % 5}",
                tuple(rng.choice(vocab, size=int(rng.integers(1, 7)))),
            )
            for i in range(int(rng.integers(1, 60)))
        ]
        coll = Collection(docs)
        for i, doc in enumerate(docs):
            got = row_types(coll, i)
            assert set(got) == set(doc.tokens)
            assert len(got) == coll.type_counts[i]
            ids = [coll.vocab[t] for t in got]
            assert ids == sorted(set(ids))
        assert coll.matrix.data.tolist() == [1.0] * coll.matrix.nnz


def record(doc):
    fields = [doc.caption_id, doc.image_id, " ".join(doc.tokens)]
    if doc.categories is not None:
        fields.append(",".join(sorted(doc.categories)))
    return "\t".join(fields)


def assert_holds(coll, docs):
    """coll holds docs in order: their ids in its columns, their token
    counts in its offsets, and their category sets in its groups."""
    assert coll.caption_ids == [doc.caption_id for doc in docs]
    assert [coll.images[c] for c in coll.image_code] == [
        doc.image_id for doc in docs
    ]
    assert np.diff(coll.offsets).tolist() == [len(d.tokens) for d in docs]
    assert coll.cat_group.tolist() == [
        -1 if doc.categories is None else coll.category_group(doc.categories)
        for doc in docs
    ]


def test_index_equals_oracle_on_random_collections(tmp_path):
    rng = np.random.default_rng(23)
    vocab = [f"t{i}" for i in range(30)]
    cat_sets = [None, frozenset({"dog"}), frozenset({"dog", "person"}),
                frozenset({"cat"}), frozenset({"cat", "dog", "person"})]
    for _ in range(40):
        n = int(rng.integers(1, 80))
        docs = [
            CaptionDoc(
                f"c{int(num)}",
                f"img{int(rng.integers(0, 6))}",
                tuple(str(t) for t in rng.choice(
                    vocab, size=int(rng.integers(1, 8))
                )),
                cat_sets[int(rng.integers(0, len(cat_sets)))],
            )
            for num in rng.permutation(n)
        ]
        lines = [record(doc) for doc in docs]
        lines.insert(int(rng.integers(0, n + 1)), "c-empty\timg0\t \tdog")
        path = write_tsv(tmp_path / "coll.tsv", lines)
        want = oracle_index(docs)
        for coll in (Collection(docs), load_collection(path, True)):
            assert_holds(coll, docs)
            assert coll.vocab == want["vocab"]
            assert coll.matrix.indices.tolist() == want["indices"]
            assert coll.matrix.indptr.tolist() == want["indptr"]
            assert coll.type_counts.tolist() == want["type_counts"]
            assert coll.caption_rank.tolist() == want["caption_rank"]
            assert coll.cat_group.tolist() == want["cat_group"]


def test_order_keeps_strings_numpy_would_conflate(tmp_path):
    """Ids and terms that differ only by trailing NULs, or by code points
    beyond one byte, order as Python strings do on every route."""
    rng = np.random.default_rng(5)
    names = ["a", "a\x00", "\x00", "a\x00\x00", "é", "e\u0301", "𝔞", "b"]

    def draw(lo, hi):  # by index: numpy's own strings would drop the NULs
        picks = rng.integers(0, len(names), rng.integers(lo, hi))
        return [names[i] for i in picks]

    for _ in range(20):
        ids = dict.fromkeys("".join(draw(1, 3)) for _ in range(30))
        docs = [CaptionDoc(cid, "img", tuple(draw(1, 5))) for cid in ids]
        want = oracle_index(docs)
        path = write_tsv(tmp_path / "coll.tsv", map(record, docs))
        for coll in (Collection(docs), load_collection(path)):
            assert_holds(coll, docs)
            assert coll.vocab == want["vocab"]
            assert coll.matrix.indices.tolist() == want["indices"]
            assert coll.matrix.indptr.tolist() == want["indptr"]
            assert coll.caption_rank.tolist() == want["caption_rank"]


def test_repeated_caption_id_names_its_line(tmp_path):
    """A caption id repeated at a random later line fails naming that
    line; blank lines and skipped empty captions keep line numbers and
    doc indices apart."""
    rng = np.random.default_rng(17)
    fillers = ["", "  ", "c-empty\timg\t "]
    for trial in range(30):
        n = int(rng.integers(2, 40))
        docs = [
            CaptionDoc(f"c{i}", "img", ("a", f"t{int(rng.integers(9))}"))
            for i in range(n)
        ]
        cid = docs[int(rng.integers(0, n - 1))].caption_id
        repeat = int(rng.integers(int(cid[1:]) + 1, n))
        docs[repeat] = CaptionDoc(cid, "img-repeat", ("b",))
        lines = [record(d) for d in docs]
        for _ in range(int(rng.integers(0, 4))):
            at = int(rng.integers(0, len(lines) + 1))
            lines.insert(at, fillers[int(rng.integers(0, len(fillers)))])
        lineno = lines.index(record(docs[repeat])) + 1
        message = f"duplicate caption_id {cid!r}"
        path = write_tsv(tmp_path / f"dup{trial}.tsv", lines)
        with pytest.raises(ValueError) as err:
            load_collection(path, skip_empty=True)
        assert str(err.value) == f"{path}:{lineno}: {message}"
        with pytest.raises(ValueError) as err:
            Collection(docs)
        assert str(err.value) == message


def test_first_of_several_repeated_ids_is_named(tmp_path):
    """With two or three caption ids repeated, the error names the repeat
    that comes first in the file, not the one whose id sorts first, on
    every route."""
    rng = np.random.default_rng(23)
    told_apart = 0
    for trial in range(30):
        n = int(rng.integers(6, 30))
        ids = [f"c{i}" for i in range(n)]
        picks = rng.choice(n // 2, rng.integers(2, 4), replace=False)
        for cid in [ids[i] for i in picks]:
            ids.insert(int(rng.integers(ids.index(cid) + 1, len(ids) + 1)), cid)
        repeats = [i for i, cid in enumerate(ids) if cid in ids[:i]]
        cid = ids[repeats[0]]
        told_apart += cid != min(ids[i] for i in repeats)
        docs = [CaptionDoc(c, f"img{i}", ("a",)) for i, c in enumerate(ids)]
        lines = [record(d) for d in docs]
        lines.insert(int(rng.integers(0, repeats[0] + 1)), "")
        where = repeats[0] + 2  # one blank line before the repeat
        message = f"duplicate caption_id {cid!r}"
        with pytest.raises(ValueError) as err:
            Collection(docs)
        assert str(err.value) == message
        path = write_tsv(tmp_path / f"dup{trial}.tsv", lines)
        with pytest.raises(ValueError) as err:
            load_collection(path)
        assert str(err.value) == f"{path}:{where}: {message}"
    assert told_apart >= 10


def test_index_keys_beyond_int32(tmp_path):
    """Docs times terms above 2**31: every row still holds exactly its
    doc's types, ascending, and both routes build the same index."""
    rng = np.random.default_rng(31)
    words = [f"w{i}" for i in range(40_000)]
    draws = rng.integers(0, len(words), size=(60_000, 4)).tolist()
    docs = [
        CaptionDoc(f"c{i}", f"img{i // 5}", tuple(words[w] for w in row))
        for i, row in enumerate(draws)
    ]
    coll = Collection(docs)
    assert len(coll) * len(coll.vocab) > 2**31
    matrix = coll.matrix
    for i, row in enumerate(draws):
        got = matrix.indices[matrix.indptr[i]:matrix.indptr[i + 1]].tolist()
        assert got == sorted({coll.vocab[words[w]] for w in row})
    assert coll.type_counts.tolist() == np.diff(matrix.indptr).tolist()
    path = write_tsv(tmp_path / "wide.tsv", map(record, docs))
    loaded = load_collection(path)
    assert loaded.vocab == coll.vocab
    for name in ("indptr", "indices", "data"):
        got, want = getattr(loaded.matrix, name), getattr(matrix, name)
        assert np.array_equal(got, want)
    assert np.array_equal(loaded.caption_rank, coll.caption_rank)
    assert np.array_equal(loaded.type_counts, coll.type_counts)


def test_duplicate_caption_id_rejected(tmp_path):
    lines = ["c1\timg1\ta dog", "c1\timg2\ta cat"]
    path = write_tsv(tmp_path / "dup.tsv", lines)
    message = r"dup\.tsv:2: duplicate caption_id 'c1'"
    with pytest.raises(ValueError, match=message):
        load_collection(path)


def test_malformed_record_names_line(tmp_path):
    lines = ["c1\timg1\ta dog", "just one field"]
    path = write_tsv(tmp_path / "bad.tsv", lines)
    with pytest.raises(ValueError, match=r"bad\.tsv:2: expected 3 or 4"):
        load_collection(path)


def test_empty_caption_rejected_by_default(tmp_path):
    path = write_tsv(tmp_path / "coll.tsv", ["c1\timg1\t"])
    with pytest.raises(ValueError, match=r"coll\.tsv:1: empty caption"):
        load_collection(path)


def test_empty_caption_skipped_with_flag(tmp_path):
    lines = ["c1\timg1\t", "c2\timg1\ta dog"]
    coll = load_collection(write_tsv(tmp_path / "coll.tsv", lines), True)
    assert coll.caption_ids == ["c2"]


def test_categories_parsed_and_optional(tmp_path):
    lines = ["c1\timg1\ta dog\tdog,person", "c2\timg1\ta cat"]
    coll = load_collection(write_tsv(tmp_path / "coll.tsv", lines))
    assert coll.cat_group[0] == coll.category_group({"person", "dog"})
    assert coll.cat_group[1] == -1
    assert coll.category_group({"dog"}) is None


def test_retrieved_docs_are_term_overlap_brute_force():
    """Only docs sharing a term with the query can score above zero."""
    docs = [
        CaptionDoc("c1", "i1", ("a", "dog")),
        CaptionDoc("c2", "i1", ("the", "cat")),
        CaptionDoc("c3", "i2", ("a", "bird")),
        CaptionDoc("c4", "i2", ("dog", "cat")),
        CaptionDoc("c5", "i3", ("fish",)),
    ]
    retriever = Retriever(Collection(docs), FixedIdf({}, default=1.0))

    def retrieved(query):
        kb = KBestList("s", [Hypothesis(tuple(query), -1.0)])
        ids = retriever.coll.caption_ids
        return {ids[r] for r, _ in retriever.retrieve(kb).matches}

    query = {"dog", "cat"}
    expected = {d.caption_id for d in docs if set(d.tokens) & query}
    assert retrieved(sorted(query)) == expected == {"c1", "c2", "c4"}
    assert retrieved([]) == set()
    assert retrieved(["zebra"]) == set()


def test_round_trip_preserves_collection(tmp_path):
    """Docs written as records load to the collection built from them in
    code, and records in normal form are written back as they are."""
    docs = make_docs()
    path = write_tsv(tmp_path / "coll.tsv", map(record, docs))
    assert_same_collection(load_collection(path), Collection(docs))
    write_normal_form(path, tmp_path / "again.tsv")
    assert (tmp_path / "again.tsv").read_bytes() == path.read_bytes()


def test_feature_store_basics():
    feats = FeatureStore({"i1": [0.0, 1.0], "i2": [3.0, 4.0]})
    assert feats.matrix.shape == (2, 2)
    assert len(feats) == 2
    assert feats.row_of("i1") == 0 and feats.row_of("i3") is None
    assert feats.matrix[feats.row_of("i2")].tolist() == [3.0, 4.0]


def test_feature_store_empty():
    feats = FeatureStore({})
    assert feats.matrix.shape == (0, 0)
    assert len(feats) == 0


def test_load_features(tmp_path):
    path = tmp_path / "feats.tsv"
    path.write_text("i1\t0.5 1.5 -2.0\ni2\t1.0 0.0 3.25\n")
    feats = load_features(path)
    assert feats.matrix.shape == (2, 3)
    assert feats.matrix[feats.row_of("i1")].tolist() == [0.5, 1.5, -2.0]


def test_load_features_dim_checks(tmp_path):
    path = tmp_path / "feats.tsv"
    path.write_text("i1\t1.0 2.0 3.0\ni2\t1.0 2.0\n")
    with pytest.raises(ValueError, match="length"):
        load_features(path)


def test_load_features_rejects_bad_values(tmp_path):
    path = tmp_path / "feats.tsv"
    path.write_text("i1\t1.0 nan\n")
    with pytest.raises(ValueError, match="non-finite"):
        load_features(path)
    path.write_text("i1\t1.0 x\n")
    with pytest.raises(ValueError, match="non-numeric"):
        load_features(path)
    path.write_text("i1\t1.0\ni1\t2.0\n")
    with pytest.raises(ValueError, match="repeated"):
        load_features(path)


def test_features_stored_float32_but_finite_checked():
    with pytest.raises(ValueError, match="non-finite"):
        FeatureStore({"i1": [1e39, 0.0]})


def dense_type_incidence(docs, vocab):
    """docs x terms, 1.0 where the term is one of the doc's types."""
    dense = np.zeros((len(docs), len(vocab)))
    for i, doc in enumerate(docs):
        for term in doc.tokens:
            dense[i, vocab[term]] = 1.0
    return dense


@pytest.mark.parametrize("n_words", [1, 3, 40])
def test_matrix_equals_a_dense_reference(tmp_path, n_words):
    """On both routes the CSR arrays are the dense reference's, indices
    int32: captions repeat tokens, the vocabulary may be one term, and
    a collection may be empty."""
    rng = np.random.default_rng(n_words)
    words = [f"w{i}" for i in range(n_words)]
    repeats = 0
    for trial in range(30):
        docs = [
            CaptionDoc(
                f"c{i}", f"img{int(rng.integers(0, 4))}",
                tuple(rng.choice(words, size=int(rng.integers(1, 9)))),
            )
            for i in range(0 if trial == 0 else int(rng.integers(1, 50)))
        ]
        repeats += sum(len(set(d.tokens)) < len(d.tokens) for d in docs)
        path = write_tsv(tmp_path / "coll.tsv", map(record, docs))
        vocab = oracle_index(docs)["vocab"]
        dense = dense_type_incidence(docs, vocab)
        for coll in (Collection(docs), load_collection(path)):
            matrix = coll.matrix
            assert coll.vocab == vocab
            assert matrix.shape == (len(docs), len(vocab))
            assert matrix.indices.dtype == np.int32
            assert matrix.data.dtype == np.float64
            assert np.array_equal(matrix.toarray(), dense)
            counts = dense.sum(axis=1)
            assert matrix.indptr.tolist() == [0, *np.cumsum(counts)]
            assert coll.type_counts.dtype == np.float64
            assert coll.type_counts.tolist() == counts.tolist()
            for i in range(len(docs)):
                row = matrix.indices[matrix.indptr[i]:matrix.indptr[i + 1]]
                assert np.all(np.diff(row) > 0)  # ascending, no repeats
    assert repeats > 20


def test_image_table_on_both_routes(tmp_path):
    """Each doc's image id reads back through its int32 code; the table
    holds the distinct ids in first-appearance order."""
    rng = np.random.default_rng(41)
    for trial in range(30):
        n = 0 if trial == 0 else int(rng.integers(1, 40))
        images = [f"img{int(i)}" for i in rng.integers(0, 1 + n // 3, n)]
        docs = [
            CaptionDoc(f"c{i}", image, ("w",)) for i, image in enumerate(images)
        ]
        path = write_tsv(tmp_path / "coll.tsv", map(record, docs))
        for coll in (Collection(docs), load_collection(path)):
            assert coll.image_code.dtype == np.int32
            assert [coll.images[c] for c in coll.image_code] == images
            assert coll.images == list(dict.fromkeys(images))
            assert repr(coll).startswith(
                f"Collection(docs={n}, images={len(set(images))},"
            )
