import numpy as np
import pytest

from tsr import (
    CaptionDoc,
    Collection,
    FeatureStore,
    Hypothesis,
    KBestList,
    Retriever,
    ingest_collection,
    load_collection,
    load_features,
    save_collection,
)
from oracles import FixedIdf, oracle_index


def make_docs():
    return [
        CaptionDoc("c1", "img1", ("a", "dog", "runs"), frozenset({"dog"})),
        CaptionDoc("c2", "img1", ("the", "dog", "sleeps")),
        CaptionDoc("c3", "img2", ("a", "cat", "sits"), frozenset({"cat"})),
    ]


def test_empty_stream_gives_empty_collection():
    coll = ingest_collection([])
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


def test_index_equals_oracle_on_random_collections():
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
        want = oracle_index(docs)
        for coll in (Collection(docs), ingest_collection(lines, True)):
            assert coll.docs == docs
            assert coll.vocab == want["vocab"]
            assert coll.matrix.indices.tolist() == want["indices"]
            assert coll.matrix.indptr.tolist() == want["indptr"]
            assert coll.type_counts.tolist() == want["type_counts"]
            assert coll.caption_rank.tolist() == want["caption_rank"]
            assert coll.cat_group.tolist() == want["cat_group"]


def test_duplicate_caption_id_rejected(tmp_path):
    lines = ["c1\timg1\ta dog", "c1\timg2\ta cat"]
    with pytest.raises(ValueError, match="line 2.*c1"):
        ingest_collection(lines)
    path = tmp_path / "dup.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"dup\.tsv:2: duplicate caption_id"):
        load_collection(path)


def test_malformed_record_names_line(tmp_path):
    lines = ["c1\timg1\ta dog", "just one field"]
    with pytest.raises(ValueError, match="line 2"):
        ingest_collection(lines)
    path = tmp_path / "bad.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad\.tsv:2: expected 3 or 4"):
        load_collection(path)


def test_empty_caption_rejected_by_default():
    with pytest.raises(ValueError, match="empty caption"):
        ingest_collection(["c1\timg1\t"])


def test_empty_caption_skipped_with_flag():
    coll = ingest_collection(
        ["c1\timg1\t", "c2\timg1\ta dog"], skip_empty=True
    )
    assert [d.caption_id for d in coll.docs] == ["c2"]


def test_categories_parsed_and_optional():
    coll = ingest_collection(
        ["c1\timg1\ta dog\tdog,person", "c2\timg1\ta cat"]
    )
    assert coll.docs[0].categories == frozenset({"dog", "person"})
    assert coll.docs[1].categories is None
    assert coll.category_group({"person", "dog"}) is not None
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
        return {doc.caption_id for doc, _ in retriever.retrieve(kb).matches}

    query = {"dog", "cat"}
    expected = {d.caption_id for d in docs if set(d.tokens) & query}
    assert retrieved(sorted(query)) == expected == {"c1", "c2", "c4"}
    assert retrieved([]) == set()
    assert retrieved(["zebra"]) == set()


def test_round_trip_preserves_collection(tmp_path):
    coll = Collection(make_docs())
    path = tmp_path / "coll.tsv"
    save_collection(coll, path)
    loaded = load_collection(path)
    assert loaded == coll
    assert loaded.vocab == coll.vocab
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(
            getattr(loaded.matrix, name), getattr(coll.matrix, name)
        )
    save_collection(loaded, tmp_path / "again.tsv")
    assert (tmp_path / "again.tsv").read_bytes() == path.read_bytes()


def test_feature_store_basics():
    feats = FeatureStore({"i1": [0.0, 1.0], "i2": [3.0, 4.0]})
    assert feats.dim == 2
    assert len(feats) == 2
    assert feats.row_of("i1") == 0 and feats.row_of("i3") is None
    assert feats.matrix[feats.row_of("i2")].tolist() == [3.0, 4.0]


def test_feature_store_empty():
    feats = FeatureStore({})
    assert feats.dim is None
    assert len(feats) == 0


def test_load_features(tmp_path):
    path = tmp_path / "feats.tsv"
    path.write_text("i1\t0.5 1.5 -2.0\ni2\t1.0 0.0 3.25\n")
    feats = load_features(path)
    assert feats.dim == 3
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
