import itertools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsr import retrieval
from tsr import (
    CaptionDoc,
    Collection,
    FeatureStore,
    Hypothesis,
    KBestList,
    RerankParams,
    RetrievalParams,
    Retriever,
    read_kbest,
    read_matchlists,
    write_matchlists,
)
from tsr.retrieval import MODES, MatchList, read_queries
from oracles import (
    FixedIdf,
    ScaledIdf,
    float32_exact,
    random_collection,
    random_idf_table,
    random_kbest,
    with_copies,
)


DOC = CaptionDoc("c1", "img1", ("a", "dog"))
IDF = FixedIdf({"a": 0.1, "dog": 2.0})
WIDE = RetrievalParams(k_n=50, k_m=50)


def hyp(text, score=-1.0):
    return Hypothesis(tuple(text.split()), score)


def scored(docs, hyps, idf=IDF, feats=None, query_image=None,
           query_categories=None, mode="txt", params=WIDE):
    """Retrieve over a collection of docs; returns ({caption_id: score},
    used_fallback). A caption that scores zero is absent."""
    kbest = KBestList("s", list(hyps))
    coll = Collection(docs)
    ml = Retriever(coll, idf, feats).retrieve(
        kbest, query_image, query_categories, mode, params
    )
    return {coll.caption_ids[r]: s for r, s in ml.matches}, ml.used_fallback


def txt_score(doc, hyps, idf=IDF):
    return scored([doc], hyps, idf)[0][doc.caption_id]


class TestScoreTxt:
    def test_no_overlap_is_zero(self):
        assert scored([DOC], [hyp("the cat")]) == ({}, False)

    def test_hand_fixture_with_token_repetition(self):
        # types {a, dog}, hypothesis [a, dog, dog]: the repeated token
        # contributes twice, the candidate-side normalizer is the type
        # count 2, so (0.1 + 2.0 + 2.0) / 2.
        got = txt_score(DOC, [hyp("a dog dog")])
        assert abs(got - 2.05) <= 1e-12

    def test_linear_in_hypothesis_list(self):
        one = txt_score(DOC, [hyp("a dog dog")])
        two = txt_score(DOC, [hyp("a dog dog"), hyp("dog a dog", -2.0)])
        assert two == 2 * one

    def test_candidate_types_counted_once(self):
        doubled = CaptionDoc("c2", "img1", ("a", "dog", "dog", "a"))
        got, _ = scored([DOC, doubled], [hyp("a dog")])
        assert got["c2"] == got["c1"]


class TestVisualDistance:
    """Euclidean distance as retrieval sees it: through the cnn decay
    exp(-b * v) applied to the txt score."""

    PARAMS = RetrievalParams(k_n=5, k_m=5, distance_weight=0.7)

    def cnn(self, query_vec, cand_vec):
        feats = FeatureStore({"q": query_vec, "img1": cand_vec})
        got, fallback = scored(
            [DOC], [hyp("a dog dog")], feats=feats, query_image="q",
            mode="cnn", params=self.PARAMS,
        )
        assert not fallback
        return got["c1"]

    def test_identity(self):
        assert self.cnn([1.0, 2.0], [1.0, 2.0]) == txt_score(
            DOC, [hyp("a dog dog")]
        )

    def test_three_four_five(self):
        want = txt_score(DOC, [hyp("a dog dog")]) * math.exp(-0.7 * 5.0)
        assert self.cnn([0.0, 0.0], [3.0, 4.0]) == pytest.approx(
            want, rel=1e-15
        )

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            a = rng.normal(size=5).tolist()
            b = rng.normal(size=5).tolist()
            assert self.cnn(a, b) == self.cnn(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="one dimension"):
            FeatureStore({"q": [1.0], "img1": [1.0, 2.0]})


class TestScoreCnn:
    # 89.875 is exactly representable in float32, so the stored vector
    # equals the literal and the hand-computed decay factor applies.
    FEATS = FeatureStore(
        {"img1": [0.0, 0.0], "img2": [89.875, 0.0], "img3": [90.0, 0.0]}
    )
    NEAR = CaptionDoc("c2", "img2", ("a", "dog"))

    def cnn(self, docs, hyps, params, query_image="img1"):
        return scored(
            docs, hyps, feats=self.FEATS, query_image=query_image,
            mode="cnn", params=params,
        )

    def test_zero_distance_equals_txt(self):
        params = RetrievalParams(k_n=5, k_m=5, distance_weight=0.7)
        n = [hyp("a dog dog")]
        got, fallback = self.cnn([DOC], n, params)
        assert not fallback
        assert got["c1"] == txt_score(DOC, n)

    def test_cutoff_is_strict(self):
        params = RetrievalParams(k_n=5, k_m=5, distance_cutoff=90.0)
        at_cutoff = CaptionDoc("c3", "img3", ("a", "dog"))
        got, fallback = self.cnn([at_cutoff, self.NEAR], [hyp("a dog dog")],
                                 params)
        assert not fallback
        assert set(got) == {"c2"}
        # alone, the caption at the cutoff leaves nothing within it
        assert self.cnn([at_cutoff], [hyp("a dog dog")], params)[1]

    def test_decay_fixture(self):
        params = RetrievalParams(
            k_n=5, k_m=5, distance_weight=0.01, distance_cutoff=90.0
        )
        got, fallback = self.cnn([self.NEAR], [hyp("a dog dog")], params)
        assert not fallback
        expected = 2.05 * math.exp(-0.01 * 89.875)
        assert got["c2"] == pytest.approx(expected, rel=1e-12)
        assert got["c2"] == pytest.approx(0.834, abs=1e-3)

    def test_candidate_without_embedding_scores_zero(self):
        params = RetrievalParams(k_n=5, k_m=5)
        ghost = CaptionDoc("c9", "imgX", ("a", "dog"))
        got, fallback = self.cnn([ghost, DOC], [hyp("a dog")], params)
        assert not fallback
        assert set(got) == {"c1"}

    def test_query_without_embedding_is_callers_problem(self):
        """retrieve() never damps by a missing query embedding: it falls
        back to txt scores and flags the match list."""
        params = RetrievalParams(k_n=5, k_m=5)
        n = [hyp("a dog")]
        got, fallback = self.cnn([DOC, self.NEAR], n, params, "nowhere")
        assert fallback
        assert got == scored([DOC, self.NEAR], n, params=params)[0]

    def test_never_exceeds_txt_and_monotone_in_distance(self):
        rng = np.random.default_rng(5)
        n = [hyp("a dog dog")]
        params = RetrievalParams(
            k_n=5, k_m=5, distance_weight=0.3, distance_cutoff=50.0
        )
        doc = CaptionDoc("c1", "m", ("a", "dog"))
        prev = None
        for v in sorted(rng.uniform(0.0, 49.9, size=20)):
            feats = FeatureStore({"q": [0.0], "m": [float(np.float32(v))]})
            got, fallback = scored(
                [doc], n, feats=feats, query_image="q", mode="cnn",
                params=params,
            )
            assert not fallback
            s = got["c1"]
            assert s <= txt_score(doc, n)
            if prev is not None:
                assert s <= prev + 1e-15
            prev = s


class TestScoreHca:
    TAGGED = CaptionDoc("c1", "i1", ("a", "dog"), frozenset({"person", "tie"}))

    def hca(self, docs, hyps, query_categories):
        return scored(docs, hyps, query_categories=query_categories,
                      mode="hca")

    def test_equal_sets_pass_through(self):
        n = [hyp("a dog dog")]
        got, fallback = self.hca([self.TAGGED], n, {"person", "tie"})
        assert not fallback
        assert got["c1"] == txt_score(self.TAGGED, n)

    def test_strict_inequality_zeroes(self):
        # a second caption carrying the query's exact set keeps the gate
        # from falling back, so c1's absence is its own zero score
        n = [hyp("a dog")]
        for query in ({"person"}, {"person", "tie", "dog"}, {"cat"}):
            exact = CaptionDoc("c2", "i2", ("a", "dog"), frozenset(query))
            got, fallback = self.hca([self.TAGGED, exact], n, query)
            assert not fallback
            assert set(got) == {"c2"}

    def test_missing_annotations_score_zero(self):
        bare = CaptionDoc("c0", "i1", ("a", "dog"))
        tagged = CaptionDoc("c2", "i1", ("a", "dog"), frozenset({"person"}))
        got, fallback = self.hca([bare, tagged], [hyp("a dog")], {"person"})
        assert not fallback
        assert set(got) == {"c2"}
        # an unannotated query passes no caption through the gate
        assert self.hca([bare, tagged], [hyp("a dog")], None)[1]


TOY_DOCS = [
    CaptionDoc("c01", "i1", ("a", "dog", "runs"), frozenset({"dog"})),
    CaptionDoc("c02", "i1", ("the", "dog", "sleeps"), frozenset({"dog"})),
    CaptionDoc("c03", "i2", ("a", "cat", "sits"), frozenset({"cat"})),
    CaptionDoc("c04", "i2", ("the", "cat", "naps"), frozenset({"cat"})),
    CaptionDoc("c05", "i3", ("a", "bird", "flies")),
]


def toy_setup():
    coll = Collection(TOY_DOCS)
    idf = random_idf_table(np.random.default_rng(0), coll.vocab)
    feats = FeatureStore(
        {"i1": [0.0, 0.0], "i2": [1.0, 0.0], "i3": [50.0, 0.0]}
    )
    return coll, idf, feats


class TestRetrieve:
    def test_empty_kbest_errors(self):
        coll, idf, feats = toy_setup()
        with pytest.raises(ValueError, match="empty k-best"):
            Retriever(coll, idf, feats).retrieve(KBestList("s1", []))

    def test_unknown_mode_errors(self):
        coll, idf, feats = toy_setup()
        kb = KBestList("s1", [hyp("a dog")])
        with pytest.raises(ValueError, match="mode"):
            Retriever(coll, idf, feats).retrieve(kb, mode="visual")

    def test_query_categories_given_as_a_str_rejected(self):
        # "dog" would be read as the labels d, o and g, and fall back
        coll, idf, feats = toy_setup()
        retriever = Retriever(coll, idf, feats)
        kb = KBestList("s1", [hyp("a dog")])
        with pytest.raises(ValueError, match="^query_categories: a str"):
            retriever.retrieve(kb, query_categories="dog", mode="hca")
        ml = retriever.retrieve(kb, query_categories=["dog"], mode="hca")
        assert not ml.used_fallback

    def test_no_zero_scores_stored(self):
        coll, idf, feats = toy_setup()
        kb = KBestList("s1", [hyp("a dog")])
        ml = Retriever(coll, idf, feats).retrieve(kb, mode="txt")
        assert all(score > 0 for _, score in ml.matches)
        ids = [coll.caption_ids[r] for r, _ in ml.matches]
        assert "c05" not in ids or idf.idf("a") > 0

    def test_k_m_truncates(self):
        coll, idf, feats = toy_setup()
        kb = KBestList("s1", [hyp("a dog cat bird")])
        params = RetrievalParams(k_n=1, k_m=2)
        ml = Retriever(coll, idf, feats).retrieve(kb, params=params)
        assert len(ml.matches) == 2

    def test_descending_scores_with_id_tiebreak(self):
        docs = [
            CaptionDoc("b", "i1", ("dog",)),
            CaptionDoc("a", "i1", ("dog",)),
            CaptionDoc("c", "i2", ("dog", "dog")),
        ]
        retr = Retriever(Collection(docs), FixedIdf({"dog": 1.0}))
        ml = retr.retrieve(KBestList("s", [hyp("dog")]), mode="txt")
        # all three score 1.0; order falls back to caption_id
        assert [retr.coll.caption_ids[r] for r, _ in ml.matches] == [
            "a", "b", "c"
        ]

    def test_cnn_fallback_on_missing_query_image(self):
        coll, idf, feats = toy_setup()
        retr = Retriever(coll, idf, feats)
        kb = KBestList("s1", [hyp("a dog")])
        ml = retr.retrieve(kb, query_image="missing", mode="cnn")
        txt = retr.retrieve(kb, mode="txt")
        assert ml.used_fallback
        assert [(coll.caption_ids[r], s) for r, s in ml.matches] == [
            (coll.caption_ids[r], s) for r, s in txt.matches
        ]

    def test_cnn_fallback_when_no_candidate_within_cutoff(self):
        coll, idf, feats = toy_setup()
        retr = Retriever(coll, idf, feats)
        kb = KBestList("s1", [hyp("bird flies")])
        # only c05 shares terms; its image i3 sits 50 away from i1
        params = RetrievalParams(k_n=1, k_m=5, distance_cutoff=10.0)
        ml = retr.retrieve(kb, "i1", None, "cnn", params)
        assert ml.used_fallback
        near = retr.retrieve(kb, "i3", None, "cnn", params)
        assert not near.used_fallback
        assert [coll.caption_ids[r] for r, _ in near.matches] == ["c05"]

    def test_cnn_empty_store_matches_txt_for_every_query(self):
        coll, idf, _ = toy_setup()
        empty = Retriever(coll, idf, FeatureStore({}))
        plain = Retriever(coll, idf)
        rng = np.random.default_rng(4)
        vocab = sorted(coll.vocab)
        for i in range(20):
            tokens = tuple(rng.choice(vocab, size=3))
            kb = KBestList(f"s{i}", [Hypothesis(tokens, -1.0)])
            cnn = empty.retrieve(kb, query_image="i1", mode="cnn")
            txt = plain.retrieve(kb, mode="txt")
            assert cnn.used_fallback
            assert [(coll.caption_ids[r], s) for r, s in cnn.matches] == [
                (coll.caption_ids[r], s) for r, s in txt.matches
            ]

    def test_hca_strict_match_and_fallback(self):
        coll, idf, feats = toy_setup()
        retr = Retriever(coll, idf, feats)
        kb = KBestList("s1", [hyp("a dog cat")])
        ml = retr.retrieve(kb, query_categories={"dog"}, mode="hca")
        assert not ml.used_fallback
        assert {coll.caption_ids[r] for r, _ in ml.matches} <= {"c01", "c02"}
        fb = retr.retrieve(kb, query_categories={"zebra"}, mode="hca")
        assert fb.used_fallback
        none = retr.retrieve(kb, query_categories=None, mode="hca")
        assert none.used_fallback

    def test_idf_scaling_preserves_ranking(self):
        coll, idf, feats = toy_setup()
        kb = KBestList("s1", [hyp("a dog cat sits runs")])
        base = Retriever(coll, idf, feats).retrieve(kb, mode="txt")
        scaled = Retriever(coll, ScaledIdf(idf, 3.0), feats).retrieve(
            kb, mode="txt"
        )
        assert [coll.caption_ids[r] for r, _ in base.matches] == [
            coll.caption_ids[r] for r, _ in scaled.matches
        ]
        for (_, s), (_, t) in zip(base.matches, scaled.matches):
            assert t == pytest.approx(3.0 * s, rel=1e-12)

    def test_unseen_query_terms_still_retrieve(self):
        docs = [CaptionDoc("c1", "i1", ("novel", "word"))]
        idf = random_idf_table(np.random.default_rng(1), ["other"])
        kb = KBestList("s1", [hyp("novel word")])
        coll = Collection(docs)
        ml = Retriever(coll, idf).retrieve(kb, mode="txt")
        assert [coll.caption_ids[r] for r, _ in ml.matches] == ["c1"]
        assert ml.matches[0][1] > 0

    def test_duplicate_caption_text_scored_per_image(self):
        docs = [
            CaptionDoc("c1", "near", ("a", "dog")),
            CaptionDoc("c2", "far", ("a", "dog")),
        ]
        feats = FeatureStore({"q": [0.0], "near": [1.0], "far": [99.0]})
        retr = Retriever(Collection(docs), FixedIdf({"dog": 2.0}), feats)
        kb = KBestList("s1", [hyp("a dog")])
        params = RetrievalParams(k_n=1, k_m=5, distance_cutoff=50.0)
        ml = retr.retrieve(kb, "q", None, "cnn", params)
        assert [retr.coll.caption_ids[r] for r, _ in ml.matches] == ["c1"]


class TestKBestIo:
    def test_round_trip(self, tmp_path):
        lists = [
            KBestList(
                "s1",
                [hyp("a dog runs", -0.5), hyp("the dog runs", -1.25)],
            ),
            KBestList("s2", [hyp("a cat", -3.0)]),
        ]
        path = tmp_path / "kbest.txt"
        path.write_text("".join(
            f"{kb.sent_id} ||| {' '.join(h.tokens)} ||| {h.decoder_score!r}\n"
            for kb in lists
            for h in kb.hyps
        ))
        loaded = read_kbest(path)
        assert loaded == lists

    def test_parses_extra_feature_fields(self, tmp_path):
        path = tmp_path / "kbest.txt"
        path.write_text("s1 ||| a dog ||| lm=-4.2 tm=-1.1 ||| -2.5\n")
        (kb,) = read_kbest(path)
        assert kb.hyps == [Hypothesis(("a", "dog"), -2.5)]

    def test_rejects_few_fields(self, tmp_path):
        path = tmp_path / "kbest.txt"
        path.write_text("s1 ||| a dog\n")
        with pytest.raises(ValueError, match="kbest.txt:1"):
            read_kbest(path)

    def test_rejects_bad_scores(self, tmp_path):
        path = tmp_path / "kbest.txt"
        path.write_text("s1 ||| a dog ||| high\n")
        with pytest.raises(ValueError, match="bad decoder score"):
            read_kbest(path)
        path.write_text("s1 ||| a dog ||| nan\n")
        with pytest.raises(ValueError, match="non-finite"):
            read_kbest(path)

    def test_rejects_increasing_scores(self, tmp_path):
        path = tmp_path / "kbest.txt"
        path.write_text("s1 ||| a dog ||| -2.0\ns1 ||| a cat ||| -1.0\n")
        with pytest.raises(ValueError, match="increase"):
            read_kbest(path)

    def test_rejects_non_contiguous_groups(self, tmp_path):
        path = tmp_path / "kbest.txt"
        path.write_text(
            "s1 ||| a ||| -1.0\ns2 ||| b ||| -1.0\ns1 ||| c ||| -2.0\n"
        )
        with pytest.raises(ValueError, match="contiguous"):
            read_kbest(path)

    def test_repeat_scored_above_the_last_line_fails_increase(self, tmp_path):
        # The score rules come before the repeat rule: a repeat is
        # skipped only once its score has passed them.
        path = tmp_path / "kbest.txt"
        path.write_text(
            "s1 ||| a dog ||| -1.0\n"
            "s1 ||| a cat ||| -2.0\n"
            "s1 ||| a dog ||| -1.5\n"
        )
        with pytest.raises(ValueError) as err:
            read_kbest(path)
        assert str(err.value) == (
            f"{path}:3: sentence s1: decoder scores increase"
        )

    @pytest.mark.parametrize("scores, rule", [
        ([-2.0, -1.0], "decoder scores increase"),
        ([-1.0, math.nan], "non-finite decoder score"),
        ([math.inf], "non-finite decoder score"),
        ([-1.0, -3.0, -2.0], "decoder scores increase"),
    ])
    def test_reader_names_the_line_of_the_rule_kbestlist_breaks(
        self, tmp_path, scores, rule
    ):
        hyps = [hyp(f"w{i}", score) for i, score in enumerate(scores)]
        with pytest.raises(ValueError) as built:
            KBestList(" s1", hyps)
        assert str(built.value) == f"sentence  s1: {rule}"
        path = tmp_path / "kbest.txt"
        path.write_text("".join(
            f" s1 ||| {' '.join(h.tokens)} ||| {h.decoder_score}\n"
            for h in hyps
        ))
        with pytest.raises(ValueError) as read:
            read_kbest(path)
        assert str(read.value) == f"{path}:{len(hyps)}: sentence s1: {rule}"

    def test_duplicate_hypotheses_keep_first(self, tmp_path):
        path = tmp_path / "kbest.txt"
        path.write_text(
            "s1 ||| a dog ||| -1.0\n"
            "s1 ||| a dog ||| -2.0\n"
            "s1 ||| a cat ||| -3.0\n"
        )
        (kb,) = read_kbest(path)
        assert kb.hyps == [
            Hypothesis(("a", "dog"), -1.0),
            Hypothesis(("a", "cat"), -3.0),
        ]


class TestMatchListIo:
    def test_round_trip_including_empty(self, tmp_path):
        coll, idf, feats = toy_setup()
        kb1 = KBestList("s1", [hyp("a dog")])
        kb2 = KBestList("s2", [hyp("qqq")])
        retr = Retriever(coll, idf, feats)
        mls = [retr.retrieve(kb1, mode="txt"), retr.retrieve(kb2, mode="txt")]
        assert mls[1].matches == []
        path = tmp_path / "matches.txt"
        write_matchlists(mls, coll, path)
        loaded = read_matchlists(path, coll)
        assert [ml.sent_id for ml in loaded] == ["s1", "s2"]
        assert loaded[1].matches == []
        for orig, back in zip(mls, loaded):
            assert [(coll.caption_ids[r], s) for r, s in orig.matches] == [
                (coll.caption_ids[r], s) for r, s in back.matches
            ]
            assert back.used_fallback == orig.used_fallback

    def test_unknown_caption_id_rejected(self, tmp_path):
        coll, _, _ = toy_setup()
        path = tmp_path / "matches.txt"
        path.write_text("s1 ||| nosuch ||| 1.0 ||| 0\n")
        with pytest.raises(ValueError, match="unknown caption_id"):
            read_matchlists(path, coll)

    def test_rejects_bad_scores_and_mixed_flags(self, tmp_path):
        coll, _, _ = toy_setup()
        path = tmp_path / "matches.txt"
        for score in ("nan", "inf", "0.0", "-1.5"):
            path.write_text(
                f"s1 ||| c01 ||| 2.0 ||| 0\ns1 ||| c02 ||| {score} ||| 0\n"
            )
            with pytest.raises(ValueError, match="matches.txt:2: match score"):
                read_matchlists(path, coll)
        path.write_text("s1 ||| c01 ||| 2.0 ||| 1\ns1 ||| c02 ||| 1.0 ||| 0\n")
        with pytest.raises(ValueError, match="matches.txt:2: fallback flag"):
            read_matchlists(path, coll)
        for flag in ("7", "2", "-1", "1.0", "true", ""):
            path.write_text(
                f"s1 ||| c01 ||| 2.0 ||| 1\ns1 ||| c02 ||| 1.5 ||| {flag}\n"
            )
            with pytest.raises(
                ValueError, match="matches.txt:2: fallback flag must be 0 or 1"
            ):
                read_matchlists(path, coll)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.booleans(),
                st.lists(
                    st.tuples(
                        st.integers(0, 5),
                        st.floats(
                            min_value=0.0,
                            exclude_min=True,
                            allow_infinity=False,
                        ),
                    ),
                    max_size=4,
                ),
            ),
            max_size=5,
        )
    )
    def test_round_trip_preserves_ids_score_bits_and_flags(self, drawn):
        # "-" is also the empty-list placeholder's caption id
        coll = Collection([*TOY_DOCS, CaptionDoc("-", "i4", ("a", "fish"))])
        mls = [
            MatchList(
                f"s{i}",
                list(matches),
                fallback,
            )
            for i, (fallback, matches) in enumerate(drawn)
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "matches.txt"
            write_matchlists(mls, coll, path)
            loaded = read_matchlists(path, coll)

        def key(ml):
            return (
                ml.sent_id,
                ml.used_fallback,
                [(coll.caption_ids[r], s.hex()) for r, s in ml.matches],
            )

        assert [key(ml) for ml in loaded] == [key(ml) for ml in mls]


class TestQueriesFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "queries.tsv"
        path.write_text("s1\timg1\tdog,person\ns2\t-\ns3\timg2\n")
        queries = read_queries(path)
        assert queries["s1"].image_id == "img1"
        assert queries["s1"].categories == frozenset({"dog", "person"})
        assert queries["s2"].image_id is None
        assert queries["s3"].categories is None

    def test_duplicate_sent_id_rejected(self, tmp_path):
        path = tmp_path / "queries.tsv"
        path.write_text("s1\timg1\ns1\timg2\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_queries(path)


def test_kbest_validation():
    with pytest.raises(ValueError, match="duplicate"):
        KBestList("s", [hyp("a dog"), hyp("a dog", -2.0)])
    with pytest.raises(ValueError, match="increase"):
        KBestList("s", [hyp("a", -2.0), hyp("b", -1.0)])
    with pytest.raises(ValueError, match="non-finite"):
        KBestList("s", [Hypothesis(("a",), float("inf"))])


def test_hypothesis_tokens_given_as_a_str_rejected():
    # a str is not read as one token per character
    with pytest.raises(ValueError, match="^tokens: a str where"):
        KBestList("s", [Hypothesis("a man", -1.0)])


@pytest.mark.parametrize(
    "tokens", [["a", "b"], ("a", 1)], ids=["list", "int-token"]
)
def test_hypothesis_tokens_not_a_tuple_of_str_rejected(tokens):
    # a list would fail hashing for the duplicate check as a TypeError
    with pytest.raises(
        ValueError, match="^sentence s: tokens not a tuple of str$"
    ):
        KBestList("s", [Hypothesis(tokens, -1.0)])


def test_params_validation():
    with pytest.raises(ValueError):
        RetrievalParams(k_n=0)
    with pytest.raises(ValueError):
        RetrievalParams(k_m=0)
    with pytest.raises(ValueError):
        RetrievalParams(distance_weight=-0.1)
    with pytest.raises(ValueError):
        RetrievalParams(distance_cutoff=0.0)
    nan, inf = float("nan"), float("inf")
    for field, value in [
        ("k_n", 2.5), ("k_n", True), ("k_m", 3.0), ("k_m", "3"),
        ("distance_weight", nan), ("distance_weight", inf),
        ("distance_cutoff", nan),
    ]:
        with pytest.raises(ValueError, match=f"^{field} must be"):
            RetrievalParams(**{field: value})
    for field, value in [
        ("k_r", 1.5), ("k_r", False), ("interp_weight", nan),
        ("interp_weight", -inf), ("interp_weight", True),
    ]:
        with pytest.raises(ValueError, match=f"^{field} must be"):
            RerankParams(**{field: value})
    # an infinite cutoff keeps every embedded candidate; numpy scalars
    # are numbers like any other
    RetrievalParams(k_n=np.int64(3), distance_cutoff=inf)
    RerankParams(k_r=np.int32(2), interp_weight=np.float32(0.5))


def test_retriever_reuse_matches_one_shot():
    """One Retriever answering many queries gives what a fresh Retriever
    per query gives."""
    coll, idf, feats = toy_setup()
    retr = Retriever(coll, idf, feats)
    queries = [
        (KBestList("s1", [hyp("a dog cat")]), None, None, "txt"),
        (KBestList("s2", [hyp("a cat sits")]), "i2", None, "cnn"),
        (KBestList("s3", [hyp("the dog")]), None, {"dog"}, "hca"),
        (KBestList("s4", [hyp("bird flies")]), "i1", None, "cnn"),
    ]
    for kb, image, cats, mode in queries * 2:
        a = retr.retrieve(kb, image, cats, mode)
        b = Retriever(coll, idf, feats).retrieve(kb, image, cats, mode)
        assert a.used_fallback == b.used_fallback
        assert [(coll.caption_ids[r], s) for r, s in a.matches] == [
            (coll.caption_ids[r], s) for r, s in b.matches
        ]


def test_top_k_is_a_prefix_of_every_larger_top_k():
    """Selection is a total order (score descending, then caption id)
    and the fallback does not depend on k_m, so for a < b retrieving a
    matches gives the first a of b matches and the same flag, in every
    mode, also where a tie group straddles the cut. Tune retrieves once
    at its largest k_m and relies on this."""
    rng = np.random.default_rng(303)
    category_pool = [f"cat{i}" for i in range(4)]
    straddled = 0
    for trial in range(12):
        vocab = [f"v{i:02d}" for i in range(int(rng.integers(10, 40)))]
        docs, feats_map = random_collection(
            rng, int(rng.integers(30, 120)), vocab, 3, category_pool
        )
        docs = with_copies(rng, docs, len(docs) // 2)
        retriever = Retriever(
            Collection(docs), random_idf_table(rng, vocab),
            FeatureStore(feats_map),
        )
        images = sorted({doc.image_id for doc in docs})
        for q in range(3):
            kbest = random_kbest(rng, f"s{q}", vocab, int(rng.integers(1, 6)))
            image = images[int(rng.integers(0, len(images)))]
            cats = docs[int(rng.integers(0, len(docs)))].categories
            cutoff = float(rng.uniform(0.2, 1.5))
            for mode in MODES:
                def top(k_m):
                    params = RetrievalParams(5, k_m, 0.5, cutoff)
                    return retriever.retrieve(kbest, image, cats, mode, params)

                scores = [s for _, s in top(len(docs) + 1).matches]
                cuts = [
                    a for a in range(1, len(scores))
                    if scores[a - 1] == scores[a]
                ]
                straddled += bool(cuts)
                drawn = rng.integers(1, len(docs) + 2, size=3).tolist()
                ks = {1, 2, len(scores), len(docs) + 1, *cuts[:5], *drawn}
                lists = {k: top(k) for k in ks if k >= 1}
                for a, b in itertools.combinations(sorted(lists), 2):
                    assert lists[a].matches == lists[b].matches[:a]
                    assert lists[a].used_fallback == lists[b].used_fallback
    assert straddled >= 80


def full_pass_distances(feats, image):
    """Every feature row's float64 distance to image's, in one pass."""
    rows64 = feats.matrix.astype(np.float64)
    q = rows64[feats.row_of(image)]
    return np.sqrt(np.sum((rows64 - q) ** 2, axis=1))


def image_ids(coll):
    """Each doc's image id, read through the collection's image table."""
    return [coll.images[code] for code in coll.image_code]


def reference_scores(retriever, kbest, image, categories, mode, params):
    """Every doc's score as retrieval computed it before the gates ran
    first: txt scores for every doc, every feature row's distance in one
    float64 pass, then the gate's mask and the decay. Returns (scores,
    used_fallback)."""
    hyps = kbest.hyps[: params.k_n]
    counts = retriever.term_counts(
        itertools.chain.from_iterable(h.tokens for h in hyps)
    )
    s_txt = retriever._txt_scores(counts, None)
    scores = None
    if mode == "cnn" and retriever.feats.row_of(image) is not None:
        per_row = full_pass_distances(retriever.feats, image)
        dist = np.array([
            per_row[row] if row is not None else np.inf
            for row in map(retriever.feats.row_of, image_ids(retriever.coll))
        ])
        overlap = retriever.coll.matrix @ (counts > 0).astype(float) > 0
        keep = np.flatnonzero(overlap & (dist < params.distance_cutoff))
        if keep.size:
            scores = np.zeros(len(retriever.coll))
            scores[keep] = s_txt[keep] * np.exp(
                -params.distance_weight * dist[keep]
            )
    elif mode == "hca" and categories is not None:
        group = retriever.coll.category_group(categories)
        if group is not None:
            scores = np.where(retriever.coll.cat_group == group, s_txt, 0.0)
            if not np.any(scores > 0.0):
                scores = None
    fallback = mode != "txt" and scores is None
    return (s_txt if scores is None else scores), fallback


def score_everything(retriever, kbest, image, categories, mode, params):
    """The top k_m of reference_scores by score descending, then caption
    id. Returns (matches, used_fallback)."""
    scores, fallback = reference_scores(
        retriever, kbest, image, categories, mode, params
    )
    ids = retriever.coll.caption_ids
    ranked = sorted(
        np.flatnonzero(scores > 0.0).tolist(),
        key=lambda row: (-scores[row], ids[row]),
    )
    top = ranked[: params.k_m]
    return [(row, float(scores[row])) for row in top], fallback


class TestGatedScorerBits:
    """The gated modes score only the docs their gate admits, yet every
    match keeps its row, its score's bits and the fallback flag of
    scoring every doc first, on both sides of _GATED_SHARE and for any
    distance block."""

    @staticmethod
    def instance(seed, pool):
        """A random collection with 19-dim features (some images lack
        one, and one image no caption uses sits far away), idf weights
        of which some are zero, and queries, one of zero-weight terms
        only. 19 dims make numpy's pairwise sum differ from a plain
        running sum."""
        rng = np.random.default_rng(seed)
        vocab = [f"v{i:02d}" for i in range(int(rng.integers(8, 30)))]
        docs, feats_map = random_collection(
            rng, int(rng.integers(40, 160)), vocab, 19, pool
        )
        feats_map["far"] = [9.0] * 19
        weights = {t: float(rng.uniform(0.1, 3.0)) for t in vocab}
        zero = [str(t) for t in rng.choice(vocab, size=3, replace=False)]
        weights.update(dict.fromkeys(zero, 0.0))
        retriever = Retriever(
            Collection(docs), FixedIdf(weights), FeatureStore(feats_map)
        )
        kbests = [
            random_kbest(rng, f"s{q}", vocab, int(rng.integers(1, 5)))
            for q in range(6)
        ]
        kbests.append(KBestList("zero", [Hypothesis(tuple(zero), -1.0)]))
        return rng, docs, retriever, kbests

    @staticmethod
    def assert_same_bits(retriever, kbest, image, cats, mode, params):
        got = retriever.retrieve(kbest, image, cats, mode, params)
        want, fallback = score_everything(
            retriever, kbest, image, cats, mode, params
        )
        assert got.used_fallback == fallback
        assert [(r, s.hex()) for r, s in got.matches] == [
            (r, s.hex()) for r, s in want
        ]
        return got

    @pytest.fixture
    def sides(self, monkeypatch):
        """Which side of the share rule each gated product took: True
        when it ran the whole product and gathered the gate's rows."""
        taken = []
        products = Retriever._products

        def spy(self, vec, rows):
            if rows is not None:
                share = retrieval._GATED_SHARE * len(self.coll)
                taken.append(rows.size > share)
            return products(self, vec, rows)

        monkeypatch.setattr(Retriever, "_products", spy)
        return taken

    @pytest.mark.parametrize("block", [1, 3, 10_000])
    def test_cnn_cutoffs_admitting_none_few_most_and_all(
        self, monkeypatch, sides, block
    ):
        monkeypatch.setattr(retrieval, "_DISTANCE_BLOCK", block)
        fallbacks = 0
        for seed in range(4):
            rng, docs, retriever, kbests = self.instance(seed, [])
            has_row = retriever.feats.__contains__
            assert not all(map(has_row, retriever.coll.images))  # rowless
            images = sorted({d.image_id for d in docs}) + ["far", None]
            for kbest in kbests:
                image = images[int(rng.integers(0, len(images)))]
                # no doc lies near "far"; the others admit few to all
                cases = [("far", 0.5)] + [
                    (image, cutoff) for cutoff in (1.3, 1.75, 2.3, math.inf)
                ]
                for query_image, cutoff in cases:
                    params = RetrievalParams(4, len(docs) + 1, 0.7, cutoff)
                    got = self.assert_same_bits(
                        retriever, kbest, query_image, None, "cnn", params
                    )
                    fallbacks += got.used_fallback
        assert fallbacks and True in sides and False in sides

    def test_hca_groups_below_and_above_the_share(self, sides):
        for seed, pool in [(5, ["a"]), (6, ["a", "b"]), (7, list("abcde"))]:
            rng, docs, retriever, kbests = self.instance(seed, pool)
            sets = [d.categories for d in docs] + [frozenset({"zz"}), None]
            for kbest in kbests:
                for cats in sets[:: max(1, len(sets) // 12)] + sets[-2:]:
                    params = RetrievalParams(3, len(docs) + 1)
                    self.assert_same_bits(
                        retriever, kbest, None, cats, "hca", params
                    )
        assert True in sides and False in sides

    @pytest.mark.parametrize("mode", ["cnn", "hca"])
    def test_wide_gate_whose_docs_share_no_term_falls_back(
        self, sides, mode
    ):
        """Six of ten docs pass the gate, so every doc is scored; only
        the four the gate refuses share the query's term."""
        docs = [
            CaptionDoc(f"c{i}", "near", ("x",), frozenset({"a"}))
            if i < 6 else CaptionDoc(f"c{i}", "far", ("y",))
            for i in range(10)
        ]
        feats = FeatureStore({"near": [0.0], "far": [5.0]})
        retriever = Retriever(
            Collection(docs), FixedIdf({"x": 1.0, "y": 1.0}), feats
        )
        kbest = KBestList("s", [hyp("y")])
        params = RetrievalParams(1, 11, 0.5, 1.0)
        got = self.assert_same_bits(
            retriever, kbest, "near", {"a"}, mode, params
        )
        assert got.used_fallback and sides == [True]

    @pytest.mark.parametrize("mode", MODES)
    def test_select_sees_as_many_positive_scores_as_scoring_everything(
        self, monkeypatch, sides, mode
    ):
        """The benchmark's retrieval.examined_per_returned counts the
        positive values in _select's first positional argument. Over
        the docs a gate admits that count equals the one over every
        doc, since each doc outside them scores 0."""
        seen = []
        select = Retriever._select

        def spy(self, scores, *rest):
            seen.append(int(np.count_nonzero(scores > 0.0)))
            return select(self, scores, *rest)

        monkeypatch.setattr(Retriever, "_select", spy)
        for seed, pool in [(0, []), (5, ["a"]), (7, list("abcde"))]:
            rng, docs, retriever, kbests = self.instance(seed, pool)
            images = sorted({d.image_id for d in docs}) + ["far", None]
            sets = [d.categories for d in docs] + [None]
            for kbest in kbests:
                for cutoff in (0.5, 1.3, 2.3, math.inf):
                    image = images[int(rng.integers(0, len(images)))]
                    cats = sets[int(rng.integers(0, len(sets)))]
                    params = RetrievalParams(4, 5, 0.7, cutoff)
                    seen.clear()
                    retriever.retrieve(kbest, image, cats, mode, params)
                    want, _ = reference_scores(
                        retriever, kbest, image, cats, mode, params
                    )
                    assert seen == [np.count_nonzero(want > 0.0)]
        assert mode == "txt" or (True in sides and False in sides)

    def test_grouped_gates_on_both_sides_of_each_share(
        self, monkeypatch, sides
    ):
        """The gates gather the docs of the admitted feature rows and of
        the query's category set from groups built once. Some images
        have no feature row, and spare feature rows that no doc uses lie
        among the others, so the gate admits rows without docs. Cutoffs
        from a few rows to all of them, and infinite, take both sides of
        _GATHER_SHARE and of _GATED_SHARE; every match keeps the row,
        the score bits and the fallback of scoring every doc."""
        measured = []
        bound_rows = Retriever._bound_rows

        def spy(self, qrow, cutoff):
            rows = bound_rows(self, qrow, cutoff)
            measured.append(rows is None)
            return rows

        monkeypatch.setattr(Retriever, "_bound_rows", spy)
        for seed in range(3):
            rng = np.random.default_rng(seed + 20)
            vocab = [f"v{i:02d}" for i in range(12)]
            docs, feats_map = random_collection(
                rng, 150, vocab, 19, ["a", "b", "c"], feature_coverage=0.7
            )
            for j in range(20):
                feats_map[f"spare{j}"] = float32_exact(rng.uniform(size=19))
            feats = FeatureStore(feats_map)
            retriever = Retriever(
                Collection(docs), random_idf_table(rng, vocab), feats
            )
            assert not all(map(feats.__contains__, retriever.coll.images))
            images = [*feats_map]
            sets = [d.categories for d in docs] + [frozenset({"zz"}), None]
            for q in range(8):
                kbest = random_kbest(rng, f"s{q}", vocab, 3)
                image = images[int(rng.integers(0, len(images)))]
                for cutoff in (0.8, 1.3, 1.6, 1.75, 1.9, 2.3, math.inf):
                    params = RetrievalParams(3, len(docs) + 1, 0.7, cutoff)
                    self.assert_same_bits(
                        retriever, kbest, image, None, "cnn", params
                    )
                cats = sets[int(rng.integers(0, len(sets)))]
                self.assert_same_bits(
                    retriever, kbest, None, cats, "hca",
                    RetrievalParams(3, len(docs) + 1),
                )
        assert True in measured and False in measured
        assert True in sides and False in sides


def one_caption_per_image(feats_map):
    """A Retriever over one caption, of the term x, per image of
    feats_map."""
    docs = [
        CaptionDoc(f"c{i}", image, ("x",)) for i, image in enumerate(feats_map)
    ]
    return Retriever(
        Collection(docs), FixedIdf({"x": 1.0}), FeatureStore(feats_map)
    )


class TestCnnGateBound:
    """The cnn gate measures only the feature rows a float32 bound keeps,
    yet admits the rows a full float64 pass admits, each distance with
    the same bits, whatever order BLAS sums the bound's dot products in
    (CI reruns this class with four BLAS threads and under other
    OpenBLAS kernels)."""

    @staticmethod
    def assert_gate(retriever, image, cutoff):
        """_row_distances admits the rows of the full pass, with their
        bits; returns how many rows the bound kept, None for all."""
        feats = retriever.feats
        qrow = feats.row_of(image)
        full = full_pass_distances(feats, image)
        rows, dist = retriever._row_distances(qrow, cutoff)
        admitted = full < cutoff
        assert rows.tolist() == np.flatnonzero(admitted).tolist()
        assert dist.tobytes() == full[admitted].tobytes()
        kept = retriever._bound_rows(qrow, cutoff)
        return None if kept is None else kept.size

    def assert_retrieval(self, feats_map, image, cutoffs, weight=0.7):
        """Gate and retrieval over one caption per image agree, bit for
        bit, with reference_scores at each cutoff; returns the matched
        caption ids per cutoff and the rows the bound kept."""
        retriever = one_caption_per_image(feats_map)
        kbest = KBestList("s", [hyp("x")])
        matched, kept = [], []
        for cutoff in cutoffs:
            kept.append(self.assert_gate(retriever, image, cutoff))
            params = RetrievalParams(1, len(feats_map) + 1, weight, cutoff)
            got = TestGatedScorerBits.assert_same_bits(
                retriever, kbest, image, None, "cnn", params
            )
            ids = retriever.coll.caption_ids
            matched.append(sorted(ids[r] for r, _ in got.matches))
        return matched, kept

    def test_float32_dot_overflow_keeps_the_row(self):
        """a·b is -3.2e41, past float32's range: the sgemv gives -inf,
        and a bound that trusted it would drop c2."""
        feats = {"a": [1e20] * 32, "b": [-1e20] * 32}
        matched, _ = self.assert_retrieval(feats, "a", [1e30], weight=0.0)
        assert matched == [["c0", "c1"]]

    def test_subnormal_components(self):
        """Rows of float32 subnormals, whose products underflow to 0,
        and as many far rows for the bound to drop. The weight makes
        distances near 1e-42 move the scores."""
        rng = np.random.default_rng(11)
        tiny = np.float32(2.0**-149)
        feats = {
            f"i{j}": (rng.integers(-900, 900, size=5) * tiny).tolist()
            for j in range(40)
        }
        feats.update({f"far{j}": [1.0 + j] * 5 for j in range(40)})
        full = full_pass_distances(FeatureStore(feats), "i0")
        near = full[:40]
        cutoffs = [float(x) for x in np.quantile(near[near > 0], [0.1, 0.5])]
        cutoffs += [np.nextafter(full[3], np.inf), full[3], 1e-45, 2.0**-1074]
        matched, kept = self.assert_retrieval(
            feats, "i0", cutoffs, weight=1e40
        )
        assert matched[-1] == ["c0"]  # only the query's own row, at 0
        assert kept == [40] * len(cutoffs)

    @pytest.mark.parametrize("cutoff", [1e200, math.inf])
    def test_cutoffs_past_float64_squares_keep_every_row(self, cutoff):
        feats = {f"i{j}": [float(j), -3.5 * j, 1e30] for j in range(6)}
        feats["huge"] = [3e38, -3e38, -3e38]
        matched, kept = self.assert_retrieval(
            feats, "i2", [cutoff], weight=0.0
        )
        assert matched == [[f"c{j}" for j in range(7)]] and kept == [None]

    def test_row_at_exactly_the_cutoff(self):
        """c1 lies at 5.0 exactly (a 3-4-5 triangle); the cutoff is
        strict. Ten far rows leave the bound room to drop rows."""
        feats = {"q": [0.0, 0.0], "r": [3.0, 4.0]}
        feats.update({f"far{j}": [1e3, float(j)] for j in range(10)})
        cutoffs = [np.nextafter(5.0, 0.0), 5.0, np.nextafter(5.0, np.inf)]
        matched, kept = self.assert_retrieval(feats, "q", cutoffs)
        assert matched == [["c0"], ["c0"], ["c0", "c1"]]
        assert kept == [2, 2, 2]

    def test_slack_covers_the_float32_dot(self):
        """Rows share an offset of 10,000 in each of 32 dims and differ
        by a few quarters, so the float32 dot's rounding (hundreds in
        squared-distance units) exceeds a near row's squared distance
        (tens). A cutoff just past each near row's distance must still
        admit it, and the bound must still drop the far rows."""
        rng = np.random.default_rng(5)
        near = 1e4 + 0.25 * rng.integers(-3, 4, size=(200, 32))
        far = 1e4 + 0.25 * rng.integers(-3, 4, size=(800, 32))
        far[:, 0] += 2e3
        vectors = np.vstack([near, far])
        feats = {f"i{j}": row.tolist() for j, row in enumerate(vectors)}
        retriever = one_caption_per_image(feats)
        full = full_pass_distances(retriever.feats, "i0")
        for row in range(1, 200, 7):
            for cutoff in (full[row], np.nextafter(full[row], np.inf)):
                kept = self.assert_gate(retriever, "i0", cutoff)
                assert kept is not None and 200 <= kept < 1000

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_any_float32_features_and_cutoff(self, data):
        dim = data.draw(st.integers(1, 9), label="dim")
        component = st.one_of(
            st.floats(width=32, allow_nan=False, allow_infinity=False),
            st.floats(-4.0, 4.0, width=32),
            st.sampled_from([0.0, 1e20, -1e20, 2.0**-149]),
        )
        vectors = data.draw(
            st.lists(
                st.lists(component, min_size=dim, max_size=dim),
                min_size=1, max_size=30,
            ),
            label="vectors",
        )
        retriever = one_caption_per_image(
            {f"i{j}": v for j, v in enumerate(vectors)}
        )
        query = f"i{data.draw(st.integers(0, len(vectors) - 1))}"
        full = full_pass_distances(retriever.feats, query)
        at = float(full[data.draw(st.integers(0, len(vectors) - 1))])
        cutoff = data.draw(
            st.one_of(
                st.sampled_from([at, math.inf]),
                st.floats(min_value=0.0, exclude_min=True),
            ),
            label="cutoff",
        )
        if cutoff == at:  # cutoffs are positive: 0 becomes inf
            cutoff = data.draw(
                st.sampled_from(
                    [np.nextafter(at, np.inf), np.nextafter(at, 0.0), at]
                )
            ) or math.inf
        self.assert_gate(retriever, query, cutoff)

    def test_large_matrix_blas_splits_across_threads(self):
        """20,000 x 32 rows: OpenBLAS splits a product this size across
        its threads. Clusters with a common offset put many rows near
        each cutoff."""
        rng = np.random.default_rng(17)
        centres = 300.0 + rng.normal(0.0, 40.0, size=(50, 32))
        vectors = centres[rng.integers(0, 50, size=20_000)]
        vectors += rng.normal(0.0, 6.0, size=vectors.shape)
        retriever = one_caption_per_image(
            {f"i{j}": v for j, v in enumerate(vectors)}
        )
        kept = []
        for query in ("i0", "i1", "i2"):
            full = full_pass_distances(retriever.feats, query)
            ranked = np.sort(full)
            cutoffs = [ranked[50], np.nextafter(ranked[400], np.inf), 40.0]
            cutoffs += [60.0, 200.0, math.inf]
            for cutoff in cutoffs:
                kept.append(self.assert_gate(retriever, query, cutoff))
        assert None in kept and any(k is not None for k in kept)
