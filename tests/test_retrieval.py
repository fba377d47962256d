import itertools
import math
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
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
        rows64 = retriever.feats.matrix.astype(np.float64)
        q = rows64[retriever.feats.row_of(image)]
        per_row = np.sqrt(np.sum((rows64 - q) ** 2, axis=1))
        dist = np.append(per_row, np.inf)[retriever._img_row]
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
            assert np.any(retriever._img_row < 0)  # docs without one
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

    def test_threads_get_the_sequential_results(self):
        _, docs, retriever, _ = self.instance(8, [])
        rng = np.random.default_rng(9)
        vocab = sorted(retriever.coll.vocab)
        images = sorted({d.image_id for d in docs})
        queries = [
            (random_kbest(rng, f"s{q}", vocab, 3),
             images[int(rng.integers(0, len(images)))])
            for q in range(64)
        ]
        params = RetrievalParams(3, 20, 0.7, 1.75)

        def run(query):
            ml = retriever.retrieve(query[0], query[1], None, "cnn", params)
            return ml.used_fallback, [(r, s.hex()) for r, s in ml.matches]

        sequential = list(map(run, queries))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                threaded = list(pool.map(run, queries, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == sequential
