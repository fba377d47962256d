import numpy as np
import pytest

from tsr import (
    CaptionDoc,
    Collection,
    Hypothesis,
    KBestList,
    RerankParams,
    Retriever,
    relevance_scores,
    select_best,
)
from tsr.retrieval import MatchList
from oracles import FixedIdf, ScaledIdf, oracle_relevance, random_idf_table


IDF = FixedIdf({"a": 0.1, "dog": 2.0})


def ml(idf, *docs):
    """A match list naming each of docs in turn, and a Retriever over a
    collection of the distinct docs: what relevance_scores and
    select_best take after the tokens or k-best list."""
    coll = Collection(dict.fromkeys(docs))
    rows = [coll.caption_ids.index(doc.caption_id) for doc in docs]
    return MatchList("s1", [(row, 1.0) for row in rows]), Retriever(coll, idf)


def hyp(text, score=-1.0):
    return Hypothesis(tuple(text.split()), score)


class TestRelevanceScore:
    def test_no_overlap_is_zero(self):
        doc = CaptionDoc("c1", "i1", ("the", "cat"))
        assert relevance_scores([("a", "dog")], *ml(IDF, doc))[0] == 0.0

    def test_empty_matchlist_is_zero(self):
        assert relevance_scores([("a", "dog")], *ml(IDF))[0] == 0.0

    def test_no_token_sequences_give_no_scores(self):
        """With or without a caption that has tokens in the match list."""
        doc = CaptionDoc("c1", "i1", ("a", "dog", "runs", "a", "dog"))
        assert relevance_scores([], *ml(IDF, doc)) == []
        assert relevance_scores([], *ml(IDF)) == []

    def test_hand_fixture_normalizes_by_token_count(self):
        # match ["a","dog"]: 2 tokens; rerank candidate [a, dog, dog]
        # contributes 0.1 + 2.0 + 2.0, normalized by 2.
        doc = CaptionDoc("c1", "i1", ("a", "dog"))
        got = relevance_scores([("a", "dog", "dog")], *ml(IDF, doc))[0]
        assert abs(got - 2.05) <= 1e-12

    def test_duplicated_match_leaves_score_unchanged(self):
        doc = CaptionDoc("c1", "i1", ("a", "dog"))
        once = relevance_scores([("a", "dog", "dog")], *ml(IDF, doc))[0]
        twice = relevance_scores([("a", "dog", "dog")], *ml(IDF, doc, doc))[0]
        assert twice == once

    def test_normalizer_uses_tokens_not_types(self):
        # same type set {a, dog}, but four tokens: the numerator counts
        # types once while the normalizer counts every token.
        doc = CaptionDoc("c1", "i1", ("a", "dog", "dog", "a"))
        got = relevance_scores([("a", "dog", "dog")], *ml(IDF, doc))[0]
        assert abs(got - (0.1 + 2.0 + 2.0) / 4) <= 1e-12

    def test_sums_types_left_to_right_in_string_order(self):
        # Term ids give zz < aa < mm, string order aa < mm < zz; with a
        # weight of 1e16 the order of addition changes the double.
        docs = [
            CaptionDoc("c1", "i1", ("zz",)),
            CaptionDoc("c2", "i1", ("zz", "mm", "aa")),
        ]
        matches = MatchList("s1", [(1, 1.0)])
        # The rank 2 hypothesis wins; its relevance comes from the same
        # pass as the decoder's first.
        kb = KBestList("s1", [hyp("bb", -1.0), hyp("aa mm zz", -2.0)])
        for aa, mm, zz in [(1.0, 1.0, 1e16), (1e16, 1.0, 1.0)]:
            idf = FixedIdf({"aa": aa, "mm": mm, "zz": zz})
            retriever = Retriever(Collection(docs), idf)
            assert list(retriever.coll.vocab) == ["zz", "aa", "mm"]
            want = (((0.0 + aa) + mm) + zz) / 3
            assert want != (((0.0 + zz) + mm) + aa) / 3
            got = relevance_scores([("aa", "mm", "zz")], matches, retriever)[0]
            assert got.hex() == want.hex()
            out = select_best(kb, matches, retriever, RerankParams(2, 1.0))
            assert out.decoder_rank_of_chosen == 2
            assert out.relevance.hex() == want.hex()

    def test_bits_equal_a_left_to_right_loop_on_random_inputs(self):
        # Matched captions in match order, each caption's types in string
        # order, one addition at a time: np.sum or @ would change the last
        # bits of some of these sums.
        rng = np.random.default_rng(41)
        vocab = [f"t{i}" for i in range(40)]
        idf = random_idf_table(rng, vocab)
        for _ in range(100):
            docs = [
                CaptionDoc(
                    f"c{i}",
                    "i1",
                    tuple(rng.choice(vocab, size=int(rng.integers(1, 12)))),
                )
                for i in range(int(rng.integers(1, 12)))
            ]
            tokens = tuple(rng.choice(vocab, size=int(rng.integers(1, 20))))
            acc = 0.0
            for doc in docs:
                for term in sorted(set(doc.tokens)):
                    acc += tokens.count(term) * idf.idf(term)
            want = acc / sum(len(doc.tokens) for doc in docs)
            got = relevance_scores([tokens], *ml(idf, *docs))[0]
            assert got.hex() == want.hex()

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        vocab = [f"t{i}" for i in range(30)]
        idf = random_idf_table(rng, vocab)
        docs = [
            CaptionDoc(
                f"c{i}", "i1", tuple(rng.choice(vocab, size=int(rng.integers(1, 8))))
            )
            for i in range(6)
        ]
        tokens = tuple(rng.choice(vocab, size=10))
        base = relevance_scores([tokens], *ml(idf, *docs))[0]
        for _ in range(5):
            perm = list(docs)
            rng.shuffle(perm)
            got = relevance_scores([tokens], *ml(idf, *perm))[0]
            assert got == pytest.approx(base, rel=1e-12)
            shuffled_tokens = list(tokens)
            rng.shuffle(shuffled_tokens)
            assert relevance_scores(
                [tuple(shuffled_tokens)], *ml(idf, *docs)
            )[0] == pytest.approx(base, rel=1e-12)

    def test_matches_oracle_on_random_inputs(self):
        rng = np.random.default_rng(17)
        vocab = [f"t{i}" for i in range(40)]
        idf = random_idf_table(rng, vocab)
        for _ in range(100):
            docs = [
                CaptionDoc(
                    f"c{i}",
                    "i1",
                    tuple(rng.choice(vocab, size=int(rng.integers(1, 9)))),
                )
                for i in range(int(rng.integers(1, 8)))
            ]
            tokens = tuple(rng.choice(vocab, size=int(rng.integers(1, 10))))
            got = relevance_scores([tokens], *ml(idf, *docs))[0]
            want = oracle_relevance(tokens, docs, idf)
            assert got == pytest.approx(want, rel=1e-12)


class TestSelectBest:
    def test_zero_weight_returns_decoder_best(self):
        kb = KBestList("s1", [hyp("a dog", -1.0), hyp("a cat", -2.0)])
        doc = CaptionDoc("c1", "i1", ("a", "cat"))
        out = select_best(kb, *ml(IDF, doc), RerankParams(2, 0.0))
        assert out.chosen is kb.hyps[0]
        assert out.decoder_rank_of_chosen == 1
        assert out.combined_score == -1.0

    def test_huge_weight_returns_max_relevance(self):
        kb = KBestList("s1", [hyp("a bird", -1.0), hyp("a dog", -2.0)])
        doc = CaptionDoc("c1", "i1", ("a", "dog"))
        out = select_best(kb, *ml(IDF, doc), RerankParams(2, 1e12))
        assert out.chosen is kb.hyps[1]
        assert out.decoder_rank_of_chosen == 2

    def test_combined_score_identity(self):
        kb = KBestList("s1", [hyp("a dog dog", -3.0)])
        doc = CaptionDoc("c1", "i1", ("a", "dog"))
        params = RerankParams(1, 10.0)
        out = select_best(kb, *ml(IDF, doc), params)
        assert out.combined_score == out.chosen.decoder_score + 10.0 * out.relevance

    def test_tie_breaks_to_earlier_decoder_rank(self):
        kb = KBestList("s1", [hyp("a dog", -1.0), hyp("dog a", -1.0)])
        doc = CaptionDoc("c1", "i1", ("a", "dog"))
        out = select_best(kb, *ml(IDF, doc), RerankParams(2, 5.0))
        assert out.decoder_rank_of_chosen == 1

    def test_given_relevances_are_used_and_must_cover_k_r(self):
        kb = KBestList("s1", [hyp("a bird", -1.0), hyp("a dog", -2.0)])
        doc = CaptionDoc("c1", "i1", ("a", "dog"))
        matches, retriever = ml(IDF, doc)
        params = RerankParams(2, 1e12)
        rels = [
            relevance_scores([h.tokens], matches, retriever)[0]
            for h in kb.hyps
        ]
        given = select_best(kb, matches, retriever, params, rels)
        assert given == select_best(kb, matches, retriever, params)
        swapped = select_best(kb, matches, retriever, params, rels[::-1])
        assert swapped.decoder_rank_of_chosen == 1
        with pytest.raises(ValueError, match="1 relevances for 2"):
            select_best(kb, matches, retriever, params, rels[:1])

    def test_empty_kbest_errors(self):
        with pytest.raises(ValueError, match="empty"):
            select_best(KBestList("s1", []), *ml(IDF))

    def test_chosen_within_first_k_r(self):
        rng = np.random.default_rng(23)
        vocab = [f"t{i}" for i in range(20)]
        idf = random_idf_table(rng, vocab)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            scores = np.sort(rng.uniform(-9, -1, size=n))[::-1]
            hyps = []
            seen = set()
            for j in range(n):
                toks = tuple(rng.choice(vocab, size=int(rng.integers(1, 6))))
                if toks in seen:
                    continue
                seen.add(toks)
                hyps.append(Hypothesis(toks, float(scores[j])))
            kb = KBestList("s", hyps)
            docs = [
                CaptionDoc(
                    f"c{i}", "i", tuple(rng.choice(vocab, size=4))
                )
                for i in range(3)
            ]
            k_r = int(rng.integers(1, 5))
            out = select_best(kb, *ml(idf, *docs), RerankParams(k_r, 1e3))
            assert out.chosen in kb.hyps[:k_r]

    def test_chosen_relevance_non_decreasing_in_weight(self):
        rng = np.random.default_rng(31)
        vocab = [f"t{i}" for i in range(20)]
        idf = random_idf_table(rng, vocab)
        kb = KBestList(
            "s",
            [
                hyp("t1 t2 t3", -1.0),
                hyp("t4 t5", -2.0),
                hyp("t6 t7 t8", -3.5),
            ],
        )
        docs = [
            CaptionDoc("c1", "i", ("t6", "t7", "t8", "t0")),
            CaptionDoc("c2", "i", ("t4", "t5")),
        ]
        prev = None
        for weight in [0.0, 0.1, 1.0, 10.0, 100.0, 1e4]:
            out = select_best(kb, *ml(idf, *docs), RerankParams(3, weight))
            if prev is not None:
                assert out.relevance >= prev
            prev = out.relevance

    def test_joint_rescaling_keeps_argmax(self):
        rng = np.random.default_rng(37)
        vocab = [f"t{i}" for i in range(25)]
        idf = random_idf_table(rng, vocab)
        for _ in range(30):
            hyps = []
            seen = set()
            scores = np.sort(rng.uniform(-9, -1, size=4))[::-1]
            for j in range(4):
                toks = tuple(rng.choice(vocab, size=5))
                if toks in seen:
                    continue
                seen.add(toks)
                hyps.append(Hypothesis(toks, float(scores[j])))
            kb = KBestList("s", hyps)
            docs = [
                CaptionDoc(f"c{i}", "i", tuple(rng.choice(vocab, size=6)))
                for i in range(4)
            ]
            c = 8.0
            base = select_best(kb, *ml(idf, *docs), RerankParams(4, 64.0))
            scaled = select_best(
                kb, *ml(ScaledIdf(idf, c), *docs), RerankParams(4, 64.0 / c)
            )
            assert scaled.chosen == base.chosen
