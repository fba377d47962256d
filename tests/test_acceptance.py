"""End-to-end acceptance suite.

One test per shipped guarantee: oracle equivalence of retrieval, the
hand-worked scoring fixtures, reranker identities, the fallback
contract, a constructed visual-disambiguation corpus, BLEU and
significance-test correctness, the step-wise tuner's search path, and a
full-scale capacity run. Each test is self-contained and checks the
library against independent brute-force computations from oracles.py.
"""

import math
import resource
import time

import numpy as np
import pytest

from tsr import (
    CaptionDoc,
    Collection,
    DevSet,
    FeatureStore,
    GridSpec,
    Hypothesis,
    IdfTable,
    KBestList,
    RerankParams,
    RetrievalParams,
    Retriever,
    bleu_score,
    bleu_stats,
    relevance_scores,
    select_best,
    stepwise_search,
)
from tsr.retrieval import MODES, MatchList
from oracles import (
    FixedIdf,
    float32_exact,
    oracle_bleu,
    oracle_bleu_row,
    oracle_exhaustive_p,
    oracle_relevance,
    oracle_retrieve,
    oracle_select,
    random_collection,
    random_idf_table,
    random_kbest,
)


def tok(text):
    return tuple(text.split())


def test_retrieval_matches_bruteforce_oracle():
    """All three retrieval modes reproduce a naive score-every-doc oracle
    exactly (ids, order, fallback flags; scores to 1e-12) across 50
    randomized collections, in under a minute."""
    start = time.monotonic()
    rng = np.random.default_rng(101)
    category_pool = [f"cat{i}" for i in range(6)]
    unseen = [f"unseen{i:02d}" for i in range(20)]
    comparisons = 0

    for trial in range(50):
        n_docs = 1000 if trial in (10, 25, 40) else int(rng.integers(30, 301))
        vocab = [f"v{i:03d}" for i in range(int(rng.integers(30, 201)))]
        dim = int(rng.integers(2, 9))
        docs, feats_map = random_collection(
            rng, n_docs, vocab, dim, category_pool
        )
        idf = random_idf_table(rng, vocab + unseen)
        retriever = Retriever(Collection(docs), idf, FeatureStore(feats_map))
        images = sorted({doc.image_id for doc in docs})
        annotated = [doc for doc in docs if doc.categories is not None]

        for q in range(2):
            kbest = random_kbest(
                rng, f"s{q}", vocab, int(rng.integers(1, 12))
            )
            params = RetrievalParams(
                k_n=int(rng.integers(1, 12)),
                k_m=int(rng.integers(1, n_docs + 5)),
                distance_weight=float(rng.uniform(0.001, 2.0)),
                distance_cutoff=float(rng.uniform(0.05, 2.0)),
            )
            roll = rng.random()
            if roll < 0.5 and feats_map:
                query_image = str(rng.choice(sorted(feats_map)))
            elif roll < 0.75:
                query_image = str(rng.choice(images))
            else:
                query_image = None
            roll = rng.random()
            if roll < 0.3 or not annotated:
                query_categories = None
            elif roll < 0.6:
                query_categories = annotated[
                    int(rng.integers(0, len(annotated)))
                ].categories
            elif roll < 0.8:
                query_categories = frozenset(
                    rng.choice(category_pool, size=int(rng.integers(1, 3)),
                               replace=False)
                )
            else:
                query_categories = frozenset({"no-such-category"})

            for mode in MODES:
                got = retriever.retrieve(
                    kbest, query_image, query_categories, mode, params
                )
                want, want_fallback = oracle_retrieve(
                    docs, feats_map, idf, kbest.hyps,
                    query_image, query_categories, mode,
                    params.k_n, params.k_m,
                    params.distance_weight, params.distance_cutoff,
                )
                assert got.used_fallback == want_fallback, (trial, q, mode)
                ids = retriever.coll.caption_ids
                assert [ids[r] for r, _ in got.matches] == [
                    cid for cid, _ in want
                ], (trial, q, mode)
                for (_, got_s), (_, want_s) in zip(got.matches, want):
                    assert got_s == pytest.approx(want_s, rel=1e-12, abs=0.0)
                comparisons += 1

    assert comparisons == 50 * 2 * 3
    assert time.monotonic() - start < 60.0


def test_retrieval_ties_and_zero_idf_match_oracle():
    """Tie groups that straddle the k_m cut and query terms weighing 0
    reproduce the oracle exactly in every mode, for k_m below, at and
    above the number of positive scores. Stock captions are copied
    under shuffled caption ids, and dyadic weights make equal scores
    exact in both implementations."""
    rng = np.random.default_rng(202)
    vocab = [f"t{i:02d}" for i in range(12)]
    category_pool = ["animal", "person", "vehicle"]
    straddled = 0

    def check(retriever, docs, feats_map, idf, kbest, image, cats, mode, d):
        nonlocal straddled
        full, _ = oracle_retrieve(
            docs, feats_map, idf, kbest.hyps, image, cats, mode,
            len(kbest.hyps), len(docs), 0.5, d,
        )
        cuts = [i for i in range(1, len(full)) if full[i - 1][1] == full[i][1]]
        straddled += bool(cuts)
        positive = len(full)
        for k_m in {1, positive - 1, positive, positive + 2, *cuts[:3]}:
            if k_m < 1:
                continue
            params = RetrievalParams(
                k_n=len(kbest.hyps), k_m=k_m, distance_weight=0.5,
                distance_cutoff=d,
            )
            got = retriever.retrieve(kbest, image, cats, mode, params)
            want, want_fallback = oracle_retrieve(
                docs, feats_map, idf, kbest.hyps, image, cats, mode,
                params.k_n, k_m, 0.5, d,
            )
            assert got.used_fallback == want_fallback, (mode, k_m)
            ids = retriever.coll.caption_ids
            assert [ids[r] for r, _ in got.matches] == [
                cid for cid, _ in want
            ], (mode, k_m)
            for (_, got_s), (_, want_s) in zip(got.matches, want):
                assert got_s == pytest.approx(want_s, rel=1e-12, abs=0.0)
        return got

    for trial in range(30):
        weights = {
            t: float(rng.choice([0.0, 0.5, 1.0, 2.0, 3.0])) for t in vocab
        }
        weights[vocab[0]] = 0.0
        idf = FixedIdf(weights)
        feats_map = {
            f"img{i}": float32_exact(rng.uniform(0.0, 1.0, size=3))
            for i in range(int(rng.integers(3, 10)))
        }
        images = sorted(feats_map) + ["img-without-features"]
        stock = [
            (
                tuple(rng.choice(vocab, size=int(rng.integers(1, 5)))),
                images[int(rng.integers(0, len(images)))],
            )
            for _ in range(4)
        ]
        n_docs = int(rng.integers(15, 60))
        ids = rng.permutation(1000)[:n_docs]
        docs = []
        for i in range(n_docs):
            if rng.random() < 0.6:
                tokens, image = stock[int(rng.integers(0, len(stock)))]
            else:
                tokens = tuple(rng.choice(vocab, size=int(rng.integers(1, 5))))
                image = images[int(rng.integers(0, len(images)))]
            cats = None
            if rng.random() < 0.8:
                cats = frozenset(
                    rng.choice(category_pool, size=int(rng.integers(1, 3)),
                               replace=False)
                )
            docs.append(CaptionDoc(f"c{ids[i]:03d}", image, tokens, cats))
        retriever = Retriever(Collection(docs), idf, FeatureStore(feats_map))
        for q in range(2):
            kbest = random_kbest(rng, f"s{q}", vocab, int(rng.integers(1, 5)))
            image = images[int(rng.integers(0, len(images)))]
            cats = docs[int(rng.integers(0, n_docs))].categories
            d = float(rng.uniform(0.2, 2.0))
            for mode in MODES:
                check(retriever, docs, feats_map, idf, kbest, image, cats,
                      mode, d)
    assert straddled >= 100

    # c1 shares only the zero-weight term and lies within the cutoff;
    # c2 carries the query's weighted term but lies outside. A term
    # overlap, not a positive txt score, makes c1 a candidate, so cnn
    # does not fall back and returns nothing.
    docs = [
        CaptionDoc("c1", "near", ("zero", "dog")),
        CaptionDoc("c2", "far", ("cat",)),
    ]
    feats_map = {"near": [0.0, 0.0], "far": [5.0, 5.0]}
    idf = FixedIdf({"zero": 0.0, "dog": 1.0, "cat": 1.0})
    retriever = Retriever(Collection(docs), idf, FeatureStore(feats_map))
    kbest = KBestList("s", [Hypothesis(("zero", "cat"), -1.0)])
    got = check(retriever, docs, feats_map, idf, kbest, "near", None, "cnn",
                1.0)
    assert not got.used_fallback and got.matches == []


def test_handworked_scoring_fixtures():
    """Candidate scoring, visual decay, and match-list relevance agree
    with hand-derived values to 1e-12."""
    idf = FixedIdf({"a": 0.1, "dog": 2.0, "big": 0.5, "the": 0.05})
    hyp = Hypothesis(("a", "dog", "dog"), -1.0)

    # candidate types {a, dog}; token occurrences contribute 0.1 + 2.0
    # + 2.0, normalized by the 2 candidate types.
    cand = CaptionDoc("c1", "i1", ("a", "dog"))
    kbest = KBestList("s1", [hyp])
    # visual decay at distance 89.875 (exactly representable in float32,
    # so the stored embedding equals the literal below).
    feats = FeatureStore({"q": [0.0, 0.0], "i1": [89.875, 0.0]})
    retriever = Retriever(Collection([cand]), idf, feats)
    params = RetrievalParams(distance_weight=0.01, distance_cutoff=90.0)
    (txt,) = retriever.retrieve(kbest, "q", None, "txt", params).matches
    assert retriever.coll.caption_ids[txt[0]] == cand.caption_id
    assert abs(txt[1] - 2.05) <= 1e-12

    cnn = retriever.retrieve(kbest, "q", None, "cnn", params)
    assert not cnn.used_fallback
    want = 2.05 * math.exp(-0.01 * 89.875)
    assert cnn.matches[0][1] == pytest.approx(want, rel=1e-12)

    # relevance of a rerank candidate against a two-caption match list:
    # numerator 0.1 + 2.0 + 2.0 (first match) + 2.0 + 2.0 (second),
    # normalizer = 5 total match tokens.
    docs = [
        CaptionDoc("c1", "i1", ("a", "dog")),
        CaptionDoc("c2", "i2", ("the", "big", "dog")),
    ]
    matches = MatchList("s1", [(0, 9.9), (1, 5.5)])
    retriever = Retriever(Collection(docs), idf)
    got = relevance_scores([("a", "dog", "dog")], matches, retriever)[0]
    assert abs(got - 8.1 / 5) <= 1e-12
    want = oracle_relevance(
        ("a", "dog", "dog"), [docs[r] for r, _ in matches.matches], idf
    )
    assert got == pytest.approx(want, rel=1e-12)


def test_zero_interpolation_weight_keeps_decoder_best():
    """With interp_weight = 0 the reranker returns the decoder-best
    hypothesis on every one of 1,000 random k-best lists."""
    rng = np.random.default_rng(211)
    vocab = [f"v{i:02d}" for i in range(40)]
    idf = random_idf_table(rng, vocab)
    for trial in range(1000):
        kbest = random_kbest(rng, f"s{trial}", vocab, int(rng.integers(1, 10)))
        n_matches = int(rng.integers(0, 5))
        docs, matches = [], MatchList(kbest.sent_id, [])
        for j in range(n_matches):
            docs.append(CaptionDoc(
                f"c{trial}_{j}", "i1",
                tuple(rng.choice(vocab, size=int(rng.integers(1, 8)))),
            ))
            matches.matches.append((j, float(rng.uniform(0.1, 9.0))))
        retriever = Retriever(Collection(docs), idf)
        params = RerankParams(
            k_r=int(rng.integers(1, len(kbest.hyps) + 2)), interp_weight=0.0
        )
        out = select_best(kbest, matches, retriever, params)
        assert out.chosen is kbest.hyps[0]
        assert out.decoder_rank_of_chosen == 1


def test_cnn_equals_txt_when_distances_vanish():
    """When every image shares one embedding (all pairwise distances 0)
    the visual mode's match lists and chosen hypotheses coincide with
    the text mode's on all 100 sentences, for arbitrary decay weight."""
    rng = np.random.default_rng(307)
    vocab = [f"v{i:02d}" for i in range(60)]
    idf = random_idf_table(rng, vocab)
    images = [f"img{i}" for i in range(20)]
    docs = [
        CaptionDoc(
            f"c{i:03d}",
            images[int(rng.integers(0, len(images)))],
            tuple(rng.choice(vocab, size=int(rng.integers(2, 9)))),
        )
        for i in range(60)
    ]
    shared = float32_exact([0.25, 0.5, 0.125, 0.75])
    feats = FeatureStore({img: list(shared) for img in images})
    retriever = Retriever(Collection(docs), idf, feats)
    rparams = RetrievalParams(
        k_n=300, k_m=500, distance_weight=3.7, distance_cutoff=0.5
    )
    rrparams = RerankParams(k_r=5, interp_weight=5e4)

    for q in range(100):
        kbest = random_kbest(rng, f"s{q}", vocab, int(rng.integers(1, 8)))
        query_image = images[int(rng.integers(0, len(images)))]
        txt = retriever.retrieve(kbest, query_image, None, "txt", rparams)
        cnn = retriever.retrieve(kbest, query_image, None, "cnn", rparams)
        ids = retriever.coll.caption_ids
        assert [ids[r] for r, _ in cnn.matches] == [
            ids[r] for r, _ in txt.matches
        ]
        for (_, cs), (_, ts) in zip(cnn.matches, txt.matches):
            assert cs == ts
        chosen_txt = select_best(kbest, txt, retriever, rrparams)
        chosen_cnn = select_best(kbest, cnn, retriever, rrparams)
        assert chosen_cnn.chosen == chosen_txt.chosen


def test_fallback_contract():
    """Visual mode with no embeddings degrades to text scoring
    bit-for-bit and flags every sentence; with an effectively infinite
    cutoff and full embedding coverage no sentence falls back."""
    rng = np.random.default_rng(401)
    vocab = [f"v{i:02d}" for i in range(50)]
    idf = random_idf_table(rng, vocab)
    docs, feats_map = random_collection(
        rng, 80, vocab, 4, [], feature_coverage=1.0
    )
    coll = Collection(docs)
    n = 40

    kbests = []
    for q in range(n):
        hyps = []
        seen = set()
        for j in range(int(rng.integers(1, 4))):
            source = docs[int(rng.integers(0, len(docs)))]
            if source.tokens in seen:
                continue
            seen.add(source.tokens)
            hyps.append(Hypothesis(source.tokens, -1.0 - j))
        kbests.append(KBestList(f"s{q}", hyps))
    queries = [
        str(rng.choice(sorted(feats_map))) for _ in range(n)
    ]

    empty = Retriever(coll, idf, FeatureStore({}))
    fallbacks = 0
    for kbest, query_image in zip(kbests, queries):
        txt = empty.retrieve(kbest, query_image, None, "txt")
        cnn = empty.retrieve(kbest, query_image, None, "cnn")
        assert not txt.used_fallback
        fallbacks += cnn.used_fallback
        assert [(coll.caption_ids[r], s) for r, s in cnn.matches] == [
            (coll.caption_ids[r], s) for r, s in txt.matches
        ]
    assert fallbacks == n

    full = Retriever(coll, idf, FeatureStore(feats_map))
    params = RetrievalParams(distance_cutoff=1e18)
    fallbacks = sum(
        full.retrieve(kbest, query_image, None, "cnn", params).used_fallback
        for kbest, query_image in zip(kbests, queries)
    )
    assert fallbacks == 0


def test_visual_retrieval_flips_ambiguous_caption():
    """A constructed corpus where the decoder prefers a 'rock' reading:
    text retrieval returns mixed-domain captions and keeps the decoder
    best, while visual retrieval narrows to nearby 'skirt' captions and
    flips the choice. Scores were precomputed with the brute-force
    oracle and are re-derived here."""
    idf = IdfTable(10000, {
        "rock": 2, "skirt": 2, "suit": 5, "tie": 5, "person": 20,
        "man": 25, "stands": 30, "wearing": 15, "big": 40, "near": 35,
        "is": 9000, "a": 10000, "the": 10000, "in": 10000, "and": 10000,
        "on": 10000,
    })
    docs = [
        CaptionDoc("r1", "ir1", tok("a man stands on a big rock")),
        CaptionDoc("r2", "ir1", tok("the man stands near a rock")),
        CaptionDoc("r3", "ir2", tok("a person stands on a rock")),
        CaptionDoc("r4", "ir2", tok("a big rock")),
        CaptionDoc("r5", "ir3", tok("the man is on a rock")),
        CaptionDoc("r6", "ir3", tok("a man near a big rock")),
        CaptionDoc("r7", "ir4", tok("a rock near the man")),
        CaptionDoc("r8", "ir4", tok("the big rock")),
        CaptionDoc("s1", "is1", tok("a person wearing a suit and tie")),
        CaptionDoc("s2", "is1", tok("a person in a skirt and a tie")),
        CaptionDoc("s3", "is2", tok("the person wearing a big skirt")),
        CaptionDoc("s4", "is2", tok("a person in a suit and a skirt")),
    ]
    feats_map = {
        "ir1": [195.0, 0.0, 0.0, 0.0], "ir2": [200.0, 0.0, 0.0, 0.0],
        "ir3": [205.0, 0.0, 0.0, 0.0], "ir4": [210.0, 0.0, 0.0, 0.0],
        "is1": [1.0, 0.0, 0.0, 0.0], "is2": [2.0, 0.0, 0.0, 0.0],
        "q": [0.0, 0.0, 0.0, 0.0],
    }
    kbest = KBestList("f1", [
        Hypothesis(tok("a man stands on a rock"), -10.0),
        Hypothesis(tok("the man stands on a rock"), -10.3),
        Hypothesis(tok("a person in a suit and tie and a skirt"), -10.6),
        Hypothesis(tok("a man is on a rock"), -10.9),
        Hypothesis(tok("the man stands on the rock"), -11.2),
    ])
    retriever = Retriever(Collection(docs), idf, FeatureStore(feats_map))

    # text mode: every caption shares a term with the query, so both
    # domains are retrieved and the rock hypotheses keep the highest
    # relevance; the decoder best survives reranking.
    txt = retriever.retrieve(
        kbest, "q", None, "txt", RetrievalParams(k_n=300, k_m=500)
    )
    assert [docs[r].caption_id for r, _ in txt.matches] == [
        "r1", "r2", "r6", "r7", "r3", "r4", "r8", "r5",
        "s2", "s4", "s1", "s3",
    ]
    assert not txt.used_fallback
    out_txt = select_best(
        kbest, txt, retriever, RerankParams(k_r=5, interp_weight=5e4)
    )
    assert out_txt.decoder_rank_of_chosen == 1
    assert "rock" in out_txt.chosen.tokens
    assert out_txt.relevance == pytest.approx(
        1.6270746089832662, rel=1e-12
    )

    # visual mode: the rock images sit beyond the cutoff, so only the
    # four skirt captions survive, and the skirt hypothesis wins.
    cnn = retriever.retrieve(
        kbest, "q", None, "cnn",
        RetrievalParams(
            k_n=300, k_m=300, distance_weight=0.01, distance_cutoff=90.0
        ),
    )
    assert [docs[r].caption_id for r, _ in cnn.matches] == [
        "s2", "s4", "s1", "s3"
    ]
    assert not cnn.used_fallback
    assert all("skirt" in docs[r].tokens or "suit" in docs[r].tokens
               for r, _ in cnn.matches)
    assert cnn.matches[0][1] == pytest.approx(3.685081605707267, rel=1e-12)
    out_cnn = select_best(
        kbest, cnn, retriever, RerankParams(k_r=5, interp_weight=70e4)
    )
    assert out_cnn.decoder_rank_of_chosen == 3
    assert "skirt" in out_cnn.chosen.tokens
    assert out_cnn.relevance == pytest.approx(
        2.7866766140036487, rel=1e-12
    )

    # both final choices agree with the brute-force oracle.
    for matches, params, expected_rank in (
        (txt, (5, 5e4), 1),
        (cnn, (5, 70e4), 3),
    ):
        match_docs = [docs[r] for r, _ in matches.matches]
        rank, combined, rel = oracle_select(
            kbest.hyps, match_docs, idf, *params
        )
        assert rank == expected_rank
        out = select_best(
            kbest, matches, retriever, RerankParams(*params)
        )
        assert out.combined_score == pytest.approx(combined, rel=1e-12)
        assert out.relevance == pytest.approx(rel, rel=1e-12)


def test_bleu_correctness():
    """Corpus BLEU: exact 1.0 on a perfect corpus, the clipped 2/7
    unigram fixture, exact additivity of sufficient statistics, and a
    frozen 10-sentence corpus value to 1e-9."""
    perfect = bleu_stats(
        [tok("a man rides a horse")], [tok("a man rides a horse")]
    )[0]
    assert bleu_score(perfect) == pytest.approx(1.0, abs=1e-15)

    clipped = bleu_stats(
        [tok("the the the the the the the")], [tok("the cat is on the mat")]
    )[0]
    assert clipped[0] == 2 and clipped[4] == 7

    rng = np.random.default_rng(17)
    vocab = [f"w{i}" for i in range(12)]
    pairs = [
        [
            tuple(rng.choice(vocab, size=int(rng.integers(1, 12))))
            for _ in range(2)
        ]
        for _ in range(30)
    ]
    stats = bleu_stats([h for h, _ in pairs], [r for _, r in pairs])
    whole = stats.sum(axis=0)
    split = stats[:11].sum(axis=0) + stats[11:].sum(axis=0)
    assert whole.tolist() == split.tolist()

    pairs = [
        ("a man rides a brown horse", "a man rides a brown horse"),
        ("the dog runs across the field", "a dog runs across the green field"),
        ("two people sit on a bench", "two people are sitting on a bench"),
        ("a cat sleeps", "a cat sleeps on the mat"),
        ("children play with a red ball", "the children play with a ball"),
        ("a train arrives at the station quickly", "a train arrives at the station"),
        ("the woman wears a blue dress", "a woman in a blue dress"),
        ("boats float near the harbor", "several boats float near the old harbor"),
        ("the sun sets over the mountains", "the sun sets behind the mountains"),
        ("a group of friends eat pizza", "a group of friends eats pizza outside"),
    ]
    total = bleu_stats(
        [tok(h) for h, _ in pairs], [tok(r) for _, r in pairs]
    ).sum(axis=0)
    assert total[:4].tolist() == [49, 32, 20, 10]
    assert total[4:8].tolist() == [57, 47, 37, 27]
    assert bleu_score(total) == pytest.approx(0.5174579372990767, abs=1e-9)
    rows = [oracle_bleu_row(h.split(), r.split()) for h, r in pairs]
    assert bleu_score(total) == pytest.approx(oracle_bleu(rows), rel=1e-12)


def test_significance_randomization():
    """Approximate randomization: identical systems give exactly 1.0;
    a 5-sentence corpus lands within 0.02 of the exhaustive 32-pattern
    enumeration at 10,000 trials; a fixed seed is bit-identical across
    runs."""
    from tsr import approx_randomization

    pairs = [
        ("a man rides a brown horse", "a man rides a horse",
         "a man rides a brown horse"),
        ("the dog runs across a field", "a dog runs across the field",
         "the dog runs across the field"),
        ("two people sit on the bench", "two people sat on a bench",
         "two people sit on a bench"),
        ("a cat sleeps on the mat", "the cat sleeps on a mat",
         "a cat sleeps on the mat"),
        ("children play with a ball", "children played with the ball",
         "children play with a red ball"),
    ]
    refs = [tok(r) for _, _, r in pairs]
    stats_a = bleu_stats([tok(a) for a, _, _ in pairs], refs)
    stats_b = bleu_stats([tok(b) for _, b, _ in pairs], refs)

    assert approx_randomization(stats_a, stats_a.copy(), 500, seed=4) == 1.0

    exact = oracle_exhaustive_p(
        [(a.split(), r.split()) for a, _, r in pairs],
        [(b.split(), r.split()) for _, b, r in pairs],
    )
    assert exact == pytest.approx(6 / 32, abs=1e-12)
    p = approx_randomization(stats_a, stats_b, 10000, seed=9)
    assert p == pytest.approx(exact, abs=0.02)

    again = approx_randomization(stats_a, stats_b, 10000, seed=9)
    assert p == again


def test_stepwise_tuner_finds_planted_optimum():
    """On a 2x2x2x2 grid whose unique optimum is reachable one
    coordinate at a time, the sweep's 8-point trace matches an
    independent simulation over an exhaustively evaluated table and
    lands on the optimum."""
    docs = [
        CaptionDoc("x1", "i1", tok("a man walks today")),
        CaptionDoc("r1", "i2", tok("runs runs runs")),
        CaptionDoc("d1", "i3", tok("dog dog")),
        CaptionDoc("d2", "i4", tok("the dog jumps now")),
        CaptionDoc("f1", "i5", tok("a cat here")),
    ]
    idf = IdfTable(100, {
        "runs": 1, "jumps": 1, "man": 2, "dog": 2, "sits": 2, "walks": 3,
        "a": 100, "the": 100, "today": 100, "here": 100, "around": 100,
        "now": 100, "cat": 1,
    })
    kbests = [
        KBestList("s1", [
            Hypothesis(tok("a man walks here today"), -1.0),
            Hypothesis(tok("a man runs here today"), -1.5),
        ]),
        KBestList("s2", [
            Hypothesis(tok("the dog sits around now"), -1.0),
            Hypothesis(tok("the dog jumps around now"), -1.5),
        ]),
    ]
    refs = [list(tok("a man runs here today")),
            list(tok("the dog jumps around now"))]
    grid = {"k_n": [1, 2], "k_m": [1, 2], "k_r": [2, 1],
            "interp_weight": [1000.0, 0.0]}
    by_id = {d.caption_id: d for d in docs}

    def oracle_eval(k_n, k_m, k_r, w):
        rows = []
        for kb, ref in zip(kbests, refs):
            matched, _ = oracle_retrieve(
                docs, {}, idf, kb.hyps, None, None, "txt", k_n, k_m,
                0.01, 90.0,
            )
            rank, _, _ = oracle_select(
                kb.hyps, [by_id[c] for c, _ in matched], idf, k_r, w
            )
            rows.append(oracle_bleu_row(list(kb.hyps[rank - 1].tokens), ref))
        return oracle_bleu(rows)

    table = {
        (kn, km, kr, w): oracle_eval(kn, km, kr, w)
        for kn in grid["k_n"]
        for km in grid["k_m"]
        for kr in grid["k_r"]
        for w in grid["interp_weight"]
    }
    top = max(table.values())
    winners = [point for point, b in table.items() if b == top]
    assert winners == [(2, 2, 2, 1000.0)]
    assert top == pytest.approx(1.0, abs=1e-12)

    # independent coordinate-sweep simulation over the table
    expected_trace = []
    current = {name: grid[name][0] for name in grid}
    for name in ("k_n", "k_m", "k_r", "interp_weight"):
        best_v = best_b = None
        for v in grid[name]:
            pt = dict(current)
            pt[name] = v
            b = table[(pt["k_n"], pt["k_m"], pt["k_r"], pt["interp_weight"])]
            expected_trace.append(
                ((pt["k_n"], pt["k_m"], pt["k_r"], pt["interp_weight"]), b)
            )
            if best_v is None or b > best_b or (b == best_b and v < best_v):
                best_v, best_b = v, b
        current[name] = best_v

    dev = DevSet(Retriever(Collection(docs), idf), kbests, refs)
    res = stepwise_search(GridSpec(**grid), dev)
    assert len(res.trace) == 8
    for (point, bleu), (want_pt, want_b) in zip(res.trace, expected_trace):
        assert (
            point["k_n"], point["k_m"], point["k_r"], point["interp_weight"]
        ) == want_pt
        assert bleu == pytest.approx(want_b, rel=1e-12, abs=1e-15)
    found = (
        res.retrieval_params.k_n, res.retrieval_params.k_m,
        res.rerank_params.k_r, res.rerank_params.interp_weight,
    )
    assert found == winners[0]
    assert res.best_bleu == pytest.approx(top, rel=1e-12)


def test_capacity_full_scale_collection():
    """Index 409,110 captions over 81,822 images and answer 500
    retrieval queries at k_n=300, k_m=500 within ten minutes and 8 GB."""
    start = time.monotonic()
    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(1200)]
    n_images = 81822
    caps_per_image = 5
    n_docs = n_images * caps_per_image
    assert n_docs == 409110

    images = [f"img{i}" for i in range(n_images)]
    token_ids = rng.integers(0, len(vocab), size=(n_docs, 8))
    docs = []
    for j in range(n_docs):
        docs.append(
            CaptionDoc(
                f"c{j}",
                images[j // caps_per_image],
                tuple(vocab[t] for t in token_ids[j]),
            )
        )
    del token_ids
    coll = Collection(docs)
    assert len(coll) == 409110
    assert len(coll.images) == 81822

    idf = random_idf_table(rng, vocab)
    retriever = Retriever(coll, idf)
    params = RetrievalParams(k_n=300, k_m=500)

    returned = []
    for q in range(500):
        ids = rng.integers(0, len(vocab), size=(300, 8))
        hyps = []
        seen = set()
        for depth in range(300):
            tokens = tuple(vocab[t] for t in ids[depth])
            if tokens in seen:
                continue
            seen.add(tokens)
            hyps.append(Hypothesis(tokens, -1.0 - depth))
        kbest = KBestList(f"s{q}", hyps)
        ml = retriever.retrieve(kbest, None, None, "txt", params)
        returned.append(len(ml.matches))

    elapsed = time.monotonic() - start
    peak_bytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    assert min(returned) > 0
    assert max(returned) <= 500
    assert elapsed < 600.0, f"capacity run took {elapsed:.1f}s"
    assert peak_bytes < 8 * 1024**3, f"peak rss {peak_bytes / 1024**3:.2f} GiB"
