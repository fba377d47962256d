"""End-to-end reranking: the image decides between two word senses.

Run with:  python3 demos/03_disambiguation_rerank.py

The decoder slightly prefers a "rock" reading of an ambiguous source
caption, but the input image shows clothing. Text-only retrieval pulls
captions from both domains and leaves the decoder's choice alone;
visual retrieval narrows the match list to captions of nearby images,
and the interpolated score flips the decision.
"""

from tsr import (
    CaptionDoc,
    Collection,
    FeatureStore,
    Hypothesis,
    IdfTable,
    KBestList,
    RerankParams,
    RetrievalParams,
    Retriever,
    select_best,
)


def tok(text):
    return tuple(text.split())


idf = IdfTable(10000, {
    "rock": 2, "skirt": 2, "suit": 5, "tie": 5, "person": 20, "man": 25,
    "stands": 30, "wearing": 15, "big": 40, "near": 35, "is": 9000,
    "a": 10000, "the": 10000, "in": 10000, "and": 10000, "on": 10000,
})

# Eight captions about rocks (their images are far from the query) and
# four about clothes (their images are near the query).
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
feats = FeatureStore({
    "ir1": [195.0, 0, 0, 0], "ir2": [200.0, 0, 0, 0],
    "ir3": [205.0, 0, 0, 0], "ir4": [210.0, 0, 0, 0],
    "is1": [1.0, 0, 0, 0], "is2": [2.0, 0, 0, 0],
    "query": [0.0, 0, 0, 0],
})

kbest = KBestList("f1", [
    Hypothesis(tok("a man stands on a rock"), -10.0),
    Hypothesis(tok("the man stands on a rock"), -10.3),
    Hypothesis(tok("a person in a suit and tie and a skirt"), -10.6),
    Hypothesis(tok("a man is on a rock"), -10.9),
    Hypothesis(tok("the man stands on the rock"), -11.2),
])

print("decoder k-best:")
for rank, hyp in enumerate(kbest.hyps, start=1):
    print(f"  {rank}. ({hyp.decoder_score:6.1f})  {' '.join(hyp.tokens)}")

retriever = Retriever(Collection(docs), idf, feats)

for mode, rparams, rrparams in (
    ("txt", RetrievalParams(k_n=300, k_m=500),
     RerankParams(k_r=5, interp_weight=5e4)),
    ("cnn", RetrievalParams(k_n=300, k_m=300, distance_weight=0.01,
                            distance_cutoff=90.0),
     RerankParams(k_r=5, interp_weight=70e4)),
):
    ml = retriever.retrieve(kbest, "query", None, mode, rparams)
    out = select_best(kbest, ml, retriever, rrparams)
    retrieved = [docs[row].caption_id for row, _ in ml.matches]
    print(f"\n{mode}: retrieved {retrieved}")
    print(f"{mode}: chose rank {out.decoder_rank_of_chosen}"
          f" (relevance {out.relevance:.4f}):"
          f" {' '.join(out.chosen.tokens)}")
