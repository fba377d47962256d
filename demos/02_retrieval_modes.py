"""Retrieve caption matches in all three modes, including fallbacks.

Run with:  python3 demos/02_retrieval_modes.py

A decoder's k-best hypotheses act as one bag-of-tokens query. Each
candidate caption is scored by idf-weighted term overlap normalized by
its type count; the cnn mode damps that score by visual distance and
the hca mode gates it on exact category equality. Both non-text modes
fall back to plain text scoring when they have nothing to work with.
"""

from tsr import (
    CaptionDoc,
    Collection,
    FeatureStore,
    Hypothesis,
    IdfTable,
    KBestList,
    RetrievalParams,
    Retriever,
)

idf = IdfTable(1000, {
    "horse": 5, "dog": 5, "field": 20, "rides": 10, "runs": 10,
    "man": 50, "woman": 50, "a": 1000, "the": 1000, "across": 400,
})

docs = [
    CaptionDoc("c1", "img1", tuple("a man rides a horse".split()),
               frozenset({"person", "horse"})),
    CaptionDoc("c2", "img1", tuple("the horse in a field".split()),
               frozenset({"horse"})),
    CaptionDoc("c3", "img2", tuple("the dog runs across a field".split()),
               frozenset({"dog"})),
    CaptionDoc("c4", "img3", tuple("a woman and a dog".split())),
]
coll = Collection(docs)

# img1 sits at the origin; img2 is close; img3 is far away.
feats = FeatureStore({
    "query-img": [0.0, 0.0],
    "img1": [1.0, 0.0],
    "img2": [3.0, 4.0],
    "img3": [300.0, 400.0],
})

kbest = KBestList("s1", [
    Hypothesis(tuple("a man rides a horse".split()), -10.0),
    Hypothesis(tuple("the dog runs".split()), -11.0),
])

retriever = Retriever(coll, idf, feats)
params = RetrievalParams(k_n=300, k_m=5, distance_weight=0.01,
                         distance_cutoff=90.0)


def show(label, ml):
    flag = " (fallback)" if ml.used_fallback else ""
    print(f"{label}{flag}:")
    for row, score in ml.matches:
        doc = docs[row]  # a match names its caption by collection row
        print(f"  {doc.caption_id}  {score:8.4f}  {' '.join(doc.tokens)}")


# Text mode ranks purely by weighted term overlap.
show("txt", retriever.retrieve(kbest, mode="txt", params=params))

# Visual mode: img3 lies beyond the cutoff, so c4 drops out; img2 is
# damped more than img1.
print()
show("cnn", retriever.retrieve(kbest, "query-img", None, "cnn", params))

# Visual fallback: a query image without an embedding reverts to text
# scoring and raises the fallback flag.
print()
show("cnn, unknown query image",
     retriever.retrieve(kbest, "img-without-embedding", None, "cnn", params))

# Category mode keeps only captions whose annotation equals the query's
# annotation exactly — subsets and supersets do not count.
print()
show("hca {person, horse}",
     retriever.retrieve(kbest, None, {"person", "horse"}, "hca", params))

# Category fallback: nothing is annotated with {person}, so the gate
# zeroes everything and text scoring takes over.
print()
show("hca {person}",
     retriever.retrieve(kbest, None, {"person"}, "hca", params))
