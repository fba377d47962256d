"""Build an idf table and an indexed caption collection from scratch.

Run with:  python3 demos/01_build_idf_and_index.py

Every downstream stage rests on two structures built here: an IdfTable
estimated from a monolingual corpus (one sentence per line = one
document), and a Collection that indexes captions by their term types.
"""

import numpy as np

from tsr import CaptionDoc, Collection, build_idf

# A miniature monolingual corpus. Common words ("a", "the") appear in
# most documents and end up with near-zero idf; content words that
# appear once get the largest weight, ln(doc_count).
CORPUS = [
    "a man rides a horse".split(),
    "the dog runs across a field".split(),
    "a woman in a blue dress".split(),
    "the horse eats in a field".split(),
    "a man walks the dog".split(),
]

idf = build_idf(CORPUS)
print(f"documents: {idf.doc_count}")
print("term weights (descending):")
terms = sorted({t for line in CORPUS for t in line})
for term in sorted(terms, key=lambda t: -idf.idf(t)):
    print(f"  {term:8s} idf={idf.idf(term):.4f}")

# Unseen terms are floored at document frequency 1, so a query word the
# corpus never saw still gets a (maximal) weight instead of crashing.
print(f"\nunseen term 'zebra': idf={idf.idf('zebra'):.4f}")

# The collection ties captions to image ids (several captions can
# describe one image) and optionally to category annotations.
docs = [
    CaptionDoc("c1", "img1", tuple("a man rides a horse".split())),
    CaptionDoc("c2", "img1", tuple("a rider on a brown horse".split())),
    CaptionDoc("c3", "img2", tuple("the dog runs across a field".split()),
               frozenset({"dog"})),
    CaptionDoc("c4", "img3", tuple("a man walks the dog".split()),
               frozenset({"person", "dog"})),
]
coll = Collection(docs)
print(f"\n{coll!r}")

# Each row of the CSR matrix lists the term ids that are types of one
# caption; retrieval scores every caption with one sparse product.
terms = {tid: term for term, tid in coll.vocab.items()}
print("\nindex rows (each caption's term types):")
for i, caption_id in enumerate(coll.caption_ids):
    row = coll.matrix.indices[coll.matrix.indptr[i]:coll.matrix.indptr[i + 1]]
    print(f"  {caption_id} -> {[terms[int(t)] for t in row]}")

# Only captions sharing a term with the query can score above zero:
# multiplying the matrix by the query's term indicator finds them.
query = {"man", "horse", "zebra"}
indicator = np.zeros(len(coll.vocab))
indicator[[coll.vocab[t] for t in query if t in coll.vocab]] = 1.0
shared = np.flatnonzero(coll.matrix @ indicator)
hits = [coll.caption_ids[i] for i in shared]
print(f"\ncaptions sharing a term with {sorted(query)}: {hits}")
