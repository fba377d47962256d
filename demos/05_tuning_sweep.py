"""Step-wise hyperparameter search over a small dev set.

Run with:  python3 demos/05_tuning_sweep.py

The tuner sweeps one parameter at a time — retrieval depth k_n, match
count k_m, rerank depth k_r, then the interpolation weight — holding
the others at their current incumbents. The trace below shows every
evaluated point; the incumbent BLEU never decreases between sweeps.
"""

from tsr import (
    CaptionDoc,
    Collection,
    DevSet,
    GridSpec,
    Hypothesis,
    IdfTable,
    KBestList,
    Retriever,
    stepwise_search,
)


def tok(text):
    return tuple(text.split())


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

dev = DevSet(Retriever(Collection(docs), idf), kbests, refs)
grid = GridSpec(k_n=[1, 2], k_m=[1, 2], k_r=[2, 1],
                interp_weight=[1000.0, 0.0])

result = stepwise_search(grid, dev)

print("trace (one line per evaluated point):")
for point, bleu in result.trace:
    print(f"  k_n={point['k_n']:.0f} k_m={point['k_m']:.0f}"
          f" k_r={point['k_r']:.0f} w={point['interp_weight']:7.1f}"
          f"  BLEU={100 * bleu:6.2f}")

print(f"\nincumbents: k_n={result.retrieval_params.k_n}"
      f" k_m={result.retrieval_params.k_m}"
      f" k_r={result.rerank_params.k_r}"
      f" w={result.rerank_params.interp_weight}")
print(f"best BLEU: {100 * result.best_bleu:.2f}")
