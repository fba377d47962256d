"""Naive reference implementations and randomized fixture generators.

Everything here recomputes the package's contracts directly from their
definitions, sharing no scoring code with the library: candidates are
scored one doc at a time with explicit loops, floating-point addends
are combined with math.fsum, and BLEU is recounted from raw n-grams.
The tests compare library output against these.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from pathlib import Path

import numpy as np

from tsr import CaptionDoc, Hypothesis, IdfTable, KBestList, load_collection


class FixedIdf:
    """Idf provider backed by an explicit mapping, for hand fixtures."""

    def __init__(self, values: dict[str, float], default: float = 0.0):
        self.values = dict(values)
        self.default = default

    def idf(self, term: str) -> float:
        return self.values.get(term, self.default)


class ScaledIdf:
    """Wraps another idf provider, scaling every weight by a constant."""

    def __init__(self, base, factor: float):
        self.base = base
        self.factor = factor

    def idf(self, term: str) -> float:
        return self.factor * self.base.idf(term)


def random_idf_table(rng: np.random.Generator, terms) -> IdfTable:
    """Idf table with a distinct document frequency per term, so distinct
    terms never share a weight and score ties are structural."""
    terms = sorted(terms)
    dfs = rng.choice(np.arange(1, 10001), size=len(terms), replace=False)
    return IdfTable(10001, {t: int(df) for t, df in zip(terms, dfs)})


def oracle_index(docs) -> dict:
    """A collection's index recomputed from its definition: term ids in
    order of first appearance over each doc's sorted types, each CSR row
    holding its doc's term ids ascending, type counts, each caption id's
    rank in sorted order and category sets numbered by first appearance
    (-1 for an unannotated doc)."""
    vocab: dict[str, int] = {}
    rows = []
    for doc in docs:
        types = sorted(set(doc.tokens))
        for term in types:
            if term not in vocab:
                vocab[term] = len(vocab)
        rows.append(sorted(vocab[term] for term in types))
    ids = sorted(doc.caption_id for doc in docs)
    groups: dict[frozenset, int] = {}
    return {
        "vocab": vocab,
        "indices": [tid for row in rows for tid in row],
        "indptr": [0] + list(itertools.accumulate(len(row) for row in rows)),
        "type_counts": [len(row) for row in rows],
        "caption_rank": [ids.index(doc.caption_id) for doc in docs],
        "cat_group": [
            -1 if doc.categories is None
            else groups.setdefault(doc.categories, len(groups))
            for doc in docs
        ],
    }


def oracle_score_txt(doc: CaptionDoc, hyps, idf) -> float:
    types = set(doc.tokens)
    addends = [
        idf.idf(tok) for hyp in hyps for tok in hyp.tokens if tok in types
    ]
    return math.fsum(addends) / len(types)


def oracle_distance(a, b) -> float:
    return math.sqrt(math.fsum((x - y) ** 2 for x, y in zip(a, b)))


def oracle_retrieve(
    docs,
    feats_map: dict[str, list[float]],
    idf,
    hyps,
    query_image,
    query_categories,
    mode: str,
    k_n: int,
    k_m: int,
    b: float,
    d: float,
):
    """Score every doc directly; returns ([(caption_id, score)], fallback)."""
    hyps = hyps[:k_n]
    query_types = {tok for hyp in hyps for tok in hyp.tokens}

    def txt(doc):
        return oracle_score_txt(doc, hyps, idf)

    def dist(image_id):
        return oracle_distance(feats_map[image_id], feats_map[query_image])

    used_fallback = False
    if mode == "txt":
        scored = [(doc, txt(doc)) for doc in docs]
    elif mode == "cnn":
        candidates = [doc for doc in docs if set(doc.tokens) & query_types]
        reachable = query_image is not None and query_image in feats_map
        if not reachable or not any(
            doc.image_id in feats_map and dist(doc.image_id) < d
            for doc in candidates
        ):
            used_fallback = True
            scored = [(doc, txt(doc)) for doc in docs]
        else:
            scored = [
                (
                    doc,
                    txt(doc) * math.exp(-b * dist(doc.image_id))
                    if doc.image_id in feats_map and dist(doc.image_id) < d
                    else 0.0,
                )
                for doc in docs
            ]
    elif mode == "hca":
        qc = (
            frozenset(query_categories)
            if query_categories is not None
            else None
        )
        scored = [
            (
                doc,
                txt(doc)
                if qc is not None and doc.categories == qc
                else 0.0,
            )
            for doc in docs
        ]
        if not any(s > 0 for _, s in scored):
            used_fallback = True
            scored = [(doc, txt(doc)) for doc in docs]
    else:
        raise ValueError(mode)

    kept = [(doc.caption_id, s) for doc, s in scored if s > 0.0]
    kept.sort(key=lambda pair: (-pair[1], pair[0]))
    return kept[:k_m], used_fallback


def oracle_relevance(tokens, match_docs, idf) -> float:
    total = sum(len(doc.tokens) for doc in match_docs)
    if total == 0:
        return 0.0
    addends = [
        idf.idf(tok)
        for doc in match_docs
        for tok in tokens
        if tok in set(doc.tokens)
    ]
    return math.fsum(addends) / total


def oracle_select(hyps, match_docs, idf, k_r: int, interp_weight: float):
    """Returns (decoder_rank, combined, relevance) of the argmax."""
    best = None
    for rank, hyp in enumerate(hyps[:k_r], start=1):
        rel = oracle_relevance(hyp.tokens, match_docs, idf)
        combined = hyp.decoder_score + interp_weight * rel
        if best is None or combined > best[1]:
            best = (rank, combined, rel)
    return best


def oracle_bleu_row(hyp, ref) -> list[int]:
    """Ten sufficient statistics: 4 clipped matches, 4 totals, lengths."""
    row = []
    totals = []
    for n in range(1, 5):
        hgrams = [tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1)]
        rcounts = Counter(
            tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)
        )
        clipped = sum(
            min(c, rcounts.get(g, 0)) for g, c in Counter(hgrams).items()
        )
        row.append(clipped)
        totals.append(len(hgrams))
    return row + totals + [len(hyp), len(ref)]


def oracle_bleu(rows) -> float:
    v = [sum(col) for col in zip(*rows)]
    if v[8] == 0:
        return 0.0
    acc = 0.0
    for n in range(4):
        if v[n] == 0 or v[4 + n] == 0:
            return 0.0
        acc += math.log(v[n] / v[4 + n]) / 4
    return min(1.0, math.exp(1 - v[9] / v[8])) * math.exp(acc)


def oracle_exhaustive_p(pairs_a, pairs_b) -> float:
    """Exact randomization p-value by enumerating all swap patterns."""
    rows_a = [oracle_bleu_row(h, r) for h, r in pairs_a]
    rows_b = [oracle_bleu_row(h, r) for h, r in pairs_b]
    observed = abs(oracle_bleu(rows_a) - oracle_bleu(rows_b))
    n = len(rows_a)
    count = 0
    for mask in itertools.product([False, True], repeat=n):
        swapped_a = [b if m else a for a, b, m in zip(rows_a, rows_b, mask)]
        swapped_b = [a if m else b for a, b, m in zip(rows_a, rows_b, mask)]
        if abs(oracle_bleu(swapped_a) - oracle_bleu(swapped_b)) >= observed:
            count += 1
    return count / 2 ** n


def oracle_approx_randomization(pairs_a, pairs_b, trials: int, seed: int):
    """approx_randomization's p-value one trial at a time: the same
    spawned generator and mask per trial, each swapped corpus recounted
    from its rows."""
    rows_a = [oracle_bleu_row(h, r) for h, r in pairs_a]
    rows_b = [oracle_bleu_row(h, r) for h, r in pairs_b]
    observed = abs(oracle_bleu(rows_a) - oracle_bleu(rows_b))
    exceed = 0
    for child in np.random.SeedSequence(seed).spawn(trials):
        mask = np.random.default_rng(child).random(len(rows_a)) < 0.5
        swapped_a = [b if m else a for a, b, m in zip(rows_a, rows_b, mask)]
        swapped_b = [a if m else b for a, b, m in zip(rows_a, rows_b, mask)]
        if abs(oracle_bleu(swapped_a) - oracle_bleu(swapped_b)) >= observed:
            exceed += 1
    return (exceed + 1) / (trials + 1)


def assert_same_collection(a, b) -> None:
    """a and b hold the same docs, index and all: caption ids and image
    table, vocab and token counts (offsets), the matrix's arrays, and
    each doc's category group, which names the same set in both."""
    assert a.caption_ids == b.caption_ids
    assert a.images == b.images
    assert np.array_equal(a.image_code, b.image_code)
    assert a.vocab == b.vocab
    assert np.array_equal(a.offsets, b.offsets)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a.matrix, name), getattr(b.matrix, name))
    assert np.array_equal(a.cat_group, b.cat_group)
    for coll, other in ((a, b), (b, a)):
        sets = {group: labels for labels, group in coll._cat_groups.items()}
        for group in coll.cat_group.tolist():
            if group >= 0:
                assert other.category_group(sets[group]) == group


def both_loads(path) -> list:
    """load_collection(path) by both routes: the load that parses the
    file and writes its sidecar, then one that adopts that sidecar and
    leaves it as it is (a rewrite would replace the file)."""
    sidecar = Path(f"{path}.tsr-index.npz")
    sidecar.unlink(missing_ok=True)
    parsed = load_collection(path)
    written = sidecar.stat().st_ino
    adopted = load_collection(path)
    assert sidecar.stat().st_ino == written
    return [parsed, adopted]


def float32_exact(values) -> list[float]:
    """Round components to float32 so library-side float32 storage is
    lossless and oracle distances see identical operands."""
    return [float(np.float32(x)) for x in values]


def random_collection(
    rng: np.random.Generator,
    n_docs: int,
    vocab: list[str],
    dim: int,
    category_pool: list[str],
    feature_coverage: float = 0.8,
    category_coverage: float = 0.7,
):
    """Random docs plus a feature map; returns (docs, feats_map)."""
    n_images = max(1, n_docs // 3)
    images = [f"img{i:05d}" for i in range(n_images)]
    docs = []
    for i in range(n_docs):
        length = int(rng.integers(2, 9))
        tokens = tuple(rng.choice(vocab, size=length))
        categories = None
        if category_pool and rng.random() < category_coverage:
            k = int(rng.integers(1, min(3, len(category_pool)) + 1))
            categories = frozenset(
                rng.choice(category_pool, size=k, replace=False)
            )
        docs.append(
            CaptionDoc(
                f"cap{i:05d}",
                images[int(rng.integers(0, n_images))],
                tokens,
                categories,
            )
        )
    feats_map = {
        img: float32_exact(rng.uniform(0.0, 1.0, size=dim))
        for img in images
        if rng.random() < feature_coverage
    }
    return docs, feats_map


def with_copies(rng: np.random.Generator, docs, n_copies: int) -> list:
    """docs plus n_copies copies of randomly drawn docs under new caption
    ids: a copy scores exactly what its original scores in every mode,
    so tie groups form that selection must order by caption id."""
    copies = []
    for j in range(n_copies):
        doc = docs[int(rng.integers(0, len(docs)))]
        copies.append(
            CaptionDoc(f"copy{j:05d}", doc.image_id, doc.tokens, doc.categories)
        )
    return list(docs) + copies


def random_kbest(
    rng: np.random.Generator,
    sent_id: str,
    vocab: list[str],
    n_hyps: int,
    unseen_rate: float = 0.1,
) -> KBestList:
    hyps = []
    seen = set()
    scores = np.sort(rng.uniform(-20.0, -1.0, size=n_hyps))[::-1]
    for j in range(n_hyps):
        length = int(rng.integers(2, 9))
        tokens = []
        for _ in range(length):
            if rng.random() < unseen_rate:
                tokens.append(f"unseen{int(rng.integers(0, 20)):02d}")
            else:
                tokens.append(str(rng.choice(vocab)))
        tokens = tuple(tokens)
        if tokens in seen:
            continue
        seen.add(tokens)
        hyps.append(Hypothesis(tokens, float(scores[j])))
    return KBestList(sent_id, hyps)
