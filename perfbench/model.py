"""Expected outputs of each workload, computed without the program.

This is the benchmark's own statement of the README's formulas over
the generator's token-id arrays (``gen.py``): txt/cnn/hca retrieval
with the fallback rules and the caption-id tie-break, idf-weighted
reranking, corpus BLEU, the step-wise tuner and the approximate
randomization test. It shares no code with ``tsr``; the benchmark's
tests check it against the repository's pure-Python oracles on small
instances, and ``run.py`` checks every program output against it.

Scores are summed in another order than the program's, so floats are
compared with a relative tolerance and a hypothesis choice within
that tolerance of a tie accepts either side.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from gen import idf_weights

RTOL = 1e-9
RETRIEVAL = {"txt": (300, 500), "cnn": (300, 300), "hca": (300, 500)}
RERANK = {"txt": (5, 5e4), "cnn": (5, 70e4), "hca": (5, 10e4)}
DISTANCE_WEIGHT = 0.01
DISTANCE_CUTOFF = 90.0


def _rows(flat: np.ndarray, off: np.ndarray) -> list[list[int]]:
    return [flat[off[i] : off[i + 1]].tolist() for i in range(len(off) - 1)]


class Corpus:
    """Collection, idf and k-best lists of one generated instance."""

    def __init__(self, arrays: dict):
        self.a = arrays
        off = arrays["doc_off"]
        self.n = len(off) - 1
        self.w = idf_weights(arrays)
        vocab = len(self.w)
        doc_of = np.repeat(np.arange(self.n), np.diff(off))
        key = np.sort(doc_of * vocab + arrays["doc_flat"])
        key = key[np.r_[True, key[1:] != key[:-1]]]
        # Distinct (doc, word) pairs, grouped by doc.
        self.pair_doc = key // vocab
        self.pair_word = key % vocab
        self.pair_off = np.searchsorted(self.pair_doc, np.arange(self.n + 1))
        self.ntypes = np.diff(self.pair_off).astype(np.float64)
        self.ntokens = np.diff(off)
        ids = np.array([f"c{j}" for j in range(self.n)])
        self.rank = np.empty(self.n, dtype=np.int64)
        self.rank[np.argsort(ids, kind="stable")] = np.arange(self.n)
        self.image = arrays["doc_image"]
        self.kbests = self.kbest_lists(arrays)
        self.refs = _rows(arrays["ref_flat"], arrays["ref_off"])
        if "feat_q" in arrays:
            self.feats = (arrays["feat_q"] / 100).astype(np.float32).astype(np.float64)
            self.has_feat = arrays["has_feat"]

    @staticmethod
    def kbest_lists(arrays: dict) -> list[list[tuple[list[int], float]]]:
        """Per sentence, its (token ids, decoder score) hypotheses."""
        hyps = _rows(arrays["kb_flat"], arrays["kb_off"])
        scores = arrays["kb_scores"].tolist()
        lists, start = [], 0
        for count in arrays["kb_count"].tolist():
            lists.append(list(zip(hyps[start : start + count], scores[start : start + count])))
            start += count
        return lists

    # -- retrieval -------------------------------------------------------

    def query_counts(self, s: int, k_n: int) -> np.ndarray:
        toks = [t for hyp, _ in self.kbests[s][:k_n] for t in hyp]
        return np.bincount(toks, minlength=len(self.w)).astype(np.float64)

    def txt_scores(self, counts: np.ndarray) -> np.ndarray:
        qv = counts * self.w
        raw = np.bincount(self.pair_doc, weights=qv[self.pair_word], minlength=self.n)
        return raw / self.ntypes

    def select(self, scores: np.ndarray, k_m: int) -> tuple[np.ndarray, int]:
        """Top k_m positive docs by (-score, caption id), and the size of
        the tie group at the k_m-th score."""
        pos = np.flatnonzero(scores > 0.0)
        if pos.size > k_m:
            # Everything scoring at least the k_m-th largest score, so the
            # caption-id tie-break below sees every tied caption.
            kth = np.partition(scores[pos], pos.size - k_m)[pos.size - k_m]
            near = pos[scores[pos] >= kth * (1 - RTOL)]
        else:
            near = pos
        order = np.lexsort((self.rank[near], -scores[near]))
        top = near[order[:k_m]]
        ties = 0
        if top.size:
            last = scores[top[-1]]
            ties = int(np.count_nonzero(np.abs(scores[near] - last) <= RTOL * last))
        return top, ties

    def retrieve(self, s: int, mode: str, k_n: int, k_m: int) -> dict:
        counts = self.query_counts(s, k_n)
        s_txt = self.txt_scores(counts)
        scores, fallback = s_txt, False
        if mode == "cnn":
            gated = self._cnn(counts, s_txt, int(self.a["query_image"][s]))
            scores, fallback = (s_txt, True) if gated is None else (gated, False)
        elif mode == "hca":
            qcats = int(self.a["query_cats"][s])
            gated = None
            if qcats >= 0:
                gated = np.where(self.a["doc_cats"][self.image] == qcats, s_txt, 0.0)
            if gated is None or not np.any(gated > 0.0):
                fallback = True
            else:
                scores = gated
        top, ties = self.select(scores, k_m)
        return {
            "top": top,
            "fallback": fallback,
            "positive": int(np.count_nonzero(scores > 0.0)),
            "ties": ties,
            "types": int(np.count_nonzero(counts)),
        }

    def _cnn(self, counts, s_txt, qimg: int):
        if qimg < 0 or not self.has_feat[qimg]:
            return None
        hit = np.bincount(
            self.pair_doc, weights=(counts > 0)[self.pair_word], minlength=self.n
        )
        cand = (hit > 0) & self.has_feat[self.image]
        diffs = self.feats - self.feats[qimg]
        dist = np.sqrt(np.sum(diffs * diffs, axis=1))[self.image]
        within = cand & (dist < DISTANCE_CUTOFF)
        if not np.any(within):
            return None
        scores = np.zeros(self.n)
        scores[within] = s_txt[within] * np.exp(-DISTANCE_WEIGHT * dist[within])
        return scores

    # -- reranking -------------------------------------------------------

    def rerank(self, s: int, top: np.ndarray, k_r: int, interp: float) -> dict:
        """Chosen hypothesis index, every index within RTOL of it, and
        the chosen relevance."""
        mult = np.zeros(len(self.w))
        total = 0
        if top.size:
            words = np.concatenate(
                [self.pair_word[self.pair_off[d] : self.pair_off[d + 1]] for d in top]
            )
            mult = np.bincount(words, minlength=len(self.w)).astype(np.float64)
            total = int(self.ntokens[top].sum())
        combined, rels = [], []
        for hyp, dec in self.kbests[s][:k_r]:
            rel = 0.0
            if total:
                c = np.bincount(hyp, minlength=len(self.w))
                rel = float(np.dot(c * mult, self.w)) / total
            rels.append(rel)
            combined.append(dec + interp * rel)
        best = max(combined)
        tol = RTOL * max(1.0, abs(best))
        first = combined.index(best)
        near = [i for i, v in enumerate(combined) if best - v <= tol]
        return {"chosen": first, "accept": near, "relevance": rels[first]}


# -- BLEU and significance ----------------------------------------------


def bleu_row(hyp, ref) -> tuple[int, ...]:
    matches, totals = [], []
    for n in range(1, 5):
        h = Counter(tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1))
        r = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
        matches.append(sum(min(c, r[g]) for g, c in h.items()))
        totals.append(sum(h.values()))
    return (*matches, *totals, len(hyp), len(ref))


def bleu(v) -> float:
    """Corpus BLEU of summed statistics, evaluated in the documented
    order so equal statistics give equal floats."""
    if v[8] == 0:
        return 0.0
    acc = 0.0
    for n in range(4):
        m, t = int(v[n]), int(v[4 + n])
        if m == 0 or t == 0:
            return 0.0
        acc += math.log(m / t) / 4
    return min(1.0, math.exp(1.0 - int(v[9]) / int(v[8]))) * math.exp(acc)


def p_value(rows_a: np.ndarray, rows_b: np.ndarray, trials: int, seed: int) -> float:
    """Approximate randomization with one PCG64 stream per trial,
    spawned from SeedSequence(seed), as the README specifies."""
    sum_a, sum_b = rows_a.sum(axis=0), rows_b.sum(axis=0)
    observed = abs(bleu(sum_a) - bleu(sum_b))
    delta = rows_b - rows_a
    n = len(rows_a)
    exceed = 0
    for child in np.random.SeedSequence(seed).spawn(trials):
        shift = delta[np.random.default_rng(child).random(n) < 0.5].sum(axis=0)
        exceed += abs(bleu(sum_a + shift) - bleu(sum_b - shift)) >= observed
    return (exceed + 1) / (trials + 1)


# -- whole-workload expectations ----------------------------------------


@dataclass
class Sentence:
    chosen: int
    accept: list[int]
    relevance: float
    fallback: bool
    positive: int
    ties: int
    types: int


def expect_pipeline(corpus: Corpus, mode: str) -> dict:
    """Per-sentence expectations of ``tsr pipeline`` at the mode's
    defaults, the BLEU of its output, and the p-value of comparing it
    with the decoder 1-best baseline."""
    k_n, k_m = RETRIEVAL[mode]
    k_r, interp = RERANK[mode]
    sentences = []
    for s in range(len(corpus.kbests)):
        ret = corpus.retrieve(s, mode, k_n, k_m)
        rr = corpus.rerank(s, ret["top"], k_r, interp)
        sentences.append(
            Sentence(
                rr["chosen"], rr["accept"], rr["relevance"], ret["fallback"],
                ret["positive"], ret["ties"], ret["types"],
            )
        )
    out = [corpus.kbests[s][x.chosen][0] for s, x in enumerate(sentences)]
    base = [kb[0][0] for kb in corpus.kbests]
    rows_out = np.array([bleu_row(h, r) for h, r in zip(out, corpus.refs)])
    rows_base = np.array([bleu_row(h, r) for h, r in zip(base, corpus.refs)])
    return {
        "sentences": sentences,
        "bleu": bleu(rows_out.sum(axis=0)),
        "compare": _compare(rows_out, rows_base),
    }


def _compare(rows_a, rows_b, trials: int = 10000, seed: int = 1) -> dict:
    return {
        "bleu_a": bleu(rows_a.sum(axis=0)),
        "bleu_b": bleu(rows_b.sum(axis=0)),
        "p": p_value(rows_a, rows_b, trials, seed),
    }


def expect_tune(corpus: Corpus, grid: dict) -> dict:
    """Best point and BLEU of the step-wise hca sweep, and the p-value
    of the two fixed compare systems."""
    sweep = [(k, grid[k]) for k in ("k_n", "k_m", "k_r", "interp_weight")]
    current = {k: v[0] for k, v in sweep}
    cache: dict[tuple, list] = {}
    stats: dict[tuple, tuple] = {}
    n = len(corpus.kbests)

    def evaluate(point) -> float:
        key = (point["k_n"], point["k_m"])
        if key not in cache:
            cache[key] = [
                corpus.retrieve(s, "hca", int(key[0]), int(key[1])) for s in range(n)
            ]
        total = np.zeros(10, dtype=np.int64)
        for s, ret in enumerate(cache[key]):
            x = corpus.rerank(s, ret["top"], int(point["k_r"]), point["interp_weight"])["chosen"]
            if (s, x) not in stats:
                stats[s, x] = bleu_row(corpus.kbests[s][x][0], corpus.refs[s])
            total += stats[s, x]
        return bleu(total)

    best_bleu = None
    trace = []
    for name, values in sweep:
        swept, swept_bleu = None, None
        for value in values:
            score = evaluate(dict(current, **{name: value}))
            trace.append(score)
            if swept is None or score > swept_bleu or (score == swept_bleu and value < swept):
                swept, swept_bleu = value, score
        current[name] = swept
        best_bleu = swept_bleu

    a = corpus.a
    ref = _rows(a["cmp_ref"], a["cmp_off"])
    rows = [
        np.array([bleu_row(h, r) for h, r in zip(_rows(a[k], a["cmp_off"]), ref)])
        for k in ("cmp_a", "cmp_b")
    ]
    widest = max(cache, key=lambda k: k[1])
    return {
        "best": dict(current, bleu=best_bleu),
        "retrieval": [
            {k: r[k] for k in ("positive", "ties", "types")} for r in cache[widest]
        ],
        "points": len(trace),
        "trace": trace,
        "keys": len(cache),
        "compare": _compare(*rows),
    }
