"""Hypothesis reranking against retrieved caption matches.

Each rerank candidate r (one of the first k_r decoder hypotheses) gets
a relevance score: the idf weight of every r token that is a type of a
retrieved caption, summed over all retrieved captions, normalized by
the total token count of the retrieved captions. The winner maximizes

    decoder_score(r) + interp_weight * relevance(r)

with ties going to the hypothesis the decoder ranked higher. Captions
are read from the index of the Retriever that returned the matches.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from operator import add
from typing import Iterable, Sequence

import numpy as np

from .retrieval import (
    Hypothesis,
    KBestList,
    MatchList,
    Retriever,
    check_count,
    check_weight,
)
from .textcore import write_lines


@dataclass(frozen=True)
class RerankParams:
    """Rerank depth k_r and the decoder/relevance interpolation weight."""

    k_r: int = 5
    interp_weight: float = 5e4

    def __post_init__(self):
        check_count("k_r", self.k_r)
        check_weight("interp_weight", self.interp_weight)


RERANK_DEFAULTS = {
    "txt": RerankParams(),
    "cnn": RerankParams(interp_weight=70e4),
    "hca": RerankParams(interp_weight=10e4),
}


@dataclass
class RerankedOutput:
    sent_id: str
    chosen: Hypothesis
    combined_score: float
    relevance: float
    decoder_rank_of_chosen: int


def relevance_score(
    tokens: Sequence[str], matches: MatchList, retriever: Retriever
) -> float:
    """Normalized idf overlap between a token sequence and a match list.

    Every (retrieved caption, caption type, query token) triple where
    the type equals the token contributes idf(type); the total is
    divided by the summed token count of the retrieved captions. An
    empty match list scores 0, so reranking degenerates gracefully to
    the decoder order.
    """
    return _relevance(tokens, *_match_types(matches, retriever))


def _match_types(matches: MatchList, retriever: Retriever) -> tuple:
    """What relevance needs of a match list, for any hypothesis, read
    from the retriever's index: the vocabulary; each matched caption's
    type ids in term-string order, in match order; their weights; and
    the matched captions' summed token count."""
    coll = retriever.coll
    rows = np.array([row for row, _ in matches.matches], dtype=np.int64)
    types = coll.matrix[rows]
    caption = np.repeat(np.arange(rows.size), np.diff(types.indptr))
    key = caption * len(coll.vocab) + coll.term_rank[types.indices]
    ordered = types.indices[np.argsort(key, kind="stable")]
    terms = ordered.tolist()
    weight = dict(zip(terms, retriever.weights[ordered].tolist()))
    total_tokens = (coll.offsets[rows + 1] - coll.offsets[rows]).sum()
    return coll.vocab, terms, weight, int(total_tokens)


def _relevance(
    tokens: Sequence[str], vocab: dict, terms: list, weight: dict, total: int
) -> float:
    """relevance_score from _match_types' output. The addends are summed
    strictly left to right over the types in match order; a type the
    tokens lack adds an exact 0.0, which leaves the sum's bits as they
    are. (sum() may compensate rounding, so it is not used.)"""
    if total == 0:
        return 0.0
    addend = {
        term: count * weight[term]
        for term, count in Counter(map(vocab.get, tokens)).items()
        if term in weight
    }
    acc = reduce(add, map(addend.get, terms, repeat(0.0)), 0.0)
    return acc / total


def select_best(
    rbest: KBestList,
    matches: MatchList,
    retriever: Retriever,
    params: RerankParams | None = None,
) -> RerankedOutput:
    """Pick the hypothesis maximizing decoder score plus weighted
    relevance over the first k_r hypotheses; earlier decoder rank wins
    ties. matches are rows of retriever's collection."""
    if params is None:
        params = RerankParams()
    types = _match_types(matches, retriever)
    best: RerankedOutput | None = None
    for rank, hyp in enumerate(rbest.hyps[: params.k_r], start=1):
        rel = _relevance(hyp.tokens, *types)
        combined = hyp.decoder_score + params.interp_weight * rel
        if best is None or combined > best.combined_score:
            best = RerankedOutput(rbest.sent_id, hyp, combined, rel, rank)
    return best


def write_output(outputs: Iterable[RerankedOutput], path) -> None:
    """Write chosen hypotheses, one ``sent_id ||| tokens`` line each."""
    lines = (f"{o.sent_id} ||| {' '.join(o.chosen.tokens)}" for o in outputs)
    write_lines(path, lines)


def write_diagnostics(
    outputs: Iterable[tuple[RerankedOutput, bool]], path
) -> None:
    """Write per-sentence rerank diagnostics: decoder rank of the chosen
    hypothesis, its combined and relevance scores, and whether retrieval
    fell back to text-only scoring."""
    lines = (
        f"{out.sent_id} ||| {out.decoder_rank_of_chosen}"
        f" ||| {out.combined_score!r} ||| {out.relevance!r}"
        f" ||| {int(used_fallback)}"
        for out, used_fallback in outputs
    )
    write_lines(path, lines)
