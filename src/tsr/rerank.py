"""Hypothesis reranking against retrieved caption matches.

Each rerank candidate r (one of the first k_r decoder hypotheses) gets
a relevance score: the idf weight of every r token that is a type of a
retrieved caption, summed over all retrieved captions, normalized by
the total token count of the retrieved captions. The winner maximizes

    decoder_score(r) + interp_weight * relevance(r)

with ties going to the hypothesis the decoder ranked higher.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from operator import add
from typing import Iterable, Sequence

from .retrieval import (
    Hypothesis,
    KBestList,
    MatchList,
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
    tokens: Sequence[str], matches: MatchList, idf
) -> float:
    """Normalized idf overlap between a token sequence and a match list.

    Every (retrieved caption, caption type, query token) triple where
    the type equals the token contributes idf(type); the total is
    divided by the summed token count of the retrieved captions. An
    empty match list scores 0, so reranking degenerates gracefully to
    the decoder order.
    """
    return _relevance(tokens, *_match_types(matches, idf))


def _match_types(matches: MatchList, idf) -> tuple[list[str], dict, int]:
    """What relevance needs of a match list, for any hypothesis: each
    matched caption's sorted types, in match order; the idf weight of
    each type; and the summed token count of the matched captions."""
    types = [sorted(set(doc.tokens)) for doc, _ in matches.matches]
    weight = {term: idf.idf(term) for term in set().union(*types)}
    total_tokens = sum(len(doc.tokens) for doc, _ in matches.matches)
    return [term for row in types for term in row], weight, total_tokens


def _relevance(
    tokens: Sequence[str], terms: list[str], weight: dict, total_tokens: int
) -> float:
    """relevance_score from _match_types' output. The addends are summed
    strictly left to right over the types in match order; a type the
    tokens lack adds an exact 0.0, which leaves the sum's bits as they
    are. (sum() may compensate rounding, so it is not used.)"""
    if total_tokens == 0:
        return 0.0
    addend = {
        term: count * weight[term]
        for term, count in Counter(tokens).items()
        if term in weight
    }
    acc = reduce(add, map(addend.get, terms, repeat(0.0)), 0.0)
    return acc / total_tokens


def select_best(
    rbest: KBestList,
    matches: MatchList,
    idf,
    params: RerankParams | None = None,
) -> RerankedOutput:
    """Pick the hypothesis maximizing decoder score plus weighted
    relevance over the first k_r hypotheses; earlier decoder rank wins
    ties."""
    if params is None:
        params = RerankParams()
    types = _match_types(matches, idf)
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
