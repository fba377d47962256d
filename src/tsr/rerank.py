"""Hypothesis reranking against retrieved caption matches.

Each rerank candidate r (one of the first k_r decoder hypotheses) gets
a relevance score: the idf weight of every r token that is a type of a
retrieved caption, summed over all retrieved captions, normalized by
the total token count of the retrieved captions. The winner maximizes

    decoder_score(r) + interp_weight * relevance(r)

with ties going to the hypothesis the decoder ranked higher. Captions
are read from the index of the Retriever that returned the matches.

Relevance for all k_r candidates is one array pass over the matched
captions' types, in match order and each caption's types in string
order: term counts from the Retriever's counting step times the type
weights, summed strictly left to right by np.add.accumulate. That is
the order of the loop that defined the scores; np.sum (pairwise) or
``@`` (BLAS order) would change the last bits diagnostics files print.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .retrieval import (
    Hypothesis,
    KBestList,
    MatchList,
    Retriever,
    checked_row,
    check_weight,
)
from .textcore import (
    check_count,
    check_not_str,
    each_sentence_once,
    joined_line,
    write_lines,
)


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
    used_fallback: bool  # the match list's flag: retrieval fell back


def relevance_scores(
    token_lists: Sequence[Sequence[str]],
    matches: MatchList,
    retriever: Retriever,
) -> list[float]:
    """Normalized idf overlap of each token sequence with a match list.

    Every (retrieved caption, caption type, query token) triple where
    the type equals the token contributes idf(type); the total is
    divided by the summed token count of the retrieved captions. An
    empty match list scores 0, so reranking degenerates gracefully to
    the decoder order, and no token sequences get no scores. A type a
    sequence lacks adds an exact 0.0, which leaves a non-negative sum's
    bits as they are.
    """
    return prefix_relevances(
        token_lists, matches, retriever, [len(matches.matches)]
    )[0]


def prefix_relevances(
    token_lists: Sequence[Sequence[str]],
    matches: MatchList,
    retriever: Retriever,
    sizes: Sequence[int],
) -> list[list[float]]:
    """relevance_scores of token_lists against the first size matches,
    for each size in sizes (all of them when size exceeds the list).

    The prefixes share one pass: the accumulated sum over all matches
    already holds a prefix's numerator at the last type of its last
    caption, since captions are summed in match order.
    """
    check_not_str("token_lists", token_lists)
    coll = retriever.coll
    size, pairs = len(coll), matches.matches
    rows = np.fromiter((checked_row(r, s, size) for r, s in pairs), np.int64)
    ends = np.minimum(sizes, rows.size)
    lengths = coll.offsets[rows + 1] - coll.offsets[rows]
    totals = np.concatenate(([0], np.cumsum(lengths)))[ends]
    if totals.max(initial=0) == 0 or not token_lists:
        return [[0.0] * len(token_lists) for _ in ends]
    types = coll.matrix[rows]
    caption = np.repeat(np.arange(rows.size), np.diff(types.indptr))
    key = caption * len(coll.vocab) + coll.term_rank[types.indices]
    ordered = types.indices[np.argsort(key, kind="stable")]
    # Gathered one list at a time: no k_r-by-vocabulary matrix.
    counts = np.array([retriever.term_counts(t)[ordered] for t in token_lists])
    addends = counts * retriever.weights[ordered]
    sums = np.add.accumulate(addends, axis=1)
    return [
        (sums[:, last] / total).tolist() if total else [0.0] * len(token_lists)
        for total, last in zip(totals.tolist(), types.indptr[ends] - 1)
    ]


def select_best(
    rbest: KBestList,
    matches: MatchList,
    retriever: Retriever,
    params: RerankParams | None = None,
    relevances: Sequence[float] | None = None,
) -> RerankedOutput:
    """Pick the hypothesis maximizing decoder score plus weighted
    relevance over the first k_r hypotheses; earlier decoder rank wins
    ties. matches must pass checked_row on retriever's collection.
    relevances, when given, are those hypotheses' relevances computed
    by the caller (tune passes those against a prefix of matches);
    matches then gives only its fallback flag."""
    if params is None:
        params = RerankParams()
    hyps = rbest.hyps[: params.k_r]
    if relevances is None:
        tokens = [hyp.tokens for hyp in hyps]
        relevances = relevance_scores(tokens, matches, retriever)
    elif len(relevances) != len(hyps):
        raise ValueError(
            f"{len(relevances)} relevances for {len(hyps)} hypotheses"
        )
    best: RerankedOutput | None = None
    for rank, (hyp, rel) in enumerate(zip(hyps, relevances), start=1):
        combined = hyp.decoder_score + params.interp_weight * rel
        if best is None or combined > best.combined_score:
            best = RerankedOutput(
                rbest.sent_id, hyp, combined, rel, rank, matches.used_fallback
            )
    return best


def write_output(outputs: Iterable[RerankedOutput], path) -> None:
    """Write chosen hypotheses, one ``sent_id ||| tokens`` line each, as
    read_sentence_file reads them. A sentence written twice, or whose id
    or tokens would read back as other data, fails naming it, and no
    file is left behind."""

    def lines():
        for out in each_sentence_once(outputs):
            text = " ".join(out.chosen.tokens)
            same = tuple(text.split()) == out.chosen.tokens
            what = f"sentence {out.sent_id!r}"
            yield joined_line([out.sent_id, text], " ||| ", what, same)

    write_lines(path, lines())


def write_diagnostics(outputs: Iterable[RerankedOutput], path) -> None:
    """Write per-sentence rerank diagnostics: decoder rank of the chosen
    hypothesis, its combined and relevance scores, and whether retrieval
    fell back to text-only scoring. A sentence written twice, or a
    sent_id holding `` ||| `` or a line break, fails and leaves no
    file."""

    def lines():
        for out in each_sentence_once(outputs):
            fields = [
                out.sent_id,
                str(out.decoder_rank_of_chosen),
                repr(out.combined_score),
                repr(out.relevance),
                str(int(out.used_fallback)),
            ]
            yield joined_line(fields, " ||| ", f"sentence {out.sent_id!r}")

    write_lines(path, lines())
