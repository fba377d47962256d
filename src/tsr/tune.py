"""Step-wise exhaustive hyperparameter search maximizing corpus BLEU.

The search sweeps one parameter at a time in the fixed order k_n, k_m,
k_r, interp_weight, and finally distance_cutoff (cnn mode only, and
only when a candidate list for it is given). For each parameter, every
candidate is evaluated with the other parameters held at their current
incumbents; the best candidate (ties going to the smaller value)
becomes the new incumbent before the next sweep starts. Initial
incumbents are the first element of each candidate list, so a sweep
always re-evaluates the incumbent configuration and the incumbent BLEU
never decreases; the final incumbent therefore attains the maximum over
the whole trace.

Each piece of work is done once and reused by every point that needs
it, with the same bits as a point evaluated from scratch:

* The collection is indexed once, by the Retriever the dev set holds
  (the command line's loader builds it); the search builds none.
* Sentences are retrieved once per (k_n, distance_cutoff), at the
  grid's largest k_m. Selection is a total order (score descending,
  then caption id) and the fallback does not depend on k_m, so the
  match list of a smaller k_m is a prefix of that retrieval.
* Relevance is computed once per retrieval, for the first max(k_r)
  hypotheses and every k_m of the grid. Captions are summed in match
  order, so one accumulated sum over the retrieval holds each k_m's
  numerator at the last type of its k_m-th caption. Each hypothesis's
  relevance is computed on its own, so the first k_r of them are what
  select_best would compute for k_r.
* A hypothesis's BLEU statistics row never changes across points; it
  is computed when a point first chooses the hypothesis.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from .evalsig import bleu_score, bleu_stats
from .rerank import RerankParams, prefix_relevances, select_best
from .retrieval import (
    MODES,
    KBestList,
    MatchList,
    Query,
    Retriever,
    RetrievalParams,
    retrieve_sentence,
)

PARAMS = (RetrievalParams, RerankParams)
_DECLARED_BY = {f.name: cls for cls in PARAMS for f in fields(cls)}


@dataclass
class GridSpec:
    """Ordered candidate lists, one per swept parameter, the scalar
    distance_weight every cnn retrieval uses, and the retrieval mode.
    distance_cutoff may be omitted; providing it outside cnn mode is an
    error. Each value must pass the rule of the params class that
    declares its field."""

    k_n: list[int]
    k_m: list[int]
    k_r: list[int]
    interp_weight: list[float]
    distance_cutoff: list[float] | None = None
    distance_weight: float = RetrievalParams.distance_weight
    mode: str = "txt"

    def __post_init__(self):
        RetrievalParams(distance_weight=self.distance_weight)
        for name, values in self.sweep():
            if not isinstance(values, list):
                raise ValueError(
                    f"{name} must be a list of candidates, got {values!r}"
                )
            if not values:
                raise ValueError(f"empty candidate list for {name}")
            for value in values:
                _DECLARED_BY[name](**{name: value})
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.distance_cutoff is not None and self.mode != "cnn":
            raise ValueError("distance_cutoff can only be swept in cnn mode")

    def sweep(self) -> list[tuple[str, list]]:
        """(name, candidates) in sweep order; an omitted distance_cutoff
        is not swept."""
        return [
            (f.name, getattr(self, f.name))
            for f in fields(self)
            if f.name not in ("distance_weight", "mode")
            and (f.default is MISSING or getattr(self, f.name) is not None)
        ]


@dataclass
class DevSet:
    """Everything one tuning evaluation needs: the Retriever over the
    collection, its idf table and (cnn) features, the k-best lists,
    references aligned positionally with them, and per-sentence query
    metadata."""

    retriever: Retriever
    kbests: list[KBestList]
    references: list[list[str]]
    queries: dict[str, Query] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.kbests) != len(self.references):
            raise ValueError(
                f"{len(self.kbests)} k-best lists but"
                f" {len(self.references)} references"
            )
        if not self.kbests:
            raise ValueError("empty dev set")


@dataclass
class TuneResult:
    retrieval_params: RetrievalParams
    rerank_params: RerankParams
    best_bleu: float
    trace: list[tuple[dict[str, float], float]]


def stepwise_search(grid: GridSpec, dev: DevSet) -> TuneResult:
    """Run the step-wise sweep in the grid's mode with dev's Retriever;
    return incumbents, their BLEU, and the full (parameters, BLEU) trace
    in evaluation order."""
    depth = max(len(kb.hyps) for kb in dev.kbests)
    if depth < max(grid.k_n):
        raise ValueError(
            f"k-best depth {depth} is shallower than max k_n {max(grid.k_n)}"
        )

    sweep = grid.sweep()
    current: dict[str, float] = {name: values[0] for name, values in sweep}
    current.setdefault("distance_cutoff", RetrievalParams.distance_cutoff)

    def params_at(point: dict[str, float]):
        values = {"distance_weight": grid.distance_weight, **point}
        return tuple(
            cls(**{f.name: values[f.name] for f in fields(cls)})
            for cls in PARAMS
        )

    retriever, mode = dev.retriever, grid.mode
    top_k_m, top_k_r = max(grid.k_m), max(grid.k_r)
    # Per retrieval at the grid's largest k_m: each sentence's matches
    # and, per k_m, the relevances of its first max(k_r) hypotheses
    ranked: dict[RetrievalParams, list[tuple[MatchList, dict]]] = {}
    # Per sentence: decoder rank -> BLEU statistics row of that hypothesis
    stats: list[dict[int, np.ndarray]] = [{} for _ in dev.kbests]

    def evaluate(point: dict[str, float]) -> float:
        rparams, params = params_at(point)
        key = replace(rparams, k_m=top_k_m)
        sentences = ranked.get(key)
        if sentences is None:
            sentences = ranked[key] = []
            for kb in dev.kbests:
                ml = retrieve_sentence(retriever, dev.queries, mode, key, kb)
                tokens = [hyp.tokens for hyp in kb.hyps[:top_k_r]]
                rels = prefix_relevances(tokens, ml, retriever, grid.k_m)
                sentences.append((ml, dict(zip(grid.k_m, rels))))
        chosen = []
        for kb, (ml, rels), ref, known in zip(
            dev.kbests, sentences, dev.references, stats
        ):
            relevances = rels[rparams.k_m][: params.k_r]
            out = select_best(kb, ml, retriever, params, relevances)
            rank = out.decoder_rank_of_chosen
            if rank not in known:
                known[rank] = bleu_stats([out.chosen.tokens], [ref])[0]
            chosen.append(known[rank])
        return bleu_score(np.sum(chosen, axis=0))

    trace: list[tuple[dict[str, float], float]] = []
    for name, values in sweep:
        scored = []
        for value in values:
            point = {**current, name: value}
            bleu = evaluate(point)
            trace.append((point, bleu))
            scored.append((bleu, -value))
        # the best BLEU, ties going to the smaller value
        best_bleu, negated = max(scored)
        current[name] = -negated

    return TuneResult(*params_at(current), best_bleu, trace)
