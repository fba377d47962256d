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

* Sentences are retrieved once per (k_n, distance_cutoff), at the
  grid's largest k_m. Selection is a total order (score descending,
  then caption id) and the fallback does not depend on k_m, so the
  match list of a smaller k_m is a prefix of that retrieval.
* Relevance is computed once per match list, for the first max(k_r)
  hypotheses. Each hypothesis's relevance is computed on its own, so
  the first k_r of them are what select_best would compute for k_r.
* A hypothesis's BLEU statistics never change across points; they are
  computed when a point first chooses it.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, replace

from .collection import Collection, FeatureStore
from .evalsig import BleuStats, bleu_score, bleu_stats, sum_stats
from .rerank import RerankParams, relevance_scores, select_best
from .retrieval import (
    KBestList,
    MatchList,
    Query,
    Retriever,
    RetrievalParams,
    cutoff_from_json,
    retrieve_sentence,
)

_PARAMS = (RetrievalParams, RerankParams)
_DECLARED_BY = {f.name: cls for cls in _PARAMS for f in fields(cls)}


@dataclass
class GridSpec:
    """Ordered candidate lists, one per swept parameter, plus the scalar
    distance_weight every cnn retrieval uses. distance_cutoff may be
    omitted; providing it outside cnn mode is an error. Each value must
    pass the rule of the params class that declares its field."""

    k_n: list[int]
    k_m: list[int]
    k_r: list[int]
    interp_weight: list[float]
    distance_cutoff: list[float] | None = None
    distance_weight: float = RetrievalParams.distance_weight

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

    @classmethod
    def from_dict(cls, spec: dict) -> GridSpec:
        """Build from a grid JSON object without its ``mode`` key,
        rejecting keys that are not fields and missing candidate lists;
        "inf" in the distance_cutoff list is no cutoff."""
        unknown = set(spec) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(
                f"unknown grid keys: {', '.join(sorted(unknown))}"
            )
        missing = {
            f.name for f in fields(cls) if f.default is MISSING
        } - set(spec)
        if missing:
            raise ValueError(
                f"grid is missing candidate lists: {', '.join(sorted(missing))}"
            )
        cutoffs = spec.get("distance_cutoff")
        if isinstance(cutoffs, list):
            cutoffs = list(map(cutoff_from_json, cutoffs))
            spec = {**spec, "distance_cutoff": cutoffs}
        return cls(**spec)

    def check_mode(self, mode: str) -> None:
        """Fail if the grid sweeps distance_cutoff outside cnn mode. An
        unknown mode is refused by cli._check_mode and Retriever.retrieve."""
        if self.distance_cutoff is not None and mode != "cnn":
            raise ValueError("distance_cutoff can only be swept in cnn mode")

    def sweep(self) -> list[tuple[str, list]]:
        """(name, candidates) in sweep order; an omitted distance_cutoff
        is not swept."""
        return [
            (f.name, getattr(self, f.name))
            for f in fields(self)
            if f.name != "distance_weight"
            and (f.default is MISSING or getattr(self, f.name) is not None)
        ]


@dataclass
class DevSet:
    """Everything one tuning evaluation needs: the collection bundle,
    k-best lists, per-sentence query metadata, and references aligned
    positionally with the k-best lists."""

    coll: Collection
    idf: object
    kbests: list[KBestList]
    references: list[list[str]]
    feats: FeatureStore | None = None
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


def stepwise_search(
    grid: GridSpec, dev: DevSet, mode: str = "txt"
) -> TuneResult:
    """Run the step-wise sweep and return incumbents, their BLEU, and
    the full (parameters, BLEU) trace in evaluation order."""
    grid.check_mode(mode)
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
            for cls in _PARAMS
        )

    retriever = Retriever(dev.coll, dev.idf, dev.feats)
    top_k_m, top_k_r = max(grid.k_m), max(grid.k_r)
    retrieved: dict[RetrievalParams, list[MatchList]] = {}
    # Per match list: each sentence's (matches, first max(k_r) relevances)
    ranked: dict[RetrievalParams, list[tuple[MatchList, list[float]]]] = {}
    # Per sentence: decoder rank -> BLEU statistics of that hypothesis
    stats: list[dict[int, BleuStats]] = [{} for _ in dev.kbests]

    def matchlists(rparams: RetrievalParams) -> list[MatchList]:
        key = replace(rparams, k_m=top_k_m)
        full = retrieved.get(key)
        if full is None:
            full = retrieved[key] = [
                retrieve_sentence(retriever, dev.queries, mode, key, kb)
                for kb in dev.kbests
            ]
        return [
            MatchList(ml.sent_id, ml.matches[: rparams.k_m], ml.used_fallback)
            for ml in full
        ]

    def evaluate(point: dict[str, float]) -> float:
        rparams, params = params_at(point)
        sentences = ranked.get(rparams)
        if sentences is None:
            sentences = ranked[rparams] = []
            for kb, ml in zip(dev.kbests, matchlists(rparams)):
                tokens = [hyp.tokens for hyp in kb.hyps[:top_k_r]]
                sentences.append((ml, relevance_scores(tokens, ml, retriever)))
        chosen = []
        for kb, (ml, rels), ref, known in zip(
            dev.kbests, sentences, dev.references, stats
        ):
            out = select_best(kb, ml, retriever, params, rels[: params.k_r])
            rank = out.decoder_rank_of_chosen
            if rank not in known:
                known[rank] = bleu_stats(out.chosen.tokens, ref)
            chosen.append(known[rank])
        return bleu_score(sum_stats(chosen))

    trace: list[tuple[dict[str, float], float]] = []
    best_bleu = None
    for name, values in sweep:
        swept_best = None
        swept_bleu = None
        for value in values:
            point = dict(current)
            point[name] = value
            bleu = evaluate(point)
            trace.append((point, bleu))
            if (
                swept_best is None
                or bleu > swept_bleu
                or (bleu == swept_bleu and value < swept_best)
            ):
                swept_best, swept_bleu = value, bleu
        current[name] = swept_best
        best_bleu = swept_bleu

    return TuneResult(*params_at(current), best_bleu, trace)
