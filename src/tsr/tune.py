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

Retrieval output depends only on (k_n, k_m, distance_cutoff), so match
lists are cached on that key and the k_r and interp_weight sweeps cost
almost nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .collection import Collection, FeatureStore
from .evalsig import BleuStats, bleu_score, bleu_stats
from .rerank import RerankParams, select_best
from .retrieval import (
    KBestList,
    Query,
    Retriever,
    RetrievalParams,
    check_count,
    check_cutoff,
    check_weight,
)


@dataclass
class GridSpec:
    """Ordered candidate lists, one per swept parameter. distance_cutoff
    may be omitted; providing it outside cnn mode is an error."""

    k_n: list[int]
    k_m: list[int]
    k_r: list[int]
    interp_weight: list[float]
    distance_cutoff: list[float] | None = None

    def __post_init__(self):
        named = [
            ("k_n", self.k_n, check_count),
            ("k_m", self.k_m, check_count),
            ("k_r", self.k_r, check_count),
            ("interp_weight", self.interp_weight, check_weight),
        ]
        if self.distance_cutoff is not None:
            named.append(
                ("distance_cutoff", self.distance_cutoff, check_cutoff)
            )
        for name, values, check in named:
            if not isinstance(values, list):
                raise ValueError(
                    f"{name} must be a list of candidates, got {values!r}"
                )
            if not values:
                raise ValueError(f"empty candidate list for {name}")
            for value in values:
                check(name, value)


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
    grid: GridSpec,
    dev: DevSet,
    mode: str = "txt",
    distance_weight: float = RetrievalParams.distance_weight,
) -> TuneResult:
    """Run the step-wise sweep and return incumbents, their BLEU, and
    the full (parameters, BLEU) trace in evaluation order."""
    if mode not in ("txt", "cnn", "hca"):
        raise ValueError(f"unknown mode {mode!r}")
    if grid.distance_cutoff is not None and mode != "cnn":
        raise ValueError("distance_cutoff can only be swept in cnn mode")
    depth = max(len(kb.hyps) for kb in dev.kbests)
    if depth < max(grid.k_n):
        raise ValueError(
            f"k-best depth {depth} is shallower than max k_n {max(grid.k_n)}"
        )

    sweep: list[tuple[str, Sequence[float]]] = [
        ("k_n", grid.k_n),
        ("k_m", grid.k_m),
        ("k_r", grid.k_r),
        ("interp_weight", grid.interp_weight),
    ]
    current: dict[str, float] = {name: values[0] for name, values in sweep}
    if mode == "cnn" and grid.distance_cutoff is not None:
        sweep.append(("distance_cutoff", grid.distance_cutoff))
        current["distance_cutoff"] = grid.distance_cutoff[0]
    else:
        current["distance_cutoff"] = RetrievalParams().distance_cutoff

    retriever = Retriever(dev.coll, dev.idf, dev.feats)
    match_cache: dict[tuple, list] = {}

    def evaluate(point: dict[str, float]) -> float:
        key = (point["k_n"], point["k_m"], point["distance_cutoff"])
        matchlists = match_cache.get(key)
        if matchlists is None:
            rparams = RetrievalParams(
                k_n=point["k_n"],
                k_m=point["k_m"],
                distance_weight=distance_weight,
                distance_cutoff=point["distance_cutoff"],
            )
            matchlists = []
            for kb in dev.kbests:
                query = dev.queries.get(kb.sent_id, Query(kb.sent_id))
                matchlists.append(
                    retriever.retrieve(
                        kb, query.image_id, query.categories, mode, rparams
                    )
                )
            match_cache[key] = matchlists
        params = RerankParams(
            k_r=point["k_r"], interp_weight=point["interp_weight"]
        )
        total = BleuStats.zero()
        for kb, ml, ref in zip(dev.kbests, matchlists, dev.references):
            out = select_best(kb, ml, dev.idf, params)
            total = total + bleu_stats(out.chosen.tokens, ref)
        return bleu_score(total)

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

    return TuneResult(
        RetrievalParams(
            k_n=current["k_n"],
            k_m=current["k_m"],
            distance_weight=distance_weight,
            distance_cutoff=current["distance_cutoff"],
        ),
        RerankParams(
            k_r=current["k_r"], interp_weight=current["interp_weight"]
        ),
        best_bleu,
        trace,
    )
