"""Per-layer metrics derived from the spans of one traced iteration.

An iteration is the workload's main invocation (``pipeline`` or
``tune``) followed by ``compare``; both processes' spans are pooled.
Busy times sum span durations over every thread, so with a thread pool
they can exceed the phase's wall time; ``cli.scoring_concurrency`` is
that ratio over ``cli.score_s``, the scoring phase (the pipeline's
sentence loop, or the whole tune search). ``cli.self_s`` is process
wall time that no layer span covers (interpreter start, imports,
argument parsing, exit).
"""

from __future__ import annotations

import numpy as np

# name -> unit of the metrics in the result line. Each is measured on
# every workload; times that some workload never spends are in WHERE_RUN.
UNITS = {
    "textcore.idf_load_s": "s",
    "collection.load_s": "s",
    "collection.build_s": "s",
    "collection.parse_s": "s",
    "collection.index_mb": "MB",
    "collection.rss_after_load_mb": "MB",
    "retrieval.read_kbest_s": "s",
    "retrieval.retriever_init_s": "s",
    "retrieval.retrieve.calls": "count",
    "retrieval.retrieve.busy_s": "s",
    "retrieval.retrieve_ms.p50": "ms",
    "retrieval.retrieve_ms.p99": "ms",
    "retrieval.select.busy_s": "s",
    "retrieval.examined_per_returned": "ratio",
    "retrieval.fallback_ratio": "ratio",
    "retrieval.match_fill": "ratio",
    "rerank.select_best.calls": "count",
    "rerank.select_best.busy_s": "s",
    "rerank.select_best_ms.p50": "ms",
    "rerank.select_best_ms.p99": "ms",
    "rerank.override_ratio": "ratio",
    "evalsig.bleu_stats.calls": "count",
    "evalsig.bleu_stats.busy_s": "s",
    "evalsig.read_s": "s",
    "evalsig.approx_randomization_s": "s",
    "tune.points": "count",
    "tune.retrieval_keys": "count",
    "tune.cache_hit_ratio": "ratio",
    "cli.score_s": "s",
    "cli.scoring_concurrency": "ratio",
    "cli.self_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}
# Printed as text lines only: each is 0 on some workload (no features
# outside cnn-zipf, no output file from tune, no tune in a pipeline),
# and a time that reads 0 on every run is not a measurement.
WHERE_RUN = {
    "collection.features_load_s": "s",
    "retrieval.cnn_gate.busy_s": "s",
    "rerank.write_s": "s",
    "tune.stepwise_search_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _uncovered(spans: list[dict], start: float, end: float) -> float:
    """Time in [start, end] covered by none of spans."""
    covered, reach = 0.0, start
    for s in sorted(spans, key=lambda s: s["start"]):
        lo, hi = max(s["start"], reach), min(s["end"], end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (end - start) - covered


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name, summed duration minus the time its child spans
    cover; children in pool threads count once however they overlap."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out: dict[str, float] = {}
    for s in spans:
        own = _uncovered(children.get(s["id"], []), s["start"], s["end"])
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


def layer_metrics(procs: list[dict], untraced_wall: float, sentences: int) -> dict[str, float]:
    """procs: traced child records (spans, t0, t1) of one iteration."""
    spans = [s for p in procs for s in p["spans"]]
    by: dict[str, list[dict]] = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)

    def durs(name):
        return np.array([s["end"] - s["start"] for s in by.get(name, [])])

    def busy(name):
        return float(durs(name).sum())

    def pct_ms(name, q):
        d = durs(name)
        return float(np.percentile(d, q) * 1e3) if d.size else 0.0

    def attr(name, key):
        return [s[key] for s in by.get(name, [])]

    retrieves = len(by.get("retrieval.retrieve", []))
    reranks = len(by.get("rerank.select_best", []))
    tuned = "tune.stepwise_search" in by
    phase = busy("tune.stepwise_search") if tuned else busy("cli.score")
    wall = sum(p["t1"] - p["t0"] for p in procs)
    self_s = sum(
        _uncovered(
            [s for s in p["spans"] if not s["name"].startswith("cli.")], p["t0"], p["t1"]
        )
        for p in procs
    )
    points = _ratio(reranks, sentences) if tuned else 0.0
    keys = _ratio(retrieves, sentences) if tuned else 0.0
    m = {
        "textcore.idf_load_s": busy("textcore.idf_load"),
        "collection.load_s": busy("collection.load"),
        "collection.build_s": busy("collection.build"),
        "collection.parse_s": busy("collection.load") - busy("collection.build"),
        "collection.features_load_s": busy("collection.features_load"),
        "collection.index_mb": max(attr("collection.build", "index_bytes"), default=0) / 2**20,
        "collection.rss_after_load_mb": max(attr("collection.load", "rss_mb"), default=0.0),
        "retrieval.read_kbest_s": busy("retrieval.read_kbest"),
        "retrieval.retriever_init_s": busy("retrieval.retriever_init"),
        "retrieval.retrieve.calls": retrieves,
        "retrieval.retrieve.busy_s": busy("retrieval.retrieve"),
        "retrieval.retrieve_ms.p50": pct_ms("retrieval.retrieve", 50),
        "retrieval.retrieve_ms.p99": pct_ms("retrieval.retrieve", 99),
        "retrieval.select.busy_s": busy("retrieval.select"),
        "retrieval.cnn_gate.busy_s": busy("retrieval.cnn_gate"),
        "retrieval.examined_per_returned": _ratio(
            sum(attr("retrieval.select", "positive")), sum(attr("retrieval.retrieve", "returned"))
        ),
        "retrieval.fallback_ratio": _ratio(sum(attr("retrieval.retrieve", "fallback")), retrieves),
        "retrieval.match_fill": _ratio(
            sum(attr("retrieval.retrieve", "returned")), sum(attr("retrieval.retrieve", "k_m"))
        ),
        "rerank.select_best.calls": reranks,
        "rerank.select_best.busy_s": busy("rerank.select_best"),
        "rerank.select_best_ms.p50": pct_ms("rerank.select_best", 50),
        "rerank.select_best_ms.p99": pct_ms("rerank.select_best", 99),
        "rerank.override_ratio": _ratio(
            sum(r != 1 for r in attr("rerank.select_best", "rank")), reranks
        ),
        "rerank.write_s": busy("rerank.write"),
        "evalsig.bleu_stats.calls": len(by.get("evalsig.bleu_stats", [])),
        "evalsig.bleu_stats.busy_s": busy("evalsig.bleu_stats"),
        "evalsig.read_s": busy("evalsig.read"),
        "evalsig.approx_randomization_s": busy("evalsig.approx_randomization"),
        "tune.points": points,
        "tune.retrieval_keys": keys,
        "tune.cache_hit_ratio": 1.0 - _ratio(keys, points) if tuned else 0.0,
        "tune.stepwise_search_s": busy("tune.stepwise_search"),
        "cli.score_s": phase,
        "cli.scoring_concurrency": _ratio(
            busy("retrieval.retrieve") + busy("rerank.select_best"), phase
        ),
        "cli.self_s": self_s,
        "trace.coverage": _ratio(wall - self_s, wall),
        "trace.overhead_s": wall - untraced_wall,
    }
    return {k: float(m[k]) for k in {**UNITS, **WHERE_RUN}}
