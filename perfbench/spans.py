"""In-memory span recorder wrapped around tsr's public entry points.

The recorder never edits ``tsr``: it replaces functions where their
callers look them up (``tsr.cli.load_collection``, the
``Retriever.retrieve`` method, ``tsr.tune.select_best``, ...) with
wrappers that record one span per call: name, start, end, the id of
the span that caused it, the thread, and the sentence id when an
argument carries one. Spans stay in memory until the process ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import threading
import time

import numpy as np

# (module, attribute path, span name). Each attribute is patched in the
# namespace its caller resolves it from.
ENTRY_POINTS = [
    ("tsr.cli", "main", "cli.main"),
    ("tsr.cli", "_run_sentences", "cli.score"),
    ("tsr.textcore", "IdfTable.load", "textcore.idf_load"),
    ("tsr.cli", "load_collection", "collection.load"),
    ("tsr.collection", "Collection.__init__", "collection.build"),
    ("tsr.cli", "load_features", "collection.features_load"),
    ("tsr.cli", "read_kbest", "retrieval.read_kbest"),
    ("tsr.cli", "read_queries", "retrieval.read_queries"),
    ("tsr.retrieval", "Retriever.__init__", "retrieval.retriever_init"),
    ("tsr.retrieval", "Retriever.retrieve", "retrieval.retrieve"),
    ("tsr.retrieval", "Retriever._select", "retrieval.select"),
    ("tsr.retrieval", "Retriever._cnn_scores", "retrieval.cnn_gate"),
    ("tsr.cli", "select_best", "rerank.select_best"),
    ("tsr.tune", "select_best", "rerank.select_best"),
    ("tsr.cli", "write_output", "rerank.write"),
    ("tsr.cli", "write_diagnostics", "rerank.write"),
    ("tsr.cli", "bleu_stats", "evalsig.bleu_stats"),
    ("tsr.tune", "bleu_stats", "evalsig.bleu_stats"),
    ("tsr.cli", "read_sentence_file", "evalsig.read"),
    ("tsr.cli", "align_sentences", "evalsig.read"),
    ("tsr.cli", "approx_randomization", "evalsig.approx_randomization"),
    ("tsr.cli", "stepwise_search", "tune.stepwise_search"),
]


def rss_mb() -> float:
    """Resident set size of this process, from /proc/self/statm."""
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def nbytes_of(obj) -> int:
    """Bytes held by the numpy arrays and sparse matrices among obj's
    attributes (dicts of arrays included)."""
    total = 0
    for value in vars(obj).values():
        items = value.values() if isinstance(value, dict) else (value,)
        for item in items:
            if isinstance(item, np.ndarray):
                total += item.nbytes
            elif hasattr(item, "indptr") and hasattr(item, "data"):
                total += item.data.nbytes + item.indices.nbytes + item.indptr.nbytes
    return total


def _attrs(name: str, args, result) -> dict:
    """Counts recorded at the boundary, after the span has ended."""
    if name == "retrieval.retrieve":
        params = next((a for a in args if hasattr(a, "k_m")), None)
        return {
            "fallback": int(result.used_fallback),
            "returned": len(result.matches),
            "k_m": params.k_m if params is not None else 0,
        }
    if name == "retrieval.select":
        return {"positive": int(np.count_nonzero(args[1] > 0.0))}
    if name == "rerank.select_best":
        return {"rank": result.decoder_rank_of_chosen}
    if name == "collection.build":
        return {"index_bytes": nbytes_of(args[0])}
    if name == "collection.load":
        return {"rss_mb": rss_mb()}
    return {}


class SpanRecorder:
    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, func, name: str):
        recorder = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            if stack:
                parent = stack[-1]
            else:
                # A pool thread's first span belongs to whatever the main
                # thread has open, i.e. the phase that started the pool.
                main = recorder._main_stack
                parent = main[-1] if main else None
            span_id = next(recorder._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            sent = next(
                (a.sent_id for a in args if hasattr(a, "sent_id")), None
            )
            span = {
                "id": span_id,
                "parent": parent,
                "name": name,
                "start": start,
                "end": end,
                "thread": threading.get_ident(),
                "sent_id": sent,
            }
            span.update(_attrs(name, args, result))
            recorder.spans.append(span)
            return result

        return traced

    def install(self) -> None:
        for module_name, path, name in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(raw.__func__, name)))
            else:
                setattr(owner, attr, self.wrap(raw, name))
