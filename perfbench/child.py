"""One ``tsr`` CLI invocation in a fresh process, as ``run.py`` starts it.

    python3 perfbench/child.py SRC RESULT TRACE -- <tsr arguments>

Imports ``tsr`` from the source tree SRC, marks the moment the first
``Retriever`` exists with one timestamp and the moment each sentence's
rerank returns with another, runs ``tsr.cli.main`` and writes RESULT
(JSON): those timestamps, the exit code, peak RSS and, when TRACE is 1,
every span the recorder in ``spans.py`` collected.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    src, result_path, trace = argv[0], Path(argv[1]), argv[2] == "1"
    tsr_argv = argv[argv.index("--") + 1 :]
    sys.path.insert(0, src)
    import tsr.cli
    import tsr.retrieval
    import tsr.tune

    if Path(tsr.__file__).resolve().parent != (Path(src) / "tsr").resolve():
        raise SystemExit(f"tsr imported from {tsr.__file__}, not from {src}")

    recorder = None
    if trace:
        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()

    marks: dict[str, float] = {}
    init = tsr.retrieval.Retriever.__init__

    def ready_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        marks.setdefault("ready", time.perf_counter())

    tsr.retrieval.Retriever.__init__ = ready_init

    # One timestamp per reranked sentence (pipeline) or per sentence and
    # grid point (tune), taken where the callers look select_best up.
    done: list[float] = []

    def marked(select_best):
        def select_best_done(*args, **kwargs):
            out = select_best(*args, **kwargs)
            done.append(time.perf_counter())
            return out

        return select_best_done

    for module in (tsr.cli, tsr.tune):
        module.select_best = marked(module.select_best)
    code = 1
    try:
        code = tsr.cli.main(tsr_argv)
    finally:
        record = {
            "code": code,
            "ready": marks.get("ready"),
            "done": sorted(done),
            "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "spans": recorder.spans if recorder else [],
        }
        result_path.write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
