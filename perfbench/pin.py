"""Record pinned output digests for the benchmark's own seeds.

    python3 perfbench/pin.py [SEED ...]      (default: 1 2 3)

Runs one checked iteration of every workload per seed and writes the
sha256 of its verdict-bearing outputs to ``pins.json``. A digest is
only recorded when the iteration passed the model check; rerun this
only when a change is meant to alter output bytes, and say why.
"""

from __future__ import annotations

import json
import shutil
import sys

import check
import gen
import run


def main(seeds: list[int]) -> int:
    pins = json.loads(check.PINS.read_text()) if check.PINS.exists() else {}
    runner = run.Runner(deadline=float("inf"))
    for workload in gen.WORKLOADS:
        for seed in seeds:
            inputs, meta = run.prepare(workload, seed, "full")
            work = run.CACHE / "work" / f"pin-{workload}-{seed}"
            it = run.iteration(runner, workload, inputs, meta, work, trace=False)
            shutil.rmtree(work, ignore_errors=True)
            if it["failed"]:
                print(f"{workload} seed {seed}: check failed: {it['notes']}")
                return 1
            pins.setdefault(workload, {})[str(seed)] = it["digest"]
            print(f"{workload} seed {seed}: {it['digest']}")
    check.PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]] or [1, 2, 3]))
