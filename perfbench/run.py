"""tsr benchmark: real CLI invocations on three generated workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The inputs for (workload, seed) are
generated once into ``.perfbench/`` and reused; their generation time
is reported apart from the measurements. One iteration runs the
workload's main command (``tsr pipeline`` or ``tsr tune``) and then
``tsr compare``, each in a fresh process, and checks every output
against ``model.py``. Iterations repeat for S seconds (at least two
untraced iterations, or one untraced/traced pair) and medians are
reported.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` each iteration runs untraced and then traced, and the
line carries the per-layer metrics of ``layers.py`` plus the tracing
overhead. Human-readable ``name value unit`` lines come first. The exit
code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import model  # noqa: E402

# Whole-run limit; every child gets what is left of it.
RUN_LIMIT_S = 170.0
TRIALS = 10000
COMPARE_REPEATS = 2
# Generated instances kept per workload; a full cnn-zipf one is ~45 MB.
KEEP_INPUTS = 4
MODE = {"txt-capacity": "txt", "cnn-zipf": "cnn", "tune-dev": "hca"}
# Throughput blocks per main invocation. The pipelines' sentences cost
# alike, so the median of 7 blocks leaves warm-up and short stalls out;
# tune's grid points do not, so its whole search is one block.
BLOCKS = {"txt-capacity": 7, "cnn-zipf": 7, "tune-dev": 1}
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sentences_per_s": "1/s",
    "peak_rss_mb": "MB",
}
DESCRIPTOR_UNITS = {
    "workload.candidate_fraction": "ratio",
    "workload.tie_group_p50": "count",
    "workload.tie_group_max": "count",
    "workload.query_types": "count",
    "workload.category_sets": "count",
    "workload.category_set_size": "count",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    """Single-threaded BLAS/OpenMP, so a run never uses more threads
    than the CLI's own --workers."""
    env = dict(os.environ)
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


# -- inputs and expectations ---------------------------------------------


def prepare(workload: str, seed: int, scale_name: str) -> tuple[Path, dict]:
    """Generated inputs and model expectations for (workload, seed),
    cached under .perfbench/ and built on first use."""
    scale = (gen.FULL if scale_name == "full" else gen.TINY)[workload]
    final = CACHE / f"v{gen.GEN_VERSION}-{scale_name}" / f"{workload}-{seed}"
    meta_path = final / "meta.json"
    if meta_path.exists():
        return final, json.loads(meta_path.read_text())
    tmp = final.with_name(final.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    t0 = time.perf_counter()
    arrays = gen.generate(workload, seed, scale, tmp)
    gen_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    corpus = model.Corpus(arrays)
    if workload == "tune-dev":
        expect = model.expect_tune(corpus, scale.grid)
    else:
        expect = model.expect_pipeline(corpus, MODE[workload])
    expect["descriptors"] = describe(expect, arrays, corpus.n)
    meta = {
        "gen_s": gen_s,
        "model_s": time.perf_counter() - t0,
        "sentences": len(corpus.kbests),
        "expect": expect,
    }
    np.savez(tmp / "kbest.npz", **{k: v for k, v in arrays.items() if k.startswith("kb_")})
    (tmp / "meta.json").write_text(json.dumps(meta, default=_jsonable))
    shutil.rmtree(final, ignore_errors=True)
    os.replace(tmp, final)
    _evict(final)
    return final, json.loads(meta_path.read_text())


def _evict(keep: Path) -> None:
    """Bound the cache: at most KEEP_INPUTS instances per workload and
    scale, oldest first, plus leftovers of interrupted generations."""
    siblings = [p for p in keep.parent.iterdir() if p != keep]
    stale = [p for p in siblings if ".tmp" in p.name and time.time() - p.stat().st_mtime > 600]
    workload = keep.name.rsplit("-", 1)[0]
    same = sorted(
        (p for p in siblings if ".tmp" not in p.name and p.name.rsplit("-", 1)[0] == workload),
        key=lambda p: p.stat().st_mtime,
    )
    for path in stale + same[: max(0, len(same) - (KEEP_INPUTS - 1))]:
        shutil.rmtree(path, ignore_errors=True)


def _jsonable(obj):
    if isinstance(obj, model.Sentence):
        return vars(obj)
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(type(obj))


def describe(expect: dict, arrays: dict, n_docs: int) -> dict:
    """Input properties that explain which layer a workload loads."""
    rows = expect["sentences"] if "sentences" in expect else expect["retrieval"]
    rows = [vars(r) if isinstance(r, model.Sentence) else r for r in rows]
    ties = [r["ties"] for r in rows]
    cats = arrays.get("doc_cats")
    sets = np.unique(cats[cats >= 0]) if cats is not None else np.empty(0, dtype=np.int64)
    return {
        "workload.candidate_fraction": float(np.mean([r["positive"] for r in rows]) / n_docs),
        "workload.tie_group_p50": float(np.median(ties)),
        "workload.tie_group_max": float(max(ties)),
        "workload.query_types": float(np.mean([r["types"] for r in rows])),
        "workload.category_sets": float(sets.size),
        "workload.category_set_size": float(
            np.mean([bin(int(c)).count("1") for c in cats[cats >= 0]]) if sets.size else 0.0
        ),
    }


# -- invocations ---------------------------------------------------------


class Runner:
    def __init__(self, deadline: float):
        self.deadline = deadline
        self.count = 0
        self.env = child_env()

    def invoke(self, argv: list[str], work: Path, trace: bool) -> dict:
        """Run one tsr CLI invocation in a fresh process."""
        self.count += 1
        result = work / f"child{self.count}.json"
        out = work / f"child{self.count}.out"
        cmd = [sys.executable, str(HERE / "child.py"), str(SRC), str(result), str(int(trace)), "--", *argv]
        timeout = max(1.0, self.deadline - time.perf_counter())
        with open(out, "w") as handle:
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(
                    cmd, stdout=handle, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT, timeout=timeout
                )
                code = proc.returncode
            except subprocess.TimeoutExpired:
                code = -1
            t1 = time.perf_counter()
        rec = json.loads(result.read_text()) if result.exists() else {}
        ready = rec.get("ready")
        return {
            "code": code,
            "t0": t0,
            "t1": t1,
            "wall": t1 - t0,
            "setup": ready - t0 if ready is not None else None,
            "maxrss_mb": rec.get("maxrss_mb", 0.0),
            "done": rec.get("done", []),
            "spans": rec.get("spans", []),
            "stdout": out.read_text(),
        }


def iteration(runner: Runner, workload: str, inputs: Path, meta: dict, work: Path, trace: bool) -> dict:
    """Main command then compare; returns both records and the check."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    f = lambda name: str(inputs / name)  # noqa: E731
    if workload == "tune-dev":
        main_argv = [
            "tune", "--grid", f("grid.json"), "--collection", f("collection.tsv"),
            "--idf", f("idf.txt"), "--kbest", f("kbest.txt"), "--references", f("refs.txt"),
            "--queries", f("queries.tsv"), "--trace-out", str(work / "trace.jsonl"),
            "--best-out", str(work / "best.json"),
        ]
        cmp_files = [f("sys_a.txt"), f("sys_b.txt"), f("cmp_refs.txt")]
    else:
        mode = MODE[workload]
        main_argv = [
            "pipeline", "--collection", f("collection.tsv"), "--idf", f("idf.txt"),
            "--kbest", f("kbest.txt"), "--out-dir", str(work / "out"), "--mode", mode,
            "--references", f("refs.txt"), "--diagnostics",
            # One worker on both: two pool threads on a shared 2-vCPU
            # host measured the neighbours, not tsr (throughput spread
            # 27% over ten seeds, against 10% with one).
            "--workers", "1",
        ]
        if mode == "cnn":
            main_argv += ["--features", f("features.tsv"), "--queries", f("queries.tsv")]
        cmp_files = [str(work / "out" / "output.txt"), f("baseline.txt"), f("refs.txt")]
    main = runner.invoke(main_argv, work, trace)
    cmp, cmp_out, cmp_walls = None, None, []
    if main["code"] == 0:
        # compare is short and dominated by interpreter start, so it runs
        # COMPARE_REPEATS times and the median wall time counts.
        for _ in range(COMPARE_REPEATS):
            cmp = runner.invoke(["compare", *cmp_files, "--trials", str(TRIALS), "--seed", "1"], work, trace)
            if cmp["code"] != 0:
                break
            cmp_walls.append(cmp["wall"])
            cmp_out = cmp["stdout"] if cmp_out in (None, cmp["stdout"]) else ""
        if cmp["code"] != 0:
            cmp_out = None
    expect = meta["expect"]
    if workload == "tune-dev":
        attempted, failed, notes = check.check_tune(work / "best.json", work / "trace.jsonl", cmp_out, expect)
        verdict = [work / "best.json", work / "trace.jsonl"]
    else:
        kbests = _kbest_tokens(inputs)
        attempted, failed, notes = check.check_pipeline(work / "out", cmp_out, expect, kbests)
        verdict = [work / "out" / "output.txt", work / "out" / "diagnostics.txt"]
    if main["code"] != 0:
        failed = attempted
        notes.append(f"{main_argv[0]} exited {main['code']}: {main['stdout'][-500:]}")
    pin = None
    if failed == 0:
        pin = check.digest(verdict, cmp_out)
    return {
        "main": main,
        "cmp": cmp,
        "cmp_wall": statistics.median(cmp_walls) if cmp_walls else None,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "digest": pin,
    }


def _kbest_tokens(inputs: Path) -> list:
    with np.load(inputs / "kbest.npz") as data:
        return model.Corpus.kbest_lists(dict(data))


def block_rates(done: list[float], blocks: int) -> list[float]:
    """Sentences per second in ``blocks`` consecutive, equal blocks of
    reranked sentences, timed from the end of the first one, so reading
    the k-best lists and the first call fall outside every block."""
    size = max(1, (len(done) - 1) // blocks)
    return [size / (done[i + size] - done[i]) for i in range(0, len(done) - size, size)]


def e2e(it: dict, workload: str) -> dict:
    main, cmp = it["main"], it["cmp"]
    return {
        "setup_s": main["setup"],
        "wall_s": main["wall"] + it["cmp_wall"],
        "block_rates": block_rates(main["done"], BLOCKS[workload]),
        "peak_rss_mb": max(main["maxrss_mb"], cmp["maxrss_mb"]),
        "compare_s": it["cmp_wall"],
        "tune_s": main["wall"],
    }


# -- entry point -----------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: the test-size instance")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    if not (SRC / "tsr" / "cli.py").is_file():
        print(f"error: no tsr source tree at {SRC}", file=sys.stderr)
        return 2

    import scipy

    env = {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    for key, value in env.items():
        print(f"env.{key} {value}")
    inputs, meta = prepare(args.workload, args.seed, args.scale)
    print(f"inputs {inputs.relative_to(ROOT)} gen_s {meta['gen_s']:.3f} model_s {meta['model_s']:.3f}")

    runner = Runner(start + RUN_LIMIT_S)
    work = CACHE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    trace = bool(args.trace)
    # At least two untraced iterations (one traced pair); another starts
    # only if one of average length still ends within --seconds.
    minimum = 1 if trace else 2
    rows, layer_rows = [], []
    attempted = failed = 0
    pinned = "unchecked"
    measure_start = time.perf_counter()
    try:
        while True:
            elapsed = time.perf_counter() - measure_start
            average = elapsed / len(rows) if rows else 0.0
            if len(rows) >= minimum and (
                elapsed + average > args.seconds
                or time.perf_counter() + 2 * average > runner.deadline
            ):
                break
            it = iteration(runner, args.workload, inputs, meta, work, trace=False)
            attempted += it["attempted"]
            failed += it["failed"]
            for note in it["notes"]:
                print(f"check: {note}")
            if it["failed"]:
                break
            if not rows:
                if args.scale == "full":  # pins are for full-scale inputs
                    pinned = check.pinned_status(args.workload, args.seed, it["digest"])
                print(f"output digest {it['digest']} pinned {pinned}")
            rows.append(e2e(it, args.workload))
            if trace:
                traced = iteration(runner, args.workload, inputs, meta, work, trace=True)
                attempted += traced["attempted"]
                failed += traced["failed"]
                if traced["failed"]:
                    break
                procs = [traced["main"], traced["cmp"]]
                layer_rows.append(
                    layers.layer_metrics(procs, rows[-1]["wall_s"], meta["sentences"])
                )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if layer_rows:
        # The last traced iteration's spans, for inspection.
        spans = [s for p in procs for s in p["spans"]]
        dump = CACHE / "spans" / f"{args.workload}-{args.seed}.json"
        dump.parent.mkdir(parents=True, exist_ok=True)
        dump.write_text(json.dumps(spans))
        print(f"spans {dump.relative_to(ROOT)}")
        for name, value in sorted(layers.self_times(spans).items()):
            print(f"self.{name}_s {value:.6g} s")

    correct = failed == 0 and pinned != "mismatch" and bool(rows)
    print(f"error_rate {failed / max(attempted, 1):.6f} ratio ({failed}/{attempted})")
    print(f"iterations {len(rows)}")
    if not correct:
        metrics = {}
    elif trace:
        values = {k: statistics.median(r[k] for r in layer_rows) for k in layer_rows[0]}
        values.update(meta["expect"]["descriptors"])
        units = dict(layers.UNITS, **DESCRIPTOR_UNITS)
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        for k, u in layers.WHERE_RUN.items():
            if values[k]:
                print(f"{k} {values[k]:.6g} {u}")
    else:
        # Throughput is the median over every block of every iteration;
        # the other metrics are medians over iterations.
        samples = {k: [r[k] for r in rows] for k in E2E_UNITS if k != "sentences_per_s"}
        samples["sentences_per_s"] = [v for r in rows for v in r["block_rates"]]
        metrics = {
            k: {"value": statistics.median(samples[k]), "unit": u}
            for k, u in E2E_UNITS.items()
        }
        for k, u in E2E_UNITS.items():
            vals = sorted(samples[k])
            print(f"{k} {metrics[k]['value']:.6g} {u} (n={len(vals)}, min {vals[0]:.6g}, max {vals[-1]:.6g})")
        # Printed, not bounded: compare_s is mostly interpreter start and
        # too noisy for a bound; tune_s is tune-dev's main wall time.
        extra = ["compare_s"] + (["tune_s"] if args.workload == "tune-dev" else [])
        for k in extra:
            print(f"{k} {statistics.median(r[k] for r in rows):.6g} s")
    if trace and correct:
        for k, v in metrics.items():
            print(f"{k} {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
