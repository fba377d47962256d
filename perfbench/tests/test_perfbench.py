"""Tests of the benchmark itself, at the generators' tiny scale.

    python3 -m pytest perfbench/tests -q

The model is checked against the repository's pure-Python oracles
(tests/oracles.py) on down-scaled instances of each generator; a tiny
run of every workload must emit every metric BENCHMARK.json names, with
its unit; corrupted outputs must fail the gate.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src", ROOT / "tests"):
    sys.path.insert(0, str(path))

import check  # noqa: E402
import gen  # noqa: E402
import model  # noqa: E402
import run  # noqa: E402
from oracles import (  # noqa: E402
    oracle_bleu,
    oracle_bleu_row,
    oracle_exhaustive_p,
    oracle_retrieve,
    oracle_select,
)
from tsr import CaptionDoc, Hypothesis, IdfTable  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def words(ids):
    return tuple(f"w{i}" for i in ids)


class Instance:
    """A tiny generated instance seen both ways: model arrays and the
    oracle's CaptionDoc objects."""

    def __init__(self, workload: str, seed: int, out: Path):
        self.arrays = gen.generate(workload, seed, gen.TINY[workload], out)
        self.corpus = model.Corpus(self.arrays)
        a = self.arrays
        cats = a.get("doc_cats")
        self.docs = [
            CaptionDoc(
                f"c{j}",
                f"img{a['doc_image'][j]}",
                words(a["doc_flat"][a["doc_off"][j] : a["doc_off"][j + 1]]),
                self.cat_set(cats[a["doc_image"][j]]) if cats is not None else None,
            )
            for j in range(self.corpus.n)
        ]
        df = {f"w{i}": int(d) for i, d in enumerate(a["df"]) if d > 0}
        self.idf = IdfTable(int(a["idf_n"]), df)
        self.feats = {}
        if "feat_q" in a:
            self.feats = {
                f"img{i}": [float(np.float32(v / 100)) for v in a["feat_q"][i].tolist()]
                for i in np.flatnonzero(a["has_feat"])
            }
        self.kbests = [
            [Hypothesis(words(t), sc) for t, sc in kb] for kb in self.corpus.kbests
        ]

    @staticmethod
    def cat_set(mask):
        mask = int(mask)
        if mask < 0:
            return None
        return frozenset(f"k{c}" for c in range(64) if mask >> c & 1)

    def query(self, s: int):
        a = self.arrays
        image = None
        if "query_image" in a and a["query_image"][s] >= 0:
            image = f"img{a['query_image'][s]}"
        cats = self.cat_set(a["query_cats"][s]) if "query_cats" in a else None
        return image, cats

    def oracle(self, s: int, mode: str, k_n: int, k_m: int, k_r: int, interp: float):
        image, cats = self.query(s)
        kept, fallback = oracle_retrieve(
            self.docs, self.feats, self.idf, self.kbests[s], image, cats, mode,
            k_n, k_m, model.DISTANCE_WEIGHT, model.DISTANCE_CUTOFF,
        )
        by_id = {d.caption_id: d for d in self.docs}
        rank, _, rel = oracle_select(
            self.kbests[s], [by_id[c] for c, _ in kept], self.idf, k_r, interp
        )
        return [c for c, _ in kept], fallback, rank, rel


@pytest.mark.parametrize("workload", ["txt-capacity", "cnn-zipf"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pipeline_model_matches_oracles(workload, seed, tmp_path):
    inst = Instance(workload, seed, tmp_path)
    mode = run.MODE[workload]
    k_n, k_m = model.RETRIEVAL[mode]
    k_r, interp = model.RERANK[mode]
    expect = model.expect_pipeline(inst.corpus, mode)
    rows_out, rows_base = [], []
    for s, exp in enumerate(expect["sentences"]):
        ids, fallback, rank, rel = inst.oracle(s, mode, k_n, k_m, k_r, interp)
        ret = inst.corpus.retrieve(s, mode, k_n, k_m)
        assert [f"c{d}" for d in ret["top"]] == ids
        assert exp.fallback == fallback
        assert exp.chosen + 1 == rank
        assert math.isclose(exp.relevance, rel, rel_tol=1e-9, abs_tol=1e-12)
        ref = list(words(inst.corpus.refs[s]))
        rows_out.append(oracle_bleu_row(list(inst.kbests[s][rank - 1].tokens), ref))
        rows_base.append(oracle_bleu_row(list(inst.kbests[s][0].tokens), ref))
    assert expect["bleu"] == pytest.approx(oracle_bleu(rows_out), rel=1e-12)
    assert expect["compare"]["bleu_b"] == pytest.approx(oracle_bleu(rows_base), rel=1e-12)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tune_model_matches_oracles(seed, tmp_path):
    inst = Instance("tune-dev", seed, tmp_path)
    grid = gen.TINY["tune-dev"].grid
    expect = model.expect_tune(inst.corpus, grid)
    refs = [list(words(r)) for r in inst.corpus.refs]

    def bleu_at(point):
        rows = []
        for s in range(len(inst.kbests)):
            _, _, rank, _ = inst.oracle(
                s, "hca", point["k_n"], point["k_m"], point["k_r"], point["interp_weight"]
            )
            rows.append(oracle_bleu_row(list(inst.kbests[s][rank - 1].tokens), refs[s]))
        return oracle_bleu(rows)

    current = {k: v[0] for k, v in grid.items()}
    trace = []
    for name in ("k_n", "k_m", "k_r", "interp_weight"):
        scored = [(bleu_at(dict(current, **{name: v})), v) for v in grid[name]]
        trace += [b for b, _ in scored]
        best = max(b for b, _ in scored)
        current[name] = min(v for b, v in scored if b == best)
    assert expect["points"] == len(trace)
    assert expect["trace"] == pytest.approx(trace, rel=1e-12)
    assert {k: expect["best"][k] for k in current} == current
    assert expect["best"]["bleu"] == pytest.approx(bleu_at(current), rel=1e-12)


def test_p_value_agrees_with_exhaustive_randomization():
    rng = np.random.default_rng(5)
    pairs_a, pairs_b = [], []
    for _ in range(12):
        ref = rng.integers(0, 8, size=int(rng.integers(4, 9))).tolist()
        for pairs in (pairs_a, pairs_b):
            hyp = [t if rng.random() < 0.7 else int(rng.integers(0, 8)) for t in ref]
            pairs.append((hyp, ref))
    rows_a, rows_b = (np.array([model.bleu_row(h, r) for h, r in p]) for p in (pairs_a, pairs_b))
    exact = oracle_exhaustive_p(pairs_a, pairs_b)
    assert model.p_value(rows_a, rows_b, 10000, 1) == pytest.approx(exact, abs=0.03)


def _run(workload: str, trace: int, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in last["metrics"].items()
    }
    if not trace:
        assert all(v["value"] > 0 for v in last["metrics"].values())


@pytest.mark.parametrize("workload", ["txt-capacity", "tune-dev"])
def test_corrupted_output_fails_the_gate(workload, tmp_path):
    inputs, meta = run.prepare(workload, 1, "tiny")
    runner = run.Runner(deadline=float("inf"))
    it = run.iteration(runner, workload, inputs, meta, tmp_path / "work", trace=False)
    assert it["failed"] == 0, it["notes"]
    work = tmp_path / "work"
    stdout = it["cmp"]["stdout"]
    if workload == "tune-dev":
        best = json.loads((work / "best.json").read_text())
        best["k_r"] += 1
        (work / "best.json").write_text(json.dumps(best))
        attempted, failed, _ = check.check_tune(work / "best.json", work / "trace.jsonl", stdout, meta["expect"])
    else:
        out = work / "out" / "output.txt"
        lines = out.read_text().splitlines()
        lines[0] = lines[0].split(" ||| ")[0] + " ||| w0 w1 w2"
        out.write_text("\n".join(lines) + "\n")
        attempted, failed, _ = check.check_pipeline(
            work / "out", stdout, meta["expect"], run._kbest_tokens(inputs)
        )
    assert failed >= 1 and attempted > failed - 1
    assert check.check_compare(stdout.replace("p-value: ", "p-value: 9"), meta["expect"]["compare"])


def test_unpinned_seed_is_reported_unchecked():
    assert check.pinned_status("txt-capacity", 987654321, "0" * 64) == "unchecked"
    pins = json.loads(check.PINS.read_text())
    workload, seeds = next(iter(pins.items()))
    seed, value = next(iter(seeds.items()))
    assert check.pinned_status(workload, int(seed), value) == "match"
    assert check.pinned_status(workload, int(seed), "0" * 64) == "mismatch"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("tune-dev", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
