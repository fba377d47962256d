import numpy as np
import pytest

import tsr.tune
from tsr import (
    CaptionDoc,
    Collection,
    DevSet,
    FeatureStore,
    GridSpec,
    Hypothesis,
    IdfTable,
    KBestList,
    Query,
    Retriever,
    stepwise_search,
)


def make_dev(feats=None, queries=None):
    docs = [
        CaptionDoc("x1", "i1", ("a", "man", "walks", "today")),
        CaptionDoc("r1", "i2", ("runs", "runs", "runs")),
        CaptionDoc("d1", "i3", ("dog", "dog")),
        CaptionDoc("d2", "i4", ("the", "dog", "jumps", "now")),
        CaptionDoc("f1", "i5", ("a", "cat", "here")),
    ]
    df = {
        "runs": 1, "jumps": 1, "man": 2, "dog": 2, "sits": 2, "walks": 3,
        "a": 100, "the": 100, "today": 100, "here": 100, "around": 100,
        "now": 100, "cat": 1,
    }
    idf = IdfTable(100, df)
    kbests = [
        KBestList("s1", [
            Hypothesis(("a", "man", "walks", "here", "today"), -1.0),
            Hypothesis(("a", "man", "runs", "here", "today"), -1.5),
        ]),
        KBestList("s2", [
            Hypothesis(("the", "dog", "sits", "around", "now"), -1.0),
            Hypothesis(("the", "dog", "jumps", "around", "now"), -1.5),
        ]),
    ]
    refs = [
        ["a", "man", "runs", "here", "today"],
        ["the", "dog", "jumps", "around", "now"],
    ]
    return DevSet(
        Collection(docs), idf, kbests, refs,
        feats=feats, queries=queries or {},
    )


class TestValidation:
    def test_empty_candidate_list_rejected(self):
        with pytest.raises(ValueError, match="k_m"):
            GridSpec(k_n=[1], k_m=[], k_r=[1], interp_weight=[0.0])

    def test_devset_length_mismatch_rejected(self):
        dev = make_dev()
        with pytest.raises(ValueError, match="references"):
            DevSet(dev.coll, dev.idf, dev.kbests, dev.references[:1])

    def test_empty_devset_rejected(self):
        dev = make_dev()
        with pytest.raises(ValueError, match="empty"):
            DevSet(dev.coll, dev.idf, [], [])

    def test_unknown_mode_rejected(self):
        grid = GridSpec([1], [1], [1], [0.0])
        with pytest.raises(ValueError, match="mode"):
            stepwise_search(grid, make_dev(), mode="visual")

    def test_cutoff_list_outside_cnn_rejected(self):
        grid = GridSpec([1], [1], [1], [0.0], distance_cutoff=[50.0])
        with pytest.raises(ValueError, match="cnn"):
            stepwise_search(grid, make_dev(), mode="txt")

    def test_depth_checked_before_any_evaluation(self):
        grid = GridSpec([5], [1], [1], [0.0])
        with pytest.raises(ValueError, match="depth"):
            stepwise_search(grid, make_dev())


class TestSweepStructure:
    def test_singleton_grid_evaluates_once_per_parameter(self):
        grid = GridSpec([2], [2], [2], [1000.0])
        res = stepwise_search(grid, make_dev())
        assert len(res.trace) == 4
        points = {tuple(sorted(p.items())) for p, _ in res.trace}
        assert len(points) == 1
        assert res.best_bleu == res.trace[-1][1]

    def test_trace_length_is_sum_of_candidate_counts(self):
        grid = GridSpec([1, 2], [1, 2], [2, 1], [1000.0, 0.0, 5.0])
        res = stepwise_search(grid, make_dev())
        assert len(res.trace) == 2 + 2 + 2 + 3

    def test_cnn_cutoff_sweep_appends_a_fifth_stage(self):
        feats = FeatureStore({f"i{k}": [float(k), 0.0] for k in range(1, 6)})
        queries = {"s1": Query("s1", "i1"), "s2": Query("s2", "i4")}
        grid = GridSpec([2], [2], [2], [1000.0], distance_cutoff=[100.0, 2.5])
        res = stepwise_search(grid, make_dev(feats, queries), mode="cnn")
        assert len(res.trace) == 4 + 2
        assert {p["distance_cutoff"] for p, _ in res.trace} == {100.0, 2.5}

    def test_grid_distance_weight_reaches_every_retrieval(self, monkeypatch):
        weights = []
        original = Retriever.retrieve

        def recording(self, kbest, image_id, categories, mode, params):
            weights.append(params.distance_weight)
            return original(self, kbest, image_id, categories, mode, params)

        monkeypatch.setattr(tsr.tune.Retriever, "retrieve", recording)
        feats = FeatureStore({f"i{k}": [float(k), 0.0] for k in range(1, 6)})
        queries = {"s1": Query("s1", "i1"), "s2": Query("s2", "i4")}
        grid = GridSpec([1, 2], [2], [2], [1000.0], [100.0, 2.5], 0.5)
        res = stepwise_search(grid, make_dev(feats, queries), mode="cnn")
        assert set(weights) == {0.5} and len(weights) == 2 * 3
        assert res.retrieval_params.distance_weight == 0.5
        assert "distance_weight" not in res.trace[0][0]

    def test_trace_points_carry_all_parameters(self):
        grid = GridSpec([2], [2], [2], [1000.0])
        res = stepwise_search(grid, make_dev())
        for point, _ in res.trace:
            assert set(point) == {
                "k_n", "k_m", "k_r", "interp_weight", "distance_cutoff"
            }

    def test_deterministic_across_runs(self):
        grid = GridSpec([1, 2], [1, 2], [2, 1], [1000.0, 0.0])
        r1 = stepwise_search(grid, make_dev())
        r2 = stepwise_search(grid, make_dev())
        assert r1.retrieval_params == r2.retrieval_params
        assert r1.rerank_params == r2.rerank_params
        assert r1.best_bleu == r2.best_bleu
        assert r1.trace == r2.trace

    def test_final_bleu_attains_trace_maximum(self):
        grid = GridSpec([1, 2], [1, 2], [2, 1], [1000.0, 0.0])
        res = stepwise_search(grid, make_dev())
        assert res.best_bleu == max(bleu for _, bleu in res.trace)
        assert res.best_bleu >= res.trace[0][1]

    def test_retrieval_reused_across_rerank_sweeps(self, monkeypatch):
        calls = []
        original = Retriever.retrieve

        def counting(self, kbest, *args, **kwargs):
            calls.append(kbest.sent_id)
            return original(self, kbest, *args, **kwargs)

        monkeypatch.setattr(tsr.tune.Retriever, "retrieve", counting)
        grid = GridSpec([1, 2], [1], [1, 2], [0.0, 1.0, 2.0])
        stepwise_search(grid, make_dev())
        # only the two k_n candidates change the retrieval key; the k_m,
        # k_r and interp_weight sweeps hit the match-list cache.
        assert len(calls) == 2 * 2


class TestFrozenTrajectory:
    GRID = dict(k_n=[1, 2], k_m=[1, 2], k_r=[2, 1], interp_weight=[1000.0, 0.0])

    def test_stepwise_path(self):
        res = stepwise_search(GridSpec(**self.GRID), make_dev())
        got = [
            (p["k_n"], p["k_m"], p["k_r"], p["interp_weight"], round(b, 9))
            for p, b in res.trace
        ]
        assert got == [
            (1, 1, 2, 1000.0, 0.0),
            (2, 1, 2, 1000.0, 0.64093051),
            (2, 1, 2, 1000.0, 0.64093051),
            (2, 2, 2, 1000.0, 1.0),
            (2, 2, 2, 1000.0, 1.0),
            (2, 2, 1, 1000.0, 0.0),
            (2, 2, 2, 1000.0, 1.0),
            (2, 2, 2, 0.0, 0.0),
        ]

    def test_incumbents(self):
        res = stepwise_search(GridSpec(**self.GRID), make_dev())
        assert res.retrieval_params.k_n == 2
        assert res.retrieval_params.k_m == 2
        assert res.rerank_params.k_r == 2
        assert res.rerank_params.interp_weight == 1000.0
        assert res.best_bleu == pytest.approx(1.0, abs=1e-12)

    def test_bleu_tie_prefers_smaller_value(self):
        # duplicate the winning k_m candidate; both 2s tie at BLEU 1 and
        # 2 < 3, so k_m=2 must win over an equally-scoring 3.
        grid = GridSpec([2], [3, 2], [2], [1000.0])
        res = stepwise_search(grid, make_dev())
        assert res.retrieval_params.k_m == 2


def test_round_helper_matches_reprs():
    # guard for the rounding used in the frozen-path comparison
    assert round(0.640930509594351, 9) == 0.64093051
