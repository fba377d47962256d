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
    RerankParams,
    RetrievalParams,
    Retriever,
    bleu_score,
    bleu_stats,
    select_best,
    stepwise_search,
    sum_stats,
)
from tsr.retrieval import MODES, Query
from oracles import (
    random_collection,
    random_idf_table,
    random_kbest,
    with_copies,
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


def random_dev(rng, mode):
    """A random dev set with tie groups, and a grid over it whose
    candidate lists are unsorted and may repeat a value."""
    vocab = [f"v{i:02d}" for i in range(int(rng.integers(8, 30)))]
    docs, feats_map = random_collection(
        rng, int(rng.integers(20, 80)), vocab, 3, ["cat0", "cat1", "cat2"]
    )
    docs = with_copies(rng, docs, len(docs) // 3)
    kbests = [
        random_kbest(rng, f"s{i}", vocab, int(rng.integers(1, 9)))
        for i in range(int(rng.integers(4, 12)))
    ]
    # Each reference is one of its sentence's hypotheses, so the choice
    # a point makes moves its BLEU.
    refs = [
        list(kb.hyps[int(rng.integers(0, len(kb.hyps)))].tokens)
        for kb in kbests
    ]
    images = sorted({doc.image_id for doc in docs}) + ["no-features"]
    queries = {
        kb.sent_id: Query(
            kb.sent_id,
            images[int(rng.integers(0, len(images)))],
            docs[int(rng.integers(0, len(docs)))].categories,
        )
        for kb in kbests
    }
    depth = max(len(kb.hyps) for kb in kbests)

    def candidates(low, high, size):
        return rng.integers(low, high, size=size).tolist()

    grid = GridSpec(
        k_n=candidates(1, depth + 1, 2),
        k_m=candidates(1, len(docs) + 3, 3),
        k_r=candidates(1, 10, 3),
        interp_weight=rng.choice([0.0, 0.5, 3.0, 20.0, 200.0], 3).tolist(),
        distance_cutoff=(
            rng.uniform(0.2, 1.5, 2).tolist() if mode == "cnn" else None
        ),
        distance_weight=0.5,
    )
    feats = FeatureStore(feats_map) if mode == "cnn" else None
    idf = random_idf_table(rng, vocab)
    return grid, DevSet(Collection(docs), idf, kbests, refs, feats, queries)


@pytest.mark.parametrize("mode", MODES)
def test_trace_equals_points_evaluated_from_scratch(mode):
    """Cached retrievals, match-list prefixes, relevances and BLEU
    statistics give every trace point the BLEU, to the bit, of that
    point evaluated on its own with Retriever.retrieve, select_best and
    bleu_stats."""
    rng = np.random.default_rng({"txt": 11, "cnn": 12, "hca": 13}[mode])
    moved = 0
    for trial in range(12):
        grid, dev = random_dev(rng, mode)
        res = stepwise_search(grid, dev, mode)
        retriever = Retriever(dev.coll, dev.idf, dev.feats)
        for point, bleu in res.trace:
            rparams = RetrievalParams(
                point["k_n"], point["k_m"], grid.distance_weight,
                point["distance_cutoff"],
            )
            params = RerankParams(point["k_r"], point["interp_weight"])
            stats = []
            for kb, ref in zip(dev.kbests, dev.references):
                query = dev.queries[kb.sent_id]
                ml = retriever.retrieve(
                    kb, query.image_id, query.categories, mode, rparams
                )
                out = select_best(kb, ml, retriever, params)
                stats.append(bleu_stats(out.chosen.tokens, ref))
            assert bleu == bleu_score(sum_stats(stats)), (trial, point)
        moved += len({bleu for _, bleu in res.trace}) > 1
    assert moved >= 4


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
