import math

import numpy as np
import pytest

import tsr.evalsig
from tsr import approx_randomization, bleu_score, bleu_stats
from tsr.evalsig import align_sentences, read_sentence_file
from oracles import (
    oracle_approx_randomization,
    oracle_bleu,
    oracle_bleu_row,
    oracle_exhaustive_p,
)


def toks(text):
    return tuple(text.split())


def row(hyp, ref):
    """The statistics row of one hypothesis against its reference."""
    return bleu_stats([toks(hyp)], [toks(ref)])[0]


def stats_row(matches, totals, hyp_len, ref_len):
    return np.array([*matches, *totals, hyp_len, ref_len], dtype=np.int64)


class TestBleuStats:
    @pytest.mark.parametrize("side", ["hyps", "refs"])
    def test_a_str_is_not_a_token_sequence(self, side):
        pair = {"hyps": [["a", "man"]], "refs": [["a", "man"]]}
        pair[side] = ["a man"]
        with pytest.raises(ValueError, match=f"^{side}: a str where"):
            bleu_stats(pair["hyps"], pair["refs"])

    def test_perfect_match(self):
        s = row("a man rides a horse", "a man rides a horse")
        assert s.tolist() == [5, 4, 3, 2, 5, 4, 3, 2, 5, 5]
        assert s.dtype == np.int64

    def test_clipping_counts_each_ref_occurrence_once(self):
        # hypothesis repeats "the" seven times; reference has two.
        s = row("the the the the the the the", "the cat is on the mat")
        assert s[0] == 2
        assert s[4] == 7
        assert s[1] == 0

    def test_empty_hypothesis(self):
        s = row("", "a cat")
        assert s.tolist() == [0, 0, 0, 0, 0, 0, 0, 0, 0, 2]

    def test_short_hypothesis_has_zero_higher_order_totals(self):
        s = row("a cat", "a cat sat")
        assert s[4:8].tolist() == [2, 1, 0, 0]

    def test_rows_align_with_their_pairs(self):
        assert bleu_stats([], []).shape == (0, 10)
        with pytest.raises(ValueError, match="^2 hypotheses but 1 references$"):
            bleu_stats([toks("a b"), toks("c")], [toks("a b")])

    def test_validation_rejects_matches_above_totals(self):
        """bleu_score and approx_randomization each refuse a row with
        matches above its totals, a negative entry, 9 columns or float
        entries, naming the rule."""
        ok = stats_row((1, 0, 0, 0), (2, 0, 0, 0), 2, 2)
        cases = [
            (stats_row((3, 0, 0, 0), (2, 0, 0, 0), 2, 2),
             "^clipped matches exceed n-gram totals$"),
            (stats_row((0, 0, 0, 0), (0, 0, 0, 0), 2, -1),
             "^statistics must not be negative$"),
            (ok[:9], "with 10 columns, got shape"),
            (ok.astype(float), "^statistics must be integers, got float64$"),
        ]
        good = np.array([ok])
        for bad, rule in cases:
            with pytest.raises(ValueError, match=rule):
                bleu_score(bad)
            for stats_a, stats_b in (([bad], good), (good, [bad])):
                with pytest.raises(ValueError, match=rule):
                    approx_randomization(stats_a, stats_b, trials=3, seed=0)

    def test_additivity(self):
        rng = np.random.default_rng(41)
        vocab = [f"w{i}" for i in range(12)]
        hyps, refs = [], []
        for _ in range(20):
            hyps.append(tuple(rng.choice(vocab, size=int(rng.integers(1, 12)))))
            refs.append(tuple(rng.choice(vocab, size=int(rng.integers(1, 12)))))
        rows = bleu_stats(hyps, refs)
        each = [bleu_stats([h], [r])[0].tolist() for h, r in zip(hyps, refs)]
        assert rows.tolist() == each
        assert rows.sum(axis=0).tolist() == [sum(col) for col in zip(*each)]

    def test_matches_oracle_rows(self):
        """Whole corpora, several sentences a call, with empty
        hypotheses and references and one-word vocabularies."""
        rng = np.random.default_rng(43)
        for _ in range(100):
            vocab = [f"w{i}" for i in range(int(rng.choice([1, 2, 8])))]
            pairs = [
                [
                    list(rng.choice(vocab, size=int(rng.integers(0, 15))))
                    for _ in range(2)
                ]
                for _ in range(int(rng.integers(1, 8)))
            ]
            rows = bleu_stats([h for h, _ in pairs], [r for _, r in pairs])
            assert rows.tolist() == [oracle_bleu_row(h, r) for h, r in pairs]


class TestBleuScore:
    def test_perfect_corpus_scores_one(self):
        s = row("a man rides a horse", "a man rides a horse")
        assert bleu_score(s) == pytest.approx(1.0, abs=1e-15)

    def test_zero_when_any_order_has_no_match(self):
        s = row("the the the the", "the cat sat down")
        assert bleu_score(s) == 0.0

    def test_zero_when_hypothesis_empty(self):
        assert bleu_score(stats_row((0,) * 4, (0,) * 4, 0, 5)) == 0.0

    def test_brevity_penalty(self):
        # identical 4-gram stats; shorter hypothesis corpus gets penalized.
        s = stats_row((4, 3, 2, 1), (4, 3, 2, 1), 4, 8)
        expected = math.exp(1 - 8 / 4)
        assert bleu_score(s) == pytest.approx(expected, rel=1e-12)

    def test_no_bonus_for_long_hypotheses(self):
        s = stats_row((4, 3, 2, 1), (4, 3, 2, 1), 8, 4)
        assert bleu_score(s) == pytest.approx(1.0, abs=1e-15)

    def test_frozen_ten_sentence_fixture(self):
        pairs = [
            ("a man rides a brown horse", "a man rides a brown horse"),
            ("the dog runs across the field", "a dog runs across the green field"),
            ("two people sit on a bench", "two people are sitting on a bench"),
            ("a cat sleeps", "a cat sleeps on the mat"),
            ("children play with a red ball", "the children play with a ball"),
            ("a train arrives at the station quickly", "a train arrives at the station"),
            ("the woman wears a blue dress", "a woman in a blue dress"),
            ("boats float near the harbor", "several boats float near the old harbor"),
            ("the sun sets over the mountains", "the sun sets behind the mountains"),
            ("a group of friends eat pizza", "a group of friends eats pizza outside"),
        ]
        total = bleu_stats(
            [toks(h) for h, _ in pairs], [toks(r) for _, r in pairs]
        ).sum(axis=0)
        assert total.tolist() == [49, 32, 20, 10, 57, 47, 37, 27, 57, 64]
        assert bleu_score(total) == pytest.approx(0.5174579372990767, abs=1e-9)

    def test_matches_oracle_on_random_corpora(self):
        rng = np.random.default_rng(47)
        vocab = [f"w{i}" for i in range(10)]
        for _ in range(50):
            rows = []
            hyps, refs = [], []
            for _ in range(int(rng.integers(1, 12))):
                hyp = list(rng.choice(vocab, size=int(rng.integers(1, 12))))
                ref = list(rng.choice(vocab, size=int(rng.integers(1, 12))))
                rows.append(oracle_bleu_row(hyp, ref))
                hyps.append(hyp)
                refs.append(ref)
            assert bleu_score(bleu_stats(hyps, refs).sum(axis=0)) == (
                pytest.approx(oracle_bleu(rows), rel=1e-12)
            )


CLOSE_PAIRS = [
    ("a man rides a brown horse", "a man rides a horse", "a man rides a brown horse"),
    ("the dog runs across a field", "a dog runs across the field", "the dog runs across the field"),
    ("two people sit on the bench", "two people sat on a bench", "two people sit on a bench"),
    ("a cat sleeps on the mat", "the cat sleeps on a mat", "a cat sleeps on the mat"),
    ("children play with a ball", "children played with the ball", "children play with a red ball"),
]


class TestApproxRandomization:
    def fixture(self):
        rng = np.random.default_rng(53)
        vocab = [f"w{i}" for i in range(10)]
        refs, noisy = [], []
        for _ in range(30):
            ref = tuple(rng.choice(vocab, size=8))
            changed = list(ref)
            changed[int(rng.integers(0, 8))] = "w0"
            refs.append(ref)
            noisy.append(tuple(changed))
        return bleu_stats(refs, refs), bleu_stats(noisy, refs)

    def close_fixture(self):
        refs = [toks(r) for _, _, r in CLOSE_PAIRS]
        stats_a = bleu_stats([toks(a) for a, _, _ in CLOSE_PAIRS], refs)
        stats_b = bleu_stats([toks(b) for _, b, _ in CLOSE_PAIRS], refs)
        return stats_a, stats_b

    def test_identical_systems_give_p_one(self):
        stats_a, _ = self.fixture()
        p = approx_randomization(stats_a, stats_a.copy(), trials=200, seed=1)
        assert p == 1.0

    def test_reproducible_for_fixed_seed(self):
        stats_a, stats_b = self.fixture()
        p1 = approx_randomization(stats_a, stats_b, trials=500, seed=99)
        p2 = approx_randomization(stats_a, stats_b, trials=500, seed=99)
        assert p1 == p2

    def test_seed_changes_move_the_estimate(self):
        # a fixture whose true p-value sits mid-range, so finite-trial
        # estimates fluctuate from seed to seed.
        stats_a, stats_b = self.close_fixture()
        ps = {
            approx_randomization(stats_a, stats_b, trials=301, seed=s)
            for s in range(5)
        }
        assert len(ps) > 1

    def test_p_value_never_zero_and_at_most_one(self):
        stats_a, stats_b = self.fixture()
        for seed in range(5):
            p = approx_randomization(stats_a, stats_b, trials=100, seed=seed)
            assert 0.0 < p <= 1.0
            assert p >= 1.0 / 101

    def test_clearly_better_system_is_significant(self):
        rng = np.random.default_rng(59)
        vocab = [f"w{i}" for i in range(12)]
        refs, bad = [], []
        for _ in range(20):
            refs.append(tuple(rng.choice(vocab, size=10)))
            bad.append(tuple(rng.choice(vocab, size=10)))
        stats_a, stats_b = bleu_stats(refs, refs), bleu_stats(bad, refs)
        p = approx_randomization(stats_a, stats_b, trials=2000, seed=7)
        assert p < 0.01

    def test_fixed_seed_gives_pinned_p_value(self):
        # 83 of 400 trials reach the observed difference; the count is
        # fixed by the per-trial spawned PCG64 streams and the BLEU
        # arithmetic, so a change to either moves it.
        stats_a, stats_b = self.close_fixture()
        p = approx_randomization(stats_a, stats_b, trials=400, seed=13)
        assert p == 84 / 401

    def test_matches_exhaustive_enumeration_in_the_limit(self):
        # with very few sentences the trial distribution concentrates near
        # the exhaustive swap enumeration.
        exact = oracle_exhaustive_p(
            [(a.split(), r.split()) for a, _, r in CLOSE_PAIRS],
            [(b.split(), r.split()) for _, b, r in CLOSE_PAIRS],
        )
        assert exact == pytest.approx(0.1875, abs=1e-12)
        stats_a, stats_b = self.close_fixture()
        p = approx_randomization(stats_a, stats_b, trials=20000, seed=3)
        assert p == pytest.approx(exact, abs=0.02)

    @pytest.mark.parametrize("n, trials, cap", [
        (3, 150, 64),  # 21 trials a block: seven full blocks, one partial
        (7, 30, 64),  # 9 a block
        (64, 9, 64),  # one a block
        (100, 7, 64),  # more sentences than the cap: still one a block
        (300, 900, None),  # the shipped cap: 873 trials, then 27
    ])
    def test_blocked_sums_equal_a_per_trial_loop(
        self, monkeypatch, n, trials, cap
    ):
        if cap is not None:
            monkeypatch.setattr(tsr.evalsig, "_MASK_ELEMENTS", cap)
        rng = np.random.default_rng(n)
        vocab = [f"w{i}" for i in range(6)]

        def noisy(ref):
            out = list(ref)
            out[int(rng.integers(0, len(out)))] = str(rng.choice(vocab))
            return out

        refs = [
            list(rng.choice(vocab, size=int(rng.integers(4, 12))))
            for _ in range(n)
        ]
        pairs_a = [(noisy(ref), ref) for ref in refs]
        pairs_b = [(noisy(ref), ref) for ref in refs]
        stats_a = bleu_stats([h for h, _ in pairs_a], refs)
        stats_b = bleu_stats([h for h, _ in pairs_b], refs)
        for seed in (0, 1) if n < 300 else (0,):
            assert approx_randomization(
                stats_a, stats_b, trials, seed
            ) == oracle_approx_randomization(pairs_a, pairs_b, trials, seed)

    def test_spawns_child_seeds_one_block_at_a_time(self, monkeypatch):
        # A child seed takes memory per trial: spawned all at once, they
        # would grow with the trial count past the per-block bound.
        asked = []

        class Recording(np.random.SeedSequence):
            def spawn(self, n_children):
                asked.append(n_children)
                return super().spawn(n_children)

        monkeypatch.setattr(tsr.evalsig, "_MASK_ELEMENTS", 64)
        monkeypatch.setattr(np.random, "SeedSequence", Recording)
        stats_a, stats_b = self.close_fixture()  # 5 sentences: 12 a block
        p = approx_randomization(stats_a, stats_b, trials=400, seed=13)
        assert p == 84 / 401  # as pinned without the recording
        assert sum(asked) == 400
        assert max(asked) <= 64 // len(stats_a)

    def test_rejects_differences_too_large_to_sum_exactly(self):
        # Below 2**53 every float64 partial sum of the differences is an
        # exact integer; from there on it need not be.
        def hyp_len(n):
            return stats_row((0, 0, 0, 0), (0, 0, 0, 0), n, 1)

        zero = [hyp_len(0), hyp_len(0)]
        below = [hyp_len(2**52), hyp_len(2**52 - 1)]
        at = [hyp_len(2**52), hyp_len(2**52)]
        assert approx_randomization(zero, below, trials=3, seed=0) == 1.0
        for stats_a, stats_b in ((zero, at), (at, zero)):
            with pytest.raises(ValueError, match="exactly"):
                approx_randomization(stats_a, stats_b, trials=3, seed=0)

    def test_rejects_mismatched_lengths(self):
        stats_a, stats_b = self.fixture()
        with pytest.raises(ValueError):
            approx_randomization(stats_a, stats_b[:-1], trials=10, seed=0)

    def test_rejects_no_sentences(self):
        with pytest.raises(ValueError, match="^no sentences to test$"):
            approx_randomization([], [], trials=10, seed=1)

    def test_rejects_bad_trials(self):
        stats_a, stats_b = self.fixture()
        with pytest.raises(ValueError):
            approx_randomization(stats_a, stats_b, trials=0, seed=0)

    @pytest.mark.parametrize("trials, seed, message", [
        (0, 1, "trials must be a positive integer, got 0"),
        (True, 1, "trials must be a positive integer, got True"),
        (2.5, 1, "trials must be a positive integer, got 2.5"),
        (10, -1, "seed must be a non-negative integer, got -1"),
        (10, True, "seed must be a non-negative integer, got True"),
        (10, 1.5, "seed must be a non-negative integer, got 1.5"),
    ])
    def test_trials_and_seed_rules(self, trials, seed, message):
        """trials is a positive integer and seed a non-negative one;
        bools are neither, and each refusal names its argument."""
        stats_a, stats_b = self.fixture()
        with pytest.raises(ValueError) as err:
            approx_randomization(stats_a, stats_b, trials, seed)
        assert str(err.value) == message

    def test_numpy_integers_are_integers(self):
        stats_a, stats_b = self.close_fixture()
        p = approx_randomization(stats_a, stats_b, np.int64(400), np.uint8(13))
        assert p == 84 / 401


class TestSentenceFiles:
    def test_plain_layout(self, tmp_path):
        p = tmp_path / "refs.txt"
        p.write_text("a man rides\nthe dog runs\n", encoding="utf-8")
        ids, sentences = read_sentence_file(p)
        assert ids is None
        assert sentences == [["a", "man", "rides"], ["the", "dog", "runs"]]

    def test_keyed_layout(self, tmp_path):
        p = tmp_path / "out.txt"
        p.write_text("s2 ||| the dog runs\ns1 ||| a man rides\n", encoding="utf-8")
        ids, sentences = read_sentence_file(p)
        assert ids == ["s2", "s1"]
        assert sentences == [["the", "dog", "runs"], ["a", "man", "rides"]]

    def test_mixed_layout_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("s1 ||| a man\nthe dog runs\n", encoding="utf-8")
        with pytest.raises(ValueError, match="mixed"):
            read_sentence_file(p)

    def test_duplicate_ids_rejected_in_any_file(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("s1 ||| x\ns2 ||| y\n", encoding="utf-8")
        b.write_text("s1 ||| q\ns2 ||| q\n s1  ||| r\n", encoding="utf-8")
        for read in (
            lambda: read_sentence_file(b),
            lambda: align_sentences([a, b]),
            lambda: align_sentences([b, a]),
        ):
            with pytest.raises(ValueError) as err:
                read()
            assert str(err.value) == f"{b}:3: duplicate sent_id 's1'"

    def test_align_by_key_uses_first_file_order(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("s2 ||| x y\ns1 ||| z\n", encoding="utf-8")
        b.write_text("s1 ||| q\ns2 ||| r s\n", encoding="utf-8")
        first, second = align_sentences([a, b])
        assert first == [["x", "y"], ["z"]]
        assert second == [["r", "s"], ["q"]]

    def test_align_positionally(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("x y\nz\n", encoding="utf-8")
        b.write_text("q\nr s\n", encoding="utf-8")
        first, second = align_sentences([a, b])
        assert first == [["x", "y"], ["z"]]
        assert second == [["q"], ["r", "s"]]

    def test_align_detects_missing_key(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("s1 ||| x\ns2 ||| y\n", encoding="utf-8")
        b.write_text("s1 ||| q\n", encoding="utf-8")
        with pytest.raises(ValueError, match="do not match"):
            align_sentences([a, b])

    def test_align_detects_count_mismatch(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("x\ny\n", encoding="utf-8")
        b.write_text("q\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected 2"):
            align_sentences([a, b])

    def test_align_rejects_mixed_layouts_across_files(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("s1 ||| x\n", encoding="utf-8")
        b.write_text("q\n", encoding="utf-8")
        with pytest.raises(ValueError, match="layout"):
            align_sentences([a, b])
