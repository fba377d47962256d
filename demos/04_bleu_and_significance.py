"""Corpus BLEU from sufficient statistics, and testing a BLEU gap.

Run with:  python3 demos/04_bleu_and_significance.py

Each sentence's statistics are one integer row: 4 clipped n-gram
matches, 4 n-gram totals, the hypothesis length and the reference
length. Rows add across sentences, so corpus BLEU (of the column sums)
and the approximate-randomization significance test (which swaps rows
between systems) both work on the rows without re-touching the text.
"""

from tsr import approx_randomization, bleu_score, bleu_stats

REF = [
    "a man rides a brown horse",
    "the dog runs across the field",
    "two people sit on a bench",
    "a train arrives at the station",
    "the sun sets behind the mountains",
]
SYSTEM_A = [
    "a man rides a brown horse",
    "the dog runs across a field",
    "two people sit on the bench",
    "a train arrives at the station",
    "the sun sets over the mountains",
]
SYSTEM_B = [
    "a man rides a horse",
    "a dog runs across the field",
    "two people sat on a bench",
    "the train arrived at a station",
    "the sun sets behind mountains",
]


def stats(system):
    return bleu_stats([h.split() for h in system], [r.split() for r in REF])


stats_a, stats_b = stats(SYSTEM_A), stats(SYSTEM_B)
for name, rows in (("A", stats_a), ("B", stats_b)):
    total = rows.sum(axis=0)
    print(f"system {name}: matches={total[:4].tolist()}"
          f" totals={total[4:8].tolist()}"
          f" hyp_len={total[8]} ref_len={total[9]}")
    print(f"system {name}: BLEU = {100 * bleu_score(total):.2f}")

# The null hypothesis: A and B are the same system, so swapping their
# outputs on any subset of sentences should produce gaps at least as
# large as the observed one about as often as not. A small p-value
# means the observed gap would be rare under that null.
for trials in (100, 1000, 10000):
    p = approx_randomization(stats_a, stats_b, trials=trials, seed=42)
    print(f"approximate randomization, {trials:5d} trials: p = {p:.4f}")

# Fixed seeds make the estimate reproducible: each trial draws from its
# own pre-spawned RNG stream, so rerunning with seed 7 repeats every
# trial exactly.
p1 = approx_randomization(stats_a, stats_b, trials=5000, seed=7)
p2 = approx_randomization(stats_a, stats_b, trials=5000, seed=7)
print(f"seed 7, run twice: {p1:.6f} == {p2:.6f}")
