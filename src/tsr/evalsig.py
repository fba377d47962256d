"""Corpus-level BLEU and approximate-randomization significance testing.

BLEU here is the corpus-level geometric mean of clipped n-gram
precisions for n = 1..4 against a single reference per sentence, times
the brevity penalty min(1, exp(1 - ref_len/hyp_len)). There is no
smoothing: any zero precision zeroes the corpus score, and an empty
hypothesis corpus scores 0 by convention. Scores live in [0, 1]; use
100 * bleu_score(...) for conventional display.

The sufficient statistics of a sentence are one int64 row: 4 clipped
n-gram matches, 4 hypothesis n-gram totals, hyp_len and ref_len.
bleu_stats returns one row per sentence, a corpus's statistics are the
column sums of its rows, and bleu_score scores either. Rows are
strictly additive, which makes the significance test cheap: to compare
systems A and B, swap the rows of a random subset of sentences,
recompute both corpus scores, and count how often the shuffled score
difference reaches the observed one. Each trial draws from its own
generator seeded by a spawned child of the master seed, so p-values
are bit-identical across runs. The swapped statistics of a block of
trials are summed in one float64 matrix product: every partial sum is
an integer below 2**53, so the product is exact in any summation
order.

The random source is numpy's default generator (PCG64, numpy >= 1.24)
with SeedSequence.spawn for per-trial child seeds; changing either
would change p-values, so both are pinned here.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from typing import Sequence

import numpy as np

from .retrieval import _is_number, check_count
from .textcore import check_not_str, read_records

MAX_ORDER = 4
# Columns of a statistics row.
_COLUMNS = 2 * MAX_ORDER + 2
# Random draws approx_randomization holds at once: a block is as many
# trials as fit in 2**18 float64 (2 MB; their masks take as much again).
_MASK_ELEMENTS = 2**18


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(zip(*(tokens[i:] for i in range(n))))


def bleu_stats(
    hyps: Sequence[Sequence[str]], refs: Sequence[Sequence[str]]
) -> np.ndarray:
    """Statistics rows of aligned hypotheses against their references:
    an (n, 10) int64 array whose row i holds the MAX_ORDER clipped
    n-gram matches of hyps[i] against refs[i], its MAX_ORDER n-gram
    totals, and both lengths."""
    if len(hyps) != len(refs):
        raise ValueError(
            f"{len(hyps)} hypotheses but {len(refs)} references"
        )
    check_not_str("hyps", hyps)
    check_not_str("refs", refs)
    orders = range(1, MAX_ORDER + 1)
    rows = []
    for hyp, ref in zip(hyps, refs):
        rows.append(
            [
                sum((_ngram_counts(hyp, n) & _ngram_counts(ref, n)).values())
                for n in orders
            ]
            + [max(len(hyp) - n + 1, 0) for n in orders]
            + [len(hyp), len(ref)]
        )
    return np.array(rows, dtype=np.int64).reshape(len(rows), _COLUMNS)


def _checked_rows(rows, ndim: int) -> np.ndarray:
    """rows as int64 statistics rows (one row for ndim 1, a stack of
    them for ndim 2), or ValueError naming the rule they break: integer
    entries, _COLUMNS columns, none negative, no clipped match count
    above its n-gram total."""
    rows = np.asarray(rows)
    if not np.issubdtype(rows.dtype, np.integer):
        raise ValueError(f"statistics must be integers, got {rows.dtype}")
    if rows.ndim != ndim or rows.shape[-1] != _COLUMNS:
        raise ValueError(
            f"statistics must be {ndim}-dimensional with {_COLUMNS}"
            f" columns, got shape {rows.shape}"
        )
    # A uint64 entry of 2**63 or more turns negative, and is refused.
    rows = rows.astype(np.int64, copy=False)
    if (rows < 0).any():
        raise ValueError("statistics must not be negative")
    if (rows[..., :MAX_ORDER] > rows[..., MAX_ORDER : 2 * MAX_ORDER]).any():
        raise ValueError("clipped matches exceed n-gram totals")
    return rows


def bleu_score(row) -> float:
    """BLEU in [0, 1] of one statistics row: a pair's, or a corpus's
    as rows.sum(axis=0)."""
    return _bleu(*_checked_rows(row, 1).tolist())


def _bleu(*row: int) -> float:
    """BLEU of one flat statistics row: the MAX_ORDER clipped match
    counts, the MAX_ORDER n-gram totals, hyp_len and ref_len."""
    hyp_len, ref_len = row[-2:]
    if hyp_len == 0:
        return 0.0
    log_precisions = 0.0
    for m, t in zip(row[:MAX_ORDER], row[MAX_ORDER : 2 * MAX_ORDER]):
        if m == 0 or t == 0:
            return 0.0
        log_precisions += math.log(m / t) / MAX_ORDER
    brevity = min(1.0, math.exp(1.0 - ref_len / hyp_len))
    return brevity * math.exp(log_precisions)


def check_seed(seed) -> None:
    """Reject anything but a non-negative integer; bools are not integers."""
    if not (_is_number(seed, numbers.Integral) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def approx_randomization(stats_a, stats_b, trials: int, seed: int) -> float:
    """Two-sided approximate-randomization p-value for the corpus BLEU
    difference between aligned systems A and B, given their statistics
    rows as bleu_stats returns them.

    Each trial swaps every sentence's A/B statistics independently with
    probability 1/2 and recomputes the absolute corpus score
    difference; the p-value is (exceedances + 1) / (trials + 1), so it
    is never 0 and is exactly 1 for identical systems. trials must be
    a positive integer and seed a non-negative one. ValueError when
    a statistic's absolute A/B differences sum to 2**53 or more, where
    the float64 shift sums would stop being exact.
    """
    check_count("trials", trials)
    check_seed(seed)
    if len(stats_a) != len(stats_b):
        raise ValueError("systems have different sentence counts")
    if not len(stats_a):
        raise ValueError("no sentences to test")
    a = _checked_rows(stats_a, 2)
    b = _checked_rows(stats_b, 2)
    sum_a = a.sum(axis=0)
    sum_b = b.sum(axis=0)
    observed = abs(_bleu(*sum_a.tolist()) - _bleu(*sum_b.tolist()))
    delta = b - a
    # Python ints: an int64 column sum could wrap below the bound.
    if max(map(sum, np.abs(delta).T.tolist())) >= 2**53:
        raise ValueError("statistics differ too much to sum exactly")
    delta_f = delta.astype(np.float64)
    n = len(a)
    root = np.random.SeedSequence(seed)
    block = max(1, _MASK_ELEMENTS // n)
    exceed = 0
    for start in range(0, trials, block):
        # Block by block, spawn gives the children spawn(trials) would.
        chunk = root.spawn(min(block, trials - start))
        draws = np.empty((len(chunk), n))
        for row, child in zip(draws, chunk):
            np.random.default_rng(child).random(out=row)
        masks = (draws < 0.5).astype(np.float64)
        shifts = (masks @ delta_f).astype(np.int64)
        shuffled = zip((sum_a + shifts).tolist(), (sum_b - shifts).tolist())
        for row_a, row_b in shuffled:
            if abs(_bleu(*row_a) - _bleu(*row_b)) >= observed:
                exceed += 1
    return (exceed + 1) / (trials + 1)


def read_sentence_file(path) -> tuple[list[str] | None, list[list[str]]]:
    """Read system output or references.

    Two layouts are accepted: plain one-sentence-per-line token text,
    where a blank line is an empty sentence (returns ids None), or
    ``sent_id ||| tokens`` lines (returns the id list). Mixing layouts
    within one file, and repeating a sent_id (compared stripped), fail
    naming the line.
    """
    ids: list[str] = []
    sentences: list[list[str]] = []
    seen: set[str] = set()
    tagged: bool | None = None
    records = read_records(
        path, " ||| ", (1, 2), "too many ||| fields", keep_blank=True
    )
    for where, parts in records:
        is_tagged = len(parts) == 2
        if tagged is None:
            tagged = is_tagged
        elif tagged != is_tagged:
            raise ValueError(f"{where}: mixed plain and sent_id ||| layouts")
        if is_tagged:
            sent_id = parts[0].strip()
            if sent_id in seen:
                raise ValueError(f"{where}: duplicate sent_id {sent_id!r}")
            seen.add(sent_id)
            ids.append(sent_id)
        sentences.append(parts[-1].split())
    return (ids if tagged else None), sentences


def align_sentences(
    paths: Sequence,
) -> list[list[list[str]]]:
    """Align several sentence files, which must share one layout, by
    join_sentences with the first file as the base. Returns one aligned
    token-list per file."""
    loaded = [read_sentence_file(p) for p in paths]
    for path, (ids, _) in zip(paths, loaded):
        if (ids is None) != (loaded[0][0] is None):
            raise ValueError(f"{path}: layout differs from {paths[0]}")
    return [
        join_sentences(paths[0], loaded[0], path, each)
        for path, each in zip(paths, loaded)
    ]


def join_sentences(base, base_loaded, path, loaded) -> list:
    """The sentences of the file at path in the order of base.

    loaded is the file's sent_ids (None for a plain file) and its
    sentences, as read_sentence_file returns them, or any per-sentence
    records such as match lists; base_loaded is the same for the base,
    which carries sent_ids unless the file is plain (align_sentences
    refuses mixed layouts; every other base is a k-best file). A file
    with sent_ids must hold exactly the base's ids and is joined on
    them; a plain file must hold as many sentences as the base and is
    joined by position. Raises, naming both, otherwise.
    """
    base_ids, base_sentences = base_loaded
    ids, sentences = loaded
    if ids is None:
        if len(sentences) != len(base_sentences):
            raise ValueError(
                f"{path}: {len(sentences)} sentences,"
                f" expected {len(base_sentences)} as in {base}"
            )
        return sentences
    table, known = dict(zip(ids, sentences)), set(base_ids)
    if table.keys() != known:
        missing = [sid for sid in base_ids if sid not in table]
        extra = [sid for sid in ids if sid not in known]
        raise mismatched_ids(path, base, missing, extra)
    return [table[sid] for sid in base_ids]


def mismatched_ids(path, base, missing, extra) -> ValueError:
    """The error for a file at path that lacks the sent_ids missing of
    base and holds the sent_ids extra that base lacks."""
    found = [
        f"{what} {_first_few(got)}"
        for what, got in (("missing", missing), ("extra", extra))
        if got
    ]
    return ValueError(
        f"{path}: sent_ids do not match {base}: {'; '.join(found)}"
    )


def _first_few(ids: list[str]) -> str:
    more = f" and {len(ids) - 3} more" if len(ids) > 3 else ""
    return ", ".join(ids[:3]) + more
