"""Relevance scoring of caption candidates against decoder hypotheses.

Translation hypotheses for one source sentence act as a bag-of-tokens
query against the caption collection. A candidate caption m is scored
in one of three modes:

* ``txt``  — pure term matching: every hypothesis token that is a type
  of m contributes its idf weight (token repetitions count once per
  occurrence); the sum is divided by m's type count so long captions
  are not favored.
* ``cnn``  — the txt score is damped by exp(-b * v) where v is the
  Euclidean distance between the query image embedding and m's image
  embedding, and zeroed entirely when v reaches the cutoff d. If the
  query image has no embedding, or no term-sharing candidate lies
  strictly within the cutoff, retrieval falls back to txt scoring and
  flags the match list.
* ``hca``  — the txt score passes through only when m's category set
  equals the query's category set exactly; subset or superset matches
  score zero. If no candidate scores above zero, retrieval falls back
  to txt scoring and flags the match list.

Retrieved lists hold the top k_m candidates with strictly positive
scores, ordered by descending score with ties broken by ascending
caption_id, each candidate named by its collection row.
"""

from __future__ import annotations

import itertools
import math
import numbers
import sys
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator

import numpy as np

from .collection import Collection, FeatureStore, parse_categories
from .textcore import joined_line, read_records, write_lines

MODES = ("txt", "cnn", "hca")

# Feature rows upcast to float64 at once by the cnn distance gate.
_DISTANCE_BLOCK = 4096


@dataclass(frozen=True)
class Hypothesis:
    tokens: tuple[str, ...]
    decoder_score: float


@dataclass
class KBestList:
    """Decoder hypotheses for one sentence, best first.

    The list is not empty, token sequences are pairwise distinct and
    decoder scores are non-increasing; all are checked at construction.
    """

    sent_id: str
    hyps: list[Hypothesis]

    def __post_init__(self):
        if not self.hyps:
            raise ValueError(f"sentence {self.sent_id}: empty k-best list")
        seen: set[tuple[str, ...]] = set()
        prev = None
        for hyp in self.hyps:
            if not np.isfinite(hyp.decoder_score):
                raise ValueError(
                    f"sentence {self.sent_id}: non-finite decoder score"
                )
            if hyp.tokens in seen:
                raise ValueError(
                    f"sentence {self.sent_id}: duplicate hypothesis"
                )
            seen.add(hyp.tokens)
            if prev is not None and hyp.decoder_score > prev:
                raise ValueError(
                    f"sentence {self.sent_id}: decoder scores increase"
                )
            prev = hyp.decoder_score


@dataclass(frozen=True)
class RetrievalParams:
    """Retrieval knobs: query depth k_n, match count k_m, and the visual
    decay weight / distance cutoff used by cnn mode."""

    k_n: int = 300
    k_m: int = 500
    distance_weight: float = 0.01
    distance_cutoff: float = 90.0

    def __post_init__(self):
        check_count("k_n", self.k_n)
        check_count("k_m", self.k_m)
        check_weight("distance_weight", self.distance_weight)
        check_cutoff("distance_cutoff", self.distance_cutoff)


def _is_number(value, kind) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def check_count(name: str, value) -> None:
    """Reject anything but a positive integer; bools are not integers."""
    if not (_is_number(value, numbers.Integral) and value >= 1):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def check_weight(name: str, value) -> None:
    """Reject anything but a finite non-negative number."""
    if not (
        _is_number(value, numbers.Real) and math.isfinite(value) and value >= 0
    ):
        raise ValueError(
            f"{name} must be a finite non-negative number, got {value!r}"
        )


def check_cutoff(name: str, value) -> None:
    """Reject anything but a positive number; infinity passes, NaN not."""
    if not (_is_number(value, numbers.Real) and value > 0):
        raise ValueError(f"{name} must be positive, got {value!r}")


RETRIEVAL_DEFAULTS = {
    "txt": RetrievalParams(),
    "cnn": RetrievalParams(k_m=300),
    "hca": RetrievalParams(),
}


@dataclass
class MatchList:
    """Retrieved captions for one sentence, best first, scores > 0, as
    (row, score) pairs; a row indexes the retriever's collection."""

    sent_id: str
    matches: list[tuple[int, float]]
    used_fallback: bool = False


@dataclass(frozen=True)
class Query:
    """Per-sentence retrieval metadata: the source image id (None when
    unknown) and its category annotation (None when unannotated)."""

    sent_id: str
    image_id: str | None = None
    categories: frozenset[str] | None = None


class Retriever:
    """Reusable scorer over one (collection, idf, features) triple.

    Precomputes the per-term idf weight vector and the doc-to-embedding
    row map; retrieve() is then a sparse matvec plus a top-k selection
    and is safe to call from many threads at once. Selection partitions
    around the k_m-th largest score and sorts only k_m docs plus the tie
    group at the cut, not every doc scoring above zero. The cnn gate
    measures each feature row's distance once, block by block.
    """

    def __init__(self, coll: Collection, idf, feats: FeatureStore | None = None):
        self.coll = coll
        self.feats = feats
        # vocab iterates in term id order
        self.weights = np.array(list(map(idf.idf, coll.vocab)), np.float64)
        self._img_row = (
            None if feats is None else feats.rows_of(coll.image_ids)
        )

    def term_counts(self, tokens: Iterable[str]) -> np.ndarray:
        """How often each term id occurs among tokens, as float64 indexed
        by term id; tokens the collection never uses are dropped."""
        vocab = self.coll.vocab
        ids = map(vocab.get, tokens, itertools.repeat(-1))
        tids = np.fromiter(ids, np.int64)
        counts = np.bincount(tids[tids >= 0], minlength=len(vocab))
        return counts.astype(np.float64)

    def _txt_scores(self, counts: np.ndarray) -> np.ndarray:
        raw = self.coll.matrix @ (counts * self.weights)
        return raw / self.coll.type_counts

    def _select(self, scores: np.ndarray, k_m: int) -> list[tuple[int, float]]:
        positive = scores > 0.0
        n_pos = np.count_nonzero(positive)
        if n_pos > k_m:
            # Keep every doc scoring at least the k_m-th largest score:
            # the whole tie group at the cut survives, so the caption-id
            # tie-break below sees every doc it has to order. Zeros stay
            # out of the partition, which is slow on many equal values.
            vals = scores
            if n_pos < scores.size:
                vals = scores[np.flatnonzero(positive)]
            cut = vals.size - k_m
            positive = scores >= np.partition(vals, cut)[cut]
        pos = np.flatnonzero(positive)
        order = np.lexsort((self.coll.caption_rank[pos], -scores[pos]))
        top = pos[order[:k_m]]
        return list(zip(top.tolist(), scores[top].tolist()))

    def retrieve(
        self,
        kbest: KBestList,
        query_image: str | None = None,
        query_categories: Iterable[str] | None = None,
        mode: str = "txt",
        params: RetrievalParams | None = None,
    ) -> MatchList:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if params is None:
            params = RETRIEVAL_DEFAULTS[mode]
        hyps = kbest.hyps[: params.k_n]
        tokens = itertools.chain.from_iterable(hyp.tokens for hyp in hyps)
        counts = self.term_counts(tokens)
        s_txt = self._txt_scores(counts)

        if mode == "txt":
            scores = s_txt
        elif mode == "cnn":
            scores = self._cnn_scores(counts, s_txt, query_image, params)
        else:
            # hca: gate by exact category-group equality; a gate that
            # leaves nothing above zero means fallback.
            scores = None
            if query_categories is not None:
                group = self.coll.category_group(query_categories)
                if group is not None:
                    scores = np.where(self.coll.cat_group == group, s_txt, 0.0)
                    if not np.any(scores > 0.0):
                        scores = None
        fallback = scores is None
        if fallback:
            scores = s_txt
        return MatchList(
            kbest.sent_id, self._select(scores, params.k_m), fallback
        )

    def _cnn_scores(
        self,
        counts: np.ndarray,
        s_txt: np.ndarray,
        query_image: str | None,
        params: RetrievalParams,
    ) -> np.ndarray | None:
        """Distance-damped scores, or None when the fallback applies."""
        # row_of(None) is None: a query without an image falls back
        qrow = None if self.feats is None else self.feats.row_of(query_image)
        if qrow is None:
            return None
        if np.all(self.weights[counts > 0] > 0.0):
            # Every query term adds a positive weight, so a doc shares a
            # term exactly when its txt score is positive.
            overlap = s_txt > 0.0
        else:
            overlap = self.coll.matrix @ (counts > 0).astype(np.float64) > 0
        dist = self._row_distances(qrow)[self._img_row]
        keep = np.flatnonzero(overlap & (dist < params.distance_cutoff))
        if keep.size == 0:
            return None
        scores = np.zeros(len(self.coll), dtype=np.float64)
        scores[keep] = s_txt[keep] * np.exp(
            -params.distance_weight * dist[keep]
        )
        return scores

    def _row_distances(self, qrow: int) -> np.ndarray:
        """Euclidean distance from feature row qrow to every feature row,
        upcast to float64 one block of rows at a time. One more entry,
        +inf, follows the last row: docs without an embedding have row
        -1 and so land on it, beyond every cutoff."""
        matrix = self.feats.matrix
        qvec = matrix[qrow].astype(np.float64)
        n = len(matrix)
        dist = np.empty(n + 1, dtype=np.float64)
        dist[n] = np.inf
        for start in range(0, n, _DISTANCE_BLOCK):
            stop = min(start + _DISTANCE_BLOCK, n)
            diffs = matrix[start:stop].astype(np.float64) - qvec
            dist[start:stop] = np.sqrt(np.sum(diffs * diffs, axis=1))
        return dist


def _sentence_runs(records: Iterable[tuple]) -> Iterator[tuple[str, Iterator]]:
    """One (sent_id, run) per run of consecutive ``(where, sent_id, ...)``
    records; all of a sentence's records must be in one run."""
    done: set[str] = set()
    for sent_id, run in itertools.groupby(records, key=itemgetter(1)):
        if sent_id in done:
            where = next(run)[0]
            raise ValueError(f"{where}: sentence {sent_id} not contiguous")
        done.add(sent_id)
        yield sent_id, run


def read_kbest(path) -> list[KBestList]:
    """Parse a k-best file: ``sent_id ||| token token ... ||| score``.

    Lines with extra ``|||`` fields keep the second field as the token
    sequence and the last as the score. Sentences must be contiguous
    with non-increasing scores; duplicate token sequences within a
    sentence keep the first (highest-scored) occurrence.
    """
    lists: list[KBestList] = []
    for sent_id, run in _sentence_runs(_kbest_records(path)):
        hyps: list[Hypothesis] = []
        seen: set[tuple[str, ...]] = set()
        for where, _, tokens, score in run:
            if hyps and score > hyps[-1].decoder_score:
                raise ValueError(
                    f"{where}: decoder scores increase within"
                    f" sentence {sent_id}"
                )
            if tokens not in seen:
                seen.add(tokens)
                hyps.append(Hypothesis(tokens, score))
        lists.append(KBestList(sent_id, hyps))
    return lists


def _kbest_records(path) -> Iterator[tuple]:
    """(where, sent_id, tokens, score) per k-best line."""
    message = "expected sent_id ||| tokens ||| score"
    records = read_records(path, " ||| ", range(3, sys.maxsize), message)
    for where, parts in records:
        try:
            score = float(parts[-1])
        except ValueError:
            raise ValueError(
                f"{where}: bad decoder score {parts[-1]!r}"
            ) from None
        if not np.isfinite(score):
            raise ValueError(f"{where}: non-finite decoder score")
        yield where, parts[0].strip(), tuple(parts[1].split()), score


def _each_sentence_once(items: Iterable) -> Iterator:
    """items, failing on a sent_id an earlier item had (compared
    stripped): a reader would merge or reject the two runs of lines."""
    seen: set[str] = set()
    for item in items:
        if item.sent_id.strip() in seen:
            raise ValueError(f"sentence {item.sent_id!r} written twice")
        seen.add(item.sent_id.strip())
        yield item


def write_kbest(lists: Iterable[KBestList], path) -> None:
    """Write k-best lists as read_kbest reads them. A sentence written
    twice, or whose id or tokens would read back as other data, fails
    naming it, and no file is left behind."""

    def lines():
        for kb in _each_sentence_once(lists):
            what = f"sentence {kb.sent_id!r}"
            for hyp in kb.hyps:
                text = " ".join(hyp.tokens)
                fields = [kb.sent_id, text, repr(hyp.decoder_score)]
                same = tuple(text.split()) == hyp.tokens
                yield joined_line(fields, " ||| ", what, same)

    write_lines(path, lines())


def write_matchlists(
    matchlists: Iterable[MatchList], coll: Collection, path
) -> None:
    """Dump match lists over coll, one ``sent_id ||| caption_id ||| score
    ||| flag`` line per match. Sentences with no matches emit one line
    with the placeholder caption_id ``-`` so fallback flags survive a
    round trip. A sentence written twice, or a sent_id or caption_id
    holding `` ||| `` or a line break, fails and leaves no file."""

    def lines():
        for ml in _each_sentence_once(matchlists):
            flag = str(int(ml.used_fallback))
            named = [(coll.caption_ids[r], repr(s)) for r, s in ml.matches]
            for cid, score in named or [("-", "0.0")]:
                fields = [ml.sent_id, cid, score, flag]
                what = f"sentence {ml.sent_id!r}, caption_id {cid!r}"
                yield joined_line(fields, " ||| ", what)

    write_lines(path, lines())


def read_matchlists(path, coll: Collection) -> list[MatchList]:
    """Read a match dump back, resolving caption ids to rows of coll.

    Only a ``- ||| 0.0`` line is the empty-list placeholder; ``-`` with
    any other score is a caption id like any other. Raises on caption
    lines whose score is not finite and positive, on a fallback flag
    other than 0 or 1, and on a fallback flag that differs between lines
    of one sentence.
    """
    lists: list[MatchList] = []
    for sent_id, run in _sentence_runs(_match_records(path)):
        flag = None
        matches: list[tuple[int, float]] = []
        for where, _, caption_id, score, line_flag in run:
            if flag is None:
                flag = line_flag
            elif line_flag != flag:
                raise ValueError(
                    f"{where}: fallback flag differs within"
                    f" sentence {sent_id}"
                )
            if caption_id == "-" and score == 0.0:
                continue
            if not (np.isfinite(score) and score > 0.0):
                raise ValueError(
                    f"{where}: match score must be finite and positive"
                )
            try:
                matches.append((coll.index_of(caption_id), score))
            except KeyError:
                raise ValueError(
                    f"{where}: unknown caption_id {caption_id!r}"
                ) from None
        lists.append(MatchList(sent_id, matches, flag))
    return lists


def _match_records(path) -> Iterator[tuple]:
    """(where, sent_id, caption_id, score, flag) per match dump line."""
    for where, (sent_id, caption_id, score_str, flag_str) in read_records(
        path, " ||| ", (4,), "expected 4 |||-separated fields"
    ):
        try:
            score = float(score_str)
        except ValueError:
            raise ValueError(f"{where}: bad score") from None
        flag = {"0": False, "1": True}.get(flag_str.strip())
        if flag is None:
            raise ValueError(
                f"{where}: fallback flag must be 0 or 1, got {flag_str!r}"
            )
        yield where, sent_id.strip(), caption_id, score, flag


def read_queries(path) -> dict[str, Query]:
    """Read per-sentence query metadata.

    Format: ``sent_id<TAB>image_id[<TAB>cat1,cat2]`` with ``-`` standing
    for a missing image id.
    """
    queries: dict[str, Query] = {}
    for where, fields in read_records(
        path, "\t", (2, 3), "expected 2 or 3 tab-separated fields"
    ):
        sent_id = fields[0].strip()
        if sent_id in queries:
            raise ValueError(f"{where}: duplicate sent_id {sent_id!r}")
        image_id = fields[1] if fields[1] != "-" else None
        categories = parse_categories(fields[2]) if len(fields) == 3 else None
        queries[sent_id] = Query(sent_id, image_id, categories)
    return queries
