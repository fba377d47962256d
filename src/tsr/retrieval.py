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
from .textcore import check_not_str, joined_line, read_records, write_lines

MODES = ("txt", "cnn", "hca")

# Feature rows the cnn distance pass upcasts to float64 at once, into
# one buffer per call. On 79,461 32-dim rows (a shared 2-vCPU Xeon VM)
# a pass over every row took a median 7.2-7.8 ms at 1,024-4,096 rows,
# 8.3 at 8,192, 8.8 at 512 and 11.3 at 256; a pass over a gathered 2%
# of the rows took 0.28-0.31 ms at 512-4,096 and 0.39 at 256.
_DISTANCE_BLOCK = 1024
# Past this share of the collection, a gate's rows are scored by the
# whole matvec and a gather: slicing that many rows out of the index
# costs more than it saves. On 409,110 captions (4.0M index entries,
# same VM) the sliced matvec took 4.1 ms for a fifth of the rows, 6.8
# for 30%, 10.8 for half and 21.8 for all, the whole one 6.8-8.5 ms
# plus its gather.
_GATED_SHARE = 0.3
# Past this share of the feature rows, the cnn gate measures every row
# in order rather than gather the rows its float32 bound kept. On the
# 79,461 rows above, gathering took 4.0 ms for 40% of them, 4.9 for
# half, 6.7 for 70% and 7.6 for 80%, the whole pass 7.4 ms.
_GATHER_SHARE = 0.7
# Machine epsilons, twice the unit roundoffs, for _bound_rows' error terms.
_EPS32 = float(np.finfo(np.float32).eps)
_EPS64 = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class Hypothesis:
    tokens: tuple[str, ...]
    decoder_score: float


@dataclass
class KBestList:
    """Decoder hypotheses for one sentence, best first.

    The list is not empty, its token sequences are pairwise distinct and
    its decoder scores finite and non-increasing, as _add checks.
    """

    sent_id: str
    hyps: list[Hypothesis]

    def __post_init__(self):
        if not self.hyps:
            raise self._broken("empty k-best list")
        hyps, self.hyps, seen = self.hyps, [], set()
        for hyp in hyps:
            if not self._add(hyp, seen):
                raise self._broken("duplicate hypothesis")

    def _add(self, hyp: Hypothesis, seen: set[tuple[str, ...]]) -> bool:
        """Append hyp: its score must be finite and not above the last
        one's, and its tokens not a str. False, adding nothing, if its
        tokens are in seen."""
        check_not_str("tokens", (hyp.tokens,))
        if not math.isfinite(hyp.decoder_score):
            raise self._broken("non-finite decoder score")
        if self.hyps and hyp.decoder_score > self.hyps[-1].decoder_score:
            raise self._broken("decoder scores increase")
        if hyp.tokens in seen:
            return False
        seen.add(hyp.tokens)
        self.hyps.append(hyp)
        return True

    def _broken(self, rule: str) -> ValueError:
        return ValueError(f"sentence {self.sent_id}: {rule}")


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


def cutoff_from_json(value):
    """A distance_cutoff as a JSON config or grid gives it. JSON has no
    infinity, so the string "inf" spells no cutoff, as the JSON outputs
    write it; any other value is returned for check_cutoff to judge."""
    return math.inf if value == "inf" else value


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


def checked_row(row: int, score: float, size: int) -> int:
    """row, if (row, score) is a match of a collection of size docs."""
    if not 0 <= row < size:
        raise ValueError(f"match row {row} outside a collection of {size}")
    if not (math.isfinite(score) and score > 0.0):
        raise ValueError("match score must be finite and positive")
    return row


@dataclass(frozen=True)
class Query:
    """Per-sentence retrieval metadata: the source image id (None when
    unknown) and its category annotation (None when unannotated)."""

    image_id: str | None = None
    categories: frozenset[str] | None = None


class Retriever:
    """Reusable scorer over one (collection, idf, features) triple.

    Precomputes the per-term idf weight vector, the docs of each
    category set and, given features, the docs of each feature row.
    The gated modes apply their gate first and score only the docs it
    admits, gathered from those groups; selection then ranks only those
    docs. The cnn gate keeps each feature row's squared norm, bounds
    every row's distance with one float32 product per query and
    measures in float64 only the rows the bound cannot place beyond the
    cutoff. Selection partitions around the k_m-th largest score and
    sorts only k_m docs plus the tie group at the cut, not every doc
    scoring above zero.
    """

    def __init__(self, coll: Collection, idf, feats: FeatureStore | None = None):
        self.coll = coll
        self.feats = feats
        # vocab iterates in term id order
        self.weights = np.array(list(map(idf.idf, coll.vocab)), np.float64)
        self._docs_of_group = _docs_by_key(coll.cat_group)
        if feats is not None:
            # one lookup per distinct image, then one per doc by its code
            rows = feats.rows_of(coll.images)[coll.image_code]
            self._docs_of_row = _docs_by_key(rows, len(feats))
            # each feature row's squared norm times 1 - k, k as in
            # _bound_rows, summed a block at a time like a distance
            matrix = feats.matrix
            dim = matrix.shape[1]
            norms = np.empty(len(matrix))
            _squared_distances(matrix, None, np.zeros(dim), norms)
            norms *= 1.0 - 2.0 * (dim + 2) * _EPS32
            self._shrunk_norms = norms

    def term_counts(self, tokens: Iterable[str]) -> np.ndarray:
        """How often each term id occurs among tokens, as float64 indexed
        by term id; tokens the collection never uses are dropped."""
        vocab = self.coll.vocab
        ids = map(vocab.get, tokens, itertools.repeat(-1))
        tids = np.fromiter(ids, np.int64)
        counts = np.bincount(tids[tids >= 0], minlength=len(vocab))
        return counts.astype(np.float64)

    def _products(
        self, vec: np.ndarray, rows: np.ndarray | None
    ) -> np.ndarray:
        """matrix @ vec over the docs at rows, in that order, or over
        every doc when rows is None. Up to _GATED_SHARE of the collection
        only those rows of the index are multiplied; past it the whole
        product is gathered at rows. Each index row is summed left to
        right either way, so a doc's value has the same bits."""
        matrix = self.coll.matrix
        if rows is None:
            return matrix @ vec
        if rows.size > _GATED_SHARE * len(self.coll):
            return (matrix @ vec)[rows]
        return matrix[rows] @ vec

    def _txt_scores(
        self, counts: np.ndarray, rows: np.ndarray | None
    ) -> np.ndarray:
        """txt scores of the docs at rows, or of every doc (None)."""
        raw = self._products(counts * self.weights, rows)
        type_counts = self.coll.type_counts
        return raw / (type_counts if rows is None else type_counts[rows])

    def _select(
        self, scores: np.ndarray, rows: np.ndarray | None, k_m: int
    ) -> list[tuple[int, float]]:
        """The top k_m (row, score) pairs scoring above zero, where
        scores[i] is the score of the doc at rows[i], or of doc i when
        rows is None."""
        positive = scores > 0.0
        n_pos = np.count_nonzero(positive)
        if n_pos > k_m:
            # Keep every doc scoring at least the k_m-th largest score:
            # the whole tie group at the cut survives, so the caption-id
            # tie-break below sees every doc it has to order. Zeros stay
            # out of the partition, which is slow on many equal values.
            vals = scores if n_pos == scores.size else scores[positive]
            cut = vals.size - k_m
            positive = scores >= np.partition(vals, cut)[cut]
        pos = np.flatnonzero(positive)
        docs = pos if rows is None else rows[pos]
        top = np.lexsort((self.coll.caption_rank[docs], -scores[pos]))[:k_m]
        return list(zip(docs[top].tolist(), scores[pos[top]].tolist()))

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
        check_not_str("query_categories", (query_categories,))
        if params is None:
            params = RETRIEVAL_DEFAULTS[mode]
        hyps = kbest.hyps[: params.k_n]
        tokens = itertools.chain.from_iterable(hyp.tokens for hyp in hyps)
        counts = self.term_counts(tokens)

        gated = None
        if mode == "cnn":
            gated = self._cnn_scores(counts, query_image, params)
        elif mode == "hca":
            gated = self._hca_scores(counts, query_categories)
        fallback = mode != "txt" and gated is None
        if gated is None:
            gated = self._txt_scores(counts, None), None
        scores, rows = gated
        return MatchList(
            kbest.sent_id, self._select(scores, rows, params.k_m), fallback
        )

    def _hca_scores(
        self, counts: np.ndarray, query_categories: Iterable[str] | None
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """(txt scores, rows) of the docs whose category set equals the
        query's, or None when the fallback applies: no annotation, an
        unknown set, or nothing above zero."""
        if query_categories is None:
            return None
        group = self.coll.category_group(query_categories)
        if group is None:
            return None
        starts, docs = self._docs_of_group
        rows = docs[starts[group] : starts[group + 1]]
        scores = self._txt_scores(counts, rows)
        return (scores, rows) if np.any(scores > 0.0) else None

    def _cnn_scores(
        self,
        counts: np.ndarray,
        query_image: str | None,
        params: RetrievalParams,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """(distance-damped scores, rows) of the docs strictly inside the
        cutoff that share a query term, or None when the fallback
        applies."""
        # row_of(None) is None: a query without an image falls back
        qrow = None if self.feats is None else self.feats.row_of(query_image)
        if qrow is None:
            return None
        near, dist = self._row_distances(qrow, params.distance_cutoff)
        rows, per_row = _gather(*self._docs_of_row, near)
        dist = np.repeat(dist, per_row)  # each gathered doc's distance
        s_txt = self._txt_scores(counts, rows)
        if np.all(self.weights[counts > 0] > 0.0):
            # Every query term adds a positive weight, so a doc shares a
            # term exactly when its txt score is positive.
            overlap = s_txt > 0.0
        else:
            overlap = self._products((counts > 0).astype(np.float64), rows) > 0
        keep = rows[overlap]
        if keep.size == 0:
            return None
        damping = np.exp(-params.distance_weight * dist[overlap])
        return s_txt[overlap] * damping, keep

    def _row_distances(
        self, qrow: int, cutoff: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """The feature rows strictly within cutoff of feature row qrow,
        ascending, and their Euclidean distances. Only the rows
        _bound_rows cannot prove to lie at or beyond cutoff are measured.

        A measured distance is the float64 pairwise sum of one row's
        squared differences (_squared_distances), so it has the bits of
        measuring every row, and the same rows fall within cutoff."""
        matrix = self.feats.matrix
        qvec = matrix[qrow].astype(np.float64)
        rows = self._bound_rows(qrow, cutoff)
        size = len(matrix) if rows is None else rows.size
        dist = np.sqrt(_squared_distances(matrix, rows, qvec, np.empty(size)))
        inside = dist < cutoff
        near = np.flatnonzero(inside) if rows is None else rows[inside]
        return near, dist[inside]

    def _bound_rows(self, qrow: int, cutoff: float) -> np.ndarray | None:
        """The feature rows whose float64 distance to row qrow may come
        out below cutoff, by a float32 bound that leaves out only rows
        provably at or beyond it; None when every row is to be measured:
        an infinite cutoff, or more than _GATHER_SHARE of the rows kept.
        """
        # Let s, t be the exact squared norms of a row a and the query
        # row q, p = a·q and D² = s + t - 2p, all over the float32
        # values, in d dimensions. The sgemv's p̂, if finite, holds
        # |p̂ - p| <= γ·Σ|a_i·q_i| + d·2^-150, γ = d·u/(1 - d·u) and
        # u = 2^-24 = eps32/2, whatever order BLAS sums in; the second
        # term is what products below float32's normal range lose. By
        # Cauchy-Schwarz and 2|a||q| <= s + t, 2|p̂ - p| <= (d/2 + 1)·
        # eps32·(s + t) + d·2^-149. The stored norms are float64 sums of
        # d squares times 1 - k, and the float64 steps below each round
        # by 2^-53 of operands under 4(s + t): some 2^-29 of that term.
        # So with k = 2·(d + 2)·eps32, about four times what is needed,
        #
        #     lower = (1 - k)·(s + t) - 2p̂ - d·2^-148 <= D².
        #
        # The exact pass rounds a subtraction and a square per component,
        # d - 1 additions and a square root, so fl(D) >= D·(1 - (d + 3)·
        # 2^-53), and fl(D) < c needs D² < c²·(1 + m), m = 2·(d + 4)·
        # eps64 leaving room for rounding c²·(1 + m). A row whose lower
        # reaches that is left out. c is the cutoff raised to at least
        # 2^-500 so that c² is a normal float64 (a larger c only keeps
        # more rows), and a c² past float64's range keeps every row. A
        # non-finite p̂ means the float32 sum overflowed: its row is kept.
        if cutoff == math.inf:
            return None
        matrix = self.feats.matrix
        dim = matrix.shape[1]
        c = max(float(cutoff), 2.0**-500)
        limit = c * c * (1.0 + 2.0 * (dim + 4) * _EPS64) + dim * 2.0**-148
        limit -= self._shrunk_norms[qrow]
        with np.errstate(over="ignore", invalid="ignore"):
            dots = matrix @ matrix[qrow]
        lower = dots.astype(np.float64)
        lower *= -2.0
        lower += self._shrunk_norms
        keep = ~(lower >= limit)  # not <: a NaN keeps its row
        keep |= ~np.isfinite(dots)
        rows = np.flatnonzero(keep)
        return None if rows.size > _GATHER_SHARE * len(matrix) else rows


def retrieve_sentence(
    retriever: Retriever,
    queries: dict[str, Query],
    mode: str,
    params: RetrievalParams,
    kbest: KBestList,
) -> MatchList:
    """kbest's match list. A sentence queries leaves out has no image
    and no categories, so a gated mode falls back to txt for it."""
    query = queries.get(kbest.sent_id, Query())
    return retriever.retrieve(
        kbest, query.image_id, query.categories, mode, params
    )


def _squared_distances(matrix, rows, centre, out):
    """out[i] = the float64 pairwise sum of (matrix[rows[i]] - centre)**2,
    or of matrix[i]'s when rows is None, upcast one _DISTANCE_BLOCK of
    rows at a time into one buffer; returns out. A row's sum does not
    depend on the block size or on the other rows in its block."""
    n = len(out)
    buf = np.empty((min(_DISTANCE_BLOCK, n), matrix.shape[1]), np.float64)
    for start in range(0, n, _DISTANCE_BLOCK):
        stop = min(start + _DISTANCE_BLOCK, n)
        diffs = buf[: stop - start]
        picked = slice(start, stop) if rows is None else rows[start:stop]
        np.copyto(diffs, matrix[picked])
        diffs -= centre
        diffs *= diffs
        np.sum(diffs, axis=1, out=out[start:stop])
    return out


def _docs_by_key(keys: np.ndarray, n_keys: int = 0):
    """(starts, docs): the docs whose key is k, ascending, are
    docs[starts[k]:starts[k + 1]], for each k below n_keys or up to the
    largest key; docs is int32. Docs keyed -1 are in no group."""
    counts = np.bincount(keys[keys >= 0], minlength=n_keys)
    starts = np.zeros(counts.size + 1, np.int64)
    np.cumsum(counts, out=starts[1:])
    # a stable sort puts the -1s first and keeps each group ascending
    docs = np.argsort(keys, kind="stable")[keys.size - starts[-1] :]
    return starts, docs.astype(np.int32)


def _gather(starts: np.ndarray, docs: np.ndarray, keys: np.ndarray):
    """(the docs of each of keys, key after key; how many each key has):
    _docs_by_key's groups concatenated without a loop."""
    begin, count = starts[keys], starts[keys + 1] - starts[keys]
    # a doc's index in docs is its index in the output plus the shift
    # from its group's place in the output to its place in docs
    shift = np.repeat(begin - (np.cumsum(count) - count), count)
    return docs[shift + np.arange(shift.size)], count


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
    sequence and the last as the score. Sentences must be contiguous and
    keep KBestList's rules, else the line is named, but a repeated token
    sequence is skipped, keeping the first occurrence.
    """
    lists: list[KBestList] = []
    for sent_id, run in _sentence_runs(_kbest_records(path)):
        kb = None
        for where, _, hyp in run:
            try:
                if kb is None:
                    kb, seen = KBestList(sent_id, [hyp]), {hyp.tokens}
                else:
                    kb._add(hyp, seen)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
        lists.append(kb)
    return lists


def _kbest_records(path) -> Iterator[tuple]:
    """(where, sent_id, hypothesis) per k-best line."""
    message = "expected sent_id ||| tokens ||| score"
    records = read_records(path, " ||| ", range(3, sys.maxsize), message)
    for where, parts in records:
        try:
            score = float(parts[-1])
        except ValueError:
            raise ValueError(
                f"{where}: bad decoder score {parts[-1]!r}"
            ) from None
        tokens = tuple(parts[1].split())
        yield where, parts[0].strip(), Hypothesis(tokens, score)


def _each_sentence_once(items: Iterable) -> Iterator:
    """items, failing on a sent_id an earlier item had (compared
    stripped): a reader would merge or reject the two runs of lines."""
    seen: set[str] = set()
    for item in items:
        if item.sent_id.strip() in seen:
            raise ValueError(f"sentence {item.sent_id!r} written twice")
        seen.add(item.sent_id.strip())
        yield item


def write_matchlists(
    matchlists: Iterable[MatchList], coll: Collection, path
) -> None:
    """Dump match lists over coll, one ``sent_id ||| caption_id ||| score
    ||| flag`` line per match. Sentences with no matches emit one line
    with the placeholder caption_id ``-`` so fallback flags survive a
    round trip. A sentence written twice, a match checked_row refuses,
    or an id holding `` ||| `` or a line break, fails, leaving no file."""

    def lines():
        for ml in _each_sentence_once(matchlists):
            flag = str(int(ml.used_fallback))
            named = [
                (coll.caption_ids[checked_row(r, s, len(coll))], repr(s))
                for r, s in ml.matches
            ]
            for cid, score in named or [("-", "0.0")]:
                fields = [ml.sent_id, cid, score, flag]
                what = f"sentence {ml.sent_id!r}, caption_id {cid!r}"
                yield joined_line(fields, " ||| ", what)

    write_lines(path, lines())


def read_matchlists(path, coll: Collection) -> list[MatchList]:
    """Read a match dump back, resolving caption ids to rows of coll.

    Only a ``- ||| 0.0`` line is the empty-list placeholder; ``-`` with
    any other score is a caption id like any other. Raises, naming the
    line, on an unknown caption id, a match checked_row refuses, or a
    fallback flag other than 0 or 1 or differing within a sentence.
    """
    row_of = dict(zip(coll.caption_ids, range(len(coll))))
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
            if caption_id not in row_of:
                raise ValueError(f"{where}: unknown caption_id {caption_id!r}")
            try:
                row = checked_row(row_of[caption_id], score, len(coll))
                matches.append((row, score))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
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
    for a missing image id; an empty image_id fails.
    """
    queries: dict[str, Query] = {}
    for where, fields in read_records(
        path, "\t", (2, 3), "expected 2 or 3 tab-separated fields"
    ):
        sent_id = fields[0].strip()
        if sent_id in queries:
            raise ValueError(f"{where}: duplicate sent_id {sent_id!r}")
        if not fields[1]:
            raise ValueError(f"{where}: empty image_id ('-' marks none)")
        image_id = fields[1] if fields[1] != "-" else None
        categories = parse_categories(fields[2]) if len(fields) == 3 else None
        queries[sent_id] = Query(image_id, categories)
    return queries
