"""Captioned-image collection: ingest, inverted index, image features.

A collection is a list of caption documents, each tying a caption (one
pre-tokenized target-language sentence) to an image id and, optionally,
to a set of object-category labels. The collection file format is one
record per line:

    caption_id<TAB>image_id<TAB>token token ...<TAB>cat1,cat2

with the fourth field optional. Feature files carry one image embedding
per line as ``image_id<TAB>f1 f2 ... fD`` with a constant D per file.

A Collection is held as columns, not as one object per caption: the
caption ids and image ids as lists of str, every caption's term ids in
token order as one int32 array cut by an offsets array, and one
category group id per doc (-1 for none) into the list of distinct
category sets, numbered by first appearance. Retrieval and rerank name
a caption by its row; no ``CaptionDoc`` is made back from the columns.

Indexing builds a docs-by-terms type-incidence matrix in CSR form, so
retrieval can score the whole collection with one sparse matrix-vector
product, and rerank reads a matched caption's types from its row. Each
row holds its doc's term ids in ascending order. Term ids are ordered
by (first doc holding the term, term string), the order a walk over
the docs in file order, each doc's types sorted, assigns them; so score
accumulation order, and therefore every output byte, is reproducible
across runs.
"""

from __future__ import annotations

import itertools
import logging
import operator
import os
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

import numpy as np

from .textcore import joined_line, read_records, write_lines

if TYPE_CHECKING:
    from scipy import sparse

log = logging.getLogger(__name__)


class EmptyCaption(ValueError):
    """A caption without tokens; load_collection may skip these."""


def check_record(
    caption_id: str,
    image_id: str,
    tokens: Sequence[str],
    categories: frozenset[str] | None,
) -> None:
    """The rules of one caption record: ids, tokens and a given category
    set must be non-empty; EmptyCaption when only the tokens are."""
    if not caption_id or not image_id:
        raise ValueError("empty caption_id or image_id")
    if not tokens:
        raise EmptyCaption(f"empty caption {caption_id!r}")
    if categories is not None and not categories:
        raise ValueError(f"empty category set on caption {caption_id!r}")


@dataclass(frozen=True)
class CaptionDoc:
    """One caption of one image, with optional category annotations,
    checked by check_record."""

    caption_id: str
    image_id: str
    tokens: tuple[str, ...]
    categories: frozenset[str] | None = None

    def __post_init__(self):
        check_record(
            self.caption_id, self.image_id, self.tokens, self.categories
        )


@dataclass
class Columns:
    """Checked caption records before indexing. Term ids are provisional:
    given in order of first appearance in the token stream."""

    caption_ids: list[str]
    image_ids: list[str]
    lengths: np.ndarray  # token count per doc
    tokens: np.ndarray  # provisional term id per token, docs in order
    terms: list[str]  # term per provisional id
    group: np.ndarray  # category group id per doc, -1 for none
    group_sets: list[frozenset[str]]
    where: Callable[[int], str] = lambda i: ""  # error prefix of doc i

    @classmethod
    def of(cls, records: Iterable[tuple]) -> Columns:
        """Columns of checked (caption_id, image_id, tokens, categories)."""
        ids, images, lengths, tokens, group = [], [], [], [], []
        term_ids = defaultdict(itertools.count().__next__)
        group_ids: dict[frozenset[str], int] = {}
        add_tokens, term_id = tokens.extend, term_ids.__getitem__
        for caption_id, image_id, toks, cats in records:
            ids.append(caption_id)
            images.append(image_id)
            lengths.append(len(toks))
            add_tokens(map(term_id, toks))
            group.append(
                -1 if cats is None
                else group_ids.setdefault(cats, len(group_ids))
            )
        return cls(
            ids,
            images,
            np.array(lengths, dtype=np.int64),
            np.array(tokens, dtype=np.int32),
            list(term_ids),
            np.array(group, dtype=np.int64),
            list(group_ids),
        )


class Collection:
    """Immutable indexed collection of caption documents.

    Safe for concurrent reads; all derived structures are built once in
    the constructor, from docs or from the columns load_collection
    parsed. The docs themselves are not kept.
    """

    def __init__(
        self, docs: Iterable[CaptionDoc] = (), columns: Columns | None = None
    ):
        if columns is None:
            columns = Columns.of(
                (d.caption_id, d.image_id, d.tokens, d.categories)
                for d in docs
            )
        self.caption_ids = ids = columns.caption_ids
        self.image_ids = columns.image_ids
        # Rank of each doc's caption_id in string order, used as the
        # deterministic tie-break key when scores are equal.
        self.caption_rank = _string_rank(ids)
        i = _first_repeat(ids, self.caption_rank)
        if i is not None:
            where = columns.where(i)
            raise ValueError(f"{where}duplicate caption_id {ids[i]!r}")

        # Final term ids order terms by (first doc, term string). Each new
        # provisional id is one above all ids before it in the token
        # stream, so first appearances are where the running max grows.
        self.offsets = np.concatenate(([0], np.cumsum(columns.lengths)))
        grows = np.diff(np.maximum.accumulate(columns.tokens), prepend=-1) > 0
        first = np.flatnonzero(grows)  # token position, by provisional id
        doc_of = np.searchsorted(self.offsets, first, "right") - 1
        terms, first_doc = columns.terms, doc_of.tolist()
        order = sorted(
            range(len(terms)), key=lambda p: (first_doc[p], terms[p])
        )
        self.vocab = {terms[p]: i for i, p in enumerate(order)}
        self._term_of = np.array(list(self.vocab), dtype=object)
        # Rank of each term id's string in string order: rerank sums a
        # caption's types in that order.
        self.term_rank = _string_rank(list(self.vocab))
        final = np.empty(len(order), dtype=np.int32)
        final[order] = np.arange(len(order), dtype=np.int32)
        self._tokens = final[columns.tokens]
        self.matrix, counts = _type_incidence(
            columns.lengths, self._tokens, len(order)
        )
        self.type_counts = counts.astype(np.float64)

        # Category sets mapped to small group ids; -1 marks docs with
        # no annotations (they can never satisfy a strict-equality gate).
        self.cat_group = columns.group
        self._cat_groups = dict(zip(columns.group_sets, itertools.count()))
        # Indexed by group id; group -1 reads the None at the end.
        self._categories = [*columns.group_sets, None]

    def __len__(self) -> int:
        return len(self.caption_ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Collection):
            return NotImplemented
        # Term ids and group ids follow from the docs alone, so equal
        # docs give equal columns, and equal columns equal docs.
        return (
            self.caption_ids == other.caption_ids
            and self.image_ids == other.image_ids
            and self.vocab == other.vocab
            and self._categories == other._categories
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self._tokens, other._tokens)
            and np.array_equal(self.cat_group, other.cat_group)
        )

    def __repr__(self) -> str:
        return (
            f"Collection(docs={len(self)}, images={len(set(self.image_ids))},"
            f" terms={len(self.vocab)})"
        )

    def _token_tuples(self) -> Iterator[tuple[str, ...]]:
        """The tokens of every doc, in doc order."""
        words = tuple(self._term_of[self._tokens].tolist())
        bounds = self.offsets.tolist()
        return (words[a:b] for a, b in zip(bounds, bounds[1:]))

    def category_group(self, categories: Iterable[str]) -> int | None:
        """Group id of an exact category set; None if no doc carries it."""
        return self._cat_groups.get(frozenset(categories))


def _string_rank(strings: list[str]) -> np.ndarray:
    """The rank of each string in Python's string order. A numpy string
    sort would tie strings that differ only by trailing NULs."""
    n = len(strings)
    rank = np.empty(n, dtype=np.int64)
    rank[sorted(range(n), key=strings.__getitem__)] = np.arange(n)
    return rank


def _first_repeat(strings: list[str], rank: np.ndarray) -> int | None:
    """The first index holding a string an earlier one holds. Equal strings
    rank next to each other, in list order, in _string_rank(strings)."""
    order = np.empty_like(rank)
    order[rank] = np.arange(rank.size)
    ranked = list(map(strings.__getitem__, order.tolist()))
    same = np.fromiter(map(operator.eq, ranked[1:], ranked), bool)
    return min(order[1:][same].tolist(), default=None)


def _type_incidence(
    lengths: np.ndarray, tokens: np.ndarray, n_terms: int
) -> tuple[sparse.csr_matrix, np.ndarray]:
    """The docs-by-terms matrix with 1.0 where a term is a type of a doc,
    and each doc's type count. One sort of the (doc, term) keys orders
    every row by term id; int64, as docs times terms outgrows int32. A
    function of its own so that its key arrays are freed on return,
    before the constructor's next pass: that bounds the load's peak
    memory. scipy is imported here, not with the module, so that the
    commands that build no index never load it."""
    from scipy import sparse

    n = lengths.size
    width = max(n_terms, 1)
    keys = np.repeat(np.arange(n, dtype=np.int64), lengths)
    keys *= width
    keys += tokens
    keys.sort()
    if keys.size:
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    counts = np.bincount(keys // width, minlength=n)
    keys %= width  # each type's term id
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    matrix = sparse.csr_matrix(
        (np.ones(keys.size), keys, indptr), shape=(n, n_terms)
    )
    return matrix, counts


def parse_categories(field: str) -> frozenset[str] | None:
    """The labels of a ``cat1,cat2`` field; None when it names none."""
    return frozenset(c for c in field.split(",") if c) or None


def load_collection(path, skip_empty: bool = False) -> Collection:
    """Build a Collection from the collection file at path; a collection
    built in code comes from ``Collection(docs)`` instead.

    Records with empty captions are rejected (the scorers normalize by
    type count, which an empty caption would make undefined) unless
    skip_empty is set, in which case they are dropped with a warning.
    Errors and warnings locate the record as ``<path>:<line>``.
    """
    name = os.fspath(path)
    kept = array("q")  # line number of each kept record

    def records():
        message = "expected 3 or 4 tab-separated fields, got {n}"
        lines = read_records(path, "\t", (3, 4), message, numbered=True)
        for lineno, fields in lines:
            tokens = fields[2].split()
            cats = parse_categories(fields[3]) if len(fields) == 4 else None
            try:
                check_record(fields[0], fields[1], tokens, cats)
            except ValueError as exc:
                where = f"{name}:{lineno}"
                if not (skip_empty and isinstance(exc, EmptyCaption)):
                    raise ValueError(f"{where}: {exc}") from None
                log.warning("%s: skipping %s", where, exc)
                continue
            kept.append(lineno)
            yield fields[0], fields[1], tokens, cats

    columns = Columns.of(records())
    columns.where = lambda i: f"{name}:{kept[i]}: "
    return Collection(columns=columns)


def save_collection(coll: Collection, path) -> None:
    """Persist a collection in the record format read by load_collection.

    Loading the result reproduces an equal Collection with the same term
    ids and index matrix. A record that would read back as other data
    (a tab or line break in a field, whitespace in a token, a comma in
    a label or an empty one) fails naming its caption, leaving no file.
    Only docs built in code can hold these, so the check is made per
    written line, not in check_record, which the file route runs.
    """
    groups = coll._categories
    # The fourth field of each group, none for group -1 (the last).
    labels = [[",".join(sorted(c))] for c in groups[:-1]] + [[]]

    def lines():
        for caption_id, image_id, tokens, g in zip(
            coll.caption_ids, coll.image_ids, coll._token_tuples(),
            coll.cat_group.tolist(),
        ):
            text = " ".join(tokens)
            same = tuple(text.split()) == tokens and all(
                parse_categories(field) == groups[g] for field in labels[g]
            )
            fields = [caption_id, image_id, text, *labels[g]]
            yield joined_line(fields, "\t", f"caption {caption_id!r}", same)

    write_lines(path, lines())


class FeatureStore:
    """Dense image embeddings keyed by image id.

    Vectors are stored as float32. The cnn gate's distances upcast them
    to float64 and sum each row in a fixed order, so their bits do not
    depend on the BLAS; its float32 bound, which does, only picks which
    rows to measure.
    """

    def __init__(self, vectors: dict[str, Sequence[float]] | None = None):
        self._fill((f"image {i!r}", i, v) for i, v in (vectors or {}).items())

    @np.errstate(over="ignore")  # rounding to float32 may overflow
    def _fill(self, records: Iterable[tuple[str, str, Sequence]]) -> None:
        """Keep one float32 row per ``(label, image_id, values)`` record,
        values read as float64 and rounded. Fails as ``<label>: ...`` on a
        repeated id, a non-number, an empty vector, a length other than
        the first row's, or a value not finite once rounded."""
        self._row: dict[str, int] = {}
        rows: list[np.ndarray] = []
        for label, image_id, values in records:
            if image_id in self._row:
                raise ValueError(f"{label}: repeated image_id {image_id!r}")
            try:
                row = np.asarray(values, np.float64).astype(np.float32)
            except ValueError:
                raise ValueError(
                    f"{label}: non-numeric feature component"
                ) from None
            if not row.size:
                raise ValueError(f"{label}: empty feature vector")
            dim = rows[0].size if rows else row.size
            if row.shape != (dim,):
                raise ValueError(
                    f"{label}: vector length {row.size} != {dim};"
                    " feature vectors must share one dimension"
                )
            if not np.isfinite(row).all():
                raise ValueError(f"{label}: non-finite feature component")
            self._row[image_id] = len(rows)
            rows.append(row)
        self.ids = list(self._row)
        self.matrix = np.vstack(rows) if rows else np.empty((0, 0), np.float32)

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, image_id) -> bool:
        return image_id in self._row

    def row_of(self, image_id: str) -> int | None:
        return self._row.get(image_id)

    def rows_of(self, image_ids: Iterable[str]) -> np.ndarray:
        """The feature row of each image id, -1 for one without."""
        lookup = map(self._row.get, image_ids, itertools.repeat(-1))
        return np.fromiter(lookup, dtype=np.int64)


def load_features(path) -> FeatureStore:
    """Read a feature file into a FeatureStore; a malformed line fails
    naming its ``<file>:<line>``."""
    message = "expected image_id<TAB>components"
    records = read_records(path, "\t", (2,), message)
    store = FeatureStore()
    store._fill((where, img, rest.split()) for where, (img, rest) in records)
    return store
