"""Captioned-image collection: ingest, inverted index, image features.

A collection is a list of caption documents, each tying a caption (one
pre-tokenized target-language sentence) to an image id and, optionally,
to a set of object-category labels. The collection file format is one
record per line:

    caption_id<TAB>image_id<TAB>token token ...<TAB>cat1,cat2

with the fourth field optional. Feature files carry one image embedding
per line as ``image_id<TAB>f1 f2 ... fD`` with a constant D per file.

A Collection is held as columns, not as one object per caption: the
caption ids as a list of str; an image table, one int32 code per doc
into the list of distinct image ids, numbered by first appearance;
each caption's token count, as the differences of an offsets array;
and one int32 category group id per doc (-1 for none) into the list
of distinct category sets, numbered by first appearance. A caption's
term ids are kept only as its types, in the index below, since no
stage reads token order. Retrieval and rerank name a caption by its
row; no ``CaptionDoc`` is made back from the columns.

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

import functools
import itertools
import logging
import operator
import os
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from .textcore import read_blocks, write_lines

if TYPE_CHECKING:
    from scipy import sparse

log = logging.getLogger(__name__)

# The field-count message of every reader of a collection file.
_FIELDS = "expected 3 or 4 tab-separated fields, got {n}"


class EmptyCaption(ValueError):
    """A caption without tokens; load_collection may skip these."""


def check_records(
    caption_ids: Sequence[str],
    image_ids: Sequence[str],
    token_lists: Sequence[Sequence[str]],
    categories: Sequence[frozenset[str] | None],
) -> None:
    """The rules of caption records, given as columns: ids, tokens and a
    given category set must be non-empty; EmptyCaption when only the
    tokens are. Each rule is one pass over a column, and its message
    names the first record: a caller with many records that is refused
    checks them one at a time to name the bad one."""
    if not (all(caption_ids) and all(image_ids)):
        raise ValueError("empty caption_id or image_id")
    if not all(token_lists):
        raise EmptyCaption(f"empty caption {caption_ids[0]!r}")
    # Every set is None or non-empty.
    if categories.count(None) + sum(map(bool, categories)) < len(categories):
        raise ValueError(f"empty category set on caption {caption_ids[0]!r}")


@dataclass(frozen=True)
class CaptionDoc:
    """One caption of one image, with optional category annotations,
    checked by check_records."""

    caption_id: str
    image_id: str
    tokens: tuple[str, ...]
    categories: frozenset[str] | None = None

    def __post_init__(self):
        check_records(
            (self.caption_id,), (self.image_id,), (self.tokens,),
            (self.categories,),
        )


@dataclass
class Columns:
    """Checked caption records before indexing. Term ids are provisional:
    given in order of first appearance in the token stream."""

    caption_ids: list[str]
    image_code: np.ndarray  # int32 index into images per doc
    images: list[str]  # distinct image ids, by first appearance
    lengths: np.ndarray  # token count per doc
    tokens: np.ndarray  # provisional term id per token, docs in order
    terms: list[str]  # term per provisional id
    group: np.ndarray  # int32 category group id per doc, -1 for none
    group_sets: list[frozenset[str]]
    where: Callable[[int], str] = lambda i: ""  # error prefix of doc i

    @classmethod
    def of(cls, blocks: Iterable[Sequence[list]]) -> Columns:
        """Columns of checked records, given as blocks of four columns:
        caption ids, image ids, token lists and category sets (None for
        none). Each column of a block is taken in one pass. Image ids
        are interned as they are read: a record's own id str is dropped
        with its block unless it is the first of its image."""
        ids: list[str] = []
        codes, tokens, group = array("i"), array("i"), array("i")
        lengths = array("q")
        image_codes = defaultdict(itertools.count().__next__)
        term_ids = defaultdict(itertools.count().__next__)
        group_ids = defaultdict(itertools.count().__next__)
        group_ids[None] = -1
        for caption_ids, image_ids, token_lists, categories in blocks:
            ids += caption_ids
            codes.fromlist(list(map(image_codes.__getitem__, image_ids)))
            lengths.fromlist(list(map(len, token_lists)))
            flat = itertools.chain.from_iterable(token_lists)
            tokens.fromlist(list(map(term_ids.__getitem__, flat)))
            group.fromlist(list(map(group_ids.__getitem__, categories)))
        return cls(
            ids,
            np.frombuffer(codes, np.int32),
            list(image_codes),
            np.frombuffer(lengths, np.int64),
            np.frombuffer(tokens, np.int32),
            list(term_ids),
            np.frombuffer(group, np.int32),
            list(group_ids)[1:],
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
            docs = list(docs)
            fields = ("caption_id", "image_id", "tokens", "categories")
            columns = Columns.of(
                [[list(map(operator.attrgetter(f), docs)) for f in fields]]
            )
        self.caption_ids = ids = columns.caption_ids
        self.image_code = columns.image_code
        self.images = columns.images
        # Rank of each doc's caption_id in string order, used as the
        # deterministic tie-break key when scores are equal.
        self.caption_rank = _string_rank(ids)
        i = _first_repeat(ids, self.caption_rank)
        if i is not None:
            where = columns.where(i)
            raise ValueError(f"{where}duplicate caption_id {ids[i]!r}")

        # Final term ids order terms by (first doc, term string). Each new
        # provisional id is one above all ids before it in the token
        # stream, so an id first appears where the running max reaches it.
        self.offsets = np.concatenate(([0], np.cumsum(columns.lengths)))
        top = np.maximum.accumulate(columns.tokens)
        provisional = np.arange(len(columns.terms), dtype=top.dtype)
        first = np.searchsorted(top, provisional)  # token position, by id
        del top
        doc_of = np.searchsorted(self.offsets, first, "right") - 1
        terms, first_doc = columns.terms, doc_of.tolist()
        order = sorted(
            range(len(terms)), key=lambda p: (first_doc[p], terms[p])
        )
        self.vocab = {terms[p]: i for i, p in enumerate(order)}
        # Rank of each term id's string in string order: rerank sums a
        # caption's types in that order.
        self.term_rank = _string_rank(list(self.vocab))
        final = np.empty(len(order), dtype=np.int32)
        final[order] = np.arange(len(order), dtype=np.int32)
        # Replacing the provisional ids frees them before the matrix is
        # built: only one per-token id array is alive while it is, and
        # none once the columns are dropped.
        columns.tokens = final[columns.tokens]
        self.matrix = _type_incidence(
            columns.lengths, columns.tokens, len(order)
        )
        self.type_counts = np.diff(self.matrix.indptr).astype(np.float64)

        # Category sets mapped to small group ids; -1 marks docs with
        # no annotations (they can never satisfy a strict-equality gate).
        self.cat_group = columns.group
        self._cat_groups = dict(zip(columns.group_sets, itertools.count()))

    def __len__(self) -> int:
        return len(self.caption_ids)

    def __repr__(self) -> str:
        return (
            f"Collection(docs={len(self)}, images={len(self.images)},"
            f" terms={len(self.vocab)})"
        )

    def category_group(self, categories: Iterable[str]) -> int | None:
        """Group id of an exact category set; None if no doc carries it."""
        return self._cat_groups.get(frozenset(categories))


def _string_rank(strings: list[str]) -> np.ndarray:
    """The int32 rank of each string in Python's string order. A numpy
    string sort would tie strings that differ only by trailing NULs."""
    n = len(strings)
    rank = np.empty(n, dtype=np.int32)
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
) -> sparse.csr_matrix:
    """The docs-by-terms matrix with 1.0 where a term is a type of a doc.
    One sort of the (doc, term) keys orders every row by term id; int64,
    as docs times terms outgrows int32. Each row's extent is searched
    for in the sorted keys, with no second key-sized array of doc ids,
    and the term ids are cut to int32 and the keys freed before the
    data array is made, so scipy makes no converting copy. A function
    of its own so that its temporaries are freed on return: that bounds
    the load's peak memory. scipy is imported here, not with the module,
    so that the commands that build no index never load it."""
    from scipy import sparse

    n = lengths.size
    width = max(n_terms, 1)
    keys = np.repeat(np.arange(n, dtype=np.int64), lengths)
    keys *= width
    keys += tokens
    keys.sort()
    if keys.size:
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * width)
    keys %= width  # each type's term id
    indices = keys.astype(np.int32)
    del keys
    return sparse.csr_matrix(
        (np.ones(indices.size), indices, indptr), shape=(n, n_terms)
    )


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
    return Collection(columns=_read_columns(path, skip_empty))


def _read_columns(path, skip_empty: bool) -> Columns:
    """The Columns of the collection file at path, read a block of lines
    at a time; see load_collection. A function of its own, which returns
    before the index is built: what it holds to read the file is freed
    first."""
    name = os.fspath(path)
    kept = array("q")  # line number of each kept record
    parse = functools.lru_cache(maxsize=None)(parse_categories)

    def blocks():
        for linenos, rows in read_blocks(path, "\t", (3, 4), _FIELDS):
            block = [
                list(map(operator.itemgetter(0), rows)),
                list(map(operator.itemgetter(1), rows)),
                list(map(str.split, map(operator.itemgetter(2), rows))),
                [parse(row[3]) if len(row) == 4 else None for row in rows],
            ]
            try:
                check_records(*block)
            except ValueError:
                # Check one record at a time, to name the first bad one.
                for i, lineno in enumerate(linenos):
                    record = [column[i:i + 1] for column in block]
                    try:
                        check_records(*record)
                    except ValueError as exc:
                        where = f"{name}:{lineno}"
                        if not (skip_empty and isinstance(exc, EmptyCaption)):
                            raise ValueError(f"{where}: {exc}") from None
                        log.warning("%s: skipping %s", where, exc)
                        continue
                    kept.append(lineno)
                    yield record
                continue
            kept.extend(linenos)
            yield block

    columns = Columns.of(blocks())
    columns.where = lambda i: f"{name}:{kept[i]}: "
    return columns


def write_normal_form(path, out) -> None:
    """Write the collection file at path, which load_collection has
    accepted, to out in normal form. Each record that has a token is
    one line ``caption_id<TAB>image_id<TAB>tokens[<TAB>labels]``: its
    tokens joined by one space, and its labels, if any, sorted and
    joined by commas. The records without one are those skip_empty
    drops. The file is read again a block at a time, so its lines are
    never all held, and out may be path: write_lines renames over out
    only at the end. A record read from a file holds no tab or line
    break in a field, no whitespace in a token, no comma in a label and
    no empty label, so its line reads back as that record."""

    def lines():
        for _, rows in read_blocks(path, "\t", (3, 4), _FIELDS):
            for row in rows:
                tokens = row[2].split()
                if not tokens:
                    continue
                labels = parse_categories(row[3]) if len(row) == 4 else None
                text = [",".join(sorted(labels))] if labels else []
                yield "\t".join([row[0], row[1], " ".join(tokens), *text])

    write_lines(out, lines())


class FeatureStore:
    """Dense image embeddings keyed by image id.

    Vectors are stored as float32. The cnn gate's distances upcast them
    to float64 and sum each row in a fixed order, so their bits do not
    depend on the BLAS; its float32 bound, which does, only picks which
    rows to measure.
    """

    def __init__(self, vectors: dict[str, Sequence[float]] | None = None):
        vectors = vectors or {}
        labels = map("image {!r}".format, vectors)
        self._fill([(labels, list(vectors), list(vectors.values()))])

    @np.errstate(over="ignore")  # rounding to float32 may overflow
    def _fill(
        self, blocks: Iterable[tuple[Iterable[str], list, list]]
    ) -> None:
        """Keep one float32 row per image of each ``(labels, image_ids,
        components)`` block, values read as float64 and rounded. Fails as
        ``<label>: ...`` on a repeated id, a non-number, an empty vector,
        a length other than the first row's, or a value not finite once
        rounded. Each rule is one pass over the block; a refused block is
        checked one row at a time, so that its first bad row is named.
        Checked rows are appended to one growing float32 buffer, which
        becomes the matrix without a copy."""
        self._row: dict[str, int] = {}
        values = array("f")
        dim = 0

        def add(ids: list, components: list) -> None:
            """Check a block and keep its rows; a message names its first
            row, and a refused block keeps nothing."""
            nonlocal dim
            n = len(ids)
            if len(set(ids)) < n or not self._row.keys().isdisjoint(ids):
                raise ValueError(f"repeated image_id {ids[0]!r}")
            try:
                rows = np.asarray(components, np.float64).astype(np.float32)
            except ValueError:
                raise ValueError("non-numeric feature component") from None
            size = rows.size // n
            if not size:
                raise ValueError("empty feature vector")
            if rows.shape != (n, dim or size):
                raise ValueError(
                    f"vector length {size} != {dim or size};"
                    " feature vectors must share one dimension"
                )
            if not np.isfinite(rows).all():
                raise ValueError("non-finite feature component")
            dim = dim or size
            start = len(self._row)
            self._row.update(zip(ids, range(start, start + n)))
            values.frombytes(rows.tobytes())

        for labels, ids, components in blocks:
            if not ids:
                continue
            try:
                add(ids, components)
            except ValueError:
                for label, image_id, row in zip(labels, ids, components):
                    try:
                        add([image_id], [row])
                    except ValueError as exc:
                        raise ValueError(f"{label}: {exc}") from None
        self.matrix = np.frombuffer(values, np.float32).reshape(
            len(self._row), dim
        )

    def __len__(self) -> int:
        return len(self._row)

    def __contains__(self, image_id) -> bool:
        return image_id in self._row

    def row_of(self, image_id: str) -> int | None:
        return self._row.get(image_id)

    def rows_of(self, image_ids: Iterable[str]) -> np.ndarray:
        """The int32 feature row of each image id, -1 for one without."""
        lookup = map(self._row.get, image_ids, itertools.repeat(-1))
        return np.fromiter(lookup, dtype=np.int32)


def load_features(path) -> FeatureStore:
    """Read a feature file into a FeatureStore; a malformed line fails
    naming its ``<file>:<line>``."""
    name = os.fspath(path)
    message = "expected image_id<TAB>components"
    store = FeatureStore()
    store._fill(
        (
            (f"{name}:{lineno}" for lineno in linenos),
            list(map(operator.itemgetter(0), rows)),
            list(map(str.split, map(operator.itemgetter(1), rows))),
        )
        for linenos, rows in read_blocks(path, "\t", (2,), message)
    )
    return store
