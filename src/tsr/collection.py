"""Captioned-image collection: ingest, inverted index, image features.

A collection is a list of caption documents, each tying a caption (one
pre-tokenized target-language sentence) to an image id and, optionally,
to a set of object-category labels. The collection file format is one
record per line:

    caption_id<TAB>image_id<TAB>token token ...<TAB>cat1,cat2

with the fourth field optional. Feature files carry one image embedding
per line as ``image_id<TAB>f1 f2 ... fD`` with a constant D per file.

Indexing builds a docs-by-terms type-incidence matrix in CSR form, so
retrieval can score the whole collection with one sparse matrix-vector
product. Each row holds its doc's term ids in ascending order; term ids
are assigned in a deterministic order (sorted within each doc, docs in
file order) so that score accumulation order, and therefore every
output byte, is reproducible across runs.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from .textcore import read_records, write_lines

log = logging.getLogger(__name__)


class EmptyCaption(ValueError):
    """A caption without tokens; ingest_collection may skip these."""


@dataclass(frozen=True)
class CaptionDoc:
    """One caption of one image, with optional category annotations.
    Ids, tokens and a given category set must be non-empty."""

    caption_id: str
    image_id: str
    tokens: tuple[str, ...]
    categories: frozenset[str] | None = None

    def __post_init__(self):
        if not self.caption_id or not self.image_id:
            raise ValueError("empty caption_id or image_id")
        if not self.tokens:
            raise EmptyCaption(f"empty caption {self.caption_id!r}")
        if self.categories is not None and not self.categories:
            raise ValueError(
                f"empty category set on caption {self.caption_id!r}"
            )


class Collection:
    """Immutable indexed collection of caption documents.

    Safe for concurrent reads; all derived structures are built once in
    the constructor.
    """

    def __init__(self, docs: Sequence[CaptionDoc]):
        self.docs = list(docs)
        n = len(self.docs)

        self._id_index: dict[str, int] = {}
        for i, doc in enumerate(self.docs):
            if doc.caption_id in self._id_index:
                raise ValueError(f"duplicate caption_id {doc.caption_id!r}")
            self._id_index[doc.caption_id] = i

        # Type-incidence matrix: one row per doc, one column per term,
        # entry 1.0 where the term is a type of the doc. Term ids are
        # assigned on first appearance, iterating each doc's types in
        # sorted order, which fixes the accumulation order of sparse
        # matvec products independent of hash seeds.
        vocab: dict[str, int] = {}
        indices: list[int] = []
        indptr = [0]
        type_counts = np.empty(n, dtype=np.float64)
        for i, doc in enumerate(self.docs):
            cols = [
                vocab.setdefault(term, len(vocab))
                for term in sorted(set(doc.tokens))
            ]
            cols.sort()
            indices.extend(cols)
            indptr.append(len(indices))
            type_counts[i] = len(cols)
        self.vocab = vocab
        self.matrix = sparse.csr_matrix(
            (
                np.ones(len(indices), dtype=np.float64),
                np.asarray(indices, dtype=np.int64),
                np.asarray(indptr, dtype=np.int64),
            ),
            shape=(n, len(vocab)),
        )
        self.type_counts = type_counts

        # Rank of each doc's caption_id in lexicographic order, used as
        # the deterministic tie-break key when scores are equal.
        order = sorted(range(n), key=lambda i: self.docs[i].caption_id)
        rank = np.empty(n, dtype=np.int64)
        for pos, i in enumerate(order):
            rank[i] = pos
        self.caption_rank = rank

        # Category sets mapped to small group ids; -1 marks docs with
        # no annotations (they can never satisfy a strict-equality gate).
        self._cat_groups: dict[frozenset[str], int] = {}
        cat_group = np.full(n, -1, dtype=np.int64)
        for i, doc in enumerate(self.docs):
            if doc.categories is not None:
                gid = self._cat_groups.setdefault(
                    doc.categories, len(self._cat_groups)
                )
                cat_group[i] = gid
        self.cat_group = cat_group

    def __len__(self) -> int:
        return len(self.docs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Collection):
            return NotImplemented
        return self.docs == other.docs

    def __repr__(self) -> str:
        images = len({doc.image_id for doc in self.docs})
        return (
            f"Collection(docs={len(self.docs)}, images={images},"
            f" terms={len(self.vocab)})"
        )

    def index_of(self, caption_id: str) -> int:
        """Doc index of a caption_id; KeyError if unknown."""
        return self._id_index[caption_id]

    def category_group(self, categories: Iterable[str]) -> int | None:
        """Group id of an exact category set; None if no doc carries it."""
        return self._cat_groups.get(frozenset(categories))


def parse_categories(field: str) -> frozenset[str] | None:
    """The labels of a ``cat1,cat2`` field; None when it names none."""
    return frozenset(c for c in field.split(",") if c) or None


def ingest_collection(
    lines: Iterable[str], skip_empty: bool = False
) -> Collection:
    """Build a Collection from record lines or from a collection file.

    Records with empty captions are rejected (the scorers normalize by
    type count, which an empty caption would make undefined) unless
    skip_empty is set, in which case they are dropped with a warning.
    Errors and warnings locate the record as ``<file>:<line>`` when
    lines is a path or an open file, as ``line <line>`` otherwise.
    """
    docs: list[CaptionDoc] = []
    seen: set[str] = set()
    for where, fields in read_records(
        lines, "\t", (3, 4), "expected 3 or 4 tab-separated fields, got {n}"
    ):
        cats = parse_categories(fields[3]) if len(fields) == 4 else None
        try:
            doc = CaptionDoc(*fields[:2], tuple(fields[2].split()), cats)
        except ValueError as exc:
            if not (skip_empty and isinstance(exc, EmptyCaption)):
                raise ValueError(f"{where}: {exc}") from None
            log.warning("%s: skipping %s", where, exc)
            continue
        if doc.caption_id in seen:
            raise ValueError(
                f"{where}: duplicate caption_id {doc.caption_id!r}"
            )
        seen.add(doc.caption_id)
        docs.append(doc)
    return Collection(docs)


def load_collection(path, skip_empty: bool = False) -> Collection:
    return ingest_collection(path, skip_empty=skip_empty)


def save_collection(coll: Collection, path) -> None:
    """Persist a collection in the record format read by load_collection.

    Loading the result reproduces an equal Collection with the same term
    ids and index matrix.
    """

    def lines():
        for doc in coll.docs:
            fields = [doc.caption_id, doc.image_id, " ".join(doc.tokens)]
            if doc.categories is not None:
                fields.append(",".join(sorted(doc.categories)))
            yield "\t".join(fields)

    write_lines(path, lines())


class FeatureStore:
    """Dense image embeddings keyed by image id.

    Vectors are stored as float32; distance computations upcast to
    float64 so accumulation error does not depend on summation order.
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
        self.dim: int | None = self.matrix.shape[1] if rows else None

    def __len__(self) -> int:
        return len(self.ids)

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
