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

import logging
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from .textcore import read_records, write_lines

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CaptionDoc:
    """One caption of one image, with optional category annotations."""

    caption_id: str
    image_id: str
    tokens: tuple[str, ...]
    categories: frozenset[str] | None = None


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
            if not doc.tokens:
                raise ValueError(f"empty caption {doc.caption_id!r}")
            if doc.categories is not None and not doc.categories:
                raise ValueError(
                    f"empty category set on caption {doc.caption_id!r}"
                )
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
        caption_id, image_id = fields[0], fields[1]
        if not caption_id or not image_id:
            raise ValueError(f"{where}: empty caption_id or image_id")
        tokens = tuple(fields[2].split())
        categories = parse_categories(fields[3]) if len(fields) == 4 else None
        if not tokens:
            if skip_empty:
                log.warning("%s: skipping empty caption %r", where, caption_id)
                continue
            raise ValueError(f"{where}: empty caption {caption_id!r}")
        if caption_id in seen:
            raise ValueError(
                f"{where}: duplicate caption_id {caption_id!r}"
            )
        seen.add(caption_id)
        docs.append(CaptionDoc(caption_id, image_id, tokens, categories))
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
        vectors = vectors or {}
        self.ids = list(vectors)
        self._row = {img: i for i, img in enumerate(self.ids)}
        if vectors:
            with np.errstate(over="ignore"):
                rows = [
                    np.asarray(v, dtype=np.float32) for v in vectors.values()
                ]
            dims = {r.shape for r in rows}
            if len(dims) > 1 or rows[0].ndim != 1 or rows[0].size == 0:
                raise ValueError("feature vectors must share one dimension")
            self.matrix = np.vstack(rows)
            self.dim: int | None = self.matrix.shape[1]
            if not np.all(np.isfinite(self.matrix)):
                bad = self.ids[
                    int(np.argwhere(~np.isfinite(self.matrix))[0][0])
                ]
                raise ValueError(f"non-finite feature component for {bad!r}")
        else:
            self.matrix = np.empty((0, 0), dtype=np.float32)
            self.dim = None

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, image_id: str) -> bool:
        return image_id in self._row

    def row_of(self, image_id: str) -> int | None:
        return self._row.get(image_id)


def load_features(path) -> FeatureStore:
    """Read a feature file into a FeatureStore.

    Raises on ragged vector lengths, non-finite components or repeated
    image ids.
    """
    vectors: dict[str, list[float]] = {}
    dim: int | None = None
    for where, (image_id, rest) in read_records(
        path, "\t", (2,), "expected image_id<TAB>components"
    ):
        if image_id in vectors:
            raise ValueError(f"{where}: repeated image_id {image_id!r}")
        try:
            vec = [float(x) for x in rest.split()]
        except ValueError:
            raise ValueError(
                f"{where}: non-numeric feature component"
            ) from None
        if not vec:
            raise ValueError(f"{where}: empty feature vector")
        if dim is None:
            dim = len(vec)
        elif len(vec) != dim:
            raise ValueError(f"{where}: vector length {len(vec)} != {dim}")
        vectors[image_id] = vec
    return FeatureStore(vectors)
