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

load_collection and load_features keep the arrays they build in a
sidecar beside their input, ``<file>.tsr-index.npz``, keyed by the
sha256 of the file and of this loader's source; a repeat load of an
unchanged file adopts them, checked, instead of parsing the text. The
text stays the source: a sidecar that is missing, stale or damaged is
ignored and rewritten, and one that cannot be written is skipped.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import logging
import math
import operator
import os
import sys
import zipfile
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from . import textcore
from .textcore import check_not_str, read_blocks, write_arrays, write_lines

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
    given category set must be non-empty, and tokens not a str;
    EmptyCaption when only the tokens are empty. Each rule is one pass
    over a column, and its message names the first record or the
    column: a caller with many records that is refused checks them one
    at a time to name the bad one."""
    if not (all(caption_ids) and all(image_ids)):
        raise ValueError("empty caption_id or image_id")
    check_not_str("tokens", token_lists)
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

    All derived structures are made once in the constructor, by one of
    two paths: built from docs or from the columns load_collection
    parsed, or adopted from the arrays of a sidecar (see
    load_collection). Both end in _check, which states the collection's
    invariants. The docs themselves are not kept.
    """

    def __init__(
        self,
        docs: Iterable[CaptionDoc] = (),
        columns: Columns | None = None,
        stored: dict[str, np.ndarray] | None = None,
    ):
        if stored is not None:
            self._adopt(stored)
        else:
            if columns is None:
                docs = list(docs)
                fields = ("caption_id", "image_id", "tokens", "categories")
                columns = Columns.of(
                    [[list(map(operator.attrgetter(f), docs)) for f in fields]]
                )
            self._build(columns)
        self.type_counts = np.diff(self.matrix.indptr).astype(np.float64)
        self._check()

    def _build(self, columns: Columns) -> None:
        self.caption_ids = ids = columns.caption_ids
        self.image_code = columns.image_code
        self.images = columns.images
        # Rank of each doc's caption_id in string order, used as the
        # deterministic tie-break key when scores are equal.
        self.caption_rank, i = _string_rank(ids)
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
        self.term_rank, _ = _string_rank(list(self.vocab))
        final = np.empty(len(order), dtype=np.int32)
        final[order] = np.arange(len(order), dtype=np.int32)
        # Replacing the provisional ids frees them before the matrix is
        # built: only one per-token id array is alive while it is, and
        # none once the columns are dropped.
        columns.tokens = final[columns.tokens]
        self.matrix = _csr(
            *_type_incidence(columns.lengths, columns.tokens, len(order)),
            len(order),
        )

        # Category sets mapped to small group ids; -1 marks docs with
        # no annotations (they can never satisfy a strict-equality gate).
        self.cat_group = columns.group
        self._cat_groups = dict(zip(columns.group_sets, itertools.count()))

    def _adopt(self, stored: dict[str, np.ndarray]) -> None:
        """Take the arrays _stored wrote, laid out as _COLLECTION_ARRAYS
        says; ValueError if a blob does not decode."""
        self.caption_ids = _strings(stored["caption_ids"])
        self.image_code = stored["image_code"]
        self.images = _strings(stored["images"])
        self.caption_rank = stored["caption_rank"]
        self.offsets = stored["offsets"]
        terms = _strings(stored["terms"])
        self.vocab = dict(zip(terms, itertools.count()))
        self.term_rank = stored["term_rank"]
        self.matrix = _csr(stored["indptr"], stored["indices"], len(terms))
        self.cat_group = stored["cat_group"]
        groups = _strings(stored["group_sets"])
        self._cat_groups = {
            frozenset(labels.split(",")): i for i, labels in enumerate(groups)
        }

    def _stored(self) -> dict[str, np.ndarray]:
        """The arrays _adopt takes back, strings as _blob writes them.
        Only a collection read from a file is stored: none of its ids,
        terms or labels holds a line break, a term no whitespace and a
        label no comma."""
        return {
            "caption_ids": _blob(self.caption_ids),
            "image_code": self.image_code,
            "images": _blob(self.images),
            "caption_rank": self.caption_rank,
            "offsets": self.offsets,
            "terms": _blob(self.vocab),
            "term_rank": self.term_rank,
            "indptr": self.matrix.indptr.astype(np.int64),
            "indices": self.matrix.indices.astype(np.int32, copy=False),
            "cat_group": self.cat_group,
            "group_sets": _blob(",".join(sorted(g)) for g in self._cat_groups),
        }

    def _check(self) -> None:
        """The collection's invariants; ValueError naming the first that
        fails. Each rule is checked only once those before it hold."""
        n, n_terms = len(self.caption_ids), len(self.vocab)
        lengths, matrix = np.diff(self.offsets), self.matrix
        indptr, indices = matrix.indptr, matrix.indices
        types = np.diff(indptr)

        def require(holds, rule: str) -> None:
            if not holds:
                raise ValueError(f"collection index: not {rule}")

        require(
            self.image_code.shape == self.caption_rank.shape
            == self.cat_group.shape == lengths.shape == (n,)
            and self.offsets.shape == (n + 1,)
            and matrix.shape == (n, n_terms)
            and self.term_rank.shape == (n_terms,),
            "one entry per caption and per term in each array",
        )
        require(
            self.offsets[0] == 0 and (lengths > 0).all(),
            "a token in each caption",
        )
        require(
            indptr[0] == 0 and indptr[-1] == indices.size
            and (types > 0).all() and (types <= lengths).all(),
            "a type in each row, and no more types than tokens",
        )
        require(
            not indices.size or 0 <= indices.min() <= indices.max() < n_terms,
            "every term id in range",
        )
        require(_rows_ascend(indptr, indices), "each row strictly ascending")
        require(
            _sorts(self.caption_ids, self.caption_rank),
            "a caption_rank that sorts the caption ids, each id once",
        )
        require(
            _sorts(list(self.vocab), self.term_rank),
            "a term_rank that sorts the terms, each term once",
        )
        require(
            not n or 0 <= self.image_code.min()
            <= self.image_code.max() < len(self.images),
            "every image code in range",
        )
        require(len(set(self.images)) == len(self.images), "distinct images")
        require(
            not n or -1 <= self.cat_group.min()
            <= self.cat_group.max() < len(self._cat_groups),
            "every category group in range",
        )
        groups = list(self._cat_groups.values())
        require(
            groups == list(range(len(groups))) and all(self._cat_groups),
            "distinct, non-empty category sets, numbered in order",
        )

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


def _string_rank(strings: list[str]) -> tuple[np.ndarray, int | None]:
    """The int32 rank of each string in Python's string order, and the
    first index holding a string an earlier one holds (None if none),
    from one stable sort of the strings as Python objects: equal strings
    sit next to each other in list order, the later of each pair a
    repeat. A numpy string sort would tie strings that differ only by
    trailing NULs."""
    ranked = np.array(strings, dtype=object)
    order = np.argsort(ranked, kind="stable")
    ranked = ranked[order]
    rank = np.empty(len(strings), dtype=np.int32)
    rank[order] = np.arange(len(strings))
    repeats = order[1:][ranked[1:] == ranked[:-1]]
    return rank, int(repeats.min()) if repeats.size else None


def _sorts(strings: list[str], rank: np.ndarray) -> bool:
    """Whether rank is a permutation that puts strings in strictly
    ascending Python string order: one pass, no sort."""
    n = len(strings)
    if rank.shape != (n,) or (n and not 0 <= rank.min() <= rank.max() < n):
        return False
    seen = np.zeros(n, dtype=bool)
    seen[rank] = True
    ranked = np.empty(n, dtype=object)
    ranked[rank] = strings
    return bool(seen.all() and (ranked[:-1] < ranked[1:]).all())


def _rows_ascend(indptr: np.ndarray, indices: np.ndarray) -> bool:
    """Whether each row of CSR arrays whose rows are all non-empty holds
    strictly increasing column indices."""
    rising = indices[1:] > indices[:-1]
    rising[indptr[1:-1] - 1] = True  # a row's last to the next's first
    return bool(rising.all())


def _blob(strings: Iterable[str]) -> np.ndarray:
    """strings as one UTF-8 byte array, each ended by a line break; none
    may hold one."""
    strings = list(strings)
    text = "\n".join(strings) + "\n" if strings else ""
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8)


def _strings(blob: np.ndarray) -> list[str]:
    """The strings of a _blob; ValueError if it is not one."""
    strings = blob.tobytes().decode("utf-8").split("\n")
    if strings.pop():
        raise ValueError("collection index: a string blob is not ended")
    return strings


def _type_incidence(
    lengths: np.ndarray, tokens: np.ndarray, n_terms: int
) -> tuple[np.ndarray, np.ndarray]:
    """The CSR indptr and int32 indices of the docs-by-terms matrix with
    1.0 where a term is a type of a doc. One sort of the (doc, term)
    keys orders every row by term id; int64, as docs times terms
    outgrows int32. Each row's extent is searched for in the sorted
    keys, with no second key-sized array of doc ids, and the term ids
    are cut to int32 and the keys freed before they are returned. A
    function of its own so that its temporaries are freed on return:
    that bounds the load's peak memory."""
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
    return indptr, keys.astype(np.int32)


def _csr(
    indptr: np.ndarray, indices: np.ndarray, n_terms: int
) -> sparse.csr_matrix:
    """The docs-by-terms matrix of int64 indptr and int32 indices, 1.0 at
    each entry; with its data array made last, scipy makes no converting
    copy. scipy is imported here, not with the module, so that the
    commands that build no index never load it."""
    from scipy import sparse

    return sparse.csr_matrix(
        (np.ones(indices.size), indices, indptr),
        shape=(indptr.size - 1, n_terms),
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

    Unless skip_empty is set, the load goes through the file's sidecar
    (see _through_sidecar): a repeat load of an unchanged file adopts
    the built arrays and does not parse it.
    """
    if skip_empty:
        return Collection(columns=_read_columns(path, skip_empty=True))
    return _through_sidecar(
        path,
        _COLLECTION_ARRAYS,
        lambda stored: Collection(stored=stored),
        lambda: Collection(columns=_read_columns(path, skip_empty=False)),
        Collection._stored,
    )


# Suffix of the sidecar beside a collection or feature file.
SIDECAR = ".tsr-index.npz"
# The arrays of a sidecar, name -> (dtype, ndim), besides its uint8 key.
# Strings are stored as _blob bytes.
_COLLECTION_ARRAYS = {
    "caption_ids": (np.uint8, 1),
    "image_code": (np.int32, 1),
    "images": (np.uint8, 1),
    "caption_rank": (np.int32, 1),
    "offsets": (np.int64, 1),
    "terms": (np.uint8, 1),
    "term_rank": (np.int32, 1),
    "indptr": (np.int64, 1),
    "indices": (np.int32, 1),
    "cat_group": (np.int32, 1),
    "group_sets": (np.uint8, 1),
}
_FEATURE_ARRAYS = {"ids": (np.uint8, 1), "matrix": (np.float32, 2)}
# What a sidecar that is missing, unreadable or refused raises: OSError
# when it cannot be opened, zipfile's own error on a bad CRC or
# structure, KeyError on a missing member, EOFError on a truncated one,
# RuntimeError (NotImplementedError included) on a flag or compression
# method it does not support, ValueError on a bad array header or a
# refused check.
_UNUSABLE = (
    OSError, ValueError, KeyError, EOFError, RuntimeError, zipfile.BadZipFile,
)


def _through_sidecar(path, layout, adopt, parse, arrays_of):
    """What adopt makes of the arrays of path's sidecar, ``<path>.tsr-
    index.npz``, when its key is path's and its arrays have layout;
    else what parse makes of the file, whose arrays_of are written as
    its sidecar. adopt raises ValueError on arrays that break a rule.
    The key is the sha256 of the file's bytes, then of the loader's
    source, so an edited file or a changed loader never reuses a
    sidecar. The file is hashed again after the parse, and the sidecar
    written only if it did not change meanwhile. A sidecar that cannot
    be written is skipped with a warning: the result never depends on
    the sidecar. Only a regular file has one: a pipe cannot be read
    twice."""
    if not os.path.isfile(path):
        return parse()
    sidecar = f"{os.fspath(path)}{SIDECAR}"
    key = _key(path)
    try:
        return adopt(_read_arrays(sidecar, key, layout))
    except _UNUSABLE:
        pass
    built = parse()
    if np.array_equal(_key(path), key):
        try:
            write_arrays(sidecar, {"key": key, **arrays_of(built)})
        except OSError as exc:
            log.warning("%s: sidecar not written: %s", sidecar, exc)
    return built


def _read_arrays(sidecar: str, key: np.ndarray, layout) -> dict:
    """The arrays of the sidecar, read-only, checked against key and
    layout; an error of _UNUSABLE if they do not match, or the file is
    unusable. Each array is read to its end, so that zipfile checks its
    CRC, and its header must be the .npy 1.0 header write_arrays writes
    and give the size read: a damaged header never makes an array of
    another size."""
    with zipfile.ZipFile(sidecar) as archive:

        def read(name: str, dtype, ndim: int) -> np.ndarray:
            with archive.open(f"{name}.npy") as member:
                if np.lib.format.read_magic(member) != (1, 0):
                    raise ValueError(f"sidecar array {name} not .npy 1.0")
                header = np.lib.format.read_array_header_1_0(member)
                shape, fortran, got = header
                data = member.read()
            if (got, len(shape), fortran) != (dtype, ndim, False) or (
                math.prod(shape) * got.itemsize != len(data)
            ):
                raise ValueError(f"sidecar array {name} of another layout")
            return np.frombuffer(data, dtype).reshape(shape)

        if not np.array_equal(read("key", np.uint8, 1), key):
            raise ValueError("stale sidecar")
        return {name: read(name, *spec) for name, spec in layout.items()}


@functools.cache
def _loader_digest() -> bytes:
    """The sha256 of the source of this module and of textcore, as
    loaded."""
    digest = hashlib.sha256()
    for module in (sys.modules[__name__], textcore):
        with open(module.__file__, "rb") as handle:
            digest.update(handle.read())
    return digest.digest()


def _key(path) -> np.ndarray:
    """A sidecar's key for the file at path: the sha256 of its bytes,
    read a chunk at a time, then _loader_digest, as uint8."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 20):
            digest.update(chunk)
    return np.frombuffer(digest.digest() + _loader_digest(), dtype=np.uint8)


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
        self,
        blocks: Iterable[tuple[Iterable[str], list, list]],
        matrix: np.ndarray | None = None,
    ) -> None:
        """Keep one float32 row per image of each ``(labels, image_ids,
        components)`` block, values read as float64 and rounded. Fails as
        ``<label>: ...`` on a repeated id, a non-number, an empty vector,
        a length other than the first row's, or a value not finite once
        rounded. Each rule is one pass over the block; a refused block is
        checked one row at a time, so that its first bad row is named.
        Checked rows are appended to one growing float32 buffer, which
        becomes the matrix without a copy; given the float32 matrix whose
        rows the blocks are, in order, as a sidecar's are, that matrix
        is kept instead, so that no second copy is made."""
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
            if matrix is None:
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
        if matrix is None:
            matrix = np.frombuffer(values, np.float32)
            matrix = matrix.reshape(len(self._row), dim)
        self.matrix = matrix

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
    naming its ``<file>:<line>``. The load goes through the file's
    sidecar, as load_collection's does; adopted rows pass the checks
    parsed ones do."""
    return _through_sidecar(
        path, _FEATURE_ARRAYS, _adopt_features, lambda: _parse_features(path),
        lambda store: {"ids": _blob(store._row), "matrix": store.matrix},
    )


def _parse_features(path) -> FeatureStore:
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


def _adopt_features(stored: dict[str, np.ndarray]) -> FeatureStore:
    """The FeatureStore of a sidecar's arrays, through the checks of
    parsed blocks; ValueError if they fail, or the rows are not one per
    id. Rows are checked 4,096 at a time, so that no float64 copy of the
    whole matrix is made."""
    ids, matrix = _strings(stored["ids"]), stored["matrix"]
    if len(ids) != len(matrix):
        raise ValueError("feature sidecar: not one row per id")
    store = FeatureStore()
    blocks = (
        (ids[i:i + 4096], matrix[i:i + 4096]) for i in range(0, len(ids), 4096)
    )
    store._fill(
        ((map("image {!r}".format, b), b, rows) for b, rows in blocks), matrix
    )
    return store
