"""Token primitives, the record reader and the atomic writers that every
artifact goes through, and inverse document frequency estimation.

All text handled by this package is assumed to be pre-tokenized and
lowercased; the only processing done here is whitespace splitting on
ingestion. One line of the source corpus counts as one document for
document-frequency purposes.

The IDF weight is idf(w) = ln(N / df(w)) with natural log. Terms never
seen in the corpus are given a document frequency of 1, so they receive
the largest finite weight ln(N) instead of an infinity that would leak
into relevance scores.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import numbers
import os
import sys
import uuid
import zipfile
from typing import IO, Container, Iterable, Iterator, Sequence

import numpy as np


# Lines per block of read_blocks. Loading txt-capacity's collection
# (409,110 lines) in fresh processes on a 2-vCPU VM took a median 1.86 s
# with 256-line blocks, 2.03 s with 512 and 2.31 s with 4,096, against
# 2.21 s reading a line at a time; on cnn-zipf, 256 and 128 tied.
_BLOCK = 256


def read_token_lines(path) -> Iterator[list[str]]:
    """Yield one token list per line of a UTF-8 text file, a blank line
    giving an empty list."""
    blocks = read_blocks(path, None, range(sys.maxsize), "", keep_blank=True)
    for _, rows in blocks:
        yield from rows


def read_blocks(
    path,
    sep: str | None,
    counts: Container[int],
    message: str,
    header: bool = False,
    keep_blank: bool = False,
) -> Iterator[tuple[Sequence[int], list[list[str]]]]:
    """Yield ``(line numbers, rows)`` per block of up to _BLOCK lines of
    the UTF-8 file at path, skipping whitespace-only lines unless
    keep_blank is set; no block is empty. Each line, less its newline, is
    split on sep (None: on whitespace) into a row, which needs a field
    count in counts, else ValueError ``<path>:<line>: <message>``, ``{n}``
    in message being the count; the rows before that line come first, as
    a block of their own. With header set, the raw first line comes
    first, unchecked, as the one-field row of line 1. A file whose first
    line starts with a byte-order mark fails as ``<path>:1: ...``: the
    mark would read as part of the first field."""
    name = os.fspath(path)
    with open(path, encoding="utf-8") as handle:
        first = next(handle, "")
        if first.startswith("\ufeff"):
            raise ValueError(
                f"{name}:1: starts with a byte-order mark; save the file"
                " as UTF-8 without one"
            )
        lines = itertools.chain([first] if first else [], handle)
        start = 1
        if header:
            yield range(1, 2), [[next(lines, "")]]
            start = 2
        while block := list(itertools.islice(lines, _BLOCK)):
            linenos: Sequence[int] = range(start, start + len(block))
            start += len(block)
            if not keep_blank and any(map(str.isspace, block)):
                kept = [i for i, line in enumerate(block) if line.strip()]
                if not kept:
                    continue
                linenos = [linenos[i] for i in kept]
                block = [block[i] for i in kept]
            rows = [line.rstrip("\n").split(sep) for line in block]
            if all(n in counts for n in set(map(len, rows))):
                yield linenos, rows
                continue
            bad = next(i for i, row in enumerate(rows) if len(row) not in counts)
            if bad:
                yield linenos[:bad], rows[:bad]
            where = f"{name}:{linenos[bad]}"
            raise ValueError(f"{where}: " + message.format(n=len(rows[bad])))


def read_records(
    path,
    sep: str,
    counts: Container[int],
    message: str,
    header=False,
    keep_blank=False,
) -> Iterator[tuple[str, list[str]]]:
    """Yield ``(where, fields)`` per row of read_blocks, one line at a
    time; where is ``<path>:<line>``."""
    name = os.fspath(path)
    for linenos, rows in read_blocks(
        path, sep, counts, message, header, keep_blank
    ):
        for lineno, fields in zip(linenos, rows):
            yield f"{name}:{lineno}", fields


def joined_line(
    fields: list[str], sep: str, what: str, ok: bool = True
) -> str:
    """fields joined by sep; ValueError naming what unless ok, the
    caller's check of a field's own parse, holds and read_records splits
    the line back into fields: no field holds sep or a line break."""
    line = sep.join(fields)
    if not ok or line.split(sep) != fields or "\n" in line or "\r" in line:
        raise ValueError(f"{what} would not read back from its line")
    return line


def each_sentence_once(items: Iterable) -> Iterator:
    """items, failing on a sent_id an earlier item had (compared
    stripped): a reader would merge or reject the two runs of lines."""
    seen: set[str] = set()
    for item in items:
        if item.sent_id.strip() in seen:
            raise ValueError(f"sentence {item.sent_id!r} written twice")
        seen.add(item.sent_id.strip())
        yield item


def is_number(value, kind) -> bool:
    """Whether value is of the numbers ABC kind; a bool is no number."""
    return isinstance(value, kind) and not isinstance(value, bool)


def check_count(name: str, value) -> None:
    """Reject anything but a positive integer; bools are not integers."""
    if not (is_number(value, numbers.Integral) and value >= 1):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def check_seed(seed) -> None:
    """Reject anything but a non-negative integer; bools are not integers."""
    if not (is_number(seed, numbers.Integral) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def check_not_str(name: str, sequences: Iterable) -> None:
    """ValueError naming the argument name if one of sequences is a str,
    which would be read as one token, or label, per character. One pass
    in C, so that a block of records costs little."""
    if any(map(str.__instancecheck__, sequences)):
        raise ValueError(f"{name}: a str where a sequence of strings belongs")


def write_lines(path, lines: Iterable[str]) -> None:
    """Write each of lines plus a newline to path as UTF-8, atomically:
    see _replacing."""
    with _replacing(path, "w") as handle:
        handle.writelines(line + "\n" for line in lines)


def write_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    """Write arrays to path as an uncompressed ``.npz``, which
    ``np.load(path, allow_pickle=False)`` reads back, atomically: see
    _replacing. Each array must be of numbers, not of objects. Each
    member is its ``.npy`` header and then the array's own memory, so
    no copy of an array is made (``np.savez`` makes one of up to 16 MiB
    per array)."""
    with _replacing(path, "wb") as handle, zipfile.ZipFile(handle, "w") as npz:
        for name, array in arrays.items():
            array = np.ascontiguousarray(array)
            header = np.lib.format.header_data_from_array_1_0(array)
            with npz.open(f"{name}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(member, header)
                member.write(memoryview(array.reshape(-1)).cast("B"))


@contextlib.contextmanager
def _replacing(path, mode: str) -> Iterator[IO]:
    """A handle, opened in mode, on a temporary file beside path that is
    renamed over path when the block ends. A failure partway, in the
    block too, removes that file and keeps an earlier path whole. A new
    file gets mode 0o666 under the umask, as open() gives."""
    tmp = f"{os.fspath(path)}.{uuid.uuid4().hex}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the output, not the temporary file
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        encoding = None if "b" in mode else "utf-8"
        with open(fd, mode, encoding=encoding) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


class IdfTable:
    """Document frequencies of terms over a monolingual corpus,
    immutable after construction."""

    def __init__(self, doc_count: int, df: dict[str, int]):
        if not is_number(doc_count, numbers.Integral):
            raise ValueError(
                f"doc_count must be an integer, got {doc_count!r}"
            )
        if doc_count <= 0:
            raise ValueError("doc_count must be positive")
        self.doc_count = doc_count
        self.df: dict[str, int] = {}
        for term, count in df.items():
            # load parses each df as an int, so only counts given in code
            # are checked for one.
            if not is_number(count, numbers.Integral):
                raise ValueError(
                    f"df({term!r}) must be an integer, got {count!r}"
                )
            self._add(term, count)

    def _add(self, term: str, count: int) -> None:
        """Enter one term: each term once, with 1 <= df <= doc_count."""
        if term in self.df:
            raise ValueError(f"repeated term {term!r}")
        if not 1 <= count <= self.doc_count:
            raise ValueError(
                f"df({term!r})={count} outside [1, {self.doc_count}]"
            )
        self.df[term] = count

    def idf(self, term: str) -> float:
        """ln(N / df(term)); unseen terms use the df=1 floor."""
        return math.log(self.doc_count / self.df.get(term, 1))

    def __len__(self) -> int:
        return len(self.df)

    def __repr__(self) -> str:
        return f"IdfTable(doc_count={self.doc_count}, terms={len(self.df)})"

    def save(self, path) -> None:
        """Write a line-oriented dump: header ``N=<doc_count>``, then one
        ``term<TAB>df`` line per term, sorted by term for reproducibility."""
        terms = [f"{term}\t{self.df[term]}" for term in sorted(self.df)]
        write_lines(path, [f"N={self.doc_count}", *terms])

    @classmethod
    def load(cls, path) -> "IdfTable":
        """Read a dump produced by :meth:`save`."""
        message = "expected term<TAB>df"
        records = read_records(path, "\t", (2,), message, header=True)
        _, (header,) = next(records)
        if not header.startswith("N="):
            raise ValueError(f"{path}: missing N=<doc_count> header")
        try:
            doc_count = int(header[2:].strip())
        except ValueError:
            raise ValueError(f"{path}: bad doc_count in header") from None
        try:
            table = cls(doc_count, {})
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        for where, (term, count_str) in records:
            try:
                count = int(count_str)
            except ValueError:
                raise ValueError(
                    f"{where}: non-integer df {count_str!r}"
                ) from None
            try:
                table._add(term, count)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
        return table


def build_idf(corpus: Iterable[Iterable[str]]) -> IdfTable:
    """Estimate document frequencies from a stream of token sequences.

    Every sequence counts as one document; df(w) is the number of
    documents whose type set contains w. Raises on an empty stream,
    since an IDF table without documents is unusable, and on a document
    given as a str, which would count its characters.
    """
    df: dict[str, int] = {}
    doc_count = 0
    for tokens in corpus:
        check_not_str("corpus", (tokens,))
        doc_count += 1
        for term in set(tokens):
            df[term] = df.get(term, 0) + 1
    if doc_count == 0:
        raise ValueError("cannot estimate IDF from an empty corpus")
    return IdfTable(doc_count, df)
