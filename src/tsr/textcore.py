"""Token primitives and inverse document frequency estimation.

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

import math
from typing import Iterable, Iterator


def read_token_lines(path) -> Iterator[list[str]]:
    """Yield one token list per line of a UTF-8 text file."""
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            yield line.split()


class IdfTable:
    """Document frequencies of terms over a monolingual corpus.

    Immutable after construction and safe to share across threads.
    """

    def __init__(self, doc_count: int, df: dict[str, int]):
        if doc_count <= 0:
            raise ValueError("doc_count must be positive")
        for term, count in df.items():
            if not 1 <= count <= doc_count:
                raise ValueError(
                    f"df({term!r})={count} outside [1, {doc_count}]"
                )
        self.doc_count = doc_count
        self.df = dict(df)

    def idf(self, term: str) -> float:
        """ln(N / df(term)); unseen terms use the df=1 floor."""
        return math.log(self.doc_count / self.df.get(term, 1))

    def __len__(self) -> int:
        return len(self.df)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IdfTable):
            return NotImplemented
        return self.doc_count == other.doc_count and self.df == other.df

    def __repr__(self) -> str:
        return f"IdfTable(doc_count={self.doc_count}, terms={len(self.df)})"

    def save(self, path) -> None:
        """Write a line-oriented dump: header ``N=<doc_count>``, then one
        ``term<TAB>df`` line per term, sorted by term for reproducibility."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"N={self.doc_count}\n")
            for term in sorted(self.df):
                handle.write(f"{term}\t{self.df[term]}\n")

    @classmethod
    def load(cls, path) -> "IdfTable":
        """Read a dump produced by :meth:`save`."""
        with open(path, encoding="utf-8") as handle:
            header = handle.readline()
            if not header.startswith("N="):
                raise ValueError(f"{path}: missing N=<doc_count> header")
            try:
                doc_count = int(header[2:].strip())
            except ValueError:
                raise ValueError(f"{path}: bad doc_count in header") from None
            df: dict[str, int] = {}
            for lineno, line in enumerate(handle, start=2):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 2:
                    raise ValueError(f"{path}:{lineno}: expected term<TAB>df")
                term, count_str = parts
                if term in df:
                    raise ValueError(
                        f"{path}:{lineno}: repeated term {term!r}"
                    )
                try:
                    df[term] = int(count_str)
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: non-integer df {count_str!r}"
                    ) from None
        return cls(doc_count, df)


def build_idf(corpus: Iterable[Iterable[str]]) -> IdfTable:
    """Estimate document frequencies from a stream of token sequences.

    Every sequence counts as one document; df(w) is the number of
    documents whose type set contains w. Raises on an empty stream,
    since an IDF table without documents is unusable.
    """
    df: dict[str, int] = {}
    doc_count = 0
    for tokens in corpus:
        doc_count += 1
        for term in set(tokens):
            df[term] = df.get(term, 0) + 1
    if doc_count == 0:
        raise ValueError("cannot estimate IDF from an empty corpus")
    return IdfTable(doc_count, df)
