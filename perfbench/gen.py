"""Seeded input generators for the three benchmark workloads.

Each generator turns ``(seed, scale)`` into the plain-text artifacts the
``tsr`` CLI reads (collection, idf, k-best, queries, features,
references, grid, compare systems) and returns the same data as
token-id arrays, which ``model.py`` reads. The program under test only
ever sees the text files.

Everything is drawn from one ``numpy.random.Generator`` seeded with the
workload seed, so the same seed and scale give byte-identical files.
Nothing here imports from the repository's ``tests/`` package.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Bump when a generator changes, so cached inputs of an older layout
# are never reused.
GEN_VERSION = 4


@dataclass(frozen=True)
class Scale:
    """Sizes of one workload instance."""

    n_images: int
    caps_per_image: int
    vocab: int
    sentences: int
    hyps: int
    feature_dim: int = 0
    clusters: int = 0
    categories: int = 0
    compare_sentences: int = 0
    grid: dict = field(default_factory=dict)


FULL = {
    # The capacity test's shape: 81,822 images x 5 captions of 8 tokens
    # from a uniform 1,200-word vocabulary, 300-hypothesis queries.
    "txt-capacity": Scale(
        n_images=81822, caps_per_image=5, vocab=1200, sentences=32, hyps=300
    ),
    "cnn-zipf": Scale(
        n_images=81822,
        caps_per_image=5,
        vocab=12000,
        sentences=64,
        hyps=300,
        feature_dim=32,
        clusters=48,
    ),
    "tune-dev": Scale(
        n_images=16000,
        caps_per_image=5,
        vocab=8000,
        sentences=100,
        hyps=100,
        categories=24,
        compare_sentences=1000,
        grid={
            "k_n": [100],
            "k_m": [100, 300],
            "k_r": [1, 5, 10, 20],
            "interp_weight": [0.0, 3e4, 1e5, 3e5, 1e6],
        },
    ),
}

# Down-scaled instances of the same generators, small enough for the
# pure-Python oracles in the repository's tests/oracles.py.
TINY = {
    "txt-capacity": Scale(
        n_images=60, caps_per_image=5, vocab=40, sentences=4, hyps=12
    ),
    "cnn-zipf": Scale(
        n_images=60,
        caps_per_image=5,
        vocab=60,
        sentences=6,
        hyps=12,
        feature_dim=4,
        clusters=3,
    ),
    "tune-dev": Scale(
        n_images=40,
        caps_per_image=5,
        vocab=50,
        sentences=6,
        hyps=10,
        categories=4,
        compare_sentences=12,
        grid={
            "k_n": [10],
            "k_m": [5, 20],
            "k_r": [1, 3],
            "interp_weight": [0.0, 1e4],
        },
    ),
}

WORKLOADS = tuple(FULL)


def zipf_probs(n: int, exponent: float = 1.0) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    return p / p.sum()


def _join(words: list[str], ids) -> str:
    return " ".join([words[i] for i in ids])


def _ragged(rng, n: int, lo: int, hi: int, draw) -> tuple[np.ndarray, np.ndarray]:
    """n token rows of length lo..hi as (flat ids, offsets)."""
    lengths = rng.integers(lo, hi + 1, size=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return draw(int(offsets[-1])).astype(np.int64), offsets


def _with_stock_captions(rng, n: int, draw) -> tuple[np.ndarray, np.ndarray]:
    """n captions of 6-15 Zipf tokens, 15% of them copies of 400 stock
    captions (as in real collections, where "a man riding a horse"
    recurs), so equal type sets and score ties occur. Half the copies
    repeat their first token at the end: same types and score, one more
    token, so which tied caption is kept changes relevance."""
    pool_flat, pool_off = _ragged(rng, 400, 6, 15, draw)
    lengths = rng.integers(6, 16, size=n)
    stock = np.flatnonzero(rng.random(n) < 0.15)
    pick = rng.integers(0, 400, size=stock.size)
    plen = np.diff(pool_off)[pick]
    dup = rng.random(stock.size) < 0.5
    lengths[stock] = plen + dup
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    flat = draw(int(offsets[-1])).astype(np.int64)
    within = np.arange(plen.sum()) - np.repeat(np.cumsum(plen) - plen, plen)
    flat[np.repeat(offsets[stock], plen) + within] = pool_flat[
        np.repeat(pool_off[pick], plen) + within
    ]
    flat[offsets[stock[dup]] + plen[dup]] = pool_flat[pool_off[pick[dup]]]
    return flat, offsets


def _query_kinds(rng, n: int, *shares: float) -> np.ndarray:
    """Kind 1..len(shares) for round(share * n) queries each, kind 0 for
    the rest, in random order; fixed counts keep seeds comparable."""
    kinds = np.zeros(n, dtype=np.int64)
    start = 0
    for kind, share in enumerate(shares, start=1):
        count = int(round(share * n))
        kinds[start : start + count] = kind
        start += count
    return rng.permutation(kinds)


def _variants(rng, base: list[int], count: int, draw) -> list[list[int]]:
    """count distinct near-duplicates of base: 1-3 substitutions,
    deletions or insertions each; base itself comes first."""
    out = [list(base)]
    seen = {tuple(base)}
    while len(out) < count:
        tokens = list(base)
        for _ in range(int(rng.integers(1, 4))):
            op = int(rng.integers(0, 3))
            pos = int(rng.integers(0, len(tokens)))
            if op == 0:
                tokens[pos] = int(draw(1)[0])
            elif op == 1 and len(tokens) > 3:
                del tokens[pos]
            else:
                tokens.insert(pos, int(draw(1)[0]))
        key = tuple(tokens)
        if key not in seen:
            seen.add(key)
            out.append(tokens)
    return out


def _decoder_scores(rng, count: int, gap: float) -> np.ndarray:
    """Non-increasing decoder scores with exponential gaps."""
    return -5.0 - np.cumsum(rng.exponential(gap, size=count))


def _write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))
        handle.write("\n")


def _write_kbest(path: Path, kbests, scores, words) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for s, (hyps, sc) in enumerate(zip(kbests, scores)):
            for toks, value in zip(hyps, sc):
                handle.write(f"s{s} ||| {_join(words, toks)} ||| {float(value)!r}\n")


def _flatten(rows: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=offsets[1:])
    flat = np.fromiter(
        (t for r in rows for t in r), dtype=np.int64, count=int(offsets[-1])
    )
    return flat, offsets


def generate(workload: str, seed: int, scale: Scale, out: Path) -> dict:
    """Write one workload instance into directory out and return it as
    token-id arrays."""
    rng = np.random.default_rng([GEN_VERSION, seed, WORKLOADS.index(workload)])
    out.mkdir(parents=True, exist_ok=True)
    words = [f"w{i}" for i in range(scale.vocab)]
    n_docs = scale.n_images * scale.caps_per_image
    doc_image = np.repeat(np.arange(scale.n_images), scale.caps_per_image)
    arrays: dict[str, np.ndarray] = {"doc_image": doc_image}

    if workload == "txt-capacity":
        doc_flat = rng.integers(0, scale.vocab, size=n_docs * 8)
        doc_off = np.arange(0, n_docs * 8 + 1, 8, dtype=np.int64)
        # Distinct document frequencies, so distinct terms never share a
        # weight and score ties are structural.
        df = rng.choice(np.arange(1, 10001), size=scale.vocab, replace=False)
        idf_n = 10001
        draw = lambda k: rng.integers(0, scale.vocab, size=k)  # noqa: E731
        kbests = []
        for _ in range(scale.sentences):
            hyps, seen = [], set()
            while len(hyps) < scale.hyps:
                toks = tuple(int(t) for t in draw(8))
                if toks not in seen:
                    seen.add(toks)
                    hyps.append(list(toks))
            kbests.append(hyps)
        gap = 2.0
    else:
        cdf = np.cumsum(zipf_probs(scale.vocab))
        draw = lambda k: np.minimum(  # noqa: E731
            np.searchsorted(cdf, rng.random(k), side="right"), scale.vocab - 1
        )
        doc_flat, doc_off = _with_stock_captions(rng, n_docs, draw)
        df = None
        idf_n = n_docs
        kbests = []
        for _ in range(scale.sentences):
            base = [int(t) for t in draw(int(rng.integers(8, 15)))]
            kbests.append(_variants(rng, base, scale.hyps, draw))
        gap = 0.05
    scores = [_decoder_scores(rng, len(h), gap) for h in kbests]

    if df is None:
        doc_of = np.repeat(np.arange(n_docs), np.diff(doc_off))
        pairs = np.sort(doc_of * scale.vocab + doc_flat)
        pairs = pairs[np.r_[True, pairs[1:] != pairs[:-1]]]
        df = np.bincount(pairs % scale.vocab, minlength=scale.vocab)

    # Categories: one Zipf-drawn set of 1-3 labels per image, shared by
    # its captions.
    cat_sets: list[tuple[int, ...]] | None = None
    if scale.categories:
        cprobs = zipf_probs(scale.categories, 1.2)
        cat_sets = []
        for _ in range(scale.n_images):
            k = int(rng.integers(1, 4))
            cat_sets.append(
                tuple(sorted(rng.choice(scale.categories, size=k, replace=False, p=cprobs).tolist()))
            )

    # Collection file.
    cat_names = [f"k{i}" for i in range(scale.categories)]
    lines = []
    for j in range(n_docs):
        img = int(doc_image[j])
        rec = f"c{j}\timg{img}\t{_join(words, doc_flat[doc_off[j]:doc_off[j + 1]])}"
        if cat_sets is not None:
            rec += "\t" + ",".join(cat_names[c] for c in cat_sets[img])
        lines.append(rec)
    _write_lines(out / "collection.tsv", lines)
    del lines

    present = np.flatnonzero(df > 0)
    _write_lines(
        out / "idf.txt",
        [f"N={idf_n}"] + [f"{w}\t{int(df[i])}" for w, i in sorted((words[i], i) for i in present)],
    )
    _write_kbest(out / "kbest.txt", kbests, scores, words)
    kb_flat, kb_off = _flatten([t for hyps in kbests for t in hyps])
    arrays.update(
        doc_flat=doc_flat,
        doc_off=doc_off,
        df=df,
        idf_n=np.int64(idf_n),
        kb_flat=kb_flat,
        kb_off=kb_off,
        kb_count=np.asarray([len(h) for h in kbests], dtype=np.int64),
        kb_scores=np.concatenate(scores),
    )

    # References: a lightly edited copy of a top-10 hypothesis, so BLEU
    # is non-zero and reranking can move it.
    refs = []
    for hyps in kbests:
        ref = list(hyps[int(rng.integers(0, min(10, len(hyps))))])
        ref[int(rng.integers(0, len(ref)))] = int(draw(1)[0])
        refs.append(ref)
    _write_lines(out / "refs.txt", [f"s{s} ||| {_join(words, r)}" for s, r in enumerate(refs)])
    arrays["ref_flat"], arrays["ref_off"] = _flatten(refs)

    if workload == "cnn-zipf":
        _cnn_extras(rng, scale, out, arrays)
    if workload in ("txt-capacity", "cnn-zipf"):
        # Decoder 1-best, the baseline the reranked output is compared to.
        _write_lines(
            out / "baseline.txt",
            [f"s{s} ||| {_join(words, hyps[0])}" for s, hyps in enumerate(kbests)],
        )
    if workload == "tune-dev":
        _hca_extras(rng, scale, out, arrays, cat_sets, cat_names)
        _compare_systems(rng, scale, out, arrays, words, draw)
        grid = dict(scale.grid, mode="hca")
        (out / "grid.json").write_text(json.dumps(grid, sort_keys=True) + "\n")

    return arrays


def _cnn_extras(rng, scale: Scale, out: Path, arrays: dict) -> None:
    """Clustered image features, with some images missing, and queries
    of which some fall back (no image id, or an image without
    features)."""
    centres = rng.normal(0.0, 40.0, size=(scale.clusters, scale.feature_dim))
    cluster = rng.integers(0, scale.clusters, size=scale.n_images)
    raw = centres[cluster] + rng.normal(0.0, 6.0, size=(scale.n_images, scale.feature_dim))
    # Features are written with two decimals; q / 100 is exactly the
    # float64 the program parses from that text.
    q = np.rint(raw * 100).astype(np.int64)
    has_feat = rng.random(scale.n_images) >= 0.03
    row = "img%d\t" + " ".join(["%.2f"] * scale.feature_dim) + "\n"
    with open(out / "features.tsv", "w", encoding="utf-8") as handle:
        for i in np.flatnonzero(has_feat).tolist():
            handle.write(row % (i, *(q[i] / 100).tolist()))
    # Query images: a tenth none, a twentieth an image without
    # features (both fall back), the rest an image with features.
    kinds = _query_kinds(rng, scale.sentences, 0.10, 0.05)
    with_feat, without = np.flatnonzero(has_feat), np.flatnonzero(~has_feat)
    query_image = with_feat[rng.integers(0, with_feat.size, size=scale.sentences)]
    missing = kinds == 2
    if without.size:
        query_image[missing] = without[rng.integers(0, without.size, size=int(missing.sum()))]
    query_image[kinds == 1] = -1
    _write_lines(
        out / "queries.tsv",
        [f"s{s}\t{'-' if i < 0 else f'img{i}'}" for s, i in enumerate(query_image.tolist())],
    )
    arrays.update(feat_q=q, has_feat=has_feat, cluster=cluster, query_image=query_image)


def _hca_extras(rng, scale: Scale, out: Path, arrays: dict, cat_sets, cat_names) -> None:
    """Queries annotated with the category set of a collection image; a
    tenth carry a set no caption has and a tenth carry none, so the
    gate and both fallbacks run."""
    query_cats: list[tuple[int, ...] | None] = []
    lines = []
    kinds = _query_kinds(rng, scale.sentences, 0.10, 0.10)
    for s in range(scale.sentences):
        if kinds[s] == 1:
            cats = None
        elif kinds[s] == 2:
            # Every label at once: never drawn, sets have at most 3.
            cats = tuple(range(scale.categories))
        else:
            cats = cat_sets[int(rng.integers(0, scale.n_images))]
        query_cats.append(cats)
        img = int(rng.integers(0, scale.n_images))
        if cats is None:
            lines.append(f"s{s}\timg{img}")
        else:
            lines.append(f"s{s}\timg{img}\t" + ",".join(cat_names[c] for c in cats))
    _write_lines(out / "queries.tsv", lines)
    width = scale.categories
    arrays["doc_cats"] = _set_masks(cat_sets, width)
    arrays["query_cats"] = _set_masks(query_cats, width)


def _set_masks(sets, width: int) -> np.ndarray:
    """Category sets as bit masks; -1 marks a missing annotation."""
    return np.asarray(
        [-1 if s is None else sum(1 << c for c in s) for s in sets], dtype=np.int64
    )


def _compare_systems(rng, scale: Scale, out: Path, arrays: dict, words, draw) -> None:
    """Two fixed system outputs and references for ``tsr compare``:
    each system is the reference with random substitutions, system B
    at a slightly higher rate."""
    n = scale.compare_sentences
    ref_flat, ref_off = _ragged(rng, n, 8, 20, draw)
    systems = []
    for name, rate in (("sys_a", 0.25), ("sys_b", 0.26)):
        flat = ref_flat.copy()
        hit = rng.random(flat.size) < rate
        flat[hit] = draw(int(hit.sum()))
        systems.append(flat)
        _write_lines(
            out / f"{name}.txt",
            [f"t{i} ||| {_join(words, flat[ref_off[i]:ref_off[i + 1]])}" for i in range(n)],
        )
    _write_lines(
        out / "cmp_refs.txt",
        [f"t{i} ||| {_join(words, ref_flat[ref_off[i]:ref_off[i + 1]])}" for i in range(n)],
    )
    arrays.update(cmp_ref=ref_flat, cmp_off=ref_off, cmp_a=systems[0], cmp_b=systems[1])


def idf_weights(arrays: dict) -> np.ndarray:
    """ln(N / df) per word id, with the df = 1 floor for unseen words."""
    df = np.maximum(arrays["df"], 1).astype(np.float64)
    n = float(arrays["idf_n"])
    return np.array([math.log(n / d) for d in df])
