"""Subcommand CLI chaining the pipeline stages over persisted artifacts.

Stages communicate through plain text files (idf tables, collection
records, k-best lists, match dumps) so each can be rerun or inspected
in isolation; ``pipeline`` chains retrieval and reranking in memory for
the common case. Every run is deterministic given its inputs and seed:
rerunning a subcommand reproduces its output files byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .collection import load_collection, load_features, write_normal_form
from .evalsig import (
    align_sentences,
    approx_randomization,
    bleu_score,
    bleu_stats,
    bleu_stats_each,
    join_sentences,
    mismatched_ids,
    read_sentence_file,
    sum_stats,
)
from .rerank import (
    RERANK_DEFAULTS,
    RerankParams,
    select_best,
    write_diagnostics,
    write_output,
)
from .retrieval import (
    MODES,
    RETRIEVAL_DEFAULTS,
    Retriever,
    RetrievalParams,
    check_count,
    cutoff_from_json,
    read_kbest,
    read_matchlists,
    read_queries,
    retrieve_sentence,
    write_matchlists,
)
from .textcore import build_idf, IdfTable, read_token_lines, write_lines
from .tune import _PARAMS, DevSet, GridSpec, stepwise_search

_PATH_KEYS = (
    "collection", "idf", "kbest", "out_dir", "features", "queries",
    "references",
)
# Parameter keys default to None: the mode's defaults fill them in.
_PIPELINE_KEYS = {
    **dict.fromkeys(_PATH_KEYS),
    "mode": "txt",
    **{f.name: None for cls in _PARAMS for f in dataclasses.fields(cls)},
    "workers": 1,
    "diagnostics": False,
}


def _resolve_params(
    mode: str, cfg: dict
) -> tuple[RetrievalParams, RerankParams]:
    """The mode's default parameters, overridden by each one cfg sets."""
    return (
        _override(RETRIEVAL_DEFAULTS[mode], cfg),
        _override(RERANK_DEFAULTS[mode], cfg),
    )


def _override(defaults, cfg: dict):
    given = {
        f.name: cfg[f.name]
        for f in dataclasses.fields(defaults)
        if cfg.get(f.name) is not None
    }
    return dataclasses.replace(defaults, **given)


def _aligned_references(path, kbests, kbest_path) -> list[list[str]]:
    """References in k-best order, by evalsig's one alignment rule."""
    ids = [kb.sent_id for kb in kbests]
    return join_sentences(
        kbest_path, (ids, kbests), path, read_sentence_file(path)
    )


def _load_json_object(path) -> dict:
    """The JSON object a config or grid file holds. Python's NaN and
    Infinity extensions are not JSON and fail."""

    def refuse(constant):
        raise ValueError(
            f'{path}: {constant} is not JSON; no cutoff is spelled "inf"'
        )

    with open(path, encoding="utf-8") as handle:
        loaded = json.load(handle, parse_constant=refuse)
    if not isinstance(loaded, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return loaded


def _json_text(obj: dict, indent: int | None = None) -> str:
    """obj as strict JSON with sorted keys; an infinite distance_cutoff
    is written "inf", as config files and grids give it."""
    if obj.get("distance_cutoff") == math.inf:
        obj = {**obj, "distance_cutoff": "inf"}
    return json.dumps(obj, indent=indent, sort_keys=True, allow_nan=False)


def _check_mode(mode: str, features, queries) -> None:
    """The mode, and the paths its gate needs: features for cnn, queries
    for cnn and hca. Checked before any input is read."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "cnn" and not features:
        raise ValueError("cnn mode requires a features path")
    if mode != "txt" and not queries:
        raise ValueError(f"{mode} mode requires a queries path")


def _load_inputs(mode: str, collection, idf, features, queries):
    """Load idf, collection, features (cnn only) and queries for a mode
    _check_mode passed. A gate that can admit no caption would make
    every sentence fall back to txt, so hca rejects an unannotated
    collection, and cnn features that name no collection image."""
    idf_table = IdfTable.load(idf)
    coll = load_collection(collection)
    if mode == "hca" and not (coll.cat_group >= 0).any():
        raise ValueError("hca mode requires category annotations")
    feats = load_features(features) if mode == "cnn" else None
    if feats is not None and not any(map(feats.__contains__, coll.images)):
        raise ValueError(
            f"{features}: no feature vector for any collection image"
        )
    return idf_table, coll, feats, read_queries(queries) if queries else {}


def _read_kbest(path, queries: dict, queries_path) -> list:
    """The k-best lists at path. queries may leave a sentence out, since
    a sentence may have no image, but not name one the k-best lacks."""
    kbests = read_kbest(path)
    known = {kb.sent_id for kb in kbests}
    extra = [sent_id for sent_id in queries if sent_id not in known]
    if extra:
        raise mismatched_ids(queries_path, path, [], extra)
    return kbests


def _run_sentences(work, kbests, workers: int) -> list:
    if workers <= 1:
        return [work(kb) for kb in kbests]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(work, kbests))


def cmd_extract_idf(args) -> int:
    table = build_idf(read_token_lines(args.corpus))
    table.save(args.out)
    print(f"documents: {table.doc_count}")
    print(f"terms: {len(table)}")
    return 0


def cmd_build_index(args) -> int:
    # Check the whole file first, so that a refused one writes nothing.
    coll = load_collection(args.collection, skip_empty=args.skip_empty)
    write_normal_form(args.collection, args.out)
    print(f"captions: {len(coll)}")
    print(f"images: {len(coll.images)}")
    print(f"terms: {len(coll.vocab)}")
    return 0


def cmd_retrieve(args) -> int:
    check_count("workers", args.workers)
    _check_mode(args.mode, args.features, args.queries)
    params, _ = _resolve_params(args.mode, vars(args))
    idf, coll, feats, queries = _load_inputs(
        args.mode, args.collection, args.idf, args.features, args.queries
    )
    retriever = Retriever(coll, idf, feats)
    kbests = _read_kbest(args.kbest, queries, args.queries)
    work = functools.partial(
        retrieve_sentence, retriever, queries, args.mode, params
    )
    matchlists = _run_sentences(work, kbests, args.workers)
    write_matchlists(matchlists, coll, args.out)
    fallbacks = sum(ml.used_fallback for ml in matchlists)
    print(f"sentences: {len(matchlists)}")
    print(f"fallbacks: {fallbacks} / {len(matchlists)}")
    return 0


def cmd_rerank(args) -> int:
    params = _override(RerankParams(), vars(args))
    coll = load_collection(args.collection)
    retriever = Retriever(coll, IdfTable.load(args.idf))
    kbests = read_kbest(args.kbest)
    dump = read_matchlists(args.matches, coll)
    matchlists = join_sentences(
        args.kbest,
        ([kb.sent_id for kb in kbests], kbests),
        args.matches,
        ([ml.sent_id for ml in dump], dump),
    )
    outputs = [
        select_best(kb, ml, retriever, params)
        for kb, ml in zip(kbests, matchlists)
    ]
    write_output(outputs, args.out)
    if args.diagnostics:
        write_diagnostics(outputs, args.diagnostics)
    print(f"sentences: {len(outputs)}")
    return 0


def _merge_pipeline_config(args) -> dict:
    cfg = dict(_PIPELINE_KEYS)
    if args.config:
        loaded = _load_json_object(args.config)
        unknown = set(loaded) - set(cfg)
        if unknown:
            raise ValueError(
                f"unknown config keys: {', '.join(sorted(unknown))}"
            )
        cfg.update(loaded)
    for key in _PIPELINE_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    cfg["distance_cutoff"] = cutoff_from_json(cfg["distance_cutoff"])
    for key in _PATH_KEYS:
        if cfg[key] is not None and not isinstance(cfg[key], str):
            raise ValueError(
                f"{key} must be a path string or null, got {cfg[key]!r}"
            )
    for key in ("collection", "idf", "kbest", "out_dir"):
        if not cfg[key]:
            raise ValueError(f"pipeline config is missing {key!r}")
    check_count("workers", cfg["workers"])
    if not isinstance(cfg["diagnostics"], bool):
        got = cfg["diagnostics"]
        raise ValueError(f"diagnostics must be true or false, got {got!r}")
    return cfg


def cmd_pipeline(args) -> int:
    cfg = _merge_pipeline_config(args)
    mode = cfg["mode"]
    _check_mode(mode, cfg["features"], cfg["queries"])
    retrieval_params, rerank_params = _resolve_params(mode, cfg)
    idf, coll, feats, queries = _load_inputs(
        mode, cfg["collection"], cfg["idf"], cfg["features"], cfg["queries"]
    )
    retriever = Retriever(coll, idf, feats)
    kbests = _read_kbest(cfg["kbest"], queries, cfg["queries"])
    refs = (
        _aligned_references(cfg["references"], kbests, cfg["kbest"])
        if cfg["references"]
        else None
    )

    def work(kb):
        ml = retrieve_sentence(retriever, queries, mode, retrieval_params, kb)
        return select_best(kb, ml, retriever, rerank_params)

    outputs = _run_sentences(work, kbests, cfg["workers"])

    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    write_output(outputs, out_dir / "output.txt")
    if cfg["diagnostics"]:
        write_diagnostics(outputs, out_dir / "diagnostics.txt")

    resolved = {
        **cfg,
        **dataclasses.asdict(retrieval_params),
        **dataclasses.asdict(rerank_params),
    }
    write_lines(out_dir / "config.json", [_json_text(resolved, indent=2)])

    fallbacks = sum(out.used_fallback for out in outputs)
    report = [
        f"sentences: {len(outputs)}",
        f"fallbacks: {fallbacks} / {len(outputs)}",
    ]
    if refs is not None:
        total = sum_stats(
            [bleu_stats(o.chosen.tokens, r) for o, r in zip(outputs, refs)]
        )
        score = bleu_score(total)
        report.append(f"BLEU: {100 * score:.2f} ({score:.6f})")
    for line in report:
        print(line)
    write_lines(out_dir / "report.txt", report)
    return 0


def cmd_evaluate(args) -> int:
    hyps, refs = align_sentences([args.hyp, args.ref])
    total = sum_stats([bleu_stats(h, r) for h, r in zip(hyps, refs)])
    score = bleu_score(total)
    print(f"sentences: {len(hyps)}")
    print(f"BLEU: {100 * score:.2f} ({score:.6f})")
    return 0


def cmd_compare(args) -> int:
    sys_a, sys_b, refs = align_sentences([args.a, args.b, args.ref])
    stats_a, stats_b = [], []
    for a, b, ref in zip(sys_a, sys_b, refs):
        stat_a, stat_b = bleu_stats_each((a, b), ref)
        stats_a.append(stat_a)
        stats_b.append(stat_b)
    score_a = bleu_score(sum_stats(stats_a))
    score_b = bleu_score(sum_stats(stats_b))
    p = approx_randomization(stats_a, stats_b, args.trials, args.seed)
    print(f"sentences: {len(refs)}")
    print(f"BLEU_A: {100 * score_a:.2f} ({score_a:.6f})")
    print(f"BLEU_B: {100 * score_b:.2f} ({score_b:.6f})")
    print(f"diff: {100 * abs(score_a - score_b):.2f}")
    print(f"trials: {args.trials}")
    print(f"seed: {args.seed}")
    print(f"p-value: {p:.6f}")
    return 0


def cmd_tune(args) -> int:
    spec = _load_json_object(args.grid)
    mode = spec.pop("mode", "txt")
    _check_mode(mode, args.features, args.queries)
    grid = GridSpec.from_dict(spec)
    grid.check_mode(mode)

    idf, coll, feats, queries = _load_inputs(
        mode, args.collection, args.idf, args.features, args.queries
    )
    kbests = _read_kbest(args.kbest, queries, args.queries)
    dev = DevSet(
        coll=coll,
        idf=idf,
        kbests=kbests,
        references=_aligned_references(args.references, kbests, args.kbest),
        feats=feats,
        queries=queries,
    )
    result = stepwise_search(grid, dev, mode)

    if args.trace_out:
        trace = (
            _json_text({**point, "bleu": bleu}) for point, bleu in result.trace
        )
        write_lines(args.trace_out, trace)
    best = {
        "mode": mode,
        **dataclasses.asdict(result.retrieval_params),
        **dataclasses.asdict(result.rerank_params),
        "bleu": result.best_bleu,
    }
    if args.best_out:
        write_lines(args.best_out, [_json_text(best, indent=2)])
    print(f"evaluated points: {len(result.trace)}")
    for key, value in best.items():
        print(f"{key}: {value}")
    return 0


def _add_param_flags(parser, *classes) -> None:
    """One flag per parameter field: field ``a_b`` gives flag ``--a-b``
    with dest ``a_b``, typed like the field's default. An unset flag
    stays None, so a config value or the mode's default applies."""
    for cls in classes:
        for f in dataclasses.fields(cls):
            parser.add_argument(
                "--" + f.name.replace("_", "-"),
                dest=f.name,
                type=type(f.default),
            )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsr",
        description=(
            "Caption-translation reranking using target-side retrieval"
            " over a captioned-image collection."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser(
        "extract-idf", help="estimate idf weights from a monolingual corpus"
    )
    sp.add_argument("corpus", help="one tokenized sentence per line")
    sp.add_argument("out", help="idf table output path")
    sp.set_defaults(func=cmd_extract_idf)

    sp = sub.add_parser(
        "build-index", help="validate a collection and persist it"
    )
    sp.add_argument("collection", help="collection record file")
    sp.add_argument("out", help="validated collection output path")
    sp.add_argument(
        "--skip-empty",
        action="store_true",
        help="drop empty captions instead of failing",
    )
    sp.set_defaults(func=cmd_build_index)

    sp = sub.add_parser(
        "retrieve", help="retrieve matches for every sentence's k-best list"
    )
    sp.add_argument("--collection", required=True)
    sp.add_argument("--idf", required=True)
    sp.add_argument("--kbest", required=True)
    sp.add_argument("--out", required=True, help="match dump output path")
    sp.add_argument("--mode", choices=MODES, default="txt")
    sp.add_argument("--features", help="image feature file (cnn mode)")
    sp.add_argument("--queries", help="per-sentence image ids / categories")
    _add_param_flags(sp, RetrievalParams)
    sp.add_argument("--workers", type=int, default=1)
    sp.set_defaults(func=cmd_retrieve)

    sp = sub.add_parser(
        "rerank", help="rerank k-best lists against a match dump"
    )
    sp.add_argument("--collection", required=True)
    sp.add_argument("--idf", required=True)
    sp.add_argument("--kbest", required=True)
    sp.add_argument("--matches", required=True, help="match dump path")
    sp.add_argument("--out", required=True)
    _add_param_flags(sp, RerankParams)
    sp.add_argument("--diagnostics", help="per-sentence diagnostics path")
    sp.set_defaults(func=cmd_rerank)

    sp = sub.add_parser(
        "pipeline", help="run retrieval and reranking end to end"
    )
    sp.add_argument("--config", help="JSON config; flags override fields")
    for key in _PATH_KEYS:
        sp.add_argument("--" + key.replace("_", "-"), dest=key)
    sp.add_argument("--mode", choices=MODES)
    _add_param_flags(sp, *_PARAMS)
    sp.add_argument("--workers", type=int)
    sp.add_argument(
        "--diagnostics", action="store_const", const=True, default=None
    )
    sp.set_defaults(func=cmd_pipeline)

    sp = sub.add_parser("evaluate", help="corpus BLEU of one system output")
    sp.add_argument("hyp")
    sp.add_argument("ref")
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser(
        "compare",
        help="BLEU of two systems plus approximate-randomization p-value",
    )
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("ref")
    sp.add_argument("--trials", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=1)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser(
        "tune", help="step-wise hyperparameter search on a dev set"
    )
    sp.add_argument("--grid", required=True, help="JSON grid spec")
    sp.add_argument("--collection", required=True)
    sp.add_argument("--idf", required=True)
    sp.add_argument("--kbest", required=True)
    sp.add_argument("--references", required=True)
    sp.add_argument("--queries")
    sp.add_argument("--features")
    sp.add_argument("--trace-out", dest="trace_out")
    sp.add_argument("--best-out", dest="best_out")
    sp.set_defaults(func=cmd_tune)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # WARNING, the root logger's default level: load_collection warns
    # of each caption build-index --skip-empty drops
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
