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
from pathlib import Path

from .collection import load_collection, load_features, write_normal_form
from .evalsig import (
    align_sentences,
    approx_randomization,
    bleu_score,
    bleu_stats,
    join_sentences,
    mismatched_ids,
    read_sentence_file,
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
    read_kbest,
    read_matchlists,
    read_queries,
    retrieve_sentence,
    write_matchlists,
)
from .textcore import (
    build_idf,
    check_count,
    check_seed,
    IdfTable,
    read_token_lines,
    write_lines,
)
from .tune import PARAMS, DevSet, GridSpec, stepwise_search

# The paths _load_inputs takes, in its argument order, and their help.
_INPUTS = {
    "collection": "collection record file",
    "idf": "idf table",
    "kbest": "k-best lists",
    "features": "image feature file (cnn mode)",
    "queries": "per-sentence image ids / categories (cnn, hca modes)",
}
_PATH_KEYS = (*_INPUTS, "out_dir", "references")
# Parameter keys default to None: the mode's defaults fill them in.
# workers is checked but changes nothing: sentences are scored in turn.
_PIPELINE_KEYS = {
    **dict.fromkeys(_PATH_KEYS),
    "mode": "txt",
    **{f.name: None for cls in PARAMS for f in dataclasses.fields(cls)},
    "workers": 1,
    "diagnostics": False,
}


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


def _load_json_object(path, what: str, keys) -> dict:
    """The JSON object a config or grid file holds, each of its keys one
    of keys, else ValueError ``unknown <what> keys: ...``. Python's NaN
    and Infinity extensions are not JSON and fail. JSON has no infinity,
    so "inf", as the distance_cutoff or an item of its list, is read as
    math.inf, no cutoff, as _json_text writes it."""

    def refuse(constant):
        raise ValueError(
            f'{path}: {constant} is not JSON; no cutoff is spelled "inf"'
        )

    with open(path, encoding="utf-8") as handle:
        loaded = json.load(handle, parse_constant=refuse)
    if not isinstance(loaded, dict):
        raise ValueError(f"{path}: expected a JSON object")
    unknown = set(loaded) - set(keys)
    if unknown:
        raise ValueError(f"unknown {what} keys: {', '.join(sorted(unknown))}")
    cutoff = loaded.get("distance_cutoff")
    if cutoff == "inf":
        loaded["distance_cutoff"] = math.inf
    elif isinstance(cutoff, list):
        cutoffs = [math.inf if item == "inf" else item for item in cutoff]
        loaded["distance_cutoff"] = cutoffs
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


def _load_inputs(
    mode: str, collection, idf, kbest, features=None, queries=None
):
    """What a scoring command reads, for a mode _check_mode passed, in
    one order: the idf table, the collection and, in cnn mode only, the
    features; then the run's one Retriever over them; then the queries
    and the k-best lists. Returns (retriever, queries, kbests).

    A gate that can admit no caption would make every sentence fall
    back to txt, so hca rejects an unannotated collection, and cnn
    features that name no collection image. queries may leave a
    sentence out, since a sentence may have no image, but not name one
    the k-best lacks."""
    idf_table = IdfTable.load(idf)
    coll = load_collection(collection)
    if mode == "hca" and not (coll.cat_group >= 0).any():
        raise ValueError("hca mode requires category annotations")
    feats = load_features(features) if mode == "cnn" else None
    if feats is not None and not any(map(feats.__contains__, coll.images)):
        raise ValueError(
            f"{features}: no feature vector for any collection image"
        )
    retriever = Retriever(coll, idf_table, feats)
    by_sentence = read_queries(queries) if queries else {}
    kbests = read_kbest(kbest)
    known = {kb.sent_id for kb in kbests}
    extra = [sent_id for sent_id in by_sentence if sent_id not in known]
    if extra:
        raise mismatched_ids(queries, kbest, [], extra)
    return retriever, by_sentence, kbests


def _run_sentences(work, kbests) -> list:
    """work's result for each k-best list, in order."""
    return [work(kb) for kb in kbests]


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
    _check_mode(args.mode, args.features, args.queries)
    params = _override(RETRIEVAL_DEFAULTS[args.mode], vars(args))
    inputs = map(vars(args).get, _INPUTS)
    retriever, queries, kbests = _load_inputs(args.mode, *inputs)
    work = functools.partial(
        retrieve_sentence, retriever, queries, args.mode, params
    )
    matchlists = _run_sentences(work, kbests)
    write_matchlists(matchlists, retriever.coll, args.out)
    fallbacks = sum(ml.used_fallback for ml in matchlists)
    print(f"sentences: {len(matchlists)}")
    print(f"fallbacks: {fallbacks} / {len(matchlists)}")
    return 0


def cmd_rerank(args) -> int:
    params = _override(RerankParams(), vars(args))
    inputs = map(vars(args).get, _INPUTS)  # no --features or --queries
    retriever, _, kbests = _load_inputs("txt", *inputs)
    dump = read_matchlists(args.matches, retriever.coll)
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
        cfg.update(_load_json_object(args.config, "config", cfg))
    for key in _PIPELINE_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
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
    retrieval_params = _override(RETRIEVAL_DEFAULTS[mode], cfg)
    rerank_params = _override(RERANK_DEFAULTS[mode], cfg)
    inputs = map(cfg.get, _INPUTS)
    retriever, queries, kbests = _load_inputs(mode, *inputs)
    refs = (
        _aligned_references(cfg["references"], kbests, cfg["kbest"])
        if cfg["references"]
        else None
    )

    def work(kb):
        ml = retrieve_sentence(retriever, queries, mode, retrieval_params, kb)
        return select_best(kb, ml, retriever, rerank_params)

    outputs = _run_sentences(work, kbests)

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
        hyps = [out.chosen.tokens for out in outputs]
        score = bleu_score(bleu_stats(hyps, refs).sum(axis=0))
        report.append(f"BLEU: {100 * score:.2f} ({score:.6f})")
    for line in report:
        print(line)
    write_lines(out_dir / "report.txt", report)
    return 0


def cmd_evaluate(args) -> int:
    hyps, refs = align_sentences([args.hyp, args.ref])
    score = bleu_score(bleu_stats(hyps, refs).sum(axis=0))
    print(f"sentences: {len(hyps)}")
    print(f"BLEU: {100 * score:.2f} ({score:.6f})")
    return 0


def cmd_compare(args) -> int:
    check_count("trials", args.trials)
    check_seed(args.seed)
    sys_a, sys_b, refs = align_sentences([args.a, args.b, args.ref])
    stats_a, stats_b = bleu_stats(sys_a, refs), bleu_stats(sys_b, refs)
    score_a = bleu_score(stats_a.sum(axis=0))
    score_b = bleu_score(stats_b.sum(axis=0))
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
    fields = dataclasses.fields(GridSpec)
    spec = _load_json_object(args.grid, "grid", [f.name for f in fields])
    _check_mode(spec.get("mode", "txt"), args.features, args.queries)
    required = {f.name for f in fields if f.default is dataclasses.MISSING}
    if missing := ", ".join(sorted(required - set(spec))):
        raise ValueError(f"grid is missing candidate lists: {missing}")
    grid = GridSpec(**spec)

    inputs = map(vars(args).get, _INPUTS)
    retriever, queries, kbests = _load_inputs(grid.mode, *inputs)
    references = _aligned_references(args.references, kbests, args.kbest)
    dev = DevSet(retriever, kbests, references, queries)
    result = stepwise_search(grid, dev)

    if args.trace_out:
        trace = (
            _json_text({**point, "bleu": bleu}) for point, bleu in result.trace
        )
        write_lines(args.trace_out, trace)
    best = {
        "mode": grid.mode,
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


def _add_input_flags(parser, gated: bool, required: bool = True) -> None:
    """One flag per path _load_inputs takes, in its order: --collection,
    --idf and --kbest (required unless required is False), then, on a
    command with the gated modes, --features and --queries."""
    for i, (key, text) in enumerate(_INPUTS.items()):
        if i < 3 or gated:
            parser.add_argument(
                "--" + key, required=required and i < 3, help=text
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
    _add_input_flags(sp, gated=True)
    sp.add_argument("--out", required=True, help="match dump output path")
    sp.add_argument("--mode", choices=MODES, default="txt")
    _add_param_flags(sp, RetrievalParams)
    sp.set_defaults(func=cmd_retrieve)

    sp = sub.add_parser(
        "rerank", help="rerank k-best lists against a match dump"
    )
    _add_input_flags(sp, gated=False)
    sp.add_argument("--matches", required=True, help="match dump path")
    sp.add_argument("--out", required=True)
    _add_param_flags(sp, RerankParams)
    sp.add_argument("--diagnostics", help="per-sentence diagnostics path")
    sp.set_defaults(func=cmd_rerank)

    sp = sub.add_parser(
        "pipeline", help="run retrieval and reranking end to end"
    )
    sp.add_argument("--config", help="JSON config; flags override fields")
    _add_input_flags(sp, gated=True, required=False)
    sp.add_argument("--out-dir", dest="out_dir")
    sp.add_argument("--references")
    sp.add_argument("--mode", choices=MODES)
    _add_param_flags(sp, *PARAMS)
    sp.add_argument("--workers", type=int, help="checked, then ignored")
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
    _add_input_flags(sp, gated=True)
    sp.add_argument("--references", required=True)
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
