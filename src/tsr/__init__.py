"""Target-side retrieval reranking for caption translation.

Decoder hypotheses for a source-language image caption are used as
queries against a monolingual collection of captioned images; the
retrieved captions then rescore the hypotheses, pulling the final
choice toward wording the target language actually uses for similar
images. Retrieval can pivot on text overlap alone, on image-embedding
distance, or on object-category annotations.
"""

from .collection import (
    CaptionDoc,
    Collection,
    FeatureStore,
    load_collection,
    load_features,
    save_collection,
)
from .evalsig import (
    BleuStats,
    align_sentences,
    approx_randomization,
    bleu_score,
    bleu_stats,
    read_sentence_file,
    sum_stats,
)
from .rerank import (
    RERANK_DEFAULTS,
    RerankedOutput,
    RerankParams,
    relevance_score,
    select_best,
    write_diagnostics,
    write_output,
)
from .retrieval import (
    MODES,
    RETRIEVAL_DEFAULTS,
    Hypothesis,
    KBestList,
    MatchList,
    Query,
    RetrievalParams,
    Retriever,
    read_kbest,
    read_matchlists,
    read_queries,
    write_kbest,
    write_matchlists,
)
from .textcore import IdfTable, build_idf, read_token_lines
from .tune import DevSet, GridSpec, TuneResult, stepwise_search

__version__ = "0.1.0"

__all__ = [
    "BleuStats",
    "CaptionDoc",
    "Collection",
    "DevSet",
    "FeatureStore",
    "GridSpec",
    "Hypothesis",
    "IdfTable",
    "KBestList",
    "MODES",
    "MatchList",
    "Query",
    "RERANK_DEFAULTS",
    "RETRIEVAL_DEFAULTS",
    "RerankParams",
    "RerankedOutput",
    "RetrievalParams",
    "Retriever",
    "TuneResult",
    "align_sentences",
    "approx_randomization",
    "bleu_score",
    "bleu_stats",
    "build_idf",
    "load_collection",
    "load_features",
    "read_kbest",
    "read_matchlists",
    "read_queries",
    "read_sentence_file",
    "read_token_lines",
    "relevance_score",
    "save_collection",
    "select_best",
    "stepwise_search",
    "sum_stats",
    "write_diagnostics",
    "write_kbest",
    "write_matchlists",
    "write_output",
]
