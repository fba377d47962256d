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
)
from .evalsig import approx_randomization, bleu_score, bleu_stats, sum_stats
from .rerank import (
    RerankParams,
    relevance_scores,
    select_best,
    write_diagnostics,
    write_output,
)
from .retrieval import (
    Hypothesis,
    KBestList,
    RetrievalParams,
    Retriever,
    read_kbest,
    read_matchlists,
    write_matchlists,
)
from .textcore import IdfTable, build_idf, read_token_lines
from .tune import DevSet, GridSpec, stepwise_search

__version__ = "0.1.0"

__all__ = [
    "CaptionDoc",
    "Collection",
    "DevSet",
    "FeatureStore",
    "GridSpec",
    "Hypothesis",
    "IdfTable",
    "KBestList",
    "RerankParams",
    "RetrievalParams",
    "Retriever",
    "approx_randomization",
    "bleu_score",
    "bleu_stats",
    "build_idf",
    "load_collection",
    "read_kbest",
    "read_matchlists",
    "read_token_lines",
    "relevance_scores",
    "select_best",
    "stepwise_search",
    "sum_stats",
    "write_diagnostics",
    "write_matchlists",
    "write_output",
]
