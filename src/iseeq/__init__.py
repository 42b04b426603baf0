"""Knowledge-aware passage retrieval and question-scoring engine.

The non-neural core of an information-seeking question pipeline:
knowledge-graph query expansion, SITQ approximate inner-product search
with WMD re-scoring and entity-score filtering, and the reward/loss/
metric kernels. All neural model outputs (embeddings, probabilities,
entailment labels) are consumed as data.
"""

from .config import RunConfig
from .embeddings import TokenDoc, VectorStore, build_token_doc, load_vectors, save_vectors
from .errors import DataError, EmptyInputError, IseeqError, ParseError
from .kg import KnowledgeGraph, Triple, canonical_entity, extract_triples, load_kg
from .kpr import (
    CoverageReport,
    Passage,
    RetrievalResult,
    coverage_loop,
    eval_retriever,
    nes,
    retrieve,
)
from .losses import (
    BatchScores,
    EntailmentLabel,
    EntailmentRecord,
    LossBatch,
    QuestionPair,
    ce_loss,
    ema_update,
    erl_step_loss,
    indicator,
    lcs_len,
    rce_loss,
    reward,
    score_batch,
)
from .metrics import MetricReport, evaluate, lc_score
from .sitq import Candidate, SitqIndex, build_index, load_index, query, save_index
from .sqe import ExpandedQuery, QueryDescription, QueryKind, expand_query, extract_entities
from .wmd import cost_matrix, soft_match, wmd_exact

__version__ = "0.1.0"
