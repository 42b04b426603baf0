"""Knowledge-aware passage retrieval pipeline.

Three stages: SITQ candidate search for the expanded query, exact WMD
re-scoring of the candidates, and normalized-entity-score (NES)
re-ranking with a strict threshold filter. NES is the fraction of the
query's entities that appear in the passage, each entity counted once
no matter how often it occurs. The module also loads the corpus and
holds its id rules, runs the iterative coverage loop (round r indexes
the first r·batch_size passages, gathered once in passage order) and
the retriever evaluation (hit rate, mean average precision), and reads
their input files.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import embeddings, sitq  # embeddings.<name> calls pass through perfbench/tracing.py wrappers
from .config import RunConfig, check_setting
from .embeddings import TokenDoc, VectorStore, read_jsonl, typed_field
from .errors import DataError, EmptyInputError, ParseError
from .sqe import TOKEN_RE, ExpandedQuery, normalize_words
from .wmd import wmd_exact

logger = logging.getLogger(__name__)


_PART_RE = re.compile(r"[a-z0-9']+")  # a lowercased TOKEN_RE match split at underscores


def tokenize_text(text: str) -> list[str]:
    """Lowercased word tokens under the sqe word rule, underscores split.

    The word rule only strips quotes, so text without one is split in a
    single regex pass.
    """
    text = text.lower()
    if "'" in text:
        text = " ".join(normalize_words(TOKEN_RE.findall(text)))
    return _PART_RE.findall(text)


@dataclass
class Passage:
    id: str
    text: str
    tokens: tuple[str, ...] = field(init=False)
    token_set: frozenset[str] = field(init=False)

    def __post_init__(self):
        self.tokens = tuple(tokenize_text(self.text))
        self.token_set = frozenset(self.tokens)

    def contains_phrase(self, entity: str) -> bool:
        """Word-boundary match of a canonical entity id in the passage."""
        parts = entity.split("_")
        if len(parts) == 1:
            return entity in self.token_set
        if not all(p in self.token_set for p in parts):
            return False
        first, rest = parts[0], tuple(parts[1:])
        n = len(parts)
        for i, tok in enumerate(self.tokens[: len(self.tokens) - n + 1]):
            if tok == first and self.tokens[i + 1 : i + n] == rest:
                return True
        return False


@dataclass
class Corpus:
    """What retrieval reads: the passages in file order, their vector store
    and token docs, and each query's vector and token doc."""

    passages: dict[str, Passage]
    store: VectorStore
    token_docs: dict[str, TokenDoc]
    query_vecs: dict[str, np.ndarray]
    query_docs: dict[str, TokenDoc]


def load_corpus(queries: list[ExpandedQuery], passages_path: str | Path, vectors_path: str | Path,
                query_vectors_path: str | Path, token_vectors_path: str | Path,
                *, queries_path: str | Path) -> Corpus:
    """Passages from ``{"id", "text"}`` JSONL with their vectors, and the
    vectors and token docs of ``queries`` (expanded from ``queries_path``).

    The passages and ``vectors_path`` must hold the same ids, each passage once,
    and each query needs a row in ``query_vectors_path`` and at least one
    word with a row in ``token_vectors_path``. A passage with no token
    vectors gets no token doc, so ``retrieve`` scores it WMD inf.
    """
    records = [
        Passage(str(typed_field(record, "id", object, passages_path, line_no)),
                typed_field(record, "text", str, passages_path, line_no))
        for line_no, record in read_jsonl(passages_path)
    ]
    if not records:
        raise EmptyInputError(f"{passages_path}: no passages")
    store = embeddings.load_vectors(vectors_path)
    token_store = embeddings.load_vectors(token_vectors_path)
    query_store = embeddings.load_vectors(query_vectors_path)
    passages: dict[str, Passage] = {}
    for p in records:
        if p.id in passages:
            raise DataError(f"passage {p.id!r} repeats in {passages_path}; "
                            f"{vectors_path} holds one vector per passage")
        if p.id not in store:
            raise DataError(f"passage {p.id!r} of {passages_path} missing from {vectors_path}")
        passages[p.id] = p
    if len(passages) < len(store):
        orphan = next(pid for pid in store.ids if pid not in passages)
        raise DataError(f"vector {orphan!r} of {vectors_path} has no passage in {passages_path}")
    token_docs = {}
    for p in passages.values():
        try:
            token_docs[p.id] = embeddings.build_token_doc(p.id, p.tokens, token_store)
        except EmptyInputError:
            logger.warning("no token vectors for %s; WMD falls back to worst score", p.id)
    query_vecs, query_docs = {}, {}
    for eq in queries:
        qid = eq.source.id
        if qid not in query_store:
            raise DataError(f"query {qid!r} of {queries_path} missing from {query_vectors_path}")
        query_vecs[qid] = query_store.row(qid).astype(np.float64)
        try:
            query_docs[qid] = embeddings.build_token_doc(qid, tokenize_text(eq.augmented_text), token_store)
        except EmptyInputError as exc:
            raise EmptyInputError(f"query {qid!r} of {queries_path}: no word of its expanded text "
                                  f"has a vector in {token_vectors_path}") from exc
    return Corpus(passages, store, token_docs, query_vecs, query_docs)


@dataclass
class RetrievalResult:
    query_id: str
    ranked: list[tuple[str, float, float]]  # (passage_id, wmd, nes)
    kept: list[str]

    def to_dict(self) -> dict:
        return {
            "query_id": self.query_id,
            "ranked": [[pid, wmd, nes] for pid, wmd, nes in self.ranked],
            "kept": list(self.kept),
        }

    @classmethod
    def from_dict(cls, record: dict, path: str | Path, line_no: int) -> RetrievalResult:
        """Inverse of :meth:`to_dict`; ``wmd`` may be ``inf`` (no token vectors)."""
        if not isinstance(record, dict):
            raise ParseError(f"{path}: each result must be an object", line_no)
        ranked = []
        for row in typed_field(record, "ranked", list, path, line_no):
            if not (isinstance(row, list) and len(row) == 3):
                raise ParseError(f"{path}: a 'ranked' row must be [passage_id, wmd, nes]", line_no)
            named = dict(zip(("passage_id", "wmd", "nes"), row))
            wmd = row[1] if row[1] == math.inf else typed_field(named, "wmd", float, path, line_no)
            ranked.append((str(row[0]), wmd, typed_field(named, "nes", float, path, line_no)))
        query_id = str(typed_field(record, "query_id", object, path, line_no))
        kept = [str(pid) for pid in typed_field(record, "kept", list, path, line_no)]
        return cls(query_id, ranked, kept)


def load_results(path: str | Path) -> list[RetrievalResult]:
    """The results in a file of ``iseeq retrieve`` stdout, one run per line."""
    results = []
    for line_no, payload in read_jsonl(path):
        entries = typed_field(payload, "results", list, path, line_no)
        if not entries:
            raise EmptyInputError(f"line {line_no}: {path}: no results")
        results.extend(RetrievalResult.from_dict(entry, path, line_no) for entry in entries)
    if not results:
        raise EmptyInputError(f"{path}: no results")
    return results


@dataclass
class CoverageReport:
    passages_scanned: int
    queries_covered: int
    per_round: list[tuple[int, int]]  # (cumulative corpus size, covered count)
    complete: bool
    covered_passages: dict[str, list[str]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "passages_scanned": self.passages_scanned,
            "queries_covered": self.queries_covered,
            "per_round": [[size, covered] for size, covered in self.per_round],
            "complete": self.complete,
            "covered_passages": {k: list(v) for k, v in self.covered_passages.items()},
        }


def nes(passage: Passage, eq: ExpandedQuery) -> float:
    """Fraction of the query's entities present in the passage; 0 with none."""
    if not eq.entities:
        return 0.0
    hits = sum(1 for entity in set(eq.entities) if passage.contains_phrase(entity))
    return hits / len(set(eq.entities))


def retrieve(
    index: sitq.SitqIndex,
    passages: dict[str, Passage],
    token_docs: dict[str, TokenDoc],
    eq: ExpandedQuery,
    q_vec: np.ndarray,
    q_tokens: TokenDoc,
    top_n: int = RunConfig.top_n,
    k: int = RunConfig.top_k,
    nes_threshold: float = RunConfig.nes_threshold,
    probe: int | None = None,
    *,
    wmd_memo: dict[tuple[str, str], float] | None = None,
) -> RetrievalResult:
    """Full pipeline for one query.

    Candidates are ordered by NES descending with WMD ascending (then id)
    as tie-break; ``kept`` is the first <= k whose NES strictly exceeds
    the threshold. Missing passage records for indexed ids are treated
    as corruption. ``wmd_memo`` holds the WMD of each (query id, passage
    id) pair already solved with the same token docs; new pairs are added.
    """
    check_setting("nes_threshold", nes_threshold)
    if k < 1 or k > top_n:
        raise ValueError(f"k must be in [1, top_n], got k={k} top_n={top_n}")
    if not eq.entities:
        logger.warning("query %s has no entities; NES defaults to 0", eq.source.id)

    memo = {} if wmd_memo is None else wmd_memo
    candidates = sitq.query(index, q_vec, top_n=top_n, probe=probe)
    scored: list[tuple[str, float, float]] = []
    for cand in candidates:
        passage = passages.get(cand.passage_id)
        if passage is None:
            raise DataError(f"indexed passage {cand.passage_id!r} missing from passage table")
        pair = (eq.source.id, cand.passage_id)
        if pair not in memo:
            doc = token_docs.get(cand.passage_id)
            memo[pair] = wmd_exact(q_tokens, doc) if doc is not None else math.inf
        scored.append((cand.passage_id, memo[pair], nes(passage, eq)))

    scored.sort(key=lambda item: (-item[2], item[1], item[0]))
    kept = [pid for pid, _, nes_val in scored if nes_val > nes_threshold][:k]
    return RetrievalResult(query_id=eq.source.id, ranked=scored, kept=kept)


def coverage_loop(
    queries: list[ExpandedQuery],
    query_vecs: dict[str, np.ndarray],
    query_docs: dict[str, TokenDoc],
    rounds: Iterable[tuple[VectorStore, dict[str, Passage], dict[str, TokenDoc]]],
    *,
    code_bits: int = RunConfig.code_bits,
    itq_iters: int = RunConfig.itq_iters,
    seed: int = RunConfig.seed,
    top_n: int = RunConfig.top_n,
    k: int = RunConfig.top_k,
    nes_threshold: float = RunConfig.nes_threshold,
    probe: int | None = None,
) -> CoverageReport:
    """Grow the corpus round by round until every query has a passage.

    Each round, as :func:`batch_passages` yields it, is the store of the
    corpus indexed so far (the first r·batch_size passages) with passage
    and token-doc tables that hold at least its ids. The index is rebuilt
    over that store each round and retrieval re-run for the still-uncovered
    queries. A query with no entities has NES 0, so no passage can cover
    it: it is set aside before the first round, with one warning, and
    reported uncovered. Stops as soon as every other query holds at least
    one kept passage, or the rounds run out; either way a set-aside or
    uncovered query makes the report incomplete, not an error. A
    :mod:`sitq` warning that every round would repeat, such as
    ``code_bits`` exceeding the augmented dim, is logged once per call.
    A pair's WMD is solved once per call: later rounds that retrieve the
    same passage for the same query reuse it.
    """
    coverable = [eq for eq in queries if eq.entities]
    if len(coverable) < len(queries):
        logger.warning(
            "queries %s have no entities, so no passage can cover them; set aside uncovered",
            ", ".join(eq.source.id for eq in queries if not eq.entities),
        )
    covered: dict[str, list[str]] = {}
    per_round: list[tuple[int, int]] = []
    scanned = 0
    wmd_memo: dict[tuple[str, str], float] = {}

    seen: set[str] = set()

    def first_time(record: logging.LogRecord) -> bool:  # each round's build repeats its warnings
        fresh = record.getMessage() not in seen
        seen.add(record.getMessage())
        return fresh

    sitq.logger.addFilter(first_time)
    try:
        for store, passages, token_docs in rounds if coverable else ():
            scanned = len(store)
            index = sitq.build_index(store, code_bits=code_bits, itq_iters=itq_iters, seed=seed)
            for eq in coverable:
                qid = eq.source.id
                if qid in covered:
                    continue
                result = retrieve(
                    index,
                    passages,
                    token_docs,
                    eq,
                    query_vecs[qid],
                    query_docs[qid],
                    top_n=top_n,
                    k=min(k, top_n),
                    nes_threshold=nes_threshold,
                    probe=probe,
                    wmd_memo=wmd_memo,
                )
                if result.kept:
                    covered[qid] = result.kept
            per_round.append((scanned, len(covered)))
            if len(covered) == len(coverable):
                break
    finally:
        sitq.logger.removeFilter(first_time)

    if len(covered) < len(coverable):
        logger.warning(
            "corpus exhausted with %d of %d queries uncovered",
            len(queries) - len(covered), len(queries),
        )
    return CoverageReport(
        passages_scanned=scanned,
        queries_covered=len(covered),
        per_round=per_round,
        complete=len(covered) == len(queries),
        covered_passages=covered,
    )


def eval_retriever(
    results: list[RetrievalResult],
    relevance: dict[str, set[str]],
    ks: list[int],
    map_k: int = RunConfig.top_k,
    gt_question_counts: dict[str, int] | None = None,
) -> tuple[dict[int, float], float]:
    """Hit rate at each cutoff and mean average precision.

    HR@k is the fraction of queries with at least one relevant passage
    in the first k ranked. The precision of the top ``map_k`` is scaled
    by 1/(ground-truth question count) per query (count >= 1, as the
    relevance readers check; default 1) and averaged into MAP.
    """
    if not results:
        raise ValueError("no retrieval results to evaluate")
    hr = {k: 0 for k in ks}
    ap_values: list[float] = []
    for result in results:
        rel = relevance.get(result.query_id)
        if rel is None:
            raise DataError(f"no relevance entry for query {result.query_id!r}")
        ranked_ids = [pid for pid, _, _ in result.ranked]
        for k in ks:
            if any(pid in rel for pid in ranked_ids[:k]):
                hr[k] += 1
        top = ranked_ids[:map_k]
        precision = sum(1 for pid in top if pid in rel) / len(top) if top else 0.0
        ap_values.append(precision / (gt_question_counts or {}).get(result.query_id, 1))
    n = len(results)
    return {k: hr[k] / n for k in ks}, sum(ap_values) / n


def load_relevance(path: str | Path) -> tuple[dict[str, set[str]], dict[str, int]]:
    """Relevant passage ids and ground-truth question counts per query,
    from ``{"query_id", "relevant": [...], "n_questions"}`` JSONL."""
    relevance, counts = {}, {}
    for line_no, record in read_jsonl(path):
        qid = str(typed_field(record, "query_id", object, path, line_no))
        relevance[qid] = {str(pid) for pid in typed_field(record, "relevant", list, path, line_no)}
        counts[qid] = typed_field(record, "n_questions", int, path, line_no, default=1)
        if counts[qid] < 1:
            raise ParseError(f"{path}: 'n_questions' must be >= 1, not {counts[qid]}", line_no)
    return relevance, counts


def relevance_from_questions(
    question_path: str | Path, gt_path: str | Path, cosine_relevance: float
) -> tuple[dict[str, set[str]], dict[str, int]]:
    """Relevance sets and ground-truth question counts from ``{"query_id",
    "passage_id", "vec"}`` question and ``{"query_id", "vec"}`` ground-truth
    JSONL: a passage is relevant when a question generated from it clears
    the cosine cut against a ground-truth question of the query."""
    gt_vecs: dict[str, list[tuple[np.ndarray, float]]] = {}
    dim = None
    for line_no, record in read_jsonl(gt_path):
        gt = _question_vec(record, gt_path, line_no, dim)
        dim = len(gt)
        qid = str(typed_field(record, "query_id", object, gt_path, line_no))
        gt_vecs.setdefault(qid, []).append((gt, np.linalg.norm(gt)))
    relevance: dict[str, set[str]] = {qid: set() for qid in gt_vecs}
    for line_no, record in read_jsonl(question_path):
        qid = str(typed_field(record, "query_id", object, question_path, line_no))
        pid = str(typed_field(record, "passage_id", object, question_path, line_no))
        vec = _question_vec(record, question_path, line_no, dim)
        norm = np.linalg.norm(vec)
        if norm != 0.0 and any(
            gt_norm != 0.0 and float(vec @ gt) / (norm * gt_norm) > cosine_relevance
            for gt, gt_norm in gt_vecs.get(qid, [])
        ):
            relevance[qid].add(pid)
    return relevance, {qid: len(vecs) for qid, vecs in gt_vecs.items()}


def _question_vec(record: dict, path: str | Path, line_no: int, dim: int | None) -> np.ndarray:
    vec = np.asarray(typed_field(record, "vec", list[float], path, line_no), dtype=np.float64)
    if dim is not None and len(vec) != dim:
        raise ParseError(f"{path}: 'vec' has {len(vec)} entries, expected {dim}", line_no)
    return vec


def batch_passages(
    passages: list[Passage],
    store: VectorStore,
    token_docs: dict[str, TokenDoc],
    batch_size: int,
) -> Iterator[tuple[VectorStore, dict[str, Passage], dict[str, TokenDoc]]]:
    """The coverage-loop rounds over a fully loaded corpus.

    The store's rows are gathered into passage order once; round r is a
    store over the first r·batch_size of them (the last round holds the
    rest), with the whole passage and token-doc tables, since
    :func:`retrieve` looks up only indexed ids.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    ids = [p.id for p in passages]
    matrix = store.matrix[[store.row_index(pid) for pid in ids]]
    table = {p.id: p for p in passages}
    for start in range(0, len(ids), batch_size):
        end = min(start + batch_size, len(ids))
        yield VectorStore(ids[:end], matrix[:end]), table, token_docs
