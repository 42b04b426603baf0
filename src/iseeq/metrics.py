"""Conceptual-flow metrics over generated questions.

Semantic-relation (SR) scores pair every generated question with every
ground-truth question and average a similarity per pair; the similarity
comes either from an externally supplied score table or from cosine of
supplied embeddings. Logical coherence (LC) is the percentage of pairs
labeled as entailment. The models producing embeddings, scores and
labels run elsewhere; this module only does the arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, EmptyInputError


@dataclass
class MetricReport:
    sr: float
    lc_percent: float
    n_pairs: int
    per_query: list[tuple[str, float, float]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "sr": self.sr,
            "lc_percent": self.lc_percent,
            "n_pairs": self.n_pairs,
            "per_query": [[qid, sr, lc] for qid, sr, lc in self.per_query],
        }


def sr_score(
    gen_vecs: list[np.ndarray],
    ref_vecs: list[np.ndarray],
    sim_scores: np.ndarray | None = None,
) -> float:
    """Mean pairwise similarity between generated and reference questions.

    All generated x reference pairs are scored. ``sim_scores`` (shape
    len(gen) x len(ref)) overrides cosine when an external similarity
    model produced the pair scores.
    """
    if not gen_vecs or not ref_vecs:
        raise ValueError("need at least one generated and one reference vector")
    if sim_scores is not None:
        sim_scores = np.asarray(sim_scores, dtype=np.float64)
        if sim_scores.shape != (len(gen_vecs), len(ref_vecs)):
            raise DataError(
                f"score table shape {sim_scores.shape} does not match "
                f"({len(gen_vecs)}, {len(ref_vecs)})"
            )
        return float(sim_scores.mean())
    gen = np.vstack([np.asarray(v, dtype=np.float64) for v in gen_vecs])
    ref = np.vstack([np.asarray(v, dtype=np.float64) for v in ref_vecs])
    if gen.shape[1] != ref.shape[1]:
        raise DataError(f"embedding dim mismatch: {gen.shape[1]} != {ref.shape[1]}")
    gen_norm = np.linalg.norm(gen, axis=1, keepdims=True)
    ref_norm = np.linalg.norm(ref, axis=1, keepdims=True)
    gen = gen / np.where(gen_norm == 0.0, 1.0, gen_norm)
    ref = ref / np.where(ref_norm == 0.0, 1.0, ref_norm)
    return float((gen @ ref.T).mean())


def lc_score(labels: list[str]) -> float:
    """Percentage of labels equal to "entailment"; empty input scores 0."""
    if not labels:
        return 0.0
    hits = sum(1 for label in labels if label == "entailment")
    return 100.0 * hits / len(labels)


def _mean(values: list[float]) -> float:
    return float(np.mean(values)) if values else 0.0


def evaluate(
    score_records: list[tuple[str, float]], label_records: list[tuple[str, str]]
) -> MetricReport:
    """SR and LC overall and per query from ``(query id, score)`` and
    ``(query id, label)`` records.

    Records are grouped by query in first-seen order, scores before
    labels; the overall SR averages the scores in that grouped order.
    ``per_query`` is sorted by query id.
    """
    if not score_records and not label_records:
        raise EmptyInputError("no pair scores or labels to evaluate")
    by_query: dict[str, tuple[list[float], list[str]]] = {}
    for qid, score in score_records:
        by_query.setdefault(qid, ([], []))[0].append(score)
    for qid, label in label_records:
        by_query.setdefault(qid, ([], []))[1].append(label)
    all_scores = [s for scores, _ in by_query.values() for s in scores]
    all_labels = [l for _, labels in by_query.values() for l in labels]
    return MetricReport(
        sr=_mean(all_scores),
        lc_percent=lc_score(all_labels),
        n_pairs=len(all_labels),
        per_query=[
            (qid, _mean(scores), lc_score(labels))
            for qid, (scores, labels) in sorted(by_query.items())
        ],
    )
