"""Conceptual-flow metrics over generated questions.

Semantic-relation (SR) is the mean of externally supplied pair scores,
one per (generated, ground-truth) question pair. Logical coherence (LC)
is the percentage of pairs labeled as entailment. The models producing
scores and labels run elsewhere; this module reads their files and
does the arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .embeddings import read_jsonl, typed_field
from .errors import EmptyInputError


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


def lc_score(labels: list[str]) -> float:
    """Percentage of labels equal to "entailment"; empty input scores 0."""
    if not labels:
        return 0.0
    hits = sum(1 for label in labels if label == "entailment")
    return 100.0 * hits / len(labels)


def _mean(values: list[float]) -> float:
    return float(np.mean(values)) if values else 0.0


def load_by_query(path: str | Path, key: str, kind) -> list[tuple[str, object]]:
    """``(query id, record[key])`` per line of a pair-score or pair-label
    JSONL file; a record without ``query_id`` counts as "all"."""
    return [
        (str(typed_field(record, "query_id", object, path, line_no, default="all")),
         typed_field(record, key, kind, path, line_no))
        for line_no, record in read_jsonl(path)
    ]


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
