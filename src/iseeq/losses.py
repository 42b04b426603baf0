"""Training-signal kernels for the question generator.

Forward-value computations only: the reward mixing exact overlap with
soft semantic match, the reward-scaled cross-entropy batch loss, its
reverse variant, the entailment-conditioned step loss, and the epoch
EMA update. Generation probabilities and entailment labels arrive as
data; there is no autodiff here.

:func:`score_batch` scores a batch in one pass: each pair's reward and
indicator once, then CE, RCE and every ERL step from them.
:func:`ce_loss`, :func:`rce_loss` and :func:`erl_step_loss` are views
of its result.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import RunConfig
from .embeddings import TokenDoc, VectorStore, build_token_doc, read_jsonl, typed_field
from .errors import DataError, EmptyInputError, ParseError
from .wmd import soft_match

PROB_FLOOR = 1e-12


class EntailmentLabel(enum.Enum):
    NEUTRAL = "neutral"
    CONTRADICTION = "contradiction"
    ENTAILMENT = "entailment"


@dataclass
class QuestionPair:
    """A generated question, its reference, and the generation probability."""

    generated: list[str]
    reference: list[str]
    generated_doc: TokenDoc
    reference_doc: TokenDoc
    gen_prob: float

    def __post_init__(self):
        if not self.generated or not self.reference:
            raise ValueError("token lists must be non-empty")
        if not 0.0 < self.gen_prob <= 1.0:
            raise DataError(
                f"gen_prob must be in (0, 1], got {self.gen_prob}; "
                "clamp upstream (e.g. floor at 1e-12) before scoring"
            )


@dataclass(frozen=True)
class EntailmentRecord:
    label: EntailmentLabel
    prob: float

    def __post_init__(self):
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError(f"entailment prob must be in [0, 1], got {self.prob}")


@dataclass
class LossBatch:
    pairs: list[QuestionPair]
    entailments: list[EntailmentRecord] = field(default_factory=list)

    def __post_init__(self):
        expected = max(len(self.pairs) - 1, 0)
        if len(self.entailments) != expected:
            raise ValueError(
                f"need {expected} entailment records for {len(self.pairs)} pairs, "
                f"got {len(self.entailments)}"
            )


def lcs_len(a: list[str], b: list[str]) -> int:
    """Length of the longest common subsequence of two token lists.

    Bit-parallel (Allison & Dix 1986, in Hyyrö's 2004 form): bit j of
    ``v`` is 0 where the DP row steps up at ``b[j]``, so each token of
    ``a`` costs a few operations on ``len(b)``-bit Python ints.
    """
    masks: dict[str, int] = {}  # token -> the positions of b that hold it
    for j, tok in enumerate(b):
        masks[tok] = masks.get(tok, 0) | 1 << j
    full = (1 << len(b)) - 1
    v = full
    for tok in a:
        m = masks.get(tok, 0)
        u = v & m
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def reward(pair: QuestionPair, cfg: RunConfig) -> float:
    """alpha * LCS(gen, ref)/|gen| + (1 - alpha) * soft_match(gen, ref)."""
    exact = lcs_len(pair.generated, pair.reference) / len(pair.generated)
    soft = soft_match(pair.generated_doc, pair.reference_doc)
    return cfg.alpha * exact + (1.0 - cfg.alpha) * soft


def indicator(a: list[str], b: list[str]) -> float:
    """Positional match rate: aligned equal tokens over the longer length."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    matches = sum(1 for x, y in zip(a, b) if x == y)
    return matches / longest


@dataclass(frozen=True)
class BatchScores:
    """Every value of one loss batch, from one pass over its pairs."""

    rewards: list[float]  # one per pair
    indicators: list[float]  # one per pair: indicator(reference, generated)
    ce: float
    rce: float
    erl: list[float]  # one per entailment record


def score_batch(batch: LossBatch, cfg: RunConfig) -> BatchScores:
    """Score each pair once; CE, RCE and every ERL step follow from that.

    CE is the reward- and indicator-scaled cross entropy and RCE its
    reverse (raw probability, complemented indicator), both averaged
    over the batch; their sums run left to right over the pairs. An
    ERL step depends on the batch only through CE or RCE: entailed
    steps pay CE minus the entailment probability, every other label
    pays RCE minus its complement.
    """
    if not batch.pairs:
        raise ValueError("empty loss batch")
    rewards: list[float] = []
    indicators: list[float] = []
    ce_total = rce_total = 0.0
    for pair in batch.pairs:
        r = reward(pair, cfg)
        ind = indicator(pair.reference, pair.generated)
        ce_total += r * ind * math.log(pair.gen_prob)
        rce_total += r * (1.0 - ind) * pair.gen_prob
        rewards.append(r)
        indicators.append(ind)
    ce = -ce_total / len(batch.pairs)
    rce = -rce_total / len(batch.pairs)
    erl = [
        ce - record.prob
        if record.label is EntailmentLabel.ENTAILMENT
        else rce - (1.0 - record.prob)
        for record in batch.entailments
    ]
    return BatchScores(rewards, indicators, ce, rce, erl)


def ce_loss(batch: LossBatch, cfg: RunConfig) -> float:
    """The batch CE of :func:`score_batch`."""
    return score_batch(batch, cfg).ce


def rce_loss(batch: LossBatch, cfg: RunConfig) -> float:
    """The batch RCE of :func:`score_batch`."""
    return score_batch(batch, cfg).rce


def erl_step_loss(batch: LossBatch, i: int, cfg: RunConfig) -> float:
    """The ERL loss of step ``i`` (question ``i`` to ``i + 1``) of :func:`score_batch`."""
    if not 0 <= i < len(batch.entailments):
        raise IndexError(f"entailment index {i} out of range")
    return score_batch(batch, cfg).erl[i]


def ema_update(prev_epoch_loss: float, batch_loss: float, cfg: RunConfig) -> float:
    """Epoch-level exponential moving average of the loss."""
    return cfg.gamma * prev_epoch_loss + (1.0 - cfg.gamma) * batch_loss


def _one_hot_lookup(records: list[dict]) -> VectorStore:
    """Identity embeddings over the batch vocabulary.

    Fallback when no token vectors are supplied: cosine degenerates to
    exact token equality, so the soft term becomes token overlap.
    """
    vocab: list[str] = []
    seen: set[str] = set()
    for record in records:
        for token in record["generated"] + record["reference"]:
            if token not in seen:
                seen.add(token)
                vocab.append(token)
    return VectorStore(vocab, np.eye(len(vocab), dtype=np.float32))


def _read_batch_record(record: dict, path: str | Path, line_no: int) -> dict:
    """The typed fields of one batch line; the entailment fields may be ``None``."""
    fields = {"line": line_no}
    for key in ("generated", "reference"):
        fields[key] = typed_field(record, key, list[str], path, line_no)
        if not fields[key]:
            raise ParseError(f"{path}: '{key}' must not be empty", line_no)
    fields["gen_prob"] = typed_field(record, "gen_prob", float, path, line_no)
    fields["entail_label"] = typed_field(record, "entail_label", str, path, line_no, default=None)
    fields["entail_prob"] = typed_field(record, "entail_prob", float, path, line_no, default=None)
    return fields


def load_loss_batch(
    path: str | Path,
    lookup: VectorStore | None = None,
    clamp_probs: bool = False,
) -> LossBatch:
    """Read a batch JSONL file into a :class:`LossBatch`.

    Each record holds ``generated``/``reference`` token lists and
    ``gen_prob``; all but the last also carry ``entail_label`` and
    ``entail_prob`` for the step to the next generated question. With
    ``clamp_probs``, zero probabilities are floored at 1e-12 instead of
    rejected. A bad record raises :class:`ParseError` with its line.
    """
    records = [_read_batch_record(record, path, line_no) for line_no, record in read_jsonl(path)]
    if not records:
        raise EmptyInputError(f"{path}: empty batch")
    if lookup is None:
        lookup = _one_hot_lookup(records)

    pairs: list[QuestionPair] = []
    entailments: list[EntailmentRecord] = []
    for i, record in enumerate(records):
        prob = record["gen_prob"]
        if clamp_probs and prob < PROB_FLOOR:
            prob = PROB_FLOOR
        try:
            pairs.append(
                QuestionPair(
                    generated=record["generated"],
                    reference=record["reference"],
                    generated_doc=build_token_doc(f"gen{i}", record["generated"], lookup),
                    reference_doc=build_token_doc(f"ref{i}", record["reference"], lookup),
                    gen_prob=prob,
                )
            )
            if i < len(records) - 1:
                label, entail_prob = record["entail_label"], record["entail_prob"]
                if label is None or entail_prob is None:
                    raise DataError(
                        "needs entail_label and entail_prob (only the last record may omit them)"
                    )
                entailments.append(EntailmentRecord(EntailmentLabel(label), entail_prob))
        except (DataError, ValueError) as exc:
            raise ParseError(f"{path}: {exc}", record["line"]) from exc
    return LossBatch(pairs=pairs, entailments=entailments)
