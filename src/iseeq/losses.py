"""Training-signal kernels for the question generator.

Forward-value computations only: the reward mixing exact overlap with
soft semantic match, the reward-scaled cross-entropy batch loss, its
reverse variant, the entailment-conditioned step loss, and the epoch
EMA update. Generation probabilities and entailment labels arrive as
data; there is no autodiff here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .embeddings import TokenDoc, VectorStore, build_token_doc, read_jsonl
from .errors import DataError, EmptyInputError, ParseError
from .wmd import soft_match

PROB_FLOOR = 1e-12


class EntailmentLabel(enum.Enum):
    NEUTRAL = "neutral"
    CONTRADICTION = "contradiction"
    ENTAILMENT = "entailment"


@dataclass(frozen=True)
class RewardConfig:
    """Mixing weight for the reward and EMA weight for epoch tuning."""

    alpha: float = 0.1971
    gamma: float = 0.12

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")


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
    """Length of the longest common subsequence of two token lists."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for tok_a in a:
        cur = [0] * (len(b) + 1)
        for j, tok_b in enumerate(b, start=1):
            if tok_a == tok_b:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def reward(pair: QuestionPair, cfg: RewardConfig) -> float:
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


def ce_loss(batch: LossBatch, cfg: RewardConfig) -> float:
    """Reward- and indicator-scaled cross entropy, averaged over the batch."""
    if not batch.pairs:
        raise ValueError("empty loss batch")
    total = 0.0
    for pair in batch.pairs:
        total += (
            reward(pair, cfg)
            * indicator(pair.reference, pair.generated)
            * math.log(pair.gen_prob)
        )
    return -total / len(batch.pairs)


def rce_loss(batch: LossBatch, cfg: RewardConfig) -> float:
    """Reverse cross entropy: raw probabilities, complemented indicator."""
    if not batch.pairs:
        raise ValueError("empty loss batch")
    total = 0.0
    for pair in batch.pairs:
        total += (
            reward(pair, cfg)
            * (1.0 - indicator(pair.reference, pair.generated))
            * pair.gen_prob
        )
    return -total / len(batch.pairs)


def erl_step_loss(batch: LossBatch, i: int, cfg: RewardConfig) -> float:
    """Entailment-conditioned loss for consecutive generated questions.

    The branch depends only on the label: entailed steps pay CE minus
    the entailment probability, everything else pays RCE minus the
    complement.
    """
    if not 0 <= i < len(batch.entailments):
        raise IndexError(f"entailment index {i} out of range")
    record = batch.entailments[i]
    if record.label is EntailmentLabel.ENTAILMENT:
        return ce_loss(batch, cfg) - record.prob
    return rce_loss(batch, cfg) - (1.0 - record.prob)


def ema_update(prev_epoch_loss: float, batch_loss: float, cfg: RewardConfig) -> float:
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
    rejected.
    """
    records: list[dict] = []
    for line_no, record in read_jsonl(path):
        try:
            record["generated"] = [str(t) for t in record["generated"]]
            record["reference"] = [str(t) for t in record["reference"]]
            record["gen_prob"] = float(record["gen_prob"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: {exc}", line_no) from exc
        records.append(record)
    if not records:
        raise EmptyInputError(f"{path}: empty batch")
    if lookup is None:
        lookup = _one_hot_lookup(records)

    pairs: list[QuestionPair] = []
    for i, record in enumerate(records):
        prob = record["gen_prob"]
        if clamp_probs and prob < PROB_FLOOR:
            prob = PROB_FLOOR
        pairs.append(
            QuestionPair(
                generated=record["generated"],
                reference=record["reference"],
                generated_doc=build_token_doc(f"gen{i}", record["generated"], lookup),
                reference_doc=build_token_doc(f"ref{i}", record["reference"], lookup),
                gen_prob=prob,
            )
        )
    entailments: list[EntailmentRecord] = []
    for i, record in enumerate(records[:-1]):
        label = record.get("entail_label")
        prob = record.get("entail_prob")
        if label is None or prob is None:
            raise DataError(
                f"{path}: record {i} needs entail_label/entail_prob "
                "(only the last record may omit them)"
            )
        try:
            entailments.append(EntailmentRecord(EntailmentLabel(label), float(prob)))
        except ValueError as exc:
            raise DataError(f"{path}: record {i}: {exc}") from exc
    return LossBatch(pairs=pairs, entailments=entailments)
