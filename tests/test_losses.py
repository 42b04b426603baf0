import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iseeq import losses as losses_module
from iseeq.cli import main
from iseeq.config import RunConfig
from iseeq.embeddings import TokenDoc, VectorStore
from iseeq.errors import DataError, ParseError
from iseeq.losses import (
    EntailmentLabel,
    EntailmentRecord,
    LossBatch,
    QuestionPair,
    ce_loss,
    ema_update,
    erl_step_loss,
    indicator,
    lcs_len,
    load_loss_batch,
    rce_loss,
    reward,
    score_batch,
)

from oracles import ce_loop, erl_loops, lcs_recursive, rce_loop

ALPHA = 0.1971
GAMMA = 0.12
CFG = RunConfig(alpha=ALPHA, gamma=GAMMA)


def token_doc(doc_id, tokens, table):
    """TokenDoc over an explicit token -> vector table (nBOW collapsed)."""
    counts = {}
    for t in tokens:
        counts[t] = counts.get(t, 0) + 1
    kept = list(counts)
    vectors = np.asarray([table[t] for t in kept], dtype=np.float32)
    weights = np.array([counts[t] / len(tokens) for t in kept])
    return TokenDoc(doc_id=doc_id, tokens=kept, vectors=vectors, weights=weights)


def pair_from(tokens_a, tokens_b, table, prob):
    return QuestionPair(
        generated=list(tokens_a),
        reference=list(tokens_b),
        generated_doc=token_doc("g", tokens_a, table),
        reference_doc=token_doc("r", tokens_b, table),
        gen_prob=prob,
    )


ORTHO = {t: v for t, v in zip("abcdxyzw", np.eye(8).tolist())}


class TestLcs:
    def test_self(self):
        assert lcs_len(["a", "b", "c"], ["a", "b", "c"]) == 3

    def test_disjoint(self):
        assert lcs_len(["a", "b"], ["x", "y", "z"]) == 0

    def test_empty(self):
        assert lcs_len([], ["a"]) == 0

    def test_matches_recursive_oracle(self):
        # up to 150 tokens, the match masks run past one and two 64-bit words
        rng = np.random.default_rng(31)
        for vocab, max_len, cases in [("abcde", 12, 100), ("abcde", 150, 15), ("a", 150, 15)]:
            for _ in range(cases):
                a = [vocab[i] for i in rng.integers(0, len(vocab), size=rng.integers(0, max_len + 1))]
                b = [vocab[i] for i in rng.integers(0, len(vocab), size=rng.integers(0, max_len + 1))]
                assert lcs_len(a, b) == lcs_recursive(tuple(a), tuple(b))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sampled_from("abc"), max_size=12),
        st.lists(st.sampled_from("abc"), max_size=12),
        st.lists(st.sampled_from("abc"), min_size=1, max_size=4),
    )
    def test_bounds_and_prefix_extension(self, a, b, prefix):
        assert lcs_len(a, b) <= min(len(a), len(b))
        assert lcs_len(prefix + a, prefix + b) == lcs_len(a, b) + len(prefix)


class TestReward:
    def test_identical_pair_scores_one(self):
        pair = pair_from(["a", "b", "c"], ["a", "b", "c"], ORTHO, 0.5)
        assert reward(pair, CFG) == pytest.approx(1.0, abs=1e-9)

    def test_alpha_one_no_overlap(self):
        pair = pair_from(["a", "b"], ["x", "y"], ORTHO, 0.5)
        assert reward(pair, RunConfig(alpha=1.0, gamma=GAMMA)) == 0.0

    def test_hand_computed_fixture(self):
        # gen [what is nurse pay] vs ref [what is salary pay]; dyadic
        # embeddings keep every max-cosine exact by hand even in float32:
        #   what/is/pay self-match -> 1; nurse vs salary -> 1.5/1.5625 = 0.96
        table = {
            "what": [1.0, 0.0, 0.0],
            "is": [0.0, 1.0, 0.0],
            "pay": [0.0, 0.0, 1.0],
            "nurse": [0.75, 1.0, 0.0],
            "salary": [1.0, 0.75, 0.0],
        }
        pair = pair_from(
            ["what", "is", "nurse", "pay"], ["what", "is", "salary", "pay"], table, 0.5
        )
        soft = (1.0 + 1.0 + 0.96 + 1.0) / 4.0
        lcs_term = 3.0 / 4.0  # what, is, pay
        expected = ALPHA * lcs_term + (1.0 - ALPHA) * soft
        assert reward(pair, CFG) == pytest.approx(expected, abs=1e-9)


class TestIndicator:
    def test_identical(self):
        assert indicator(["a", "b"], ["a", "b"]) == 1.0

    def test_disjoint(self):
        assert indicator(["a", "b"], ["x", "y"]) == 0.0

    def test_partial_positional(self):
        assert indicator(["a", "b", "c"], ["a", "x", "c"]) == pytest.approx(2 / 3)

    def test_length_mismatch_normalizes_by_longer(self):
        assert indicator(["a", "b"], ["a", "b", "c", "d"]) == pytest.approx(0.5)

    def test_empty_lists_count_as_match(self):
        assert indicator([], []) == 1.0


class TestCeRce:
    def test_prob_one_gives_zero_ce(self):
        batch = LossBatch(pairs=[pair_from(["a"], ["a"], ORTHO, 1.0)])
        assert ce_loss(batch, CFG) == 0.0

    def test_unit_fixture(self):
        # b=1, R=1, I=1, p=e^-1 -> CE = 1
        batch = LossBatch(pairs=[pair_from(["a", "b"], ["a", "b"], ORTHO, math.exp(-1))])
        assert ce_loss(batch, CFG) == pytest.approx(1.0, abs=1e-9)

    def test_rce_complement_vanishes(self):
        batch = LossBatch(pairs=[pair_from(["a", "b"], ["a", "b"], ORTHO, 0.5)])
        assert rce_loss(batch, CFG) == pytest.approx(0.0, abs=1e-12)

    def test_rce_unit_fixture(self):
        # b=1, R=1, I=0, p=0.5 -> RCE = -0.5; orthogonal tokens with alpha=0
        cfg = RunConfig(alpha=0.0, gamma=GAMMA)
        table = {"a": [1.0, 0.0], "b": [1.0, 0.0], "x": [1.0, 0.0], "y": [1.0, 0.0]}
        pair = pair_from(["a", "b"], ["x", "y"], table, 0.5)  # R = soft = 1, I = 0
        batch = LossBatch(pairs=[pair])
        assert rce_loss(batch, cfg) == pytest.approx(-0.5, abs=1e-12)

    def test_mixed_batch_matches_hand_arithmetic(self):
        # three pairs with exactly-representable rewards and indicators
        table = {
            "a": [1.0, 0.0],
            "b": [0.0, 1.0],
            "c": [0.0, 1.0],  # same vector as b, different token
            "x": [1.0, 0.0],
            "y": [0.0, 1.0],
        }
        p1 = pair_from(["a", "b"], ["a", "b"], table, math.exp(-1))  # R=1, I=1
        p2 = pair_from(["a", "b"], ["a", "c"], table, 0.5)  # soft=1, lcs=1/2, I=1/2
        p3 = pair_from(["a", "b"], ["x", "y"], table, 0.25)  # soft=1, lcs=0, I=0
        neutral = EntailmentRecord(EntailmentLabel.NEUTRAL, 0.5)
        batch = LossBatch(pairs=[p1, p2, p3], entailments=[neutral, neutral])
        r2 = ALPHA * 0.5 + (1.0 - ALPHA) * 1.0
        expected_ce = -(
            1.0 * 1.0 * math.log(math.exp(-1))
            + r2 * 0.5 * math.log(0.5)
            + ((1.0 - ALPHA) * 1.0) * 0.0 * math.log(0.25)
        ) / 3.0
        assert ce_loss(batch, CFG) == pytest.approx(expected_ce, abs=1e-12)
        r3 = (1.0 - ALPHA) * 1.0
        expected_rce = -(1.0 * 0.0 * math.exp(-1) + r2 * 0.5 * 0.5 + r3 * 1.0 * 0.25) / 3.0
        assert rce_loss(batch, CFG) == pytest.approx(expected_rce, abs=1e-12)

    def test_ce_monotone_in_gen_prob(self):
        def make(prob):
            return LossBatch(pairs=[pair_from(["a", "b"], ["a", "b"], ORTHO, prob)])

        losses = [ce_loss(make(p), CFG) for p in (0.1, 0.3, 0.6, 0.9, 1.0)]
        assert losses == sorted(losses, reverse=True)

    def test_zero_prob_rejected(self):
        with pytest.raises(DataError):
            pair_from(["a"], ["a"], ORTHO, 0.0)


class TestErl:
    def batch(self, label, prob, prob2=0.9):
        pairs = [
            pair_from(["a", "b"], ["a", "b"], ORTHO, 0.5),
            pair_from(["a", "b"], ["a", "c"], ORTHO, 0.5),
        ]
        return LossBatch(
            pairs=pairs, entailments=[EntailmentRecord(label, prob)]
        )

    def test_entailment_branch(self):
        batch = self.batch(EntailmentLabel.ENTAILMENT, 1.0)
        assert erl_step_loss(batch, 0, CFG) == pytest.approx(
            ce_loss(batch, CFG) - 1.0, abs=1e-12
        )

    def test_contradiction_branch(self):
        batch = self.batch(EntailmentLabel.CONTRADICTION, 0.0)
        assert erl_step_loss(batch, 0, CFG) == pytest.approx(
            rce_loss(batch, CFG) - 1.0, abs=1e-12
        )

    def test_label_flip_changes_branch(self):
        ent = self.batch(EntailmentLabel.ENTAILMENT, 0.7)
        neu = self.batch(EntailmentLabel.NEUTRAL, 0.7)
        assert erl_step_loss(ent, 0, CFG) != erl_step_loss(neu, 0, CFG)
        assert erl_step_loss(ent, 0, CFG) == pytest.approx(ce_loss(ent, CFG) - 0.7)
        assert erl_step_loss(neu, 0, CFG) == pytest.approx(rce_loss(neu, CFG) - 0.3)

    def test_branch_invariant_under_prob_perturbation(self):
        for label in EntailmentLabel:
            base = None
            for prob in (0.05, 0.35, 0.65, 0.95):
                batch = self.batch(label, prob)
                # removing the probability term exposes the branch value
                value = erl_step_loss(batch, 0, CFG)
                branch = value + (prob if label is EntailmentLabel.ENTAILMENT else 1.0 - prob)
                if base is None:
                    base = branch
                assert branch == pytest.approx(base, abs=1e-12)

    def test_index_out_of_range(self):
        batch = self.batch(EntailmentLabel.NEUTRAL, 0.5)
        with pytest.raises(IndexError):
            erl_step_loss(batch, 1, CFG)

    def test_entailment_count_enforced(self):
        with pytest.raises(ValueError):
            LossBatch(pairs=[pair_from(["a"], ["a"], ORTHO, 0.5)] * 3, entailments=[])


VOCAB = [f"w{i}" for i in range(12)]


def write_seeded_batch(path, seed, n, label=None):
    """``n`` random pairs over VOCAB; every step gets ``label``, or a random one."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        reference = [VOCAB[j] for j in rng.integers(len(VOCAB), size=int(rng.integers(1, 9)))]
        generated = [t if rng.random() < 0.6 else VOCAB[int(rng.integers(len(VOCAB)))] for t in reference]
        generated += [VOCAB[j] for j in rng.integers(len(VOCAB), size=int(rng.integers(0, 3)))]
        record = {"generated": generated, "reference": reference, "gen_prob": float(rng.uniform(0.01, 1.0))}
        if i < n - 1:
            record["entail_label"] = label or [l.value for l in EntailmentLabel][int(rng.integers(3))]
            record["entail_prob"] = float(rng.uniform(0.0, 1.0))
        records.append(record)
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


class TestScoreBatch:
    @pytest.mark.parametrize(
        "seed,n,label,vectors",
        [
            (1, 9, None, False),
            (2, 9, None, True),
            (3, 7, "entailment", True),
            (4, 7, "contradiction", False),
            (5, 1, None, True),  # one pair, no entailment records
        ],
    )
    def test_equals_per_loss_loops(self, tmp_path, seed, n, label, vectors):
        path = write_seeded_batch(tmp_path / "batch.jsonl", seed, n, label)
        lookup = None
        if vectors:
            matrix = np.random.default_rng(seed).standard_normal((len(VOCAB), 5)).astype(np.float32)
            lookup = VectorStore(list(VOCAB), matrix)
        batch = load_loss_batch(path, lookup=lookup)
        scores = score_batch(batch, CFG)
        assert scores.rewards == [reward(p, CFG) for p in batch.pairs]
        assert scores.indicators == [indicator(p.reference, p.generated) for p in batch.pairs]
        assert scores.ce == ce_loop(batch, CFG, reward, indicator) == ce_loss(batch, CFG)
        assert scores.rce == rce_loop(batch, CFG, reward, indicator) == rce_loss(batch, CFG)
        assert scores.erl == erl_loops(batch, CFG, reward, indicator)
        assert scores.erl == [erl_step_loss(batch, i, CFG) for i in range(n - 1)]

    def test_empty_batch_errors(self):
        batch = LossBatch(pairs=[])
        for loss in (score_batch, ce_loss, rce_loss):
            with pytest.raises(ValueError, match="empty loss batch"):
                loss(batch, CFG)
        with pytest.raises(IndexError):
            erl_step_loss(batch, 0, CFG)

    def test_cli_scores_each_pair_once(self, tmp_path, monkeypatch, capsys):
        path = write_seeded_batch(tmp_path / "batch.jsonl", 6, 11)
        calls = []
        real = losses_module.reward

        def counting(pair, cfg):
            calls.append(pair)
            return real(pair, cfg)

        monkeypatch.setattr(losses_module, "reward", counting)
        assert main(["score-losses", "--batch", str(path)]) == 0
        assert len(json.loads(capsys.readouterr().out)["steps"]) == 11
        assert len(calls) == 11


class TestEma:
    def test_gamma_zero(self):
        assert ema_update(5.0, 2.0, RunConfig(alpha=ALPHA, gamma=0.0)) == 2.0

    def test_gamma_one(self):
        assert ema_update(5.0, 2.0, RunConfig(alpha=ALPHA, gamma=1.0)) == 5.0

    def test_unrolled_matches_closed_form(self):
        losses = [1.0, 0.5, 2.0, 0.25, 1.5]
        value = 3.0
        for batch_loss in losses:
            value = ema_update(value, batch_loss, CFG)
        closed = GAMMA ** 5 * 3.0 + (1 - GAMMA) * sum(
            GAMMA ** (4 - i) * l for i, l in enumerate(losses)
        )
        assert value == pytest.approx(closed, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=-10, max_value=10),
        st.floats(min_value=-10, max_value=10),
        st.floats(min_value=0, max_value=0.999),
    )
    def test_contraction(self, prev, batch_loss, gamma):
        cfg = RunConfig(alpha=ALPHA, gamma=gamma)
        new = ema_update(prev, batch_loss, cfg)
        assert abs(new - batch_loss) <= gamma * abs(prev - batch_loss) + 1e-12


class TestBatchLoader:
    def write(self, tmp_path, records):
        path = tmp_path / "batch.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        return path

    def test_loads_pairs_and_entailments(self, tmp_path):
        path = self.write(
            tmp_path,
            [
                {
                    "generated": ["a", "b"],
                    "reference": ["a", "b"],
                    "gen_prob": 0.5,
                    "entail_label": "entailment",
                    "entail_prob": 0.8,
                },
                {"generated": ["c"], "reference": ["c"], "gen_prob": 0.9},
            ],
        )
        batch = load_loss_batch(path)
        assert len(batch.pairs) == 2
        assert batch.entailments[0].label is EntailmentLabel.ENTAILMENT
        # one-hot fallback: identical token lists still give reward 1
        assert reward(batch.pairs[0], CFG) == pytest.approx(1.0, abs=1e-9)

    def test_missing_entailment_fields(self, tmp_path):
        path = self.write(
            tmp_path,
            [
                {"generated": ["a"], "reference": ["a"], "gen_prob": 0.5},
                {"generated": ["b"], "reference": ["b"], "gen_prob": 0.5},
            ],
        )
        with pytest.raises(DataError):
            load_loss_batch(path)

    def test_clamp_probs(self, tmp_path):
        path = self.write(
            tmp_path, [{"generated": ["a"], "reference": ["a"], "gen_prob": 0.0}]
        )
        with pytest.raises(DataError):
            load_loss_batch(path)
        batch = load_loss_batch(path, clamp_probs=True)
        assert batch.pairs[0].gen_prob == 1e-12


    @pytest.mark.parametrize(
        "record,message",
        [
            ({"generated": "what is it", "reference": ["what"], "gen_prob": 0.5}, "list of strings"),
            ({"generated": ["a", 1], "reference": ["a"], "gen_prob": 0.5}, "list of strings"),
            ({"generated": [], "reference": ["a"], "gen_prob": 0.5}, "must not be empty"),
            ({"generated": ["a"], "reference": ["a"], "gen_prob": True}, "not bool"),
            ({"generated": ["a"], "reference": ["a"], "gen_prob": "0.5"}, "not str"),
            ({"generated": ["a"], "reference": ["a"]}, "missing 'gen_prob'"),
        ],
    )
    def test_bad_field_names_line(self, tmp_path, record, message):
        first = {"generated": ["a"], "reference": ["a"], "gen_prob": 0.5,
                 "entail_label": "neutral", "entail_prob": 0.5}
        path = self.write(tmp_path, [first, record])
        with pytest.raises(ParseError, match=message) as info:
            load_loss_batch(path)
        assert info.value.line_no == 2 and str(path) in str(info.value)

    def test_non_finite_entail_prob(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        path.write_text(
            '{"generated": ["a"], "reference": ["a"], "gen_prob": 0.5,'
            ' "entail_label": "neutral", "entail_prob": NaN}\n'
            '{"generated": ["a"], "reference": ["a"], "gen_prob": 0.5}\n'
        )
        with pytest.raises(ParseError, match="finite number, not nan"):
            load_loss_batch(path)


class TestConfig:
    def test_bounds(self):
        with pytest.raises(ValueError):
            RunConfig(alpha=1.5)
        with pytest.raises(ValueError):
            RunConfig(gamma=-0.1)
