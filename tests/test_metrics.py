import numpy as np
import pytest

from iseeq.errors import EmptyInputError
from iseeq.metrics import MetricReport, evaluate, lc_score

from oracles import soft_match_loops


class TestLc:
    def test_all_entailment(self):
        assert lc_score(["entailment"] * 4) == 100.0

    def test_none(self):
        assert lc_score(["neutral", "contradiction"]) == 0.0

    def test_37_of_100(self):
        labels = ["entailment"] * 37 + ["neutral"] * 63
        assert lc_score(labels) == pytest.approx(37.0)

    def test_empty_scores_zero(self):
        assert lc_score([]) == 0.0

    def test_additive_by_weighted_mean(self):
        a = ["entailment", "neutral"]
        b = ["entailment"] * 3 + ["contradiction"]
        combined = lc_score(a + b)
        weighted = (lc_score(a) * len(a) + lc_score(b) * len(b)) / (len(a) + len(b))
        assert combined == pytest.approx(weighted, abs=1e-12)


class TestReport:
    def test_to_dict_shape(self):
        report = MetricReport(
            sr=0.5, lc_percent=50.0, n_pairs=2, per_query=[("q1", 0.5, 50.0)]
        )
        d = report.to_dict()
        assert d["sr"] == 0.5
        assert d["per_query"] == [["q1", 0.5, 50.0]]


class TestEvaluate:
    def test_groups_by_query(self):
        scores = [("q1", 0.2), ("q0", 0.5), ("q1", 0.4)]
        labels = [("q0", "entailment"), ("all", "neutral"), ("q1", "entailment"), ("q1", "neutral")]
        report = evaluate(scores, labels)
        assert report.sr == pytest.approx((0.2 + 0.4 + 0.5) / 3, abs=1e-15)
        assert report.lc_percent == 50.0 and report.n_pairs == 4
        assert report.per_query == [
            ("all", 0.0, 0.0),
            ("q0", 0.5, 100.0),
            ("q1", pytest.approx(0.3, abs=1e-15), 50.0),
        ]

    def test_overall_mean_runs_in_grouped_order(self):
        # the order of the summed scores changes the last bit here
        scores = [("a", 0.24), ("a", 0.54), ("b", 0.37), ("b", 0.6), ("a", 0.63)]
        grouped = [0.24, 0.54, 0.63, 0.37, 0.6]
        assert float(np.mean(grouped)) != float(np.mean([s for _, s in scores]))
        assert evaluate(scores, []).sr == float(np.mean(grouped))

    def test_scores_only_and_labels_only(self):
        assert evaluate([("q", 0.25)], []).to_dict() == {
            "sr": 0.25, "lc_percent": 0.0, "n_pairs": 0, "per_query": [["q", 0.25, 0.0]]}
        assert evaluate([], [("q", "entailment")]).per_query == [("q", 0.0, 100.0)]

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            evaluate([], [])
