"""The benchmark's own tests: checks accept right outputs and count
corrupted ones as failed. Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE.parent)]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


class SmallRetrieve(workloads.Retrieve20k):
    sizes = {"n_passages": 800, "n_queries": 6, "n_entities": 300, "n_clusters": 8}


class SmallCoverage(workloads.CoverageGrow):
    sizes = {"batch_size": 300, "n_entities": 200, "n_clusters": 8}


class SmallAnn(workloads.Ann100k):
    sizes = {"n": 3000, "n_queries": 8, "n_clusters": 16}


class SmallScore(workloads.ScoreBatch):
    sizes = {"n_batches": 2, "pairs": 8, "vocab_size": 200, "n_eval_queries": 2}


def ready(cls, tmp_path, seed=3):
    wl = cls(seed, tmp_path)
    wl.generate()
    return wl, wl.setup()


@pytest.fixture(scope="module")
def retrieve(tmp_path_factory):
    wl, state = ready(SmallRetrieve, tmp_path_factory.mktemp("retrieve"))
    eq = state.expanded[0]
    return wl, state, eq, wl.op(state, eq)


def test_generation_is_seeded(tmp_path):
    a = SmallScore(5, tmp_path / "a")
    b = SmallScore(5, tmp_path / "b")
    a.generate()
    b.generate()
    for name in ("tokens.bin", "batch0.jsonl", "pair_scores.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_retrieval_passes_and_exercises_inf_path(retrieve):
    wl, state, eq, result = retrieve
    assert wl.check(state, eq, result) == []
    assert result.kept
    assert any(math.isinf(w) for _, w, _ in result.ranked)


def _retrieval_corruptions(result):
    ranked = [list(row) for row in result.ranked]
    finite = next(i for i, row in enumerate(ranked) if math.isfinite(row[1]))
    yield "swap", [ranked[1], ranked[0]] + ranked[2:], result.kept
    yield "nes", [ranked[0][:2] + [ranked[0][2] - 0.25]] + ranked[1:], result.kept
    yield "kept", ranked, result.kept[:-1]
    wmd_high = [row[:] for row in ranked]
    wmd_high[finite][1] *= 100
    yield "wmd", wmd_high, result.kept
    wmd_inf = [row[:] for row in ranked]
    wmd_inf[finite][1] = math.inf
    yield "inf", wmd_inf, result.kept


def test_retrieval_corruptions_fail(retrieve):
    wl, state, eq, result = retrieve
    for label, ranked, kept in _retrieval_corruptions(result):
        bad = dataclasses.replace(result, ranked=[tuple(r) for r in ranked], kept=list(kept))
        assert wl.check(state, eq, bad), label


def test_cli_equality_check(retrieve):
    _, _, eq, result = retrieve
    library = {eq.source.id: (result.ranked, result.kept)}
    payload = json.loads(json.dumps({"results": [result.to_dict()]}))
    assert checks.check_same_results(payload["results"], library) == []
    payload["results"][0]["kept"] = payload["results"][0]["kept"][1:]
    assert checks.check_same_results(payload["results"], library)


def test_ann_check_and_corruptions(tmp_path):
    wl, state = ready(SmallAnn, tmp_path)
    cands = wl.op(state, 0)
    assert wl.check(state, 0, cands) == []
    assert 0.0 < wl.recall(0, cands) <= 1.0
    off = [dataclasses.replace(cands[0], inner_product=cands[0].inner_product + 1e-3)] + cands[1:]
    assert wl.check(state, 0, off)
    assert wl.check(state, 0, [cands[1], cands[0]] + cands[2:])
    assert wl.check(state, 0, cands[:-1])


def test_coverage_check_and_corruptions(tmp_path):
    wl, state = ready(SmallCoverage, tmp_path)
    report = wl.op(state, None)
    assert wl.check(state, None, report) == []
    late = copy.deepcopy(report)
    late.per_round[1] = (late.per_round[1][0], late.per_round[1][1] + 1)
    assert wl.check(state, None, late)
    short = copy.deepcopy(report)
    qid = next(iter(short.covered_passages))
    short.covered_passages[qid] = short.covered_passages[qid][:-1]
    assert wl.check(state, None, short)


def test_score_losses_check_and_corruptions(tmp_path):
    wl, state = ready(SmallScore, tmp_path)
    batch = wl.truth.batches[0]
    code, text = wl.op(state, batch)
    assert wl.check(state, batch, (code, text)) == []
    payload = json.loads(text)
    for mutate in (
        lambda p: p.update(ce=p["ce"] * 1.01),
        lambda p: p.update(rce=p["rce"] + 1e-3),
        lambda p: p["steps"][2].update(reward=p["steps"][2]["reward"] + 1e-3),
        lambda p: p["erl"][0].update(loss=p["erl"][0]["loss"] - 1e-3),
    ):
        bad = copy.deepcopy(payload)
        mutate(bad)
        assert wl.check(state, batch, (0, json.dumps(bad)))
    assert wl.check(state, batch, (2, ""))


def test_evaluate_check_and_corruption(tmp_path):
    wl, state = ready(SmallScore, tmp_path)
    _, _, problems = wl.extras(state, [])
    assert problems == []
    code, text = workloads.run_cli(["evaluate", "--sr", str(wl.truth.sr_path), "--lc", str(wl.truth.lc_path)])
    payload = json.loads(text)
    payload["per_query"][0][1] += 0.01
    assert checks.check_evaluate(payload, wl.truth.pair_scores, wl.truth.pair_labels)


def test_nonstrict_json_count():
    assert checks.count_nonstrict_json('[1,Infinity,-Infinity,NaN,"Infinityx"]') == 3


class CorruptRetrieve(SmallRetrieve):
    def op(self, state, eq):
        result = super().op(state, eq)
        return dataclasses.replace(result, kept=result.kept[1:])


class RaisingScore(SmallScore):
    def op(self, state, batch):
        raise ValueError("boom")


@pytest.mark.parametrize("cls", [CorruptRetrieve, RaisingScore])
def test_runner_counts_bad_ops_as_failed(cls, tmp_path):
    wl = cls(3, tmp_path)
    wl.generate()
    wl.warmup = lambda state: None
    metrics, attempted, problems, _, _ = run.untraced_pass(wl, 0.2)
    assert attempted >= 1 and len(problems) == attempted
    assert set(metrics) == {"setup_s", "op_ms_p50", "op_ms_tail", "ops_per_s", "peak_rss_mb"}


def test_traced_pass_reports_every_layer_metric(tmp_path):
    wl = SmallRetrieve(3, tmp_path / "in")
    wl.generate()
    metrics, attempted, problems, _, _ = run.traced_pass(wl, 0.5, tmp_path / "spans.jsonl.gz")
    assert problems == []
    assert list(metrics) == layers.PER_LAYER
    assert metrics["wmd.wmd_exact.calls"][0] > 0 and metrics["cli.nonstrict_json_values"][0] > 0
    assert metrics["trace.accounted_share"][0] == pytest.approx(1.0, abs=0.01)
    assert (tmp_path / "spans.jsonl.gz").stat().st_size > 0


def test_tail_percentile():
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, "max")
    value, label = run.tail([float(i) for i in range(1, 101)])
    assert (value, label) == (90.0, "p90.0")
