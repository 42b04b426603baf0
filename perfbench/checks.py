"""Independent output checks.

Each ``check_*`` returns a list of problems (empty when the output is
right). References are computed here from the planted truth with plain
numpy, not with the program's own code paths. A non-empty list counts
the operation as failed.
"""

from __future__ import annotations

import math
import re

import numpy as np

REL_TOL = 1e-9

_NONSTRICT_RE = re.compile(r"-?\bInfinity\b|\bNaN\b")


def _close(got: float, want: float, tol: float = REL_TOL) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def count_nonstrict_json(text: str) -> int:
    """Number of ``Infinity``/``NaN`` tokens, which strict JSON forbids."""
    return len(_NONSTRICT_RE.findall(text))


# ---------------------------------------------------------------- retrieve


def _pairwise_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = a.astype(np.float64)[:, None, :] - b.astype(np.float64)[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def wmd_bounds(q_doc, p_doc) -> tuple[float, float]:
    """Relaxed WMD (a lower bound) and the independent-coupling cost (an upper bound)."""
    costs = _pairwise_dist(q_doc.vectors, p_doc.vectors)
    lower = max(
        float(q_doc.weights @ costs.min(axis=1)), float(p_doc.weights @ costs.min(axis=0))
    )
    upper = float(q_doc.weights @ costs @ p_doc.weights)
    return lower, upper


def check_retrieval(
    ranked: list,
    kept: list[str],
    *,
    query_entities: list[str],
    passage_entities: dict[str, frozenset[str]],
    no_vectors: set[str],
    q_doc,
    token_docs: dict,
    top_n: int,
    k: int,
    nes_threshold: float,
) -> list[str]:
    """ranked is [(pid, wmd, nes)]; checks order, NES, kept, and WMD bounds."""
    problems = []
    ids = [row[0] for row in ranked]
    if len(ranked) != top_n or len(set(ids)) != len(ids):
        problems.append(f"ranked has {len(ranked)} rows, {len(set(ids))} distinct; want {top_n}")
    wanted = set(query_entities)
    for pid, wmd, nes_val in ranked:
        planted = passage_entities.get(pid)
        if planted is None:
            problems.append(f"{pid}: not a generated passage")
            continue
        nes_want = len(planted & wanted) / len(wanted)
        if nes_val != nes_want:
            problems.append(f"{pid}: NES {nes_val} != planted {nes_want}")
        if pid in no_vectors:
            if wmd != math.inf:
                problems.append(f"{pid}: has no token vectors but WMD is {wmd}")
            continue
        if not math.isfinite(wmd):
            problems.append(f"{pid}: WMD {wmd} for a passage with token vectors")
            continue
        lower, upper = wmd_bounds(q_doc, token_docs[pid])
        slack = 1e-9 * max(1.0, upper)
        if not lower - slack <= wmd <= upper + slack:
            problems.append(f"{pid}: WMD {wmd} outside [{lower}, {upper}]")
    keys = [(-row[2], row[1], row[0]) for row in ranked]
    if any(a > b for a, b in zip(keys, keys[1:])):
        problems.append("ranked is not ordered by (-NES, WMD, id)")
    want_kept = [row[0] for row in ranked if row[2] > nes_threshold][:k]
    if list(kept) != want_kept:
        problems.append(f"kept {list(kept)[:3]}... is not the NES > {nes_threshold} prefix")
    return problems


def check_same_results(cli_results: list[dict], library: dict[str, tuple[list, list]]) -> list[str]:
    """CLI ``results`` entries must equal the library's (ranked, kept) per query."""
    problems = []
    if sorted(r["query_id"] for r in cli_results) != sorted(library):
        problems.append("CLI answered a different query set")
    for r in cli_results:
        want = library.get(r["query_id"])
        if want is None:
            continue
        ranked = [tuple(row) for row in r["ranked"]]
        if ranked != [tuple(row) for row in want[0]] or list(r["kept"]) != list(want[1]):
            problems.append(f"{r['query_id']}: CLI result differs from the library result")
    return problems


# --------------------------------------------------------------------- ANN


def check_ann(candidates, q64: np.ndarray, matrix64: np.ndarray, row_of: dict[str, int], top_n: int) -> list[str]:
    """Inner products equal a float64 dot product; order is (-ip, id)."""
    problems = []
    if len(candidates) != min(top_n, len(row_of)):
        problems.append(f"{len(candidates)} candidates, want {top_n}")
    ids = [c.passage_id for c in candidates]
    if len(set(ids)) != len(ids):
        problems.append("duplicate candidate ids")
    for c in candidates:
        row = row_of.get(c.passage_id)
        if row is None:
            problems.append(f"{c.passage_id}: unknown id")
            continue
        want = float(np.dot(matrix64[row], q64))
        if not _close(c.inner_product, want):
            problems.append(f"{c.passage_id}: inner product {c.inner_product} != {want}")
    for a, b in zip(candidates, candidates[1:]):
        if (-a.inner_product, a.passage_id) > (-b.inner_product, b.passage_id):
            problems.append("candidates not ordered by inner product, then id")
            break
    return problems


def exact_top(q64: np.ndarray, matrix64: np.ndarray, n: int) -> np.ndarray:
    """Row numbers of the n largest exact inner products."""
    ips = matrix64 @ q64
    return np.argpartition(-ips, n - 1)[:n]


def recall(candidates, exact_rows: np.ndarray, ids: list[str]) -> float:
    truth = {ids[i] for i in exact_rows}
    return len(truth & {c.passage_id for c in candidates}) / len(truth)


# ---------------------------------------------------------------- coverage


def check_coverage(report, *, per_round: list[tuple[int, int]], covering: dict[str, set[str]]) -> list[str]:
    """per_round, completion and the covered sets follow the planted schedule."""
    problems = []
    got_rounds = [tuple(r) for r in report.per_round]
    if got_rounds != [tuple(r) for r in per_round]:
        problems.append(f"per_round {got_rounds} != planted {per_round}")
    if not report.complete or report.queries_covered != len(covering):
        problems.append(f"covered {report.queries_covered} of {len(covering)}")
    if report.passages_scanned != per_round[-1][0]:
        problems.append(f"scanned {report.passages_scanned}, planted stop at {per_round[-1][0]}")
    for qid, want in covering.items():
        got = report.covered_passages.get(qid)
        if got is None or set(got) != want or len(got) != len(want):
            problems.append(f"{qid}: covered by {got}, planted {sorted(want)}")
    return problems


# ------------------------------------------------------------------ losses


def _lcs(a: list[str], b: list[str]) -> int:
    table = np.zeros((len(a) + 1, len(b) + 1), dtype=np.int64)
    for i, x in enumerate(a, start=1):
        for j, y in enumerate(b, start=1):
            table[i, j] = table[i - 1, j - 1] + 1 if x == y else max(table[i - 1, j], table[i, j - 1])
    return int(table[-1, -1])


def _soft_match(gen: list[str], ref: list[str], unit: np.ndarray, row_of: dict[str, int]) -> float:
    """Mean over generated tokens (with repeats) of the best cosine to a reference token."""
    g = unit[[row_of[t] for t in gen]]
    r = unit[[row_of[t] for t in ref]]
    return float((g @ r.T).max(axis=1).mean())


def _indicator(a: list[str], b: list[str]) -> float:
    return sum(x == y for x, y in zip(a, b)) / max(len(a), len(b))


def check_score_losses(payload: dict, truth, *, alpha: float, unit: np.ndarray, row_of: dict[str, int]) -> list[str]:
    """Rewards and indicators from the planted tokens; CE, RCE and ERL from the printed values."""
    problems = []
    n = len(truth.generated)
    steps, erl = payload["steps"], payload["erl"]
    if len(steps) != n or len(erl) != n - 1:
        return [f"{len(steps)} steps and {len(erl)} ERL losses for {n} pairs"]
    for i, step in enumerate(steps):
        gen, ref = truth.generated[i], truth.reference[i]
        want_reward = alpha * _lcs(gen, ref) / len(gen) + (1 - alpha) * _soft_match(gen, ref, unit, row_of)
        if not _close(step["reward"], want_reward):
            problems.append(f"step {i}: reward {step['reward']} != {want_reward}")
        if not _close(step["indicator"], _indicator(ref, gen)):
            problems.append(f"step {i}: indicator {step['indicator']}")
        if step["gen_prob"] != truth.gen_prob[i]:
            problems.append(f"step {i}: gen_prob {step['gen_prob']} != {truth.gen_prob[i]}")
    r = np.array([s["reward"] for s in steps])
    ind = np.array([s["indicator"] for s in steps])
    p = np.array([s["gen_prob"] for s in steps])
    ce = -float(np.mean(r * ind * np.log(p)))
    rce = -float(np.mean(r * (1 - ind) * p))
    if not _close(payload["ce"], ce):
        problems.append(f"ce {payload['ce']} != {ce}")
    if not _close(payload["rce"], rce):
        problems.append(f"rce {payload['rce']} != {rce}")
    for i, row in enumerate(erl):
        label, prob = truth.labels[i], truth.entail_prob[i]
        want = ce - prob if label == "entailment" else rce - (1 - prob)
        if row["label"] != label or not _close(row["loss"], want):
            problems.append(f"erl {i}: {row} != ({label}, {want})")
    return problems


def check_evaluate(payload: dict, scores: list[dict], labels: list[dict]) -> list[str]:
    """SR is the mean score and LC the entailment percentage, overall and per query."""
    problems = []
    if not _close(payload["sr"], float(np.mean([s["score"] for s in scores]))):
        problems.append(f"sr {payload['sr']}")
    lc = 100.0 * sum(l["label"] == "entailment" for l in labels) / len(labels)
    if not _close(payload["lc_percent"], lc) or payload["n_pairs"] != len(labels):
        problems.append(f"lc {payload['lc_percent']} / n {payload['n_pairs']}")
    for qid, sr, lc_q in payload["per_query"]:
        q_scores = [s["score"] for s in scores if s["query_id"] == qid]
        q_labels = [l["label"] for l in labels if l["query_id"] == qid]
        if not _close(sr, float(np.mean(q_scores))):
            problems.append(f"{qid}: sr {sr}")
        if not _close(lc_q, 100.0 * q_labels.count("entailment") / len(q_labels)):
            problems.append(f"{qid}: lc {lc_q}")
    return problems
