"""Per-layer metrics of the traced pass, computed from its spans.

A layer is an iseeq module; ``bench`` is the benchmark's own op span.
Every name in :data:`PER_LAYER` is reported on every workload, as 0
where the workload does not exercise that layer.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import END, ERROR, NAME, OP, START, layer_of, self_times

# Spans whose arguments and results the counters below read.
KEEP_ARGS = frozenset({"wmd.wmd_exact", "sitq.query", "sitq.build_index", "kpr.retrieve",
                       "kpr.coverage_loop", "embeddings.load_vectors", "sqe.expand_query"})
LAYERS = ("bench", "cli", "kpr", "sitq", "wmd", "embeddings", "kg", "sqe", "losses", "metrics")
PROBES = (100, 200, 400, 800, 1600)

PER_LAYER = (
    [
        "wmd.wmd_exact.calls", "wmd.wmd_exact.ms_p50", "wmd.wmd_exact.s", "wmd.lp_vars_mean",
        "wmd.repeat_share", "wmd.soft_match.calls",
        "sitq.query.calls", "sitq.query.ms_p50", "sitq.query.rows_scanned",
        "sitq.build_index.calls", "sitq.build_index.s", "sitq.build_index.rows",
        "sitq.itq_objective_final", "sitq.save_index.s", "sitq.load_index.s", "sitq.recall_at_100",
    ]
    + [f"sitq.probe.{p}.{m}" for p in PROBES for m in ("recall", "ms_p50")]
    + [
        "kpr.retrieve.calls", "kpr.retrieve.self_ms_p50", "kpr.nes.s", "kpr.kept_per_query_mean",
        "kpr.retrieve.useful_share", "kpr.coverage_loop.rounds", "kpr.coverage_loop.s",
        "kpr.coverage_round.s",
        "embeddings.load_vectors.s", "embeddings.load_vectors.rows", "embeddings.build_token_doc.calls",
        "embeddings.build_token_doc.s", "embeddings.docs_without_vectors",
        "kg.load_kg.s", "sqe.expand_query.ms_p50", "sqe.entities_per_query",
        "losses.reward.calls", "losses.reward.us_p50", "losses.reward.calls_per_pair",
        "losses.lcs_len.s", "losses.erl_step_loss.s", "losses.load_loss_batch.s",
        "metrics.evaluate.ms",
        "cli.retrieve.s", "cli.retrieve.self_s", "cli.score_losses.self_ms", "cli.nonstrict_json_values",
    ]
    + [f"{layer}.self_ms_per_op" for layer in LAYERS]
    + ["trace.ops", "trace.spans", "trace.overhead_share", "trace.accounted_share"]
)


def unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if "ms" in name.rsplit(".", 1)[-1]:
        return "ms"
    if name.endswith("us_p50"):
        return "us"
    if name.endswith(("share", "recall", "recall_at_100")):
        return "ratio"
    return "count"


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def span_metrics(tracer, op_walls: dict[int, float]) -> dict[str, float]:
    """Metrics measured at the wrapped boundaries.

    ``op_walls`` maps each traced op id to the wall time the runner
    measured around it.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    dur: dict[str, list[float]] = defaultdict(list)
    self_by: dict[str, list[float]] = defaultdict(list)
    layer_self: dict[str, float] = defaultdict(float)
    op_self: dict[int, float] = defaultdict(float)
    for span, own in zip(spans, selfs):
        dur[span[NAME]].append(span[END] - span[START])
        self_by[span[NAME]].append(own)
        if isinstance(span[OP], int):
            layer_self[layer_of(span[NAME])] += own
            op_self[span[OP]] += own
    calls = tracer.calls
    m: dict[str, float] = {}

    m["wmd.wmd_exact.calls"] = len(dur["wmd.wmd_exact"])
    m["wmd.wmd_exact.ms_p50"] = 1000 * _median(dur["wmd.wmd_exact"])
    m["wmd.wmd_exact.s"] = sum(dur["wmd.wmd_exact"])
    pairs = [(a.doc_id, b.doc_id, len(a.tokens) * len(b.tokens)) for (a, b, *_), _ in calls["wmd.wmd_exact"]]
    m["wmd.lp_vars_mean"] = _mean(p[2] for p in pairs)
    m["wmd.repeat_share"] = (len(pairs) - len({p[:2] for p in pairs})) / len(pairs) if pairs else 0.0
    m["wmd.soft_match.calls"] = len(dur["wmd.soft_match"])

    m["sitq.query.calls"] = len(dur["sitq.query"])
    m["sitq.query.ms_p50"] = 1000 * _median(dur["sitq.query"])
    m["sitq.query.rows_scanned"] = sum(len(args[0]) for args, _ in calls["sitq.query"])
    m["sitq.build_index.calls"] = len(dur["sitq.build_index"])
    m["sitq.build_index.s"] = sum(dur["sitq.build_index"])
    m["sitq.build_index.rows"] = sum(len(args[0]) for args, _ in calls["sitq.build_index"])
    if calls["sitq.build_index"]:
        m["sitq.itq_objective_final"] = calls["sitq.build_index"][-1][1].itq_objective[-1]
    m["sitq.save_index.s"] = sum(dur["sitq.save_index"])
    m["sitq.load_index.s"] = sum(dur["sitq.load_index"])

    retrieved = [result for _, result in calls["kpr.retrieve"]]
    m["kpr.retrieve.calls"] = len(dur["kpr.retrieve"])
    m["kpr.retrieve.self_ms_p50"] = 1000 * _median(self_by["kpr.retrieve"])
    m["kpr.nes.s"] = sum(dur["kpr.nes"])
    m["kpr.kept_per_query_mean"] = _mean(len(r.kept) for r in retrieved)
    m["kpr.retrieve.useful_share"] = _mean(1.0 if r.kept else 0.0 for r in retrieved)
    m["kpr.coverage_loop.rounds"] = _mean(len(r.per_round) for _, r in calls["kpr.coverage_loop"])
    m["kpr.coverage_loop.s"] = _median(dur["kpr.coverage_loop"])

    m["embeddings.load_vectors.s"] = sum(dur["embeddings.load_vectors"])
    m["embeddings.load_vectors.rows"] = sum(len(r) for _, r in calls["embeddings.load_vectors"])
    m["embeddings.build_token_doc.calls"] = len(dur["embeddings.build_token_doc"])
    m["embeddings.build_token_doc.s"] = sum(dur["embeddings.build_token_doc"])
    m["embeddings.docs_without_vectors"] = sum(
        1 for s in spans if s[NAME] == "embeddings.build_token_doc" and s[OP] == "setup" and s[ERROR]
    )
    m["kg.load_kg.s"] = sum(dur["kg.load_kg"])
    m["sqe.expand_query.ms_p50"] = 1000 * _median(dur["sqe.expand_query"])
    m["sqe.entities_per_query"] = _mean(len(r.entities) for _, r in calls["sqe.expand_query"])

    m["losses.reward.calls"] = len(dur["losses.reward"])
    m["losses.reward.us_p50"] = 1e6 * _median(dur["losses.reward"])
    m["losses.lcs_len.s"] = sum(dur["losses.lcs_len"])
    m["losses.erl_step_loss.s"] = sum(dur["losses.erl_step_loss"])
    m["losses.load_loss_batch.s"] = sum(dur["losses.load_loss_batch"])

    m["cli.retrieve.self_s"] = sum(self_by["cli.retrieve"])
    m["cli.score_losses.self_ms"] = 1000 * _median(self_by["cli.score_losses"])

    n_ops = len(op_walls)
    for layer in LAYERS:
        m[f"{layer}.self_ms_per_op"] = 1000 * layer_self[layer] / n_ops if n_ops else 0.0
    m["trace.ops"] = n_ops
    m["trace.spans"] = len(spans)
    m["trace.accounted_share"] = _mean(op_self[i] / wall for i, wall in op_walls.items())
    return m
