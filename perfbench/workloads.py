"""The four workloads: generate, set up, one operation, check.

Every workload drives iseeq through module attributes (``kpr.retrieve``,
``sitq.query``, ``cli.main``...), so the traced pass sees each call.
Settings that the CLI also has come from ``RunConfig()`` defaults, so
library and CLI results are comparable.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import statistics
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from iseeq import cli, embeddings, kg, kpr, losses, sitq, sqe
from iseeq.config import RunConfig
from iseeq.errors import EmptyInputError

import checks
import gen
from layers import PROBES
from tracing import NAME, OP

ALPHA, GAMMA = 0.1971, 0.12


def read_jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process ``iseeq`` call; returns exit code and captured stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class Workload:
    """Subclasses fill in the steps; the runner times and checks them."""

    name = ""
    sizes: dict = {}  # generator size overrides; the benchmark uses the defaults

    def __init__(self, seed: int, workdir: Path):
        self.seed, self.dir = seed, workdir
        self.cfg = RunConfig()

    def generate(self) -> None:
        raise NotImplementedError

    def setup(self):
        raise NotImplementedError

    def warmup(self, state) -> None:
        self.op(state, self.items(state)[0])

    def items(self, state) -> list:
        raise NotImplementedError

    def op(self, state, item):
        raise NotImplementedError

    def check(self, state, item, result) -> list[str]:
        raise NotImplementedError

    def extras(self, state, results) -> tuple[dict, int, list[str]]:
        """Traced pass only: extra calls after the op loops, given the loops'
        (item, result) pairs; returns their metrics, count and problems."""
        return {}, 0, []

    def layer_facts(self, state, results, tracer) -> dict:
        """Traced pass only: per-layer values this workload measures itself,
        from the traced ops' (item, result) pairs and the spans."""
        return {}


# ------------------------------------------------------------ KG workloads


def load_kg_inputs(files: dict[str, Path]) -> SimpleNamespace:
    """The inputs ``iseeq retrieve`` and ``iseeq coverage`` load, through the library."""
    graph = kg.load_kg(files["kg"])
    expanded = [
        sqe.expand_query(graph, sqe.QueryDescription(r["id"], r["text"], sqe.QueryKind(r["kind"])))
        for r in read_jsonl(files["queries"])
    ]
    passages = [kpr.Passage(id=r["id"], text=r["text"]) for r in read_jsonl(files["passages"])]
    passage_store = embeddings.load_vectors(files["passage_vectors"])
    query_store = embeddings.load_vectors(files["query_vectors"])
    token_store = embeddings.load_vectors(files["token_vectors"])
    token_docs = {}
    for p in passages:
        try:
            token_docs[p.id] = embeddings.build_token_doc(p.id, kpr.tokenize_text(p.text), token_store)
        except EmptyInputError:
            pass  # no token vectors: retrieve gives this passage an infinite WMD
    return SimpleNamespace(
        expanded=expanded,
        passages=passages,
        table={p.id: p for p in passages},
        passage_store=passage_store,
        token_docs=token_docs,
        query_vecs={eq.source.id: query_store.row(eq.source.id).astype(np.float64) for eq in expanded},
        query_docs={
            eq.source.id: embeddings.build_token_doc(
                eq.source.id, kpr.tokenize_text(eq.augmented_text), token_store
            )
            for eq in expanded
        },
    )


class Retrieve20k(Workload):
    """kpr.retrieve, one query per operation, over 20k passages."""

    name = "retrieve-20k"
    cli_queries = 4

    def generate(self):
        self.truth = gen.make_retrieve_corpus(self.seed, self.dir, **self.sizes)
        lines = (self.dir / "queries.jsonl").read_text(encoding="utf-8").splitlines()
        (self.dir / "queries_cli.jsonl").write_text("\n".join(lines[: self.cli_queries]) + "\n", encoding="utf-8")

    def setup(self):
        state = load_kg_inputs(self.truth.files)
        state.index = sitq.build_index(
            state.passage_store, code_bits=self.cfg.code_bits, itq_iters=self.cfg.itq_iters, seed=self.cfg.seed
        )
        sitq.save_index(state.index, self.dir / "index.bin")
        return state

    def items(self, state):
        return state.expanded

    def op(self, state, eq):
        qid = eq.source.id
        return kpr.retrieve(
            state.index, state.table, state.token_docs, eq, state.query_vecs[qid], state.query_docs[qid],
            top_n=self.cfg.top_n, k=self.cfg.top_k, nes_threshold=self.cfg.nes_threshold, probe=self.cfg.probe,
        )

    def check(self, state, eq, result):
        qid = eq.source.id
        return checks.check_retrieval(
            result.ranked, result.kept,
            query_entities=self.truth.query_entities[qid],
            passage_entities=self.truth.passage_entities,
            no_vectors=self.truth.no_vectors,
            q_doc=state.query_docs[qid],
            token_docs=state.token_docs,
            top_n=self.cfg.top_n, k=self.cfg.top_k, nes_threshold=self.cfg.nes_threshold,
        )

    def extras(self, state, results):
        """One ``iseeq retrieve --index`` over the first queries; equals the library."""
        files = self.truth.files
        argv = ["retrieve", "--kg", files["kg"], "--queries", self.dir / "queries_cli.jsonl",
                "--passages", files["passages"], "--passage-vectors", files["passage_vectors"],
                "--query-vectors", files["query_vectors"], "--token-vectors", files["token_vectors"],
                "--index", self.dir / "index.bin"]
        started = time.perf_counter()
        code, text = run_cli([str(a) for a in argv])
        elapsed = time.perf_counter() - started
        if code != 0:
            return {"cli.retrieve.s": elapsed}, 1, [f"iseeq retrieve exited {code}"]
        done = {eq.source.id: r for eq, r in results}
        library = {}
        for eq in state.expanded[: self.cli_queries]:
            result = done.get(eq.source.id) or self.op(state, eq)
            library[eq.source.id] = (result.ranked, result.kept)
        problems = checks.check_same_results(json.loads(text)["results"], library)
        return {"cli.retrieve.s": elapsed, "cli.nonstrict_json_values": checks.count_nonstrict_json(text)}, 1, problems


class CoverageGrow(Workload):
    """kpr.coverage_loop over a streamed corpus; one loop per operation."""

    name = "coverage-grow"

    def generate(self):
        self.truth = gen.make_coverage_corpus(self.seed, self.dir, **self.sizes)
        self.round_s: list[float] = []

    def setup(self):
        return load_kg_inputs(self.truth.files)

    def items(self, state):
        return [None]

    def _batches(self, state, limit=None):
        """Yields the library's batches and times each round between pulls.

        The loop stops pulling once every query is covered; closing the
        generator then ends the last round.
        """
        stream = kpr.batch_passages(state.passages, state.passage_store, state.token_docs,
                                    self.truth.extra["batch_size"])
        for batch in itertools.islice(stream, limit):
            started = time.perf_counter()
            try:
                yield batch
            finally:
                self.round_s.append(time.perf_counter() - started)

    def _run(self, state, limit=None):
        batches = self._batches(state, limit)
        try:
            return kpr.coverage_loop(
                state.expanded, state.query_vecs, state.query_docs, batches,
                code_bits=self.cfg.code_bits, itq_iters=self.cfg.itq_iters, seed=self.cfg.seed,
                top_n=self.cfg.top_n, k=self.cfg.top_k, nes_threshold=self.cfg.nes_threshold, probe=self.cfg.probe,
            )
        finally:
            batches.close()

    def warmup(self, state):
        self._run(state, limit=1)
        self.round_s.clear()

    def op(self, state, item):
        return self._run(state)

    def check(self, state, item, report):
        return checks.check_coverage(
            report, per_round=self.truth.extra["per_round"], covering=self.truth.extra["covering"]
        )

    def layer_facts(self, state, results, tracer):
        return {"kpr.coverage_round.s": statistics.median(self.round_s) if self.round_s else 0.0}


# ------------------------------------------------------------------- ANN


class Ann100k(Workload):
    """sitq.query with the default probe over 100k clustered vectors."""

    name = "ann-100k"
    top_n = 100
    sweep_queries = 32

    def generate(self):
        self.truth = gen.make_ann_corpus(self.seed, self.dir, **self.sizes)
        self._exact: dict[int, np.ndarray] = {}

    def setup(self):
        store = embeddings.load_vectors(self.truth.vectors)
        queries = embeddings.load_vectors(self.truth.queries)
        return SimpleNamespace(
            store=store,
            queries=queries.matrix.astype(np.float64),
            index=sitq.build_index(store, code_bits=self.cfg.code_bits, itq_iters=self.cfg.itq_iters,
                                   seed=self.cfg.seed),
        )

    def items(self, state):
        return list(range(len(state.queries)))

    def op(self, state, qi, probe=None):
        return sitq.query(state.index, state.queries[qi], top_n=self.top_n, probe=probe)

    @functools.cached_property
    def _reference(self) -> tuple[np.ndarray, dict[str, int]]:
        """The vectors in float64 and each id's row, for the checks only."""
        return gen.read_vectors(self.truth.vectors), {pid: i for i, pid in enumerate(self.truth.ids)}

    def check(self, state, qi, candidates):
        matrix64, row_of = self._reference
        return checks.check_ann(candidates, self.truth.query_matrix[qi], matrix64, row_of, self.top_n)

    def recall(self, qi, candidates) -> float:
        if qi not in self._exact:
            self._exact[qi] = checks.exact_top(self.truth.query_matrix[qi], self._reference[0], self.top_n)
        return checks.recall(candidates, self._exact[qi], self.truth.ids)

    def extras(self, state, results):
        """Probe sweep, then a save/load round trip of the index."""
        metrics, attempted, problems = {}, 0, []
        for probe in PROBES:
            times, recalls = [], []
            for qi in range(min(self.sweep_queries, len(state.queries))):
                started = time.perf_counter()
                candidates = self.op(state, qi, probe=probe)
                times.append(time.perf_counter() - started)
                attempted += 1
                problems += self.check(state, qi, candidates)
                recalls.append(self.recall(qi, candidates))
            metrics[f"sitq.probe.{probe}.recall"] = statistics.fmean(recalls)
            metrics[f"sitq.probe.{probe}.ms_p50"] = 1000 * statistics.median(times)
        path = self.dir / "ann_index.bin"
        sitq.save_index(state.index, path)
        loaded = sitq.load_index(path, state.store)
        attempted += 1
        if not (np.array_equal(loaded.codes, state.index.codes) and loaded.ids == state.index.ids):
            problems.append("index changed in a save/load round trip")
        return metrics, attempted, problems

    def layer_facts(self, state, results, tracer):
        recalls = [self.recall(qi, c) for qi, c in results]
        return {"sitq.recall_at_100": statistics.fmean(recalls) if recalls else 0.0}


# ---------------------------------------------------------------- losses


class ScoreBatch(Workload):
    """One in-process ``iseeq score-losses`` call per operation, 64 pairs."""

    name = "score-batch"

    def generate(self):
        self.truth = gen.make_loss_corpus(self.seed, self.dir, **self.sizes)
        norms = np.linalg.norm(self.truth.token_matrix, axis=1, keepdims=True)
        self.unit = self.truth.token_matrix / norms
        self.row_of = {w: i for i, w in enumerate(self.truth.vocab)}

    def setup(self):
        """What a long-lived scorer would load once: the token vectors and every batch."""
        lookup = embeddings.load_vectors(self.truth.vectors)
        return [losses.load_loss_batch(batch.path, lookup=lookup) for batch in self.truth.batches]

    def items(self, state):
        return self.truth.batches

    def op(self, state, batch):
        return run_cli(["score-losses", "--batch", str(batch.path), "--vectors", str(self.truth.vectors),
                        "--alpha", str(ALPHA), "--gamma", str(GAMMA)])

    def check(self, state, batch, result):
        code, text = result
        if code != 0:
            return [f"iseeq score-losses exited {code}"]
        return checks.check_score_losses(json.loads(text), batch, alpha=ALPHA, unit=self.unit, row_of=self.row_of)

    def extras(self, state, results):
        """One ``iseeq evaluate`` over generated pair scores and labels."""
        started = time.perf_counter()
        code, text = run_cli(["evaluate", "--sr", str(self.truth.sr_path), "--lc", str(self.truth.lc_path)])
        elapsed = time.perf_counter() - started
        if code != 0:
            return {"metrics.evaluate.ms": 1000 * elapsed}, 1, [f"iseeq evaluate exited {code}"]
        problems = checks.check_evaluate(json.loads(text), self.truth.pair_scores, self.truth.pair_labels)
        return {"metrics.evaluate.ms": 1000 * elapsed}, 1, problems

    def layer_facts(self, state, results, tracer):
        """Reward calls per scored pair in the traced ops: n + 2 for n pairs."""
        calls = sum(1 for s in tracer.spans if s[NAME] == "losses.reward" and isinstance(s[OP], int))
        pairs = sum(len(batch.generated) for batch, _ in results)
        return {"losses.reward.calls_per_pair": calls / pairs if pairs else 0.0}


WORKLOADS = {w.name: w for w in (Retrieve20k, Ann100k, CoverageGrow, ScoreBatch)}
