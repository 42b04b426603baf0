"""Golden-output test: fixed CLI invocations against recorded stdout.

The workspace is the ``synth`` corpus (seed 42, 200 passages) plus the
small loss, WMD and metric files in ``data/golden``. Every tenth
passage is rewritten to words with no token vectors, so ``retrieve``
prints ``Infinity`` for it. Ids, order, entities, NES and ``kept`` are
compared exactly, floats to 1e-9. The workspace path is replaced by
``$WS`` before comparing.

After an intended output change, re-record with
``PYTHONPATH=src:tests python tests/test_golden.py`` and say why in
CHANGES.md.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from iseeq.cli import main
from iseeq.embeddings import save_vectors

import synth

GOLDEN = Path(__file__).parent / "data" / "golden"
NAMES = sorted(p.stem for p in GOLDEN.glob("*.out"))
EXTRA_QUERY = "How does an inverter charge the battery from the grid"


def make_workspace(root: Path) -> dict[str, str]:
    passages, plans, store, token_store, query_vec = synth.build_corpus(seed=42, n_passages=200)
    lines = []
    for i, p in enumerate(passages):
        text = "xyzzy plugh" if i % 10 == 7 else p.text
        if i % 10 == 7:
            plans[i] = []
        lines.append(json.dumps({"id": p.id, "text": text}))
    ws = {name: str(root / name) for name in (
        "passages.jsonl", "queries.jsonl", "passage_vecs.bin", "token_vecs.bin",
        "query_vecs.bin", "relevance.jsonl", "index.bin", "results.json")}
    ws["kg"] = synth.write_kg(root)
    Path(ws["passages.jsonl"]).write_text("\n".join(lines) + "\n", encoding="utf-8")
    Path(ws["queries.jsonl"]).write_text(
        json.dumps({"id": "q0", "text": synth.QUERY_TEXT}) + "\n"
        + json.dumps({"id": "q1", "text": EXTRA_QUERY, "kind": "title_and_description"}) + "\n",
        encoding="utf-8",
    )
    save_vectors(ws["passage_vecs.bin"], store.ids, store.matrix)
    save_vectors(ws["token_vecs.bin"], token_store.ids, token_store.matrix)
    q1_vec = np.random.default_rng(7).standard_normal(store.dim)
    save_vectors(ws["query_vecs.bin"], ["q0", "q1"], np.vstack([query_vec, q1_vec]).astype(np.float32))
    relevant = [p.id for p, plan in zip(passages, plans) if len(plan) >= 4]
    Path(ws["relevance.jsonl"]).write_text(
        json.dumps({"query_id": "q0", "relevant": relevant, "n_questions": 2}) + "\n"
        + json.dumps({"query_id": "q1", "relevant": relevant[::2]}) + "\n",
        encoding="utf-8",
    )
    return ws


def invocations(ws: dict[str, str]) -> list[tuple[str, list[str]]]:
    """(golden name, argv) in run order; eval-retriever reads retrieve_index's output."""
    g = {name: str(GOLDEN / name) for name in (
        "phrases.jsonl", "loss_batch.jsonl", "token_vecs.jsonl", "wmd_a.jsonl",
        "wmd_b.jsonl", "pair_scores.jsonl", "pair_labels.jsonl")}
    pipeline = [
        "--kg", ws["kg"], "--queries", ws["queries.jsonl"], "--passages", ws["passages.jsonl"],
        "--passage-vectors", ws["passage_vecs.bin"], "--query-vectors", ws["query_vecs.bin"],
        "--token-vectors", ws["token_vecs.bin"],
    ]
    expand = ["expand-query", "--kg", ws["kg"], "--queries", ws["queries.jsonl"]]
    losses = ["score-losses", "--batch", g["loss_batch.jsonl"]]
    return [
        ("kg_stats", ["kg", "stats", ws["kg"]]),
        ("expand_query", expand),
        ("expand_query_phrases", expand + ["--phrases", g["phrases.jsonl"]]),
        ("build_index", ["build-index", "--vectors", ws["passage_vecs.bin"], "--out", ws["index.bin"]]),
        ("retrieve_index", ["retrieve", *pipeline, "--index", ws["index.bin"]]),
        ("retrieve_bits16", ["retrieve", *pipeline, "--code-bits", "16", "--seed", "5"]),
        ("coverage", ["coverage", *pipeline, "--batch-size", "50"]),
        ("eval_retriever", ["eval-retriever", "--results", ws["results.json"],
                            "--relevance", ws["relevance.jsonl"], "--ks", "1,10,20"]),
        ("score_losses", losses),
        ("score_losses_vectors", losses + ["--vectors", g["token_vecs.jsonl"]]),
        ("wmd", ["wmd", "--docs-a", g["wmd_a.jsonl"], "--docs-b", g["wmd_b.jsonl"],
                 "--vectors", g["token_vecs.jsonl"]]),
        ("evaluate", ["evaluate", "--sr", g["pair_scores.jsonl"], "--lc", g["pair_labels.jsonl"]]),
    ]


def run_all(root: Path) -> dict[str, str]:
    """Stdout of every invocation, workspace path replaced by ``$WS``."""
    ws = make_workspace(root)
    outputs = {}
    for name, argv in invocations(ws):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        assert code == 0, f"{name} exited {code}"
        if name == "retrieve_index":
            Path(ws["results.json"]).write_text(buf.getvalue(), encoding="utf-8")
        outputs[name] = buf.getvalue().replace(str(root), "$WS")
    return outputs


def _same(got, want) -> bool:
    if isinstance(want, float) and type(got) is float:
        return got == want or math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)
    if isinstance(want, list):
        return type(got) is list and len(got) == len(want) and all(map(_same, got, want))
    if isinstance(want, dict):
        return type(got) is dict and got.keys() == want.keys() and all(
            _same(got[k], want[k]) for k in want)
    return type(got) is type(want) and got == want


def _parse(name: str, text: str) -> list:
    if name == "wmd":
        rows = list(csv.reader(io.StringIO(text)))
        return [rows[0]] + [[r[0]] + [float(x) for x in r[1:]] for r in rows[1:]]
    return [json.loads(line) for line in text.splitlines()]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", NAMES)
def test_matches_golden(outputs, name):
    want = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert _same(_parse(name, outputs[name]), _parse(name, want)), (
        f"{name} differs from golden:\n{outputs[name][:2000]}")


def test_every_invocation_has_a_golden_file(outputs):
    assert sorted(outputs) == NAMES


def test_retrieve_prints_infinity_for_passages_without_vectors(outputs):
    assert "Infinity" in outputs["retrieve_index"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name, text in run_all(Path(tmp)).items():
            (GOLDEN / f"{name}.out").write_text(text, encoding="utf-8")
            print(f"recorded {name}.out", file=sys.stderr)
