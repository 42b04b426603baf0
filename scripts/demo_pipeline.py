#!/usr/bin/env python3
"""Generate a small synthetic workspace and run the pipeline end to end.

Writes a KG, queries, passages and embedding files into a directory,
then invokes the CLI: kg stats, expand-query, build-index, retrieve,
coverage and eval-retriever. A quick way to see every file format in
action; also doubles as a reproducibility smoke test (two retrieve runs
must emit identical bytes).
"""

import argparse
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import synth  # noqa: E402  (test helper reused for corpus generation)
from iseeq.cli import main as cli  # noqa: E402
from iseeq.embeddings import save_vectors  # noqa: E402


def run(argv) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli(argv)
    if code != 0:
        raise SystemExit(f"command failed ({code}): {' '.join(argv)}")
    return buffer.getvalue()


def main(argv: list[str] | None = None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workdir", default="demo_workspace")
    ap.add_argument("--passages", type=int, default=200)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args(argv)

    root = Path(args.workdir)
    root.mkdir(parents=True, exist_ok=True)

    kg_path = synth.write_kg(root)
    (root / "queries.jsonl").write_text(
        json.dumps({"id": "q0", "text": synth.QUERY_TEXT}) + "\n"
    )
    passages, _, store, token_store, query_vec = synth.build_corpus(
        seed=args.seed, n_passages=args.passages
    )
    (root / "passages.jsonl").write_text(
        "\n".join(json.dumps({"id": p.id, "text": p.text}) for p in passages) + "\n"
    )
    save_vectors(root / "passage_vecs.bin", store.ids, store.matrix)
    save_vectors(root / "token_vecs.bin", token_store.ids, token_store.matrix)
    save_vectors(root / "query_vecs.bin", ["q0"], query_vec[None, :].astype(np.float32))

    print("== kg stats ==")
    print(run(["kg", "stats", kg_path]), end="")

    print("== expand-query ==")
    expanded = run(["expand-query", "--kg", kg_path, "--queries", str(root / "queries.jsonl")])
    print(expanded, end="")

    print("== build-index ==")
    print(
        run(
            [
                "build-index",
                "--vectors", str(root / "passage_vecs.bin"),
                "--out", str(root / "index.bin"),
            ]
        ),
        end="",
    )

    retrieve_argv = [
        "retrieve",
        "--kg", kg_path,
        "--queries", str(root / "queries.jsonl"),
        "--passages", str(root / "passages.jsonl"),
        "--passage-vectors", str(root / "passage_vecs.bin"),
        "--query-vectors", str(root / "query_vecs.bin"),
        "--token-vectors", str(root / "token_vecs.bin"),
        "--index", str(root / "index.bin"),
        "--seed", str(args.seed),
    ]
    print("== retrieve ==")
    first = run(retrieve_argv)
    second = run(retrieve_argv)
    assert first == second, "seeded retrieve must be reproducible"
    (root / "results.json").write_text(first)
    kept = json.loads(first)["results"][0]["kept"]
    print(f"kept {len(kept)} passages: {kept[:5]}{' ...' if len(kept) > 5 else ''}")
    print("two runs byte-identical: ok")

    print("== coverage ==")
    coverage = run(
        [
            "coverage",
            "--kg", kg_path,
            "--queries", str(root / "queries.jsonl"),
            "--passages", str(root / "passages.jsonl"),
            "--passage-vectors", str(root / "passage_vecs.bin"),
            "--query-vectors", str(root / "query_vecs.bin"),
            "--token-vectors", str(root / "token_vecs.bin"),
            "--batch-size", "50",
        ]
    )
    print(coverage, end="")

    print("== eval-retriever ==")
    (root / "relevance.jsonl").write_text(
        json.dumps({"query_id": "q0", "relevant": kept, "n_questions": 1}) + "\n"
    )
    print(
        run(
            [
                "eval-retriever",
                "--results", str(root / "results.json"),
                "--relevance", str(root / "relevance.jsonl"),
                "--ks", "10,20",
            ]
        ),
        end="",
    )
    print(f"\nworkspace left in {root}/")


if __name__ == "__main__":
    main()
