"""Command-line entry point.

One binary, nine subcommands covering the pipeline end to end: kg
stats, query expansion, index construction, retrieval, the coverage
loop, retriever evaluation, WMD matrices, loss scoring and the
conceptual-flow metrics. Each handler only parses its flags, calls the
library and prints: report-producing commands print machine-readable
JSON on stdout (the wmd matrix is CSV); logs go to stderr.
Exit codes: 0 success, 1 usage error, 2 data/format error, 3 internal
error.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from dataclasses import fields

from . import kpr, losses, metrics, sitq
from .config import RunConfig, setting_type
# build_token_doc is unused here: perfbench/tracing.py wraps it under this module's name.
from .embeddings import build_token_doc, load_token_docs, load_vectors  # noqa: F401
from .errors import DataError, IseeqError
from .kg import load_kg
from .sqe import ExpandedQuery, expand_query, load_phrases, load_queries, resolve_phrases
from .wmd import wmd_exact

logger = logging.getLogger("iseeq")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise UsageError(f"{self.prog}: {message}")


def _print_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _expand_all(args, cfg: RunConfig) -> list[ExpandedQuery]:
    kg = load_kg(args.kg)
    queries = load_queries(args.queries)
    phrases = load_phrases(args.phrases) if args.phrases else {}
    out = []
    for query in queries:
        entities = spans = None
        if query.id in phrases:
            entities, spans = resolve_phrases(kg, query.text, phrases[query.id])
        out.append(
            expand_query(
                kg,
                query,
                max_hops=cfg.max_hops,
                max_triples_per_entity=cfg.max_triples,
                entities=entities,
                spans=spans,
            )
        )
    return out


# ---------------------------------------------------------------- commands


def cmd_kg(args, cfg: RunConfig) -> int:
    kg = load_kg(args.path)
    _print_json({"entities": len(kg.entities), "triples": kg.n_triples})
    return 0


def cmd_expand_query(args, cfg: RunConfig) -> int:
    for eq in _expand_all(args, cfg):
        _print_json(
            {
                "id": eq.source.id,
                "entities": eq.entities,
                "k_d": eq.augmented_text,
                "triples": [
                    t.as_tuple()
                    for entity in eq.entities
                    for t in eq.triples_by_entity.get(entity, [])
                ],
            }
        )
    return 0


def cmd_build_index(args, cfg: RunConfig) -> int:
    store = load_vectors(args.vectors)
    index = sitq.build_index(
        store, code_bits=cfg.code_bits, itq_iters=cfg.itq_iters, seed=cfg.seed
    )
    sitq.save_index(index, args.out)
    _print_json(
        {
            "vectors": len(store),
            "dim": store.dim,
            "code_bits": index.code_bits,
            "max_norm": index.max_norm,
            "quantization_error": index.itq_objective[-1],
            "out": str(args.out),
        }
    )
    return 0


def cmd_retrieve(args, cfg: RunConfig) -> int:
    expanded = _expand_all(args, cfg)
    corpus = kpr.load_corpus(expanded, args.passages, args.passage_vectors, args.query_vectors,
                             args.token_vectors, queries_path=args.queries)
    if args.index:
        index = sitq.load_index(args.index, corpus.store)
    else:
        index = sitq.build_index(
            corpus.store, code_bits=cfg.code_bits, itq_iters=cfg.itq_iters, seed=cfg.seed
        )
    top_n = min(cfg.top_n, len(index))
    top_k = min(cfg.top_k, top_n)

    results = [
        kpr.retrieve(index, corpus.passages, corpus.token_docs, eq, corpus.query_vecs[eq.source.id],
                     corpus.query_docs[eq.source.id], top_n=top_n, k=top_k,
                     nes_threshold=cfg.nes_threshold, probe=cfg.probe)
        for eq in expanded
    ]
    _print_json(
        {
            "config": {
                "nes_threshold": cfg.nes_threshold,
                "top_k": top_k,
                "top_n": top_n,
                "probe": min(cfg.probe, len(index)),
                "seed": cfg.seed,
            },
            "results": [r.to_dict() for r in results],
        }
    )
    return 0


def cmd_coverage(args, cfg: RunConfig) -> int:
    expanded = _expand_all(args, cfg)
    corpus = kpr.load_corpus(expanded, args.passages, args.passage_vectors, args.query_vectors,
                             args.token_vectors, queries_path=args.queries)
    batches = kpr.batch_passages(list(corpus.passages.values()), corpus.store,
                                 corpus.token_docs, args.batch_size)
    report = kpr.coverage_loop(
        expanded, corpus.query_vecs, corpus.query_docs, batches, code_bits=cfg.code_bits,
        itq_iters=cfg.itq_iters, seed=cfg.seed, top_n=cfg.top_n, k=cfg.top_k,
        nes_threshold=cfg.nes_threshold, probe=cfg.probe,
    )
    _print_json(report.to_dict())
    return 0


def cmd_eval_retriever(args, cfg: RunConfig) -> int:
    ks = [int(k) for k in args.ks.split(",") if k]
    if any(k < 1 for k in ks):
        raise UsageError(f"--ks takes integers >= 1, got {args.ks!r}")
    if not (args.relevance or (args.question_vecs and args.gt_question_vecs)):
        raise UsageError(
            "eval-retriever needs --relevance, or --question-vecs with --gt-question-vecs"
        )
    results = kpr.load_results(args.results)
    if args.relevance:
        relevance, counts = kpr.load_relevance(args.relevance)
    else:
        relevance, counts = kpr.relevance_from_questions(
            args.question_vecs, args.gt_question_vecs, cfg.cosine_relevance
        )
    hr, map_score = kpr.eval_retriever(
        results, relevance, ks, map_k=cfg.top_k, gt_question_counts=counts
    )
    _print_json({"hr": {str(k): v for k, v in hr.items()}, "map": map_score})
    return 0


def cmd_wmd(args, cfg: RunConfig) -> int:
    lookup = load_vectors(args.vectors)
    docs_a = load_token_docs(args.docs_a, lookup)
    docs_b = load_token_docs(args.docs_b, lookup)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["id"] + [b.doc_id for b in docs_b])
    for doc_a in docs_a:
        writer.writerow(
            [doc_a.doc_id] + [format(wmd_exact(doc_a, doc_b), ".12g") for doc_b in docs_b]
        )
    return 0


def cmd_score_losses(args, cfg: RunConfig) -> int:
    lookup = load_vectors(args.vectors) if args.vectors else None
    batch = losses.load_loss_batch(args.batch, lookup=lookup, clamp_probs=args.clamp_probs)
    scores = losses.score_batch(batch, cfg)
    steps = [
        {"index": i, "reward": r, "indicator": ind, "gen_prob": pair.gen_prob}
        for i, (pair, r, ind) in enumerate(zip(batch.pairs, scores.rewards, scores.indicators))
    ]
    erl = [
        {"index": i, "label": record.label.value, "loss": loss}
        for i, (record, loss) in enumerate(zip(batch.entailments, scores.erl))
    ]
    _print_json(
        {
            "alpha": cfg.alpha,
            "gamma": cfg.gamma,
            "ce": scores.ce,
            "rce": scores.rce,
            "steps": steps,
            "erl": erl,
        }
    )
    return 0


def cmd_evaluate(args, cfg: RunConfig) -> int:
    if not args.sr and not args.lc:
        raise UsageError("evaluate needs --sr and/or --lc")
    score_records = metrics.load_by_query(args.sr, "score", float) if args.sr else []
    label_records = metrics.load_by_query(args.lc, "label", str) if args.lc else []
    _print_json(metrics.evaluate(score_records, label_records).to_dict())
    return 0


# ---------------------------------------------------------------- wiring


def _config(args) -> RunConfig:
    overrides = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    return RunConfig.load(args.config, overrides)


def _add_config_flags(parser: argparse.ArgumentParser, names: list[str]) -> None:
    """One flag per named RunConfig field: ``--`` plus the name with dashes."""
    settings = {f.name: f for f in fields(RunConfig)}
    for name in names:
        f = settings[name]
        shown = "" if f.default is None else f" (default {f.default})"
        parser.add_argument(
            f"--{name.replace('_', '-')}",
            dest=name,
            type=setting_type(f),
            default=None,
            help=f.metadata["help"] + shown,
        )


def build_parser() -> _Parser:
    parser = _Parser(prog="iseeq", description=__doc__)
    parser.add_argument("--config", default=None, help="key = value config file")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("kg", help="knowledge-graph utilities")
    p.add_argument("action", choices=["stats"])
    p.add_argument("path")
    p.set_defaults(func=cmd_kg)

    query_flags = _Parser(add_help=False)
    query_flags.add_argument("--kg", required=True)
    query_flags.add_argument("--queries", required=True)
    _add_config_flags(query_flags, ["max_hops", "max_triples"])
    query_flags.add_argument("--phrases", default=None,
                             help="JSONL of pre-extracted phrases per query id")
    p = sub.add_parser("expand-query", parents=[query_flags],
                       help="augment queries with KG triples")
    p.set_defaults(func=cmd_expand_query)

    p = sub.add_parser("build-index", help="build and persist the SITQ index")
    p.add_argument("--vectors", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p, ["code_bits", "itq_iters", "seed"])
    p.set_defaults(func=cmd_build_index)

    for name in ("retrieve", "coverage"):
        p = sub.add_parser(name, parents=[query_flags], help=f"run the {name} pipeline")
        p.add_argument("--passages", required=True)
        p.add_argument("--passage-vectors", required=True)
        p.add_argument("--query-vectors", required=True)
        p.add_argument("--token-vectors", required=True)
        if name == "retrieve":
            p.add_argument("--index", default=None, help="prebuilt index file")
            p.set_defaults(func=cmd_retrieve)
        else:
            p.add_argument("--batch-size", type=int, required=True)
            p.set_defaults(func=cmd_coverage)
        _add_config_flags(
            p,
            ["nes_threshold", "top_k", "top_n", "code_bits", "itq_iters", "probe", "seed"],
        )

    p = sub.add_parser("eval-retriever", help="hit rate and MAP for retrieval results")
    p.add_argument("--results", required=True, help="JSON output of the retrieve command")
    p.add_argument("--relevance", default=None)
    p.add_argument("--question-vecs", default=None)
    p.add_argument("--gt-question-vecs", default=None)
    p.add_argument("--ks", default="10,20", help="comma-separated hit-rate cutoffs, each >= 1")
    _add_config_flags(p, ["top_k", "cosine_relevance"])
    p.set_defaults(func=cmd_eval_retriever)

    p = sub.add_parser("wmd", help="pairwise WMD matrix as CSV")
    p.add_argument("--docs-a", required=True)
    p.add_argument("--docs-b", required=True)
    p.add_argument("--vectors", required=True)
    p.set_defaults(func=cmd_wmd)

    p = sub.add_parser("score-losses", help="reward/CE/RCE/ERL for a batch")
    p.add_argument("--batch", required=True)
    p.add_argument("--vectors", default=None,
                   help="token vectors; defaults to exact-match one-hot embeddings")
    p.add_argument("--clamp-probs", action="store_true",
                   help="floor zero probabilities at 1e-12 instead of rejecting")
    _add_config_flags(p, ["alpha", "gamma"])
    p.set_defaults(func=cmd_score_losses)

    p = sub.add_parser("evaluate", help="SR / LC metric report")
    p.add_argument("--sr", default=None, help="pair-score JSONL")
    p.add_argument("--lc", default=None, help="pair-label JSONL")
    p.set_defaults(func=cmd_evaluate)
    return parser


def _setup_logging() -> None:
    level = os.environ.get("ISEEQ_LOG", "warning").upper()
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args, _config(args))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except IseeqError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
