#!/usr/bin/env python3
"""Recall-vs-probe sweep for the SITQ index on synthetic Gaussian data.

Reports two recall flavors per probe setting: the fraction of queries
whose true inner-product argmax appears in the returned list (the usual
ANN benchmark number) and the overlap of the returned top-k with the
exhaustive top-k. Useful for picking a probe budget.
"""

import argparse
import time

import numpy as np

from iseeq.embeddings import VectorStore
from iseeq.sitq import build_index, query


def make_store(rng, n, dim):
    return VectorStore(
        [f"v{i:06d}" for i in range(n)], rng.standard_normal((n, dim)).astype(np.float32)
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=10_000)
    ap.add_argument("--dim", type=int, default=64)
    ap.add_argument("--bits", type=int, default=64)
    ap.add_argument("--iters", type=int, default=50)
    ap.add_argument("--top-k", type=int, default=100)
    ap.add_argument("--queries", type=int, default=50)
    ap.add_argument("--probes", default="100,250,500,1000,2000,5000,10000")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    store = make_store(rng, args.n, args.dim)
    started = time.perf_counter()
    index = build_index(store, code_bits=args.bits, itq_iters=args.iters, seed=args.seed)
    build_s = time.perf_counter() - started
    print(f"build: n={args.n} dim={args.dim} bits={args.bits} {build_s:.2f}s "
          f"(final quantization error {index.itq_objective[-1]:.1f})")

    queries = rng.standard_normal((args.queries, args.dim))
    ips = store.matrix.astype(np.float64) @ queries.T
    true_order = np.argsort(-ips, axis=0, kind="stable")
    probes = [int(p) for p in args.probes.split(",")]

    print(f"{'probe':>7} {'argmax-recall':>14} {'overlap@k':>10} {'ms/query':>9}")
    for probe in probes:
        hits, overlaps, elapsed = 0, [], 0.0
        for qi in range(args.queries):
            t0 = time.perf_counter()
            got = {c.passage_id for c in query(index, queries[qi], top_n=args.top_k, probe=probe)}
            elapsed += time.perf_counter() - t0
            best = store.ids[true_order[0, qi]]
            hits += best in got
            truth = {store.ids[i] for i in true_order[: args.top_k, qi]}
            overlaps.append(len(got & truth) / args.top_k)
        print(
            f"{probe:>7} {hits / args.queries:>14.3f} "
            f"{np.mean(overlaps):>10.3f} {1000 * elapsed / args.queries:>9.2f}"
        )


if __name__ == "__main__":
    main()
