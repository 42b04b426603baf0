"""Synthetic corpus builder for pipeline tests.

A tiny closed domain: five query entities, a KG rooting triples at each
of them, passages that mention a planned subset of the entities plus
filler, and random embeddings for every surface token, passage and
query. Everything derives from one seed.
"""

from __future__ import annotations

import numpy as np

from iseeq.embeddings import VectorStore
from iseeq.kg import KnowledgeGraph, load_kg
from iseeq.kpr import Passage, tokenize_text
from iseeq.sqe import QueryDescription, expand_query

ENTITIES = ["solar panel", "battery", "inverter", "grid", "meter"]
QUERY_TEXT = "Comparing a solar panel with a battery an inverter the grid and a meter"

KG_LINES = [
    "solar panel\tisrelatedto\tphotovoltaics",
    "solar panel\tisrelatedto\trooftop",
    "battery\tis_a\tstorage_device",
    "inverter\tconverts\tdirect_current",
    "grid\tisrelatedto\tutility",
    "meter\tmeasures\tconsumption",
]


def write_kg(tmp_path) -> str:
    path = tmp_path / "synth_kg.tsv"
    path.write_text("\n".join(KG_LINES) + "\n", encoding="utf-8")
    return str(path)


def load_synth_kg(tmp_path) -> KnowledgeGraph:
    return load_kg(write_kg(tmp_path))


def passage_text(rng: np.random.Generator, entity_indices) -> str:
    words = [f"w{rng.integers(0, 40)}" for _ in range(10)]
    for idx in sorted(entity_indices):
        words.insert(int(rng.integers(0, len(words) + 1)), ENTITIES[idx])
    return " ".join(words)


def build_corpus(seed: int, n_passages: int = 200, dim: int = 16, token_dim: int = 8):
    """Passages with planted entity coverage 0..5 cycling over the corpus."""
    rng = np.random.default_rng(seed)
    passages, plans = [], []
    for i in range(n_passages):
        n_cover = i % 6  # 0..5 entities planted
        plan = list(rng.choice(5, size=n_cover, replace=False)) if n_cover else []
        plans.append(plan)
        passages.append(Passage(id=f"p{i:04d}", text=passage_text(rng, plan)))

    ids = [p.id for p in passages]
    store = VectorStore(ids, rng.standard_normal((n_passages, dim)).astype(np.float32))

    kg_terms = tokenize_text(" ".join(KG_LINES).replace("\t", " ")) + ["related"]
    vocab = sorted(
        {t for p in passages for t in p.tokens}
        | set(tokenize_text(QUERY_TEXT))
        | set(kg_terms)
    )
    token_store = VectorStore(vocab, rng.standard_normal((len(vocab), token_dim)).astype(np.float32))
    query_vec = rng.standard_normal(dim)
    return passages, plans, store, token_store, query_vec


def expanded_query(tmp_path, qid="q0"):
    kg = load_synth_kg(tmp_path)
    return expand_query(kg, QueryDescription(id=qid, text=QUERY_TEXT))
