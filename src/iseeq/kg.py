"""Commonsense knowledge graph store.

Loads (subject, relation, object) triples from a TSV dump into an
immutable in-memory multigraph, and supports
depth-first multi-hop extraction of subject-rooted triples. The graph
is read-only after load, so it can be shared freely across worker
threads.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from .config import RunConfig, check_setting
from .embeddings import read_lines
from .errors import EmptyInputError, ParseError

logger = logging.getLogger(__name__)


def canonical_entity(phrase: str) -> str:
    """Canonical entity id: trimmed, lowercased, internal whitespace -> '_'."""
    return "_".join(phrase.strip().lower().split())


@dataclass(frozen=True)
class Triple:
    subject: str
    relation: str
    object: str

    def as_tuple(self) -> tuple[str, str, str]:
        return (self.subject, self.relation, self.object)


@dataclass
class KnowledgeGraph:
    """Directed labeled multigraph over canonical entity strings.

    ``adjacency`` holds outgoing triples per subject, in first-seen file
    order. Text matches an entity when its words, joined by ``_``, equal
    the entity id.
    """

    entities: set[str]
    adjacency: dict[str, list[Triple]]
    max_phrase_len: int = field(init=False)  # longest entity, in words

    def __post_init__(self):
        self.max_phrase_len = max((e.count("_") + 1 for e in self.entities), default=0)

    @property
    def n_triples(self) -> int:
        return sum(len(ts) for ts in self.adjacency.values())

    def outgoing(self, entity: str) -> list[Triple]:
        return self.adjacency.get(entity, [])


def load_kg(path: str | Path) -> KnowledgeGraph:
    """Load a knowledge graph from a tab-separated triple file.

    Each line is ``subject<TAB>relation<TAB>object``; blank lines are
    skipped. Entities are canonicalized, exact duplicate triples are
    dropped. Any other line raises :class:`ParseError` with the path and
    line number, so no query is expanded from part of a graph.
    """
    path = Path(path)
    entities: set[str] = set()
    adjacency: dict[str, list[Triple]] = {}
    seen: set[tuple[str, str, str]] = set()
    for line_no, line in read_lines(path):
        line = line.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3 or not all(p.strip() for p in parts):
            raise ParseError(f"{path}: expected 3 tab-separated fields, got {line!r}", line_no)
        subject = canonical_entity(parts[0])
        relation = parts[1].strip()
        obj = canonical_entity(parts[2])
        key = (subject, relation, obj)
        if key in seen:
            continue
        seen.add(key)
        entities.update((subject, obj))
        adjacency.setdefault(subject, []).append(Triple(subject, relation, obj))
    if not entities:
        raise EmptyInputError(f"{path}: no triples loaded")
    logger.info("loaded %s: %d entities, %d triples", path, len(entities), len(seen))
    return KnowledgeGraph(entities, adjacency)


def extract_triples(kg: KnowledgeGraph, seeds: list[str], max_hops: int = RunConfig.max_hops) -> list[Triple]:
    """Depth-first multi-hop extraction of subject-rooted triples.

    Starting from each seed entity, follows outgoing edges up to
    ``max_hops`` deep: at hop 1 only triples whose subject is the seed,
    at deeper hops triples rooted at objects discovered earlier. Triples
    where a seed occurs only as object are never emitted. Output order
    is deterministic: seeds in given order, adjacency lists in load
    order, depth-first. Seeds missing from the graph are skipped.
    """
    check_setting("max_hops", max_hops)
    out: list[Triple] = []
    emitted: set[tuple[str, str, str]] = set()
    best_depth: dict[str, int] = {}
    # (depth, edges not yet taken) per entity being expanded: the same
    # depth-first order as recursion, without a Python frame per hop.
    stack: list[tuple[int, Iterator[Triple]]] = []

    def enter(entity: str, depth: int) -> None:
        # depth counts edges already taken; subjects sit at depth <= max_hops - 1.
        # Re-expand when reached at a strictly shallower depth, otherwise a
        # node first seen near the hop limit would hide its descendants.
        if depth > max_hops - 1 or best_depth.get(entity, max_hops) <= depth:
            return
        best_depth[entity] = depth
        stack.append((depth, iter(kg.outgoing(entity))))

    for seed in seeds:
        seed = canonical_entity(seed)
        if seed not in kg.entities:
            logger.debug("seed %r not in graph, skipping", seed)
            continue
        enter(seed, 0)
        while stack:
            depth, edges = stack[-1]
            triple = next(edges, None)
            if triple is None:
                stack.pop()
                continue
            key = triple.as_tuple()
            if key not in emitted:
                emitted.add(key)
                out.append(triple)
            enter(triple.object, depth + 1)
    return out
