"""Semantic query expansion.

Detects knowledge-graph entities mentioned in a short query and builds
the knowledge-augmented form of the query by injecting outgoing triples
inline, right after the phrase that mentions each entity. Entity
detection matches words to KG entity ids: longest match wins, with a
secondary pass that also surfaces single-token entities hiding inside
longer matches (so "career options" yields career_options and career).
"""

from __future__ import annotations

import enum
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .config import RunConfig, check_setting
from .embeddings import read_jsonl, typed_field
from .errors import EmptyInputError, ParseError
from .kg import KnowledgeGraph, Triple, canonical_entity, extract_triples

logger = logging.getLogger(__name__)

# The one word rule: entity matching here and passage tokens in kpr.
TOKEN_RE = re.compile(r"[A-Za-z0-9_']+")

# Display forms for a few common run-together relation spellings seen in
# commonsense KG dumps. Applied only when rendering injected clauses;
# stored triples keep the raw label.
_RELATION_DISPLAY = {
    "isrelatedto": "is related to",
    "relatedto": "related to",
    "isa": "is a",
    "partof": "part of",
    "hasa": "has a",
    "usedfor": "used for",
    "capableof": "capable of",
    "atlocation": "at location",
}


class QueryKind(enum.Enum):
    DESCRIPTION_ONLY = "description_only"
    TITLE_AND_DESCRIPTION = "title_and_description"
    TOPIC_AND_ASPECTS = "topic_and_aspects"


@dataclass(frozen=True)
class QueryDescription:
    id: str
    text: str
    kind: QueryKind = QueryKind.DESCRIPTION_ONLY

    def __post_init__(self):
        if not self.text:
            raise ValueError("query text must be non-empty")


def load_queries(path: str | Path) -> list[QueryDescription]:
    """Queries from ``{"id", "text", "kind"}`` JSONL; ``kind`` defaults to description_only."""
    queries = []
    for line_no, record in read_jsonl(path):
        query_id = str(typed_field(record, "id", object, path, line_no))
        text = typed_field(record, "text", str, path, line_no)
        kind = typed_field(record, "kind", str, path, line_no, default="description_only")
        try:
            queries.append(QueryDescription(id=query_id, text=text, kind=QueryKind(kind)))
        except ValueError as exc:  # an unknown kind or an empty text
            raise ParseError(f"{path}: bad query record: {exc}", line_no) from exc
    if not queries:
        raise EmptyInputError(f"{path}: no queries")
    return queries


def load_phrases(path: str | Path) -> dict[str, list[str]]:
    """Externally extracted phrases per query id, from ``{"id", "phrases": [...]}`` JSONL."""
    return {
        str(typed_field(record, "id", object, path, line_no)):
            typed_field(record, "phrases", list[str], path, line_no)
        for line_no, record in read_jsonl(path)
    }


@dataclass
class ExpandedQuery:
    """A query plus its detected entities and the augmented text.

    ``injections`` records (offset_in_source, inserted_text) pairs, so
    stripping every inserted string recovers the source text exactly.
    """

    source: QueryDescription
    entities: list[str]
    triples_by_entity: dict[str, list[Triple]]
    augmented_text: str
    injections: list[tuple[int, str]] = field(default_factory=list)


def normalize_words(raw_words: Iterable[str]) -> Iterator[str]:
    """Strip quotes and a possessive 's from each lowercased ``TOKEN_RE``
    match, so "physician's" matches the entity token "physician".

    Yields one word per input, possibly empty.
    """
    for raw in raw_words:
        word = raw.strip("'")
        if word.endswith("'s"):
            word = word[:-2]
        yield word


def extract_entities(
    kg: KnowledgeGraph, text: str
) -> tuple[list[str], list[tuple[int, int]]]:
    """Match KG entities in ``text``.

    Primary pass: maximal non-overlapping matches, longest first, left
    to right. Secondary pass: single tokens that are themselves entities
    but were swallowed by a longer match. Matching is case-insensitive
    and treats spaces, underscores and possessives as equivalent.
    Returns parallel (entity_ids, first_mention_spans) lists; an entity
    appears once, at its first mention.
    """
    if not text:
        raise ValueError("text must be non-empty")
    matches = list(TOKEN_RE.finditer(text))
    words = normalize_words(m.group().lower() for m in matches)
    tokens = [(word, m.start(), m.end()) for m, word in zip(matches, words) if word]
    entities: list[str] = []
    spans: list[tuple[int, int]] = []
    found: set[str] = set()

    i = 0
    while i < len(tokens):
        matched = False
        for n in range(min(kg.max_phrase_len, len(tokens) - i), 0, -1):
            entity = "_".join(t[0] for t in tokens[i : i + n])
            if entity in kg.entities:
                if entity not in found:
                    found.add(entity)
                    entities.append(entity)
                    spans.append((tokens[i][1], tokens[i + n - 1][2]))
                i += n
                matched = True
                break
        if not matched:
            i += 1

    for entity, start, end in tokens:
        if entity in kg.entities and entity not in found:
            found.add(entity)
            entities.append(entity)
            spans.append((start, end))
    return entities, spans


def resolve_phrases(
    kg: KnowledgeGraph, text: str, phrases: list[str]
) -> tuple[list[str], list[tuple[int, int]]]:
    """Map externally extracted phrases onto KG entities and spans."""
    entities, spans = [], []
    lowered = text.lower()
    for phrase in phrases:
        entity = canonical_entity(phrase)
        if entity not in kg.entities:
            logger.warning("phrase %r is not a KG entity; skipped", phrase)
            continue
        if entity in entities:
            continue
        mention = phrase.lower()
        start = lowered.find(mention)
        if start < 0:
            mention = entity.replace("_", " ")
            start = lowered.find(mention)
        if start < 0:
            logger.warning("phrase %r has no mention in query text; skipped", phrase)
            continue
        entities.append(entity)
        spans.append((start, start + len(mention)))
    return entities, spans


def render_clause(triples: list[Triple]) -> str:
    """Inline clause for a group of triples: objects comma-joined per
    (subject, relation), groups space-joined, e.g.
    "career_options is related to career_choice, profession"."""
    groups: dict[tuple[str, str], list[str]] = {}
    for t in triples:
        groups.setdefault((t.subject, t.relation), []).append(t.object)
    parts = []
    for (subject, relation), objects in groups.items():
        shown = _RELATION_DISPLAY.get(relation, relation)
        parts.append(f"{subject} {shown} {', '.join(objects)}")
    return " ".join(parts)


def expand_query(
    kg: KnowledgeGraph,
    query: QueryDescription,
    max_hops: int = RunConfig.max_hops,
    max_triples_per_entity: int = RunConfig.max_triples,
    entities: list[str] | None = None,
    spans: list[tuple[int, int]] | None = None,
) -> ExpandedQuery:
    """Build the knowledge-augmented query.

    Each detected entity contributes up to ``max_triples_per_entity``
    triples (depth-first order). Clauses are injected after the first
    mention of the entity; a sub-entity found inside a longer match is
    anchored at the end of the covering match so the surrounding phrase
    is never split. Pre-extracted ``entities``/``spans`` (e.g. from an
    external phrase parser) can be supplied to bypass entity matching.
    """
    check_setting("max_triples", max_triples_per_entity)
    if entities is None or spans is None:
        entities, spans = extract_entities(kg, query.text)

    triples_by_entity: dict[str, list[Triple]] = {}
    for entity in entities:
        triples_by_entity[entity] = extract_triples(kg, [entity], max_hops)[
            :max_triples_per_entity
        ]

    # Anchor each entity's clause at the end of the covering span: the
    # entity's own span, or the enclosing one when it is a sub-match.
    def anchor_for(span: tuple[int, int]) -> int:
        best = span[1]
        for other in spans:
            if other[0] <= span[0] and span[1] <= other[1] and other[1] > best:
                best = other[1]
        return best

    by_anchor: dict[int, list[str]] = {}
    for entity, span in zip(entities, spans):
        if not triples_by_entity[entity]:
            continue
        by_anchor.setdefault(anchor_for(span), []).append(entity)

    pieces: list[str] = []
    injections: list[tuple[int, str]] = []
    cursor = 0
    for anchor in sorted(by_anchor):
        clause = " " + " ".join(
            render_clause(triples_by_entity[e]) for e in by_anchor[anchor]
        )
        pieces.append(query.text[cursor:anchor])
        pieces.append(clause)
        injections.append((anchor, clause))
        cursor = anchor
    pieces.append(query.text[cursor:])

    return ExpandedQuery(
        source=query,
        entities=list(entities),
        triples_by_entity=triples_by_entity,
        augmented_text="".join(pieces),
        injections=injections,
    )

