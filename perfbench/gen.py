"""Seeded input generators with planted ground truth.

Each ``make_*`` function writes the files the program reads into a
directory and returns the truth the checks need. The program never sees
the truth. The same seed gives byte-identical files.

Vocabulary is made of pseudo-words (three consonant-vowel syllables) so
that entity words, filler words and out-of-vocabulary words are
disjoint by construction: a passage contains an entity exactly when the
generator planted it, so every passage's entity score is known.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]

RELATIONS = {
    "isrelatedto": "is related to",
    "partof": "part of",
    "isa": "is a",
    "hasa": "has a",
    "usedfor": "used for",
    "capableof": "capable of",
    "atlocation": "at location",
    "causes": "causes",
}
GLUE = ["what", "about", "the", "and", "with", "how", "when", "which"]
ENTAIL_LABELS = ["entailment", "neutral", "contradiction"]


def pseudo_words(rng: np.random.Generator, n: int) -> list[str]:
    """``n`` distinct three-syllable words in a seed-dependent order."""
    base = len(_SYLLABLES)
    out = []
    for i in rng.permutation(base**3)[:n]:
        i = int(i)
        out.append(_SYLLABLES[i // base**2] + _SYLLABLES[(i // base) % base] + _SYLLABLES[i % base])
    return out


def write_vectors(path: Path, ids: list[str], matrix: np.ndarray) -> None:
    """ISEQVEC1: magic, u32 dim, u64 count, then u16 id length, id, f32 row."""
    matrix = np.ascontiguousarray(matrix, dtype="<f4")
    parts = [b"ISEQVEC1", struct.pack("<IQ", matrix.shape[1], matrix.shape[0])]
    for vec_id, row in zip(ids, matrix):
        encoded = vec_id.encode("utf-8")
        parts.append(struct.pack("<H", len(encoded)) + encoded + row.tobytes())
    path.write_bytes(b"".join(parts))


def read_vectors(path: Path) -> np.ndarray:
    """The rows of a file ``write_vectors`` wrote, as float64; the checks'
    own reader, independent of the program's loader."""
    data = path.read_bytes()
    dim, count = struct.unpack_from("<IQ", data, 8)
    rows = np.empty((count, dim))
    pos = 20
    for i in range(count):
        (id_len,) = struct.unpack_from("<H", data, pos)
        pos += 2 + id_len
        rows[i] = np.frombuffer(data, dtype="<f4", count=dim, offset=pos)
        pos += 4 * dim
    return rows


def write_jsonl(path: Path, records) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


# ------------------------------------------------------------- KG corpora


@dataclass
class KgCorpus:
    """Files and truth shared by retrieve-20k and coverage-grow."""

    dir: Path
    query_ids: list[str]
    query_entities: dict[str, list[str]]  # canonical ids planted in each query
    passage_ids: list[str]
    passage_entities: dict[str, frozenset[str]]  # canonical ids planted in each passage
    no_vectors: set[str]  # passages whose every token lacks a vector
    extra: dict = field(default_factory=dict)

    @property
    def files(self) -> dict[str, Path]:
        return {name: self.dir / f for name, f in _KG_FILES.items()}


_KG_FILES = {
    "kg": "kg.tsv",
    "queries": "queries.jsonl",
    "passages": "passages.jsonl",
    "passage_vectors": "passage_vecs.bin",
    "query_vectors": "query_vecs.bin",
    "token_vectors": "token_vecs.bin",
}


class _Lexicon:
    """Entities (one or two unique words each), filler and OOV words."""

    def __init__(self, rng: np.random.Generator, n_entities: int, n_filler: int, n_oov: int):
        n_multi = n_entities // 5
        words = pseudo_words(rng, n_entities + n_multi + n_filler + n_oov)
        ent_words = words[: n_entities + n_multi]
        self.entities = ent_words[:n_entities - n_multi] + [
            ent_words[n_entities - n_multi + 2 * i] + "_" + ent_words[n_entities - n_multi + 2 * i + 1]
            for i in range(n_multi)
        ]
        self.filler = words[n_entities + n_multi : n_entities + n_multi + n_filler]
        self.oov = words[n_entities + n_multi + n_filler :]
        self.vocab = ent_words + self.filler + GLUE + sorted(
            {w for shown in RELATIONS.values() for w in shown.split()}
        )

    @staticmethod
    def surface(entity: str) -> list[str]:
        return entity.split("_")


def _kg_lines(rng: np.random.Generator, entities: list[str]) -> list[str]:
    """One outgoing triple per entity, so every entity is in the lexicon and
    every query entity expands to the same number of triples at two hops."""
    relations = list(RELATIONS)
    n = len(entities)
    return [
        f"{subject}\t{relations[int(rng.integers(len(relations)))]}\t{entities[(s + 1 + int(rng.integers(n - 1))) % n]}"
        for s, subject in enumerate(entities)
    ]


def _text(rng: np.random.Generator, filler: list[str], n_words: int, entities) -> str:
    """Filler words with each entity's words inserted contiguously."""
    units = [[filler[int(i)]] for i in rng.integers(len(filler), size=n_words)]
    for entity in entities:
        units.insert(int(rng.integers(len(units) + 1)), _Lexicon.surface(entity))
    return " ".join(w for unit in units for w in unit)


def _query_text(rng: np.random.Generator, lex: _Lexicon, entities: list[str]) -> str:
    glue = [GLUE[int(i)] for i in rng.integers(len(GLUE), size=4)]
    return " ".join(glue[:2] + [_text(rng, lex.filler, 3, entities)] + glue[2:])


def _word_count(entities) -> int:
    return sum(len(_Lexicon.surface(e)) for e in entities)


def make_retrieve_corpus(
    seed: int,
    out: Path,
    *,
    n_passages: int = 20_000,
    n_queries: int = 48,
    n_entities: int = 3000,
    dim: int = 128,
    token_dim: int = 64,
    n_clusters: int = 64,
    words: tuple[int, int] = (25, 40),
) -> KgCorpus:
    """Clustered passage vectors; 40 passages planted near each query.

    Each query mentions five entities. Planted per query: 12 passages
    carry all five (NES 1, kept), 8 carry four (NES 0.8, not kept: the
    filter is strict), 10 exactly one, 8 none, and 2 are made only of
    words without token vectors (their WMD is infinite). The rest is
    background passages with zero to two random entities; 1.5% of them
    also have no token vectors, and 5% carry a few out-of-vocabulary
    words that the token-doc builder drops.
    """
    rng = np.random.default_rng(seed)
    out.mkdir(parents=True, exist_ok=True)
    lex = _Lexicon(rng, n_entities, 4000, 300)
    (out / "kg.tsv").write_text("\n".join(_kg_lines(rng, lex.entities)) + "\n", encoding="utf-8")

    centers = rng.standard_normal((n_clusters, dim))
    query_ids = [f"q{i:03d}" for i in range(n_queries)]
    query_entities: dict[str, list[str]] = {}
    query_vecs = np.empty((n_queries, dim))
    pool = rng.permutation(len(lex.entities))
    for qi, qid in enumerate(query_ids):
        query_entities[qid] = [lex.entities[int(i)] for i in pool[5 * qi : 5 * qi + 5]]
        query_vecs[qi] = centers[int(rng.integers(n_clusters))] + 0.3 * rng.standard_normal(dim)
    write_jsonl(
        out / "queries.jsonl",
        (
            {"id": qid, "text": _query_text(rng, lex, query_entities[qid]), "kind": "description_only"}
            for qid in query_ids
        ),
    )

    # (entities, vector, no_vectors) per passage; planted ones first, then shuffled.
    plans: list[tuple[list[str], np.ndarray, bool]] = []
    for qi, qid in enumerate(query_ids):
        ents = query_entities[qid]
        groups = [(12, len(ents)), (8, len(ents) - 1), (10, 1), (8, 0), (2, -1)]
        for count, n_ent in groups:
            for _ in range(count):
                scale = rng.uniform(2.0, 3.0)
                vec = scale * (query_vecs[qi] + 0.25 * rng.standard_normal(dim))
                if n_ent < 0:
                    plans.append(([], vec, True))
                else:
                    picked = [ents[int(i)] for i in rng.permutation(len(ents))[:n_ent]]
                    plans.append((picked, vec, False))
    norms = np.exp(0.35 * rng.standard_normal(n_passages - len(plans)))
    for norm in norms:
        vec = norm * (centers[int(rng.integers(n_clusters))] + 0.6 * rng.standard_normal(dim))
        ents = [lex.entities[int(i)] for i in rng.integers(len(lex.entities), size=int(rng.integers(3)))]
        plans.append((list(dict.fromkeys(ents)), vec, bool(rng.random() < 0.015)))
    order = rng.permutation(len(plans))

    passage_ids = [f"p{i:06d}" for i in range(n_passages)]
    passage_entities: dict[str, frozenset[str]] = {}
    no_vectors: set[str] = set()
    records = []
    matrix = np.empty((n_passages, dim), dtype=np.float32)
    for pid, slot in zip(passage_ids, order):
        ents, vec, oov_only = plans[int(slot)]
        n_words = int(rng.integers(words[0], words[1] + 1))
        if oov_only:
            text = " ".join(lex.oov[int(i)] for i in rng.integers(len(lex.oov), size=n_words))
            no_vectors.add(pid)
            ents = []
        else:
            text = _text(rng, lex.filler, max(n_words - _word_count(ents), 1), ents)
            if rng.random() < 0.05:
                text += " " + " ".join(lex.oov[int(i)] for i in rng.integers(len(lex.oov), size=3))
        passage_entities[pid] = frozenset(ents)
        records.append({"id": pid, "text": text})
        matrix[len(records) - 1] = vec
    write_jsonl(out / "passages.jsonl", records)
    write_vectors(out / "passage_vecs.bin", passage_ids, matrix)
    write_vectors(out / "query_vecs.bin", query_ids, query_vecs)
    write_vectors(
        out / "token_vecs.bin", lex.vocab, rng.standard_normal((len(lex.vocab), token_dim))
    )
    return KgCorpus(out, query_ids, query_entities, passage_ids, passage_entities, no_vectors)


def make_coverage_corpus(
    seed: int,
    out: Path,
    *,
    batch_size: int = 8000,
    n_batches: int = 5,
    cover_batch: tuple[int, ...] = (1, 2, 2, 3),
    n_entities: int = 1500,
    dim: int = 128,
    token_dim: int = 64,
    n_clusters: int = 64,
    words: tuple[int, int] = (8, 12),
) -> KgCorpus:
    """A streamed corpus in which query i is first covered in batch cover_batch[i].

    Each query has three entities. Its batch holds five planted
    covering passages (all three entities, vector near the query);
    every batch holds ten near-query decoys with two of the three
    (NES 0.67, never kept). Background passages carry at most one
    entity, so no other passage can cover a query. ``extra`` holds the
    covering passages and the expected ``per_round``.
    """
    rng = np.random.default_rng(seed)
    out.mkdir(parents=True, exist_ok=True)
    lex = _Lexicon(rng, n_entities, 2000, 200)
    (out / "kg.tsv").write_text("\n".join(_kg_lines(rng, lex.entities)) + "\n", encoding="utf-8")

    centers = rng.standard_normal((n_clusters, dim))
    n_queries = len(cover_batch)
    query_ids = [f"q{i:03d}" for i in range(n_queries)]
    pool = rng.permutation(len(lex.entities))
    query_entities = {qid: [lex.entities[int(i)] for i in pool[3 * k : 3 * k + 3]] for k, qid in enumerate(query_ids)}
    query_vecs = centers[rng.integers(n_clusters, size=n_queries)] + 0.3 * rng.standard_normal((n_queries, dim))
    write_jsonl(
        out / "queries.jsonl",
        (
            {"id": qid, "text": _query_text(rng, lex, query_entities[qid]), "kind": "description_only"}
            for qid in query_ids
        ),
    )

    passage_ids = [f"c{i:06d}" for i in range(batch_size * n_batches)]
    passage_entities: dict[str, frozenset[str]] = {}
    no_vectors: set[str] = set()
    covering: dict[str, set[str]] = {qid: set() for qid in query_ids}
    records = []
    matrix = np.empty((len(passage_ids), dim), dtype=np.float32)
    for b in range(n_batches):
        # (entities, vector, tag): tag is the query a passage covers, "" for a
        # passage without token vectors, None otherwise.
        plans: list[tuple[list[str], np.ndarray, str | None]] = []
        for qi, qid in enumerate(query_ids):
            ents = query_entities[qid]
            near = [(10, 2)] + ([(5, 3)] if cover_batch[qi] == b else [])
            for count, n_ent in near:
                for _ in range(count):
                    vec = rng.uniform(2.0, 3.0) * (query_vecs[qi] + 0.25 * rng.standard_normal(dim))
                    picked = [ents[int(i)] for i in rng.permutation(3)[:n_ent]]
                    plans.append((picked, vec, qid if n_ent == 3 else None))
        while len(plans) < batch_size:
            vec = np.exp(0.35 * rng.standard_normal()) * (
                centers[int(rng.integers(n_clusters))] + 0.6 * rng.standard_normal(dim)
            )
            ents = [lex.entities[int(rng.integers(len(lex.entities)))]] if rng.random() < 0.5 else []
            plans.append((ents, vec, "" if rng.random() < 0.01 else None))
        order = rng.permutation(batch_size)
        for j, slot in enumerate(order):
            pid = passage_ids[b * batch_size + j]
            ents, vec, tag = plans[int(slot)]
            n_words = int(rng.integers(words[0], words[1] + 1))
            if tag == "":
                text = " ".join(lex.oov[int(i)] for i in rng.integers(len(lex.oov), size=n_words))
                no_vectors.add(pid)
                ents = []
            else:
                text = _text(rng, lex.filler, max(n_words - _word_count(ents), 1), ents)
                if tag:
                    covering[tag].add(pid)
            passage_entities[pid] = frozenset(ents)
            records.append({"id": pid, "text": text})
            matrix[b * batch_size + j] = vec
    write_jsonl(out / "passages.jsonl", records)
    write_vectors(out / "passage_vecs.bin", passage_ids, matrix)
    write_vectors(out / "query_vecs.bin", query_ids, query_vecs)
    write_vectors(out / "token_vecs.bin", lex.vocab, rng.standard_normal((len(lex.vocab), token_dim)))

    last = max(cover_batch)
    per_round = [
        ((b + 1) * batch_size, sum(1 for c in cover_batch if c <= b)) for b in range(last + 1)
    ]
    return KgCorpus(
        out, query_ids, query_entities, passage_ids, passage_entities, no_vectors,
        extra={"covering": covering, "per_round": per_round, "batch_size": batch_size},
    )


# ------------------------------------------------------------- ANN corpus


@dataclass
class AnnCorpus:
    vectors: Path
    queries: Path
    ids: list[str]
    query_matrix: np.ndarray  # float64, as written (float32 values)


def make_ann_corpus(
    seed: int,
    out: Path,
    *,
    n: int = 100_000,
    n_queries: int = 512,
    dim: int = 128,
    n_clusters: int = 256,
) -> AnnCorpus:
    """Clustered vectors with log-normal norms; queries near cluster centers."""
    rng = np.random.default_rng(seed)
    out.mkdir(parents=True, exist_ok=True)
    centers = rng.standard_normal((n_clusters, dim)).astype(np.float32)
    matrix = centers[rng.integers(n_clusters, size=n)]
    matrix += 0.6 * rng.standard_normal((n, dim), dtype=np.float32)
    matrix *= np.exp(0.4 * rng.standard_normal((n, 1))).astype(np.float32)
    ids = [f"v{i:06d}" for i in range(n)]
    write_vectors(out / "vectors.bin", ids, matrix)
    queries = centers[rng.integers(n_clusters, size=n_queries)] + 0.5 * rng.standard_normal(
        (n_queries, dim), dtype=np.float32
    )
    write_vectors(out / "queries.bin", [f"a{i:04d}" for i in range(n_queries)], queries)
    return AnnCorpus(out / "vectors.bin", out / "queries.bin", ids, queries.astype(np.float64))


# ------------------------------------------------------------ loss batches


@dataclass
class LossBatchTruth:
    path: Path
    generated: list[list[str]]
    reference: list[list[str]]
    gen_prob: list[float]
    labels: list[str]  # one per step between consecutive records
    entail_prob: list[float]


@dataclass
class LossCorpus:
    vectors: Path
    vocab: list[str]
    token_matrix: np.ndarray  # float64 copy of the written float32 rows
    batches: list[LossBatchTruth]
    sr_path: Path
    lc_path: Path
    pair_scores: list[dict]
    pair_labels: list[dict]


def _mutate(rng: np.random.Generator, reference: list[str], vocab: list[str]) -> list[str]:
    """A generated question: the reference with substitutions, deletions and insertions."""
    tokens = list(reference)
    for _ in range(int(rng.integers(4))):
        tokens[int(rng.integers(len(tokens)))] = vocab[int(rng.integers(len(vocab)))]
    for _ in range(int(rng.integers(3))):
        if len(tokens) > 2:
            del tokens[int(rng.integers(len(tokens)))]
    for _ in range(int(rng.integers(3))):
        tokens.insert(int(rng.integers(len(tokens) + 1)), vocab[int(rng.integers(len(vocab)))])
    return tokens


def make_loss_corpus(
    seed: int,
    out: Path,
    *,
    n_batches: int = 8,
    pairs: int = 64,
    vocab_size: int = 1500,
    token_dim: int = 64,
    n_eval_queries: int = 4,
) -> LossCorpus:
    """Loss batches with entailment records, their token vectors, and
    generated/reference pair scores and labels for ``iseeq evaluate``."""
    rng = np.random.default_rng(seed)
    out.mkdir(parents=True, exist_ok=True)
    vocab = pseudo_words(rng, vocab_size)
    tokens = rng.standard_normal((vocab_size, token_dim)).astype(np.float32)
    write_vectors(out / "tokens.bin", vocab, tokens)

    batches = []
    for b in range(n_batches):
        reference = [
            [vocab[int(i)] for i in rng.integers(vocab_size, size=int(rng.integers(8, 15)))]
            for _ in range(pairs)
        ]
        generated = [_mutate(rng, ref, vocab) for ref in reference]
        gen_prob = [float(p) for p in rng.uniform(0.02, 1.0, size=pairs)]
        labels = [ENTAIL_LABELS[int(i)] for i in rng.integers(3, size=pairs - 1)]
        entail_prob = [float(p) for p in rng.uniform(0.0, 1.0, size=pairs - 1)]
        records = []
        for i in range(pairs):
            record = {"generated": generated[i], "reference": reference[i], "gen_prob": gen_prob[i]}
            if i < pairs - 1:
                record["entail_label"] = labels[i]
                record["entail_prob"] = entail_prob[i]
            records.append(record)
        path = out / f"batch{b}.jsonl"
        write_jsonl(path, records)
        batches.append(LossBatchTruth(path, generated, reference, gen_prob, labels, entail_prob))

    pair_scores, pair_labels = [], []
    for q in range(n_eval_queries):
        for g in range(16):
            for r in range(8):
                key = {"gen_id": f"g{q}_{g}", "ref_id": f"r{q}_{r}", "query_id": f"e{q}"}
                pair_scores.append({**key, "score": float(rng.uniform(-0.2, 1.0))})
                pair_labels.append({**key, "label": ENTAIL_LABELS[int(rng.integers(3))]})
    write_jsonl(out / "pair_scores.jsonl", pair_scores)
    write_jsonl(out / "pair_labels.jsonl", pair_labels)
    return LossCorpus(
        out / "tokens.bin", vocab, tokens.astype(np.float64), batches,
        out / "pair_scores.jsonl", out / "pair_labels.jsonl", pair_scores, pair_labels,
    )
