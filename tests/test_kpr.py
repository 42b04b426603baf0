import json
import logging
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iseeq import kpr

from iseeq.embeddings import build_token_doc, save_vectors
from iseeq.errors import DataError
from iseeq.kpr import (
    Passage,
    RetrievalResult,
    batch_passages,
    coverage_loop,
    eval_retriever,
    load_corpus,
    load_results,
    nes,
    retrieve,
    tokenize_text,
)
from iseeq.sitq import build_index
from iseeq.sqe import QueryDescription, expand_query
from iseeq.wmd import wmd_exact

import synth
from conftest import CAREER_QUERY, make_store
from oracles import nes_bruteforce, tokenize_by_word


def career_eq(career_kg):
    return expand_query(career_kg, QueryDescription(id="d1", text=CAREER_QUERY))


class TestTokenize:
    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet="aB9_' İKé-.,\u212a"))  # U+212A KELVIN SIGN lowercases to "k"
    def test_matches_word_by_word(self, text):
        assert tokenize_text(text) == tokenize_by_word(text)

    def test_quotes_and_underscores(self):
        text = "The nurse's 'tool_kit' o'clock __a_B__ İstanbul's 'tis"
        assert tokenize_text(text) == ["the", "nurse", "tool", "kit", "o'clock", "a", "b", "i", "stanbul", "tis"]


class TestNes:
    def test_full_coverage(self, career_kg):
        eq = career_eq(career_kg)
        passage = Passage(
            id="p",
            text=(
                "A career in medicine: career options for a physician, such as "
                "physician assistant roles, or a nurse."
            ),
        )
        assert nes(passage, eq) == 1.0

    def test_repeats_counted_once(self, career_kg):
        eq = career_eq(career_kg)
        eq.entities = ["nurse", "physician"]
        single = Passage(id="s", text="a nurse arrived")
        triple = Passage(id="t", text="nurse nurse nurse")
        assert nes(single, eq) == nes(triple, eq) == 0.5

    def test_word_boundaries(self, career_kg):
        eq = career_eq(career_kg)
        eq.entities = ["nurse"]
        assert nes(Passage(id="a", text="the nursery rhyme"), eq) == 0.0
        assert nes(Passage(id="b", text="the nurse's rhyme"), eq) == 1.0

    def test_underscore_and_space_equivalent(self, career_kg):
        eq = career_eq(career_kg)
        eq.entities = ["career_options"]
        assert nes(Passage(id="a", text="many career options exist"), eq) == 1.0
        assert nes(Passage(id="b", text="many career_options exist"), eq) == 1.0
        assert nes(Passage(id="c", text="career alone, options alone"), eq) == 0.0

    def test_empty_entity_list_warns_zero(self, career_kg, caplog):
        eq = career_eq(career_kg)
        eq.entities = []
        assert nes(Passage(id="p", text="anything"), eq) == 0.0
        assert not caplog.records
        # one retrieve warns once, not once per candidate
        rng = np.random.default_rng(5)
        passages = {f"p{i}": Passage(id=f"p{i}", text="anything") for i in range(3)}
        store = make_store(passages, rng.standard_normal((3, 4)))
        token_store = make_store(["anything"], rng.standard_normal((1, 4)))
        q_doc = build_token_doc("q", ["anything"], token_store)
        index = build_index(store, code_bits=4, itq_iters=3, seed=0)
        with caplog.at_level(logging.WARNING):
            result = retrieve(index, passages, _token_docs(passages.values(), token_store), eq,
                              rng.standard_normal(4), q_doc, top_n=3, k=1)
        assert [nes_val for _, _, nes_val in result.ranked] == [0.0] * 3
        assert [r.getMessage() for r in caplog.records] == [
            "query d1 has no entities; NES defaults to 0"
        ]

    def test_matches_bruteforce_oracle(self, career_kg):
        rng = np.random.default_rng(41)
        eq = career_eq(career_kg)
        full = list(eq.entities)
        vocab = ["nurse", "physician", "career", "options", "assistant", "filler", "word"]
        for _ in range(30):
            words = [vocab[i] for i in rng.integers(0, len(vocab), size=12)]
            text = " ".join(words)
            passage = Passage(id="p", text=text)
            eq.entities = [e for e in full if rng.random() < 0.7] or full[:1]
            assert nes(passage, eq) == pytest.approx(
                nes_bruteforce(text, eq.entities), abs=1e-12
            )

    def test_monotone_under_entity_addition(self, career_kg):
        eq = career_eq(career_kg)
        base = "plain filler text"
        last = nes(Passage(id="p", text=base), eq)
        text = base
        for entity in ["nurse", "physician", "career options"]:
            text += f" {entity}"
            current = nes(Passage(id="p", text=text), eq)
            assert current >= last
            last = current


def _token_docs(passages, token_store):
    docs = {}
    for p in passages:
        docs[p.id] = build_token_doc(p.id, list(p.tokens), token_store)
    return docs


def _brute_force_pipeline(eq, passages, store, token_docs, q_vec, q_doc, top_n, k, thr):
    ips = store.matrix.astype(np.float64) @ q_vec
    order = sorted(range(len(store.ids)), key=lambda i: (-ips[i], store.ids[i]))[:top_n]
    scored = []
    for i in order:
        pid = store.ids[i]
        passage = next(p for p in passages if p.id == pid)
        wmd_score = wmd_exact(q_doc, token_docs[pid])
        scored.append((pid, wmd_score, nes_bruteforce(passage.text, eq.entities)))
    scored.sort(key=lambda t: (-t[2], t[1], t[0]))
    kept = [pid for pid, _, nes_val in scored if nes_val > thr][:k]
    return scored, kept


class TestRetrieve:
    def test_unique_qualifier(self, tmp_path):
        eq = synth.expanded_query(tmp_path)
        rng = np.random.default_rng(42)
        texts = [
            "solar panel battery inverter grid meter all present",
            "only the grid appears here",
            "nothing relevant at all",
        ]
        passages = [Passage(id=f"p{i}", text=t) for i, t in enumerate(texts)]
        from conftest import make_store

        store = make_store([p.id for p in passages], rng.standard_normal((3, 8)))
        vocab = sorted({t for p in passages for t in p.tokens} | set(eq.augmented_text.lower().split()))
        token_store = make_store(vocab, rng.standard_normal((len(vocab), 4)))
        token_docs = _token_docs(passages, token_store)
        q_doc = build_token_doc("q", tokenize_text(eq.augmented_text), token_store)
        index = build_index(store, code_bits=8, itq_iters=5, seed=0)
        result = retrieve(
            index,
            {p.id: p for p in passages},
            token_docs,
            eq,
            rng.standard_normal(8),
            q_doc,
            top_n=3,
            k=2,
            nes_threshold=0.8,
            probe=3,
        )
        assert result.kept == ["p0"]

    def test_matches_bruteforce_pipeline(self, tmp_path):
        passages, plans, store, token_store, q_vec = synth.build_corpus(seed=7)
        eq = synth.expanded_query(tmp_path)
        token_docs = _token_docs(passages, token_store)
        q_doc = build_token_doc("q", tokenize_text(eq.augmented_text), token_store)
        index = build_index(store, code_bits=16, itq_iters=10, seed=1)
        result = retrieve(
            index,
            {p.id: p for p in passages},
            token_docs,
            eq,
            q_vec,
            q_doc,
            top_n=50,
            k=20,
            nes_threshold=0.8,
            probe=len(passages),
        )
        expected_ranked, expected_kept = _brute_force_pipeline(
            eq, passages, store, token_docs, q_vec, q_doc, 50, 20, 0.8
        )
        assert result.kept == expected_kept
        assert [
            (pid, pytest.approx(w, abs=1e-9), n) for pid, w, n in result.ranked
        ] == expected_ranked
        # full-coverage passages only, per the planted design
        for pid in result.kept:
            assert len(plans[int(pid[1:])]) == 5

    def test_threshold_is_strict(self, tmp_path):
        eq = synth.expanded_query(tmp_path)
        eq.entities = ["solar_panel", "battery", "inverter", "grid", "meter"]
        four_of_five = Passage(id="p0", text="solar panel battery inverter grid only")
        assert nes(four_of_five, eq) == pytest.approx(0.8)
        rng = np.random.default_rng(1)
        from conftest import make_store

        store = make_store(["p0"], rng.standard_normal((1, 4)))
        token_store = make_store(sorted(four_of_five.token_set), rng.standard_normal((6, 4)))
        index = build_index(store, code_bits=4, itq_iters=3, seed=0)
        result = retrieve(
            index,
            {"p0": four_of_five},
            _token_docs([four_of_five], token_store),
            eq,
            rng.standard_normal(4),
            build_token_doc("q", ["solar", "panel"], token_store),
            top_n=1,
            k=1,
            nes_threshold=0.8,
        )
        assert result.kept == []  # 0.8 is not > 0.8

    def test_missing_passage_is_corruption(self, tmp_path):
        eq = synth.expanded_query(tmp_path)
        rng = np.random.default_rng(2)
        from conftest import make_store

        store = make_store(["p0"], rng.standard_normal((1, 4)))
        index = build_index(store, code_bits=4, itq_iters=3, seed=0)
        token_store = make_store(["solar", "panel"], rng.standard_normal((2, 4)))
        with pytest.raises(DataError):
            retrieve(
                index,
                {},
                {},
                eq,
                rng.standard_normal(4),
                build_token_doc("q", ["solar"], token_store),
                top_n=1,
                k=1,
            )

    def test_bad_args(self, tmp_path):
        eq = synth.expanded_query(tmp_path)
        rng = np.random.default_rng(3)
        from conftest import make_store

        store = make_store(["p0"], rng.standard_normal((1, 4)))
        index = build_index(store, code_bits=4, itq_iters=3, seed=0)
        token_store = make_store(["solar"], rng.standard_normal((1, 4)))
        q_doc = build_token_doc("q", ["solar"], token_store)
        with pytest.raises(ValueError):
            retrieve(index, {}, {}, eq, rng.standard_normal(4), q_doc, nes_threshold=1.0)
        with pytest.raises(ValueError):
            retrieve(index, {}, {}, eq, rng.standard_normal(4), q_doc, top_n=5, k=10)


def _corpus_files(tmp_path) -> dict[str, Path]:
    """Three passages and their vectors, one query vector; no token of p2 has a vector."""
    rng = np.random.default_rng(6)
    files = {name: tmp_path / name for name in ("q.jsonl", "p.jsonl", "pv.bin", "qv.bin", "tv.bin")}
    texts = ["a nurse career", "physician options", "zzz"]
    files["p.jsonl"].write_text(
        "".join(json.dumps({"id": f"p{i}", "text": t}) + "\n" for i, t in enumerate(texts))
    )
    save_vectors(files["pv.bin"], ["p0", "p1", "p2"], rng.standard_normal((3, 4)))
    save_vectors(files["qv.bin"], ["d1"], rng.standard_normal((1, 4)))
    vocab = ["a", "nurse", "career", "physician", "options"]
    save_vectors(files["tv.bin"], vocab, rng.standard_normal((len(vocab), 4)))
    return files


def _load_corpus_files(files, eq):
    return load_corpus([eq], files["p.jsonl"], files["pv.bin"], files["qv.bin"], files["tv.bin"],
                       queries_path=files["q.jsonl"])


def _repeat_passage(files):
    with files["p.jsonl"].open("a") as fh:
        fh.write(json.dumps({"id": "p1", "text": "physician again"}) + "\n")


def _passage_vectors(*ids):
    return lambda files: save_vectors(files["pv.bin"], ids, np.ones((len(ids), 4)))


class TestLoadCorpus:
    def test_reads_passages_in_file_order(self, tmp_path, career_kg, caplog):
        files = _corpus_files(tmp_path)
        eq = career_eq(career_kg)
        corpus = _load_corpus_files(files, eq)
        assert list(corpus.passages) == corpus.store.ids == ["p0", "p1", "p2"]
        assert corpus.passages["p1"].text == "physician options"
        assert set(corpus.token_docs) == {"p0", "p1"}
        assert [r.getMessage() for r in caplog.records if r.name == "iseeq.kpr"] == [
            "no token vectors for p2; WMD falls back to worst score"
        ]
        assert corpus.query_vecs["d1"].dtype == np.float64
        assert corpus.query_docs["d1"].doc_id == "d1"

    def test_passage_without_token_vectors_warns_once(self, tmp_path, career_kg, caplog):
        files = _corpus_files(tmp_path)
        with caplog.at_level(logging.DEBUG):
            _load_corpus_files(files, career_eq(career_kg))
        assert [(r.name, r.getMessage()) for r in caplog.records if "p2" in r.getMessage()] == [
            ("iseeq.kpr", "no token vectors for p2; WMD falls back to worst score")
        ]

    @pytest.mark.parametrize(
        "edit,bad_id,named",
        [
            pytest.param(_repeat_passage, "p1", ("p.jsonl", "pv.bin"), id="repeated-passage"),
            pytest.param(_passage_vectors("p0", "p1"), "p2", ("p.jsonl", "pv.bin"),
                         id="passage-without-vector"),
            pytest.param(_passage_vectors("p0", "p1", "p2", "orphan"), "orphan", ("pv.bin", "p.jsonl"),
                         id="orphan-vector"),
            pytest.param(lambda f: save_vectors(f["qv.bin"], ["other"], np.ones((1, 4))),
                         "d1", ("q.jsonl", "qv.bin"), id="query-without-vector"),
        ],
    )
    def test_id_rule_names_both_files(self, tmp_path, career_kg, edit, bad_id, named):
        files = _corpus_files(tmp_path)
        edit(files)
        with pytest.raises(DataError) as exc:
            _load_corpus_files(files, career_eq(career_kg))
        message = str(exc.value)
        assert f"{bad_id!r}" in message
        assert all(str(files[name]) in message for name in named)


QUERY_TEXTS = [
    "Tell me about a solar panel and a battery",
    "How does an inverter connect to the grid",
    "Reading the meter next to a solar panel",
]
COVER_TEXTS = [
    "a solar panel with a battery works",  # covers q0 only
    "an inverter feeding the grid",  # covers q1 only
    "the meter beside the solar panel",  # covers q2 only
]


def _coverage_fixture(tmp_path, n_queries=3, per_batch=5, covering=True):
    """Four batches of ``per_batch`` passages; query i is covered exactly by
    the first passage of batch i. ``covering=False`` leaves those passages
    (and their vector rows) out of the corpus."""
    kg = synth.load_synth_kg(tmp_path)
    rng = np.random.default_rng(50)
    queries = []
    for i in range(n_queries):
        queries.append(
            expand_query(kg, QueryDescription(id=f"q{i}", text=QUERY_TEXTS[i]))
        )
    passages = [
        Passage(id=f"b{b}p{j}",
                text=COVER_TEXTS[b] if j == 0 and b < n_queries else f"filler only w{b} w{j} nothing else")
        for b in range(4)
        for j in range(per_batch)
    ]

    query_tokens = {t for text in QUERY_TEXTS for t in tokenize_text(text)}
    vocab = sorted({t for p in passages for t in p.tokens} | query_tokens)
    token_store = make_store(vocab, rng.standard_normal((len(vocab), 4)))
    query_docs = {
        q.source.id: build_token_doc(
            q.source.id, tokenize_text(q.augmented_text), token_store
        )
        for q in queries
    }
    # steer query i's vector at batch i's covering passage
    base = rng.standard_normal((4 * per_batch, 8)).astype(np.float32)
    query_vecs = {}
    for i, q in enumerate(queries):
        query_vecs[q.source.id] = base[i * per_batch].astype(np.float64)
    if not covering:
        keep = [i for i, p in enumerate(passages) if p.text not in COVER_TEXTS]
        passages, base = [passages[i] for i in keep], base[keep]
    store = make_store([p.id for p in passages], base)
    token_docs = _token_docs(passages, token_store)

    def batch_iter():
        return batch_passages(passages, store, token_docs, per_batch)

    return queries, query_vecs, query_docs, batch_iter


class TestCoverage:
    def test_single_round_when_all_covered(self, tmp_path):
        queries, vecs, docs, batch_iter = _coverage_fixture(tmp_path, n_queries=1)
        report = coverage_loop(
            queries, vecs, docs, batch_iter(), code_bits=8, itq_iters=5, seed=0,
            top_n=20, k=5, nes_threshold=0.8,
        )
        assert report.complete
        assert len(report.per_round) == 1
        assert report.queries_covered == 1

    def test_planted_schedule_stops_at_round_three(self, tmp_path):
        queries, vecs, docs, batch_iter = _coverage_fixture(tmp_path, n_queries=3)
        report = coverage_loop(
            queries, vecs, docs, batch_iter(), code_bits=8, itq_iters=5, seed=0,
            top_n=20, k=5, nes_threshold=0.8,
        )
        assert report.complete
        assert [covered for _, covered in report.per_round] == [1, 2, 3]
        assert [size for size, _ in report.per_round] == [5, 10, 15]
        assert report.passages_scanned == 15  # batch 4 never ingested

    def test_monotone_coverage(self, tmp_path):
        queries, vecs, docs, batch_iter = _coverage_fixture(tmp_path, n_queries=3)
        report = coverage_loop(
            queries, vecs, docs, batch_iter(), code_bits=8, itq_iters=5, seed=0,
            top_n=20, k=5, nes_threshold=0.8,
        )
        counts = [covered for _, covered in report.per_round]
        assert counts == sorted(counts)

    def test_exhausted_stream_flagged_incomplete(self, tmp_path):
        # no covering passage in the corpus, so no query ever qualifies
        queries, vecs, docs, batch_iter = _coverage_fixture(tmp_path, n_queries=3, covering=False)
        report = coverage_loop(
            queries, vecs, docs, batch_iter(), code_bits=8, itq_iters=5, seed=0,
            top_n=20, k=5, nes_threshold=0.8,
        )
        assert not report.complete
        assert report.queries_covered == 0
        assert len(report.per_round) == 4

    def test_each_pair_solved_once_per_call(self, tmp_path, monkeypatch):
        queries, vecs, docs, batch_iter = _coverage_fixture(tmp_path, n_queries=3)
        opts = dict(code_bits=8, itq_iters=5, seed=0, top_n=20, k=5, nes_threshold=0.8)
        solves = Counter()

        def counted(q_doc, p_doc):
            solves[q_doc.doc_id, p_doc.doc_id] += 1
            return wmd_exact(q_doc, p_doc)

        monkeypatch.setattr(kpr, "wmd_exact", counted)
        report = coverage_loop(queries, vecs, docs, batch_iter(), **opts)
        assert solves and set(solves.values()) == {1}
        # without the memo the later rounds re-solve pairs, to the same report
        solves.clear()
        retrieve_each_time = kpr.retrieve
        monkeypatch.setattr(kpr, "retrieve", lambda *args, wmd_memo, **kw: retrieve_each_time(*args, **kw))
        assert coverage_loop(queries, vecs, docs, batch_iter(), **opts) == report
        assert max(solves.values()) > 1


HAND_RANKED = {f"q{i}": [f"q{i}_p{j}" for j in range(5)] for i in range(10)}


def _hand_results():
    return [
        RetrievalResult(
            query_id=qid,
            ranked=[(pid, 0.0, 1.0) for pid in pids],
            kept=list(pids[:1]),
        )
        for qid, pids in HAND_RANKED.items()
    ]


class TestEvalRetriever:
    def test_perfect_retrieval(self):
        results = _hand_results()
        relevance = {qid: {pids[0]} for qid, pids in HAND_RANKED.items()}
        hr, map_score = eval_retriever(results, relevance, ks=[1, 5, 10], map_k=1)
        assert hr == {1: 1.0, 5: 1.0, 10: 1.0}
        assert map_score == pytest.approx(1.0)

    def test_spreadsheet_fixture(self):
        # relevant passage of query i sits at rank (i mod 5); queries 5..9
        # carry two ground-truth questions. By hand:
        #   HR@1 = 2/10, HR@2 = 4/10, HR@5 = 1.0
        #   precision@5 = 1/5 each; MAP = (5*(1/5) + 5*(1/5)*(1/2)) / 10 = 0.15
        results = _hand_results()
        relevance = {f"q{i}": {f"q{i}_p{i % 5}"} for i in range(10)}
        counts = {f"q{i}": 2 for i in range(5, 10)}
        hr, map_score = eval_retriever(
            results, relevance, ks=[1, 2, 5], map_k=5, gt_question_counts=counts
        )
        assert hr[1] == pytest.approx(0.2, abs=1e-12)
        assert hr[2] == pytest.approx(0.4, abs=1e-12)
        assert hr[5] == pytest.approx(1.0, abs=1e-12)
        assert map_score == pytest.approx(0.15, abs=1e-12)

    def test_hr_monotone_in_k(self):
        rng = np.random.default_rng(60)
        results = _hand_results()
        relevance = {
            f"q{i}": {f"q{i}_p{rng.integers(0, 5)}"} for i in range(10)
        }
        hr, _ = eval_retriever(results, relevance, ks=[1, 2, 3, 4, 5])
        values = [hr[k] for k in (1, 2, 3, 4, 5)]
        assert values == sorted(values)

    def test_missing_relevance_entry(self):
        with pytest.raises(DataError):
            eval_retriever(_hand_results(), {}, ks=[1])

    def test_results_file_round_trips(self, tmp_path):
        results = _hand_results()[:2] + [RetrievalResult("q9", [("p1", math.inf, 0.5)], [])]
        path = tmp_path / "results.json"
        payload = {"config": {}, "results": [r.to_dict() for r in results]}
        path.write_text(json.dumps(payload) + "\n" + json.dumps(payload) + "\n")
        assert load_results(path) == results + results


class TestBatching:
    def test_round_r_indexes_first_r_batches_in_passage_order(self):
        passages, _, store, token_store, _ = synth.build_corpus(seed=8, n_passages=10)
        token_docs = _token_docs(passages, token_store)
        order = np.random.default_rng(3).permutation(len(store))
        shuffled = make_store([store.ids[i] for i in order], store.matrix[order])
        rounds = list(batch_passages(passages, shuffled, token_docs, 4))
        assert [len(round_store) for round_store, _, _ in rounds] == [4, 8, 10]
        for round_store, table, docs in rounds:
            ids = [p.id for p in passages[: len(round_store)]]
            assert round_store.ids == ids
            assert round_store.matrix.dtype == np.float32
            assert np.array_equal(round_store.matrix, np.vstack([store.row(pid) for pid in ids]))
            assert np.array_equal(round_store.norms, store.norms[: len(ids)])
            assert all(table[p.id] is p for p in passages[: len(ids)])
            assert all(docs[pid] is token_docs[pid] for pid in ids)

    def test_batch_size_below_one_rejected(self):
        passages, _, store, _, _ = synth.build_corpus(seed=8, n_passages=2)
        with pytest.raises(ValueError, match="batch_size"):
            next(batch_passages(passages, store, {}, 0))
