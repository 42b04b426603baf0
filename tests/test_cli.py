import json
import math
from dataclasses import fields

import numpy as np
import pytest

from iseeq.cli import main
from iseeq.config import RunConfig, check_setting
from iseeq.embeddings import save_vectors
from iseeq.sqe import QueryDescription, expand_query, resolve_phrases

import synth
from conftest import CAREER_ENTITIES, CAREER_QUERY, DATA_DIR
from test_golden import make_workspace


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """On-disk fixture files for the end-to-end commands."""
    root = tmp_path_factory.mktemp("cli")
    kg_path = synth.write_kg(root)

    queries = root / "queries.jsonl"
    queries.write_text(
        json.dumps({"id": "q0", "text": synth.QUERY_TEXT, "kind": "description_only"})
        + "\n"
    )

    passages, plans, store, token_store, query_vec = synth.build_corpus(
        seed=17, n_passages=60
    )
    passages_path = root / "passages.jsonl"
    passages_path.write_text(
        "\n".join(json.dumps({"id": p.id, "text": p.text}) for p in passages) + "\n"
    )
    pvec_path = root / "passage_vecs.bin"
    save_vectors(pvec_path, store.ids, store.matrix)
    tvec_path = root / "token_vecs.bin"
    save_vectors(tvec_path, token_store.ids, token_store.matrix)
    qvec_path = root / "query_vecs.bin"
    save_vectors(qvec_path, ["q0"], query_vec[None, :].astype(np.float32))

    return {
        "root": root,
        "kg": kg_path,
        "queries": str(queries),
        "passages": str(passages_path),
        "passage_vectors": str(pvec_path),
        "token_vectors": str(tvec_path),
        "query_vectors": str(qvec_path),
        "plans": plans,
    }


def retrieve_args(ws, *extra):
    return [
        "retrieve",
        "--kg", ws["kg"],
        "--queries", ws["queries"],
        "--passages", ws["passages"],
        "--passage-vectors", ws["passage_vectors"],
        "--query-vectors", ws["query_vectors"],
        "--token-vectors", ws["token_vectors"],
        *extra,
    ]


class TestKgCommand:
    def test_stats(self, capsys, career_kg_path):
        code, out, _ = run_cli(capsys, "kg", "stats", career_kg_path)
        assert code == 0
        assert json.loads(out) == {"entities": 13, "triples": 8}

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "kg", "stats", str(tmp_path / "nope.tsv"))
        assert code == 2

    def test_strict_is_not_a_flag(self, capsys, career_kg_path):
        # every KG read is strict, so there is no mode to choose
        code, _, err = run_cli(capsys, "kg", "stats", career_kg_path, "--strict")
        assert code == 1 and "unrecognized arguments: --strict" in err


class TestExpandQueryCommand:
    def test_career_example(self, capsys, career_kg_path, tmp_path):
        queries = tmp_path / "q.jsonl"
        queries.write_text(json.dumps({"id": "d1", "text": CAREER_QUERY}) + "\n")
        code, out, _ = run_cli(
            capsys, "expand-query", "--kg", career_kg_path, "--queries", str(queries)
        )
        assert code == 0
        record = json.loads(out)
        assert set(record["entities"]) == CAREER_ENTITIES
        assert "career_options is related to career_choice, profession" in record["k_d"]
        assert ["career_options", "isrelatedto", "career_choice"] in record["triples"]

    def test_hop_limit_beyond_recursion_depth(self, capsys, tmp_path):
        kg = tmp_path / "kg.tsv"
        kg.write_text("".join(f"node{i}\tisa\tnode{i + 1}\n" for i in range(3000)), encoding="utf-8")
        queries = tmp_path / "q.jsonl"
        queries.write_text(json.dumps({"id": "q0", "text": "about node0 things"}) + "\n")
        code, out, err = run_cli(
            capsys, "expand-query", "--kg", str(kg), "--queries", str(queries), "--max-hops", "5000"
        )
        assert code == 0, err
        assert json.loads(out)["triples"][0] == ["node0", "isa", "node1"]

    def test_phrase_file_bypasses_matcher(self, capsys, career_kg_path, tmp_path):
        queries = tmp_path / "q.jsonl"
        queries.write_text(json.dumps({"id": "d1", "text": CAREER_QUERY}) + "\n")
        phrases = tmp_path / "phrases.jsonl"
        phrases.write_text(
            json.dumps({"id": "d1", "phrases": ["career options", "nurse", "unknown thing"]})
            + "\n"
        )
        code, out, _ = run_cli(
            capsys,
            "expand-query",
            "--kg", career_kg_path,
            "--queries", str(queries),
            "--phrases", str(phrases),
        )
        assert code == 0
        record = json.loads(out)
        assert record["entities"] == ["career_options", "nurse"]

    def test_max_hops_from_config_file(self, capsys, tmp_path):
        kg = tmp_path / "kg.tsv"
        kg.write_text("solar\tisa\tpanel\npanel\tisa\tdevice\n")
        queries = tmp_path / "q.jsonl"
        queries.write_text(json.dumps({"id": "d1", "text": "solar power"}) + "\n")
        config = tmp_path / "run.cfg"
        config.write_text("max_hops = 1\n")
        argv = ["expand-query", "--kg", str(kg), "--queries", str(queries)]

        def triples(*before):
            code, out, err = run_cli(capsys, *before, *argv)
            assert code == 0, err
            return json.loads(out)["triples"]

        assert triples() == [["solar", "isa", "panel"], ["panel", "isa", "device"]]
        assert triples("--config", str(config)) == [["solar", "isa", "panel"]]

    def test_phrase_found_by_surface_form_spans_that_form(self, tmp_path):
        kg = synth.load_synth_kg(tmp_path)
        entities, spans = resolve_phrases(kg, synth.QUERY_TEXT, ["solar  panel"])
        assert entities == ["solar_panel"]
        start, end = spans[0]
        assert synth.QUERY_TEXT[start:end] == "solar panel"
        eq = expand_query(kg, QueryDescription("q", synth.QUERY_TEXT), entities=entities, spans=spans)
        assert eq.augmented_text.startswith(
            "Comparing a solar panel solar_panel is related to photovoltaics, rooftop with a battery"
        )


class TestIndexAndRetrieve:
    def test_build_index_then_retrieve(self, capsys, workspace):
        out_path = workspace["root"] / "index.bin"
        code, out, _ = run_cli(
            capsys,
            "build-index",
            "--vectors", workspace["passage_vectors"],
            "--out", str(out_path),
            "--code-bits", "16",
            "--seed", "5",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["vectors"] == 60 and summary["code_bits"] == 16
        assert out_path.exists()

        code, with_index, _ = run_cli(
            capsys, *retrieve_args(workspace, "--index", str(out_path),
                                   "--code-bits", "16", "--seed", "5")
        )
        assert code == 0
        code, without_index, _ = run_cli(
            capsys, *retrieve_args(workspace, "--code-bits", "16", "--seed", "5")
        )
        assert code == 0
        assert with_index == without_index

    def test_config_echo_shows_the_probe_scanned(self, capsys, tmp_path):
        ws = make_workspace(tmp_path)  # 200 passages
        argv = [
            "retrieve", "--kg", ws["kg"], "--queries", ws["queries.jsonl"],
            "--passages", ws["passages.jsonl"], "--passage-vectors", ws["passage_vecs.bin"],
            "--query-vectors", ws["query_vecs.bin"], "--token-vectors", ws["token_vecs.bin"],
        ]
        # sitq.query scans top_n rows at least, and never more rows than the index holds
        for flags, scanned in ((["--probe", "120", "--top-n", "150"], (150, 150)),
                               (["--top-n", "300"], (200, 200))):
            code, out, err = run_cli(capsys, *argv, *flags)
            assert code == 0, err
            config = json.loads(out)["config"]
            assert (config["top_n"], config["probe"]) == scanned

    def test_code_bits_flag_above_bound_exits_1(self, capsys, workspace, tmp_path):
        # just past the bound, so a build without the check would stay small
        code, _, err = run_cli(
            capsys, "build-index", "--vectors", workspace["passage_vectors"],
            "--out", str(tmp_path / "index.bin"), "--code-bits", "1025",
        )
        assert code == 1 and "code_bits must be in [1, 1024], not 1025" in err
        assert not (tmp_path / "index.bin").exists()

    def test_retrieve_output_shape(self, capsys, workspace):
        code, out, _ = run_cli(capsys, *retrieve_args(workspace))
        assert code == 0
        payload = json.loads(out)
        (result,) = payload["results"]
        assert result["query_id"] == "q0"
        assert result["kept"]
        for pid in result["kept"]:
            assert len(workspace["plans"][int(pid[1:])]) == 5
        nes_values = [n for _, _, n in result["ranked"]]
        assert nes_values == sorted(nes_values, reverse=True)

    def test_coverage_command(self, capsys, workspace):
        code, out, _ = run_cli(
            capsys,
            "coverage",
            "--kg", workspace["kg"],
            "--queries", workspace["queries"],
            "--passages", workspace["passages"],
            "--passage-vectors", workspace["passage_vectors"],
            "--query-vectors", workspace["query_vectors"],
            "--token-vectors", workspace["token_vectors"],
            "--batch-size", "20",
        )
        assert code == 0
        report = json.loads(out)
        counts = [c for _, c in report["per_round"]]
        assert counts == sorted(counts)
        assert report["complete"] in (True, False)
        if report["complete"]:
            assert report["queries_covered"] == 1


    def test_coverage_sets_aside_query_without_entities(self, capsys, caplog, tmp_path):
        # "wind power" has no KG entity, so its NES is 0 and nothing can
        # cover it; the loop stops once "solar power" is covered in round 3.
        (tmp_path / "kg.tsv").write_text("solar\tisa\tpanel\n", encoding="utf-8")
        (tmp_path / "q.jsonl").write_text(
            "".join(json.dumps({"id": f"q{i}", "text": t}) + "\n"
                    for i, t in enumerate(["solar power", "wind power"]))
        )
        texts = ["wind power", "grid power", "solar panel", "solar power", "wind", "grid"]
        (tmp_path / "p.jsonl").write_text(
            "".join(json.dumps({"id": f"p{i}", "text": t}) + "\n" for i, t in enumerate(texts))
        )
        passage_vecs = [[0.0, 1.0], [0.0, -1.0], [1.0, 0.0], [0.9, 0.1], [0.5, 0.5], [0.1, 0.9]]
        save_vectors(tmp_path / "pv.bin", [f"p{i}" for i in range(6)], np.array(passage_vecs))
        save_vectors(tmp_path / "qv.bin", ["q0", "q1"], np.array([[1.0, 0.0], [0.0, 1.0]]))
        vocab = ["solar", "power", "wind", "panel", "grid", "isa"]
        save_vectors(tmp_path / "tv.bin", vocab, np.random.default_rng(3).standard_normal((6, 2)))
        code, out, err = run_cli(
            capsys, "coverage", "--kg", str(tmp_path / "kg.tsv"), "--queries", str(tmp_path / "q.jsonl"),
            "--passages", str(tmp_path / "p.jsonl"), "--passage-vectors", str(tmp_path / "pv.bin"),
            "--query-vectors", str(tmp_path / "qv.bin"), "--token-vectors", str(tmp_path / "tv.bin"),
            "--batch-size", "1", "--top-n", "2", "--top-k", "1",
        )
        assert code == 0, err
        report = json.loads(out)
        assert report["per_round"] == [[1, 0], [2, 0], [3, 1]]
        assert report["covered_passages"] == {"q0": ["p2"]}
        assert report["complete"] is False and report["passages_scanned"] == 3
        assert caplog.text.count("q1 have no entities") == 1
        # code_bits 64 > augmented dim 3 in each of the 3 rounds; warned once
        assert [r.getMessage() for r in caplog.records if "exceeds augmented dim" in r.getMessage()] == [
            "code_bits=64 exceeds augmented dim 3; extra bits carry no signal"
        ]
        assert "NES defaults to 0" not in caplog.text and "corpus exhausted" not in caplog.text


class TestEvalRetrieverCommand:
    def test_with_relevance_file(self, capsys, workspace, tmp_path):
        code, out, _ = run_cli(capsys, *retrieve_args(workspace))
        assert code == 0
        results_path = tmp_path / "results.json"
        results_path.write_text(out)
        kept = json.loads(out)["results"][0]["kept"]
        relevance = tmp_path / "rel.jsonl"
        relevance.write_text(
            json.dumps({"query_id": "q0", "relevant": kept[:1], "n_questions": 2}) + "\n"
        )
        code, out, _ = run_cli(
            capsys,
            "eval-retriever",
            "--results", str(results_path),
            "--relevance", str(relevance),
            "--ks", "1,10",
        )
        assert code == 0
        scores = json.loads(out)
        assert 0.0 <= scores["map"] <= 0.5  # halved by n_questions = 2
        assert set(scores["hr"]) == {"1", "10"}

    def test_with_question_embeddings(self, capsys, workspace, tmp_path):
        code, out, _ = run_cli(capsys, *retrieve_args(workspace))
        results_path = tmp_path / "results.json"
        results_path.write_text(out)
        ranked = json.loads(out)["results"][0]["ranked"]
        top_pid = ranked[0][0]
        qvecs = tmp_path / "question_vecs.jsonl"
        qvecs.write_text(
            "\n".join(
                [
                    json.dumps({"query_id": "q0", "passage_id": top_pid, "vec": [1.0, 0.0]}),
                    json.dumps({"query_id": "q0", "passage_id": ranked[1][0], "vec": [0.0, 1.0]}),
                ]
            )
            + "\n"
        )
        gt = tmp_path / "gt_vecs.jsonl"
        gt.write_text(json.dumps({"query_id": "q0", "vec": [1.0, 0.1]}) + "\n")
        code, out, _ = run_cli(
            capsys,
            "eval-retriever",
            "--results", str(results_path),
            "--question-vecs", str(qvecs),
            "--gt-question-vecs", str(gt),
            "--ks", "1",
        )
        assert code == 0
        scores = json.loads(out)
        assert scores["hr"]["1"] == 1.0  # only the top passage clears 0.70 cosine

    @pytest.mark.parametrize("ks", ["0", "-3", "10,0"])
    def test_cutoffs_must_be_positive(self, capsys, workspace, tmp_path, ks):
        code, out, _ = run_cli(capsys, *retrieve_args(workspace))
        results_path = tmp_path / "results.json"
        results_path.write_text(out)
        relevance = tmp_path / "rel.jsonl"
        relevance.write_text(json.dumps({"query_id": "q0", "relevant": ["p1"]}) + "\n")
        code, out, err = run_cli(
            capsys, "eval-retriever", "--results", str(results_path),
            "--relevance", str(relevance), "--ks", ks,
        )
        assert code == 1 and out == "" and "--ks takes integers >= 1" in err

    def test_needs_some_relevance_source(self, capsys, workspace, tmp_path):
        results_path = tmp_path / "results.json"
        results_path.write_text('{"results": []}')
        code, _, err = run_cli(capsys, "eval-retriever", "--results", str(results_path))
        assert code == 1


class TestWmdCommand:
    def test_singleton_distance(self, capsys, tmp_path):
        vectors = tmp_path / "v.jsonl"
        vectors.write_text(
            '{"id": "u", "vec": [0, 0]}\n{"id": "v", "vec": [3, 4]}\n'
        )
        docs_a = tmp_path / "a.jsonl"
        docs_a.write_text('{"id": "da", "tokens": ["u"]}\n')
        docs_b = tmp_path / "b.jsonl"
        docs_b.write_text('{"id": "db", "tokens": ["v"]}\n{"id": "db2", "tokens": ["u"]}\n')
        code, out, _ = run_cli(
            capsys,
            "wmd",
            "--docs-a", str(docs_a),
            "--docs-b", str(docs_b),
            "--vectors", str(vectors),
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "id,db,db2"
        row = lines[1].split(",")
        assert row[0] == "da"
        assert float(row[1]) == pytest.approx(5.0, abs=1e-9)
        assert float(row[2]) == pytest.approx(0.0, abs=1e-12)


class TestScoreLossesCommand:
    def write_batch(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        records = [
            {
                "generated": ["what", "is", "it"],
                "reference": ["what", "is", "it"],
                "gen_prob": 0.5,
                "entail_label": "entailment",
                "entail_prob": 0.9,
            },
            {
                "generated": ["why", "now"],
                "reference": ["why", "then"],
                "gen_prob": 0.25,
            },
        ]
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        return path

    def test_report_shape(self, capsys, tmp_path):
        path = self.write_batch(tmp_path)
        code, out, _ = run_cli(capsys, "score-losses", "--batch", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["alpha"] == 0.1971 and report["gamma"] == 0.12
        assert len(report["steps"]) == 2
        assert report["steps"][0]["reward"] == pytest.approx(1.0, abs=1e-9)
        assert len(report["erl"]) == 1
        assert report["erl"][0]["label"] == "entailment"
        assert report["erl"][0]["loss"] == pytest.approx(report["ce"] - 0.9, abs=1e-12)

    def test_alpha_flag_overrides(self, capsys, tmp_path):
        path = self.write_batch(tmp_path)
        code, out, _ = run_cli(
            capsys, "score-losses", "--batch", str(path), "--alpha", "1.0"
        )
        assert code == 0
        assert json.loads(out)["alpha"] == 1.0

    @pytest.mark.parametrize("flag,value", [("--alpha", "2"), ("--gamma", "nan")])
    def test_flag_out_of_range_exits_1(self, capsys, tmp_path, flag, value):
        path = self.write_batch(tmp_path)
        code, _, err = run_cli(capsys, "score-losses", "--batch", str(path), flag, value)
        assert code == 1 and f"{flag[2:]} must be in [0, 1], not" in err

    def test_zero_prob_needs_clamp(self, capsys, tmp_path):
        path = tmp_path / "batch.jsonl"
        path.write_text(
            json.dumps({"generated": ["a"], "reference": ["a"], "gen_prob": 0.0}) + "\n"
        )
        code, _, _ = run_cli(capsys, "score-losses", "--batch", str(path))
        assert code == 2
        code, out, _ = run_cli(
            capsys, "score-losses", "--batch", str(path), "--clamp-probs"
        )
        assert code == 0


class TestEvaluateCommand:
    def test_report(self, capsys, tmp_path):
        sr = tmp_path / "sr.jsonl"
        sr.write_text(
            "\n".join(
                json.dumps({"gen_id": f"g{i}", "ref_id": "r0", "score": s, "query_id": "q1"})
                for i, s in enumerate([0.2, 0.4, 0.6])
            )
            + "\n"
        )
        lc = tmp_path / "lc.jsonl"
        lc.write_text(
            "\n".join(
                json.dumps({"gen_id": "g0", "ref_id": "r0", "label": lab, "query_id": "q1"})
                for lab in ["entailment", "neutral", "entailment", "contradiction"]
            )
            + "\n"
        )
        code, out, _ = run_cli(capsys, "evaluate", "--sr", str(sr), "--lc", str(lc))
        assert code == 0
        report = json.loads(out)
        assert report["sr"] == pytest.approx(0.4, abs=1e-12)
        assert report["lc_percent"] == pytest.approx(50.0)
        assert report["n_pairs"] == 4
        assert report["per_query"] == [["q1", pytest.approx(0.4), pytest.approx(50.0)]]


class TestConfigPrecedence:
    def test_defaults(self):
        cfg = RunConfig()
        assert (cfg.alpha, cfg.gamma, cfg.nes_threshold) == (0.1971, 0.12, 0.80)
        assert (cfg.top_k, cfg.top_n, cfg.code_bits) == (20, 100, 64)
        assert cfg.probe == 160 and cfg.seed == 42 and cfg.cosine_relevance == 0.70

    @pytest.mark.parametrize(
        "file_text,overrides,expected",
        [
            ("", {}, 0.80),
            ("nes_threshold = 0.5\n", {}, 0.5),
            ("nes_threshold = 0.5\n", {"nes_threshold": 0.9}, 0.9),
            ("# comment only\n", {"nes_threshold": None}, 0.80),
        ],
    )
    def test_table(self, tmp_path, file_text, overrides, expected):
        path = tmp_path / "run.cfg"
        path.write_text(file_text)
        cfg = RunConfig.load(path, overrides)
        assert cfg.nes_threshold == expected

    @pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)])
    def test_nan_fails_every_range(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            check_setting(name, math.nan)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("nonsense = 3\n")
        with pytest.raises(Exception):
            RunConfig.load(path, {})

    def test_cli_flag_beats_file(self, capsys, career_kg_path, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("seed = 7\ncode_bits = 8\n")
        queries = tmp_path / "q.jsonl"
        queries.write_text(json.dumps({"id": "d1", "text": "a nurse"}) + "\n")
        vectors = tmp_path / "v.jsonl"
        vectors.write_text('{"id": "p", "vec": [1.0, 0.0]}\n')
        out_path = tmp_path / "idx.bin"
        code, out, _ = run_cli(
            capsys,
            "--config", str(cfg_file),
            "build-index",
            "--vectors", str(vectors),
            "--out", str(out_path),
            "--code-bits", "2",
        )
        assert code == 0
        assert json.loads(out)["code_bits"] == 2  # flag beat the file's 8


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_no_subcommand(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 1

    def test_missing_required_flag(self, capsys):
        code, _, _ = run_cli(capsys, "expand-query", "--kg", "x.tsv")
        assert code == 1

    def test_data_error(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys,
            "expand-query",
            "--kg", str(tmp_path / "missing.tsv"),
            "--queries", str(tmp_path / "missing.jsonl"),
        )
        assert code == 2
