"""Truncated, inconsistent, mistyped and non-UTF-8 input files end in exit 2.

Every case runs through ``cli.main``: a reader that lets a low-level
error escape shows up here as a raised exception or an exit code other
than 2.
"""

import contextlib
import io
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from iseeq.cli import main
from iseeq.embeddings import save_vectors
from iseeq.sitq import build_index, save_index

from conftest import make_store
from test_golden import invocations, make_workspace


GOLDEN = Path(__file__).parent / "data" / "golden"


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().err


def exit_code(*argv) -> int:
    """``cli.main``'s exit code, its stdout and stderr discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([str(a) for a in argv])


# Truncate a valid file, then overwrite up to three bytes, each either
# any byte or one that JSON gives meaning to.
CUTS = st.floats(min_value=0.0, max_value=1.0)
EDITS = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=1.0),
              st.one_of(st.integers(0, 255), st.sampled_from(b'"[]{},:.-+e0123456789tfnN \n'))),
    max_size=3,
)
FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def damaged(data: bytes, cut: float, edits: list[tuple[float, int]]) -> bytes:
    out = bytearray(data[: round(cut * len(data))])
    for where, byte in edits:
        if out:
            out[min(int(where * len(out)), len(out) - 1)] = byte
    return bytes(out)


@pytest.fixture
def workspace(tmp_path):
    """A four-passage retrieval workspace; ``index_bytes`` adds a 2-bit index."""
    (tmp_path / "kg.tsv").write_text("solar\tisa\tpanel\n", encoding="utf-8")
    (tmp_path / "q.jsonl").write_text(json.dumps({"id": "q0", "text": "solar power"}) + "\n")
    texts = ["solar power", "wind power", "solar panel", "grid"]
    (tmp_path / "p.jsonl").write_text(
        "".join(json.dumps({"id": f"p{i}", "text": t}) + "\n" for i, t in enumerate(texts))
    )
    rng = np.random.default_rng(3)
    save_vectors(tmp_path / "pv.bin", [f"p{i}" for i in range(4)], rng.standard_normal((4, 2)))
    save_vectors(tmp_path / "qv.bin", ["q0"], rng.standard_normal((1, 2)))
    vocab = ["solar", "power", "wind", "panel", "grid", "isa"]
    save_vectors(tmp_path / "tv.bin", vocab, rng.standard_normal((len(vocab), 2)))
    return tmp_path


INPUTS = {"kg": "kg.tsv", "queries": "q.jsonl", "passages": "p.jsonl",
          "passage_vectors": "pv.bin", "query_vectors": "qv.bin", "token_vectors": "tv.bin"}


def inputs_argv(ws, **files):
    """The input files that ``retrieve`` and ``coverage`` share; a keyword
    such as ``passages=path`` replaces one."""
    return [arg for key, name in INPUTS.items()
            for arg in (f"--{key.replace('_', '-')}", files.get(key, ws / name))]


def retrieve_argv(ws, index, **files):
    return ["retrieve", *inputs_argv(ws, **files), "--index", index]


@pytest.fixture
def index_bytes(workspace, capsys):
    path = workspace / "index.bin"
    code, err = run_cli(capsys, "build-index", "--vectors", workspace / "pv.bin",
                        "--out", path, "--code-bits", "2")
    assert code == 0, err
    code, err = run_cli(capsys, *retrieve_argv(workspace, path))
    assert code == 0, err
    return path.read_bytes()


class TestVectorsFile:
    def valid_bytes(self, tmp_path) -> bytes:
        path = tmp_path / "ok.bin"
        save_vectors(path, ["a", "bé", "c"], np.arange(6, dtype=np.float32).reshape(3, 2))
        return path.read_bytes()

    def build(self, capsys, tmp_path, data: bytes):
        path = tmp_path / "v.bin"
        path.write_bytes(data)
        return run_cli(capsys, "build-index", "--vectors", path, "--out", tmp_path / "i.bin")

    def test_every_strict_prefix_exits_2(self, capsys, tmp_path):
        data = self.valid_bytes(tmp_path)
        assert self.build(capsys, tmp_path, data)[0] == 0
        for n in range(len(data)):
            code, err = self.build(capsys, tmp_path, data[:n])
            assert code == 2, (n, err)

    def test_count_beyond_file_size(self, capsys, tmp_path):
        data = b"ISEQVEC1" + struct.pack("<IQ", 4, 10**12) + b"\x01\x00a" + b"\x00" * 16
        code, err = self.build(capsys, tmp_path, data)
        assert code == 2 and "file too short" in err

    def test_id_not_utf8(self, capsys, tmp_path):
        data = self.valid_bytes(tmp_path)
        bad = data.replace(b"\x01\x00a", b"\x01\x00\xff", 1)
        assert bad != data
        code, err = self.build(capsys, tmp_path, bad)
        assert code == 2 and "UTF-8" in err

    @FUZZ
    @given(cut=CUTS, edits=EDITS)
    def test_damaged_file_exits_0_or_2(self, tmp_path, cut, edits):
        path = tmp_path / "v.bin"
        path.write_bytes(damaged(self.valid_bytes(tmp_path), cut, edits))
        assert exit_code("build-index", "--vectors", path, "--out", tmp_path / "i.bin") in (0, 2)


class TestIndexFile:
    def test_every_strict_prefix_exits_2(self, capsys, workspace, index_bytes):
        path = workspace / "cut.bin"
        for n in range(len(index_bytes)):
            path.write_bytes(index_bytes[:n])
            code, err = run_cli(capsys, *retrieve_argv(workspace, path))
            assert code == 2, (n, err)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            (1, 9, "inconsistent header"),  # dim_aug != dim + 1
            (3, 2, "inconsistent header"),  # words != ceil(code_bits / 64)
            (4, 10**12, "file too short"),  # count
        ],
    )
    def test_bad_header_field(self, capsys, workspace, index_bytes, field, value, message):
        header = list(struct.unpack("<IIIIQd", index_bytes[8:40]))
        header[field] = value
        path = workspace / "bad.bin"
        path.write_bytes(index_bytes[:8] + struct.pack("<IIIIQd", *header) + index_bytes[40:])
        code, err = run_cli(capsys, *retrieve_argv(workspace, path))
        assert code == 2 and message in err

    def test_trailing_bytes(self, capsys, workspace, index_bytes):
        path = workspace / "long.bin"
        path.write_bytes(index_bytes + b"\x00")
        code, err = run_cli(capsys, *retrieve_argv(workspace, path))
        assert code == 2 and "trailing bytes" in err

    def test_id_not_utf8(self, capsys, workspace, index_bytes):
        path = workspace / "bad.bin"
        path.write_bytes(index_bytes[:-1] + b"\xff")
        code, err = run_cli(capsys, *retrieve_argv(workspace, path))
        assert code == 2 and "UTF-8" in err

    def test_duplicated_id(self, capsys, workspace, index_bytes):
        # the last id, p3, renamed to p2: four codes over three ids
        assert index_bytes.endswith(b"\x02\x00p3")
        path = workspace / "dup.bin"
        path.write_bytes(index_bytes[:-1] + b"2")
        code, err = run_cli(capsys, *retrieve_argv(workspace, path))
        assert code == 2, err
        assert "'p2' is indexed more than once" in err and str(path) in err

    def test_index_over_a_subset_of_the_store(self, capsys, workspace, index_bytes):
        rng = np.random.default_rng(5)
        save_vectors(workspace / "pv3.bin", ["p0", "p1", "p2"], rng.standard_normal((3, 2)))
        path = workspace / "subset.bin"
        assert exit_code("build-index", "--vectors", workspace / "pv3.bin", "--out", path) == 0
        code, err = run_cli(capsys, *retrieve_argv(workspace, path))
        assert code == 2, err
        assert "indexes 3 of the store's 4 vectors; 'p3' is not indexed" in err and str(path) in err

    @FUZZ
    @given(cut=CUTS, edits=EDITS)
    def test_damaged_file_exits_0_or_2(self, workspace, index_bytes, cut, edits):
        path = workspace / "damaged.bin"
        path.write_bytes(damaged(index_bytes, cut, edits))
        assert exit_code(*retrieve_argv(workspace, path)) in (0, 2)

    def test_save_rejects_id_longer_than_u16(self, tmp_path):
        index = build_index(make_store(["x" * 70_000], [[1.0, 2.0]]), code_bits=2)
        with pytest.raises(ValueError, match="id too long"):
            save_index(index, tmp_path / "i.bin")


class TestJsonlFile:
    @pytest.mark.parametrize(
        "line,message",
        [
            (b'{"id": "p0", "text": "caf\xe9"}', "invalid UTF-8"),
            (b"[1, 2]", "JSON object"),
            (b'{"id": "p0", "text": 5}', "must be a string"),
        ],
    )
    def test_bad_passage_line(self, capsys, workspace, index_bytes, line, message):
        (workspace / "p.jsonl").write_bytes(b'{"id": "p1", "text": "x"}\n' + line + b"\n")
        code, err = run_cli(capsys, *retrieve_argv(workspace, workspace / "index.bin"))
        assert code == 2 and message in err and "line 2" in err

    def test_query_text_not_a_string(self, capsys, workspace, index_bytes):
        (workspace / "q.jsonl").write_text('{"id": "q0", "text": ["solar", "power"]}\n')
        code, err = run_cli(capsys, *retrieve_argv(workspace, workspace / "index.bin"))
        assert code == 2 and "must be a string" in err and "line 1" in err

    @FUZZ
    @given(cut=CUTS, edits=EDITS)
    def test_damaged_passages_exit_0_or_2(self, workspace, index_bytes, cut, edits):
        path = workspace / "damaged.jsonl"
        path.write_bytes(damaged((workspace / "p.jsonl").read_bytes(), cut, edits))
        assert exit_code(*retrieve_argv(workspace, workspace / "index.bin", passages=path)) in (0, 2)

    @FUZZ
    @given(cut=CUTS, edits=EDITS)
    def test_damaged_queries_exit_0_or_2(self, golden_ws, tmp_path, cut, edits):
        path = tmp_path / "queries.jsonl"
        path.write_bytes(damaged(Path(golden_ws["queries.jsonl"]).read_bytes(), cut, edits))
        assert exit_code("expand-query", "--kg", golden_ws["kg"], "--queries", path) in (0, 2)


def _vectors_without_p0(ws):
    save_vectors(ws / "pv.bin", ["p1", "p2", "p3"], np.random.default_rng(4).standard_normal((3, 2)))


def _orphan_vector(ws):
    ids = ["p0", "p1", "p2", "p3", "orphan"]
    save_vectors(ws / "pv.bin", ids, np.random.default_rng(4).standard_normal((5, 2)))


def _repeated_passage(ws):
    with (ws / "p.jsonl").open("a") as fh:
        fh.write(json.dumps({"id": "p1", "text": "solar again"}) + "\n")


RETRIEVE, COVERAGE = ["retrieve"], ["coverage", "--batch-size", "2"]


@pytest.mark.parametrize(
    "command,edit,bad_id",
    [
        pytest.param(RETRIEVE, _vectors_without_p0, "p0", id="retrieve"),
        pytest.param(COVERAGE, _vectors_without_p0, "p0", id="coverage"),
        pytest.param(RETRIEVE, _orphan_vector, "orphan", id="retrieve-orphan-vector"),
        pytest.param(COVERAGE, _orphan_vector, "orphan", id="coverage-orphan-vector"),
        pytest.param(RETRIEVE, _repeated_passage, "p1", id="retrieve-repeated-passage"),
        pytest.param(COVERAGE, _repeated_passage, "p1", id="coverage-repeated-passage"),
    ],
)
def test_passage_missing_from_vectors(capsys, workspace, command, edit, bad_id):
    """The passages and ``--passage-vectors`` must hold the same ids, each once."""
    edit(workspace)
    code, err = run_cli(capsys, *command, *inputs_argv(workspace))
    assert code == 2, err
    assert f"'{bad_id}'" in err and str(workspace / "p.jsonl") in err and str(workspace / "pv.bin") in err


@pytest.mark.parametrize("command", [RETRIEVE, COVERAGE], ids=["retrieve", "coverage"])
def test_query_missing_from_vectors(capsys, workspace, command):
    """Each query needs a row in ``--query-vectors``; the message names both files."""
    save_vectors(workspace / "qv.bin", ["q1"], np.random.default_rng(4).standard_normal((1, 2)))
    code, err = run_cli(capsys, *command, *inputs_argv(workspace))
    assert code == 2, err
    assert "'q0'" in err and str(workspace / "q.jsonl") in err and str(workspace / "qv.bin") in err


@pytest.mark.parametrize("command", [RETRIEVE, COVERAGE], ids=["retrieve", "coverage"])
def test_query_without_token_vectors(capsys, workspace, command):
    """A query with no word in ``--token-vectors`` names the queries and token-vectors files."""
    save_vectors(workspace / "tv.bin", ["grid"], np.ones((1, 2)))
    code, err = run_cli(capsys, *command, *inputs_argv(workspace))
    assert code == 2, err
    assert "'q0'" in err and str(workspace / "q.jsonl") in err and str(workspace / "tv.bin") in err


class TestTextFile:
    def test_kg_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "kg.tsv"
        path.write_bytes(b"solar\tisa\tpanel\nwind\tisa\t\xff\n")
        code, err = run_cli(capsys, "kg", "stats", path)
        assert code == 2 and "invalid UTF-8" in err and "line 2" in err

    @pytest.mark.parametrize("command", ["kg", "expand-query", "retrieve", "coverage"])
    def test_kg_malformed_line(self, capsys, workspace, command):
        kg = workspace / "kg.tsv"
        kg.write_text("solar\tisa\tpanel\nwind\tisa\n", encoding="utf-8")
        argv = {
            "kg": ["kg", "stats", kg],
            "expand-query": ["expand-query", "--kg", kg, "--queries", workspace / "q.jsonl"],
            "retrieve": ["retrieve", *inputs_argv(workspace)],
            "coverage": ["coverage", *inputs_argv(workspace), "--batch-size", 2],
        }[command]
        code, err = run_cli(capsys, *argv)
        assert_names_file_and_line(code, err, kg, 2, "expected 3 tab-separated fields, got 'wind\\tisa'")

    def test_config_not_utf8(self, capsys, workspace, index_bytes):
        config = workspace / "run.cfg"
        config.write_bytes(b"top_k = 3\n# \xff\n")
        code, err = run_cli(capsys, "--config", config, *retrieve_argv(workspace, workspace / "index.bin"))
        assert code == 2 and "invalid UTF-8" in err and "line 2" in err

    @pytest.mark.parametrize(
        "line,message",
        [
            ("top_k = 0", "top_k must be >= 1, not 0"),
            ("probe = -8", "probe must be >= 1, not -8"),
        ],
    )
    def test_config_count_below_1(self, capsys, golden_ws, tmp_path, line, message):
        config = tmp_path / "run.cfg"
        config.write_text(f"seed = 3\n{line}\n")
        code, err = run_cli(capsys, "--config", config, *eval_argv(golden_ws))
        assert_names_file_and_line(code, err, config, 2, message)

    @pytest.mark.parametrize(
        "line,message",
        [
            ("alpha = 2", "alpha must be in [0, 1], not 2.0"),
            ("gamma = -1", "gamma must be in [0, 1], not -1.0"),
            ("alpha = nan", "alpha must be in [0, 1], not nan"),
            ("nes_threshold = 1.5", "nes_threshold must be in [0, 1), not 1.5"),
            ("seed = -1", "seed must be >= 0, not -1"),
            ("cosine_relevance = 7", "cosine_relevance must be in [-1, 1], not 7.0"),
            ("max_hops = 0", "max_hops must be >= 1, not 0"),
            ("code_bits = 10000000", "code_bits must be in [1, 1024], not 10000000"),
        ],
    )
    def test_config_value_out_of_range(self, capsys, golden_ws, tmp_path, line, message):
        # every setting in the file is checked, also those eval-retriever does not read
        config = tmp_path / "run.cfg"
        config.write_text(f"seed = 3\n{line}\n")
        code, err = run_cli(capsys, "--config", config, *eval_argv(golden_ws))
        assert_names_file_and_line(code, err, config, 2, message)

    @pytest.mark.parametrize("name", ["kg_stats", "expand_query", "build_index", "retrieve_index", "coverage",
                                      "eval_retriever", "score_losses", "wmd", "evaluate"])
    def test_config_checked_by_every_command(self, capsys, golden_ws, tmp_path, name):
        config = tmp_path / "run.cfg"
        config.write_text("seed = 3\ntop_k = 0\n")
        code, err = run_cli(capsys, "--config", config, *dict(invocations(golden_ws))[name])
        assert_names_file_and_line(code, err, config, 2, "top_k must be >= 1, not 0")

    def test_config_alpha_out_of_range_in_score_losses(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("alpha = 2\n")
        code, err = run_cli(capsys, "--config", config, "score-losses", "--batch", GOLDEN / "loss_batch.jsonl")
        assert_names_file_and_line(code, err, config, 1, "alpha must be in [0, 1], not 2.0")

    @FUZZ
    @given(cut=CUTS, edits=EDITS)
    def test_damaged_kg_exits_0_or_2(self, tmp_path, cut, edits):
        path = tmp_path / "kg.tsv"
        path.write_bytes(damaged((Path(__file__).parent / "data" / "career_kg.tsv").read_bytes(), cut, edits))
        assert exit_code("kg", "stats", path) in (0, 2)

    @FUZZ
    @given(cut=CUTS, edits=EDITS)
    def test_damaged_config_exits_0_or_2(self, golden_ws, tmp_path, cut, edits):
        # eval-retriever reads only top_k and cosine_relevance, so no
        # damaged size setting can make the run itself large
        path = tmp_path / "run.cfg"
        path.write_bytes(damaged(CONFIG, cut, edits))
        assert exit_code("--config", path, *eval_argv(golden_ws)) in (0, 2)


CONFIG = b"""# every setting, in file order
alpha = 0.2
gamma = 0.1
nes_threshold = 0.75
top_k = 5
top_n = 50
code_bits = 16
itq_iters = 5
probe = 40  # Hamming candidates
seed = 7
cosine_relevance = 0.5
"""


class TestLossBatchFile:
    @pytest.mark.parametrize(
        "record,message",
        [
            ({"generated": "what is it", "reference": ["what", "is", "it"], "gen_prob": 0.5},
             "'generated' must be a list of strings"),
            ({"generated": ["a"], "reference": ["a"], "gen_prob": True}, "'gen_prob' must be a number"),
        ],
    )
    def test_mistyped_field(self, capsys, tmp_path, record, message):
        path = tmp_path / "batch.jsonl"
        path.write_text(json.dumps(record) + "\n")
        code, err = run_cli(capsys, "score-losses", "--batch", path)
        assert code == 2 and message in err and "line 1" in err and str(path) in err

    @FUZZ
    @given(cut=CUTS, edits=EDITS)
    def test_damaged_file_exits_0_or_2(self, tmp_path, cut, edits):
        path = tmp_path / "batch.jsonl"
        path.write_bytes(damaged((GOLDEN / "loss_batch.jsonl").read_bytes(), cut, edits))
        assert exit_code("score-losses", "--batch", path) in (0, 2)


class TestEvaluateFiles:
    @pytest.mark.parametrize(
        "line,message",
        [
            ('{"score": "x", "query_id": "q0"}', "'score' must be a number, not str"),
            ('{"score": NaN, "query_id": "q0"}', "'score' must be a finite number, not nan"),
            ('{"gen_id": "g0", "query_id": "q0"}', "missing 'score'"),
        ],
    )
    def test_bad_score(self, capsys, tmp_path, line, message):
        path = tmp_path / "sr.jsonl"
        path.write_text('{"score": 0.5}\n' + line + "\n")
        code, err = run_cli(capsys, "evaluate", "--sr", path, "--lc", GOLDEN / "pair_labels.jsonl")
        assert code == 2 and message in err and "line 2" in err and str(path) in err

    def test_empty_inputs(self, capsys, tmp_path):
        path = tmp_path / "sr.jsonl"
        path.write_text("\n")
        code, err = run_cli(capsys, "evaluate", "--sr", path)
        assert code == 2 and "no pair scores or labels" in err

    @FUZZ
    @given(which=st.sampled_from(["sr", "lc"]), cut=CUTS, edits=EDITS)
    def test_damaged_file_exits_0_or_2(self, tmp_path, which, cut, edits):
        files = {"sr": GOLDEN / "pair_scores.jsonl", "lc": GOLDEN / "pair_labels.jsonl"}
        path = tmp_path / f"{which}.jsonl"
        path.write_bytes(damaged(files[which].read_bytes(), cut, edits))
        files[which] = path
        assert exit_code("evaluate", "--sr", files["sr"], "--lc", files["lc"]) in (0, 2)


@pytest.fixture(scope="module")
def golden_ws(tmp_path_factory):
    """The golden workspace, its recorded ``retrieve --index`` stdout as the
    results file, and seeded question-vector files for its two queries."""
    root = tmp_path_factory.mktemp("golden_ws")
    ws = make_workspace(root)
    ws["results.json"] = str(GOLDEN / "retrieve_index.out")
    (first,) = json.loads((GOLDEN / "retrieve_index.out").read_text())["results"][:1]
    rng = np.random.default_rng(11)
    vec = lambda: [round(float(x), 3) for x in rng.standard_normal(4)]
    gt = [{"query_id": qid, "vec": vec()} for qid in ("q0", "q0", "q1")]
    questions = [{"query_id": "q0", "passage_id": row[0], "vec": vec()} for row in first["ranked"][:12]]
    for name, records in (("gt_vecs.jsonl", gt), ("question_vecs.jsonl", questions)):
        ws[name] = str(root / name)
        Path(ws[name]).write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return ws


def eval_argv(ws, results=None, relevance=None):
    return ["eval-retriever", "--results", results or ws["results.json"],
            "--relevance", relevance or ws["relevance.jsonl"]]


def questions_argv(ws, questions=None, gt=None):
    return ["eval-retriever", "--results", ws["results.json"],
            "--question-vecs", questions or ws["question_vecs.jsonl"],
            "--gt-question-vecs", gt or ws["gt_vecs.jsonl"]]


def expand_argv(ws, phrases):
    return ["expand-query", "--kg", ws["kg"], "--queries", ws["queries.jsonl"], "--phrases", phrases]


def wmd_argv(docs_a=None, docs_b=None):
    return ["wmd", "--docs-a", docs_a or GOLDEN / "wmd_a.jsonl", "--docs-b", docs_b or GOLDEN / "wmd_b.jsonl",
            "--vectors", GOLDEN / "token_vecs.jsonl"]


def first_record_with(path, **changes) -> str:
    """The first line of a JSONL file as JSON text, with ``changes`` applied
    (a value of ``None`` deletes the key)."""
    record = json.loads(Path(path).read_text(encoding="utf-8").splitlines()[0])
    for key, value in changes.items():
        if value is None:
            del record[key]
        else:
            record[key] = value
    return json.dumps(record)


def assert_names_file_and_line(code, err, path, line_no, message):
    assert code == 2, err
    assert message in err and f"line {line_no}" in err and str(path) in err, err


def test_golden_question_files_are_valid(capsys, golden_ws):
    assert run_cli(capsys, *questions_argv(golden_ws))[0] == 0


class TestResultsFile:
    @pytest.mark.parametrize(
        "edit,message",
        [
            pytest.param(lambda text: text[: len(text) // 2], "Expecting", id="truncated"),
            pytest.param(lambda text: "[1,2]", "expected a JSON object", id="not-an-object"),
            pytest.param(lambda text: text[: text.index('"results":')] + '"results":[]}', "no results",
                         id="no-results"),
            pytest.param(lambda text: text.replace('"ranked":', '"ranked":"abc","x":', 1),
                         "'ranked' must be a list, not str", id="ranked-string"),
            pytest.param(lambda text: text.replace('"ranked":', '"unranked":', 1), "missing 'ranked'",
                         id="ranked-missing"),
            pytest.param(lambda text: text.replace("1.7514965829485072", "NaN", 1),
                         "'wmd' must be a finite number, not nan", id="wmd-nan"),
            pytest.param(lambda text: text.replace(",1.0],", ",true],", 1),
                         "'nes' must be a number, not bool", id="nes-bool"),
            pytest.param(lambda text: text.replace('"ranked":[["p0065",', '"ranked":[["p0065",0.5,', 1),
                         "must be [passage_id, wmd, nes]", id="row-of-four"),
        ],
    )
    def test_bad_results(self, capsys, golden_ws, tmp_path, edit, message):
        text = (GOLDEN / "retrieve_index.out").read_text(encoding="utf-8").rstrip("\n")
        path = tmp_path / "results.json"
        path.write_text(edit(text) + "\n", encoding="utf-8")
        code, err = run_cli(capsys, *eval_argv(golden_ws, results=path))
        assert_names_file_and_line(code, err, path, 1, message)

    def test_infinity_wmd_is_read(self, golden_ws):
        assert "Infinity" in Path(golden_ws["results.json"]).read_text()
        assert exit_code(*eval_argv(golden_ws)) == 0

    @FUZZ
    @given(cut=CUTS, edits=EDITS)
    def test_damaged_file_exits_0_or_2(self, golden_ws, tmp_path, cut, edits):
        path = tmp_path / "results.json"
        path.write_bytes(damaged((GOLDEN / "retrieve_index.out").read_bytes(), cut, edits))
        assert exit_code(*eval_argv(golden_ws, results=path)) in (0, 2)


class TestRelevanceFile:
    @pytest.mark.parametrize(
        "changes,message",
        [
            ({"n_questions": "x"}, "'n_questions' must be an integer, not str"),
            ({"n_questions": 2.0}, "'n_questions' must be an integer, not float"),
            ({"relevant": "p1"}, "'relevant' must be a list, not str"),
            ({"relevant": None}, "missing 'relevant'"),
            ({"query_id": None}, "missing 'query_id'"),
            ({"n_questions": 0}, "'n_questions' must be >= 1, not 0"),
        ],
    )
    def test_bad_record(self, capsys, golden_ws, tmp_path, changes, message):
        path = tmp_path / "relevance.jsonl"
        path.write_text(first_record_with(golden_ws["relevance.jsonl"], **changes) + "\n")
        code, err = run_cli(capsys, *eval_argv(golden_ws, relevance=path))
        assert_names_file_and_line(code, err, path, 1, message)

    @FUZZ
    @given(cut=CUTS, edits=EDITS)
    def test_damaged_file_exits_0_or_2(self, golden_ws, tmp_path, cut, edits):
        path = tmp_path / "relevance.jsonl"
        path.write_bytes(damaged(Path(golden_ws["relevance.jsonl"]).read_bytes(), cut, edits))
        assert exit_code(*eval_argv(golden_ws, relevance=path)) in (0, 2)


class TestQuestionVectorFiles:
    @pytest.mark.parametrize(
        "line,message",
        [
            ('{"query_id": "q0", "passage_id": "p0001", "vec": "ab"}', "'vec' must be a list, not str"),
            ('{"query_id": "q0", "passage_id": "p0001", "vec": [1, 2, 3]}',
             "'vec' has 3 entries, expected 4"),
            ('{"query_id": "q0", "passage_id": "p0001", "vec": [1, NaN, 3, 4]}',
             "'vec' must be a finite number, not nan"),
            ('{"query_id": "q0", "vec": [1, 2, 3, 4]}', "missing 'passage_id'"),
        ],
    )
    def test_bad_question_line(self, capsys, golden_ws, tmp_path, line, message):
        path = tmp_path / "questions.jsonl"
        path.write_text(Path(golden_ws["question_vecs.jsonl"]).read_text() + line + "\n")
        code, err = run_cli(capsys, *questions_argv(golden_ws, questions=path))
        assert_names_file_and_line(code, err, path, 13, message)

    def test_ground_truth_dims_agree(self, capsys, golden_ws, tmp_path):
        path = tmp_path / "gt.jsonl"
        path.write_text(Path(golden_ws["gt_vecs.jsonl"]).read_text() + '{"query_id": "q1", "vec": [1, 2]}\n')
        code, err = run_cli(capsys, *questions_argv(golden_ws, gt=path))
        assert_names_file_and_line(code, err, path, 4, "'vec' has 2 entries, expected 4")

    @FUZZ
    @given(which=st.sampled_from(["question_vecs.jsonl", "gt_vecs.jsonl"]), cut=CUTS, edits=EDITS)
    def test_damaged_file_exits_0_or_2(self, golden_ws, tmp_path, which, cut, edits):
        path = tmp_path / which
        path.write_bytes(damaged(Path(golden_ws[which]).read_bytes(), cut, edits))
        files = {"questions": path} if which == "question_vecs.jsonl" else {"gt": path}
        assert exit_code(*questions_argv(golden_ws, **files)) in (0, 2)


class TestPhrasesFile:
    @pytest.mark.parametrize(
        "changes,message",
        [
            ({"phrases": "solar panel"}, "'phrases' must be a list of strings"),
            ({"phrases": None}, "missing 'phrases'"),
            ({"id": None}, "missing 'id'"),
        ],
    )
    def test_bad_record(self, capsys, golden_ws, tmp_path, changes, message):
        path = tmp_path / "phrases.jsonl"
        path.write_text(first_record_with(GOLDEN / "phrases.jsonl", **changes) + "\n")
        code, err = run_cli(capsys, *expand_argv(golden_ws, path))
        assert_names_file_and_line(code, err, path, 1, message)

    @FUZZ
    @given(cut=CUTS, edits=EDITS)
    def test_damaged_file_exits_0_or_2(self, golden_ws, tmp_path, cut, edits):
        path = tmp_path / "phrases.jsonl"
        path.write_bytes(damaged((GOLDEN / "phrases.jsonl").read_bytes(), cut, edits))
        assert exit_code(*expand_argv(golden_ws, path)) in (0, 2)


class TestWmdDocsFile:
    @pytest.mark.parametrize(
        "changes,message",
        [
            ({"tokens": "solar"}, "'tokens' must be a list of strings"),
            ({"tokens": None}, "missing 'tokens'"),
            ({"id": None}, "missing 'id'"),
        ],
    )
    def test_bad_record(self, capsys, tmp_path, changes, message):
        path = tmp_path / "docs.jsonl"
        path.write_text(first_record_with(GOLDEN / "wmd_a.jsonl", **changes) + "\n")
        code, err = run_cli(capsys, *wmd_argv(docs_a=path))
        assert_names_file_and_line(code, err, path, 1, message)

    @FUZZ
    @given(which=st.sampled_from(["wmd_a.jsonl", "wmd_b.jsonl"]), cut=CUTS, edits=EDITS)
    def test_damaged_file_exits_0_or_2(self, tmp_path, which, cut, edits):
        path = tmp_path / which
        path.write_bytes(damaged((GOLDEN / which).read_bytes(), cut, edits))
        files = {"docs_a": path} if which == "wmd_a.jsonl" else {"docs_b": path}
        assert exit_code(*wmd_argv(**files)) in (0, 2)


class TestVectorJsonl:
    @pytest.mark.parametrize(
        "vec,message",
        [
            ('["1", "2"]', "'vec' must be a number, not str"),
            ("[true, 3]", "'vec' must be a number, not bool"),
            ("[[1, 2]]", "'vec' must be a number, not list"),
            ('"ab"', "'vec' must be a list, not str"),
        ],
    )
    def test_vec_must_be_numbers(self, capsys, tmp_path, vec, message):
        path = tmp_path / "v.jsonl"
        path.write_text('{"id": "a", "vec": [1, 2]}\n{"id": "b", "vec": ' + vec + "}\n")
        code, err = run_cli(capsys, "build-index", "--vectors", path, "--out", tmp_path / "i.bin")
        assert_names_file_and_line(code, err, path, 2, message)

    @pytest.mark.parametrize(
        "vec_id,message",
        [("x" * 70_000, "'id' is 70000 UTF-8 bytes; at most 65535 fit"), ("\ud800", "'id' is not valid Unicode")],
        ids=["too_long", "lone_surrogate"],
    )
    def test_id_the_binary_formats_cannot_hold(self, capsys, tmp_path, vec_id, message):
        path = tmp_path / "v.jsonl"
        path.write_text('{"id": "a", "vec": [1, 2]}\n' + json.dumps({"id": vec_id, "vec": [3, 4]}) + "\n")
        code, err = run_cli(capsys, "build-index", "--vectors", path, "--out", tmp_path / "i.bin")
        assert_names_file_and_line(code, err, path, 2, message)
        assert not (tmp_path / "i.bin").exists()

    def test_id_of_65535_bytes_is_indexed(self, capsys, tmp_path):
        path = tmp_path / "v.jsonl"
        path.write_text('{"id": "a", "vec": [1, 2]}\n' + json.dumps({"id": "x" * 65_535, "vec": [3, 4]}) + "\n")
        code, err = run_cli(capsys, "build-index", "--vectors", path, "--out", tmp_path / "i.bin")
        assert code == 0, err

    @FUZZ
    @given(cut=CUTS, edits=EDITS)
    def test_damaged_file_exits_0_or_2(self, tmp_path, cut, edits):
        valid = b'{"id": "a", "vec": [1, 2]}\n{"id": "b", "vec": [0.5, -3e2]}\n{"id": 7, "vec": [0, 1]}\n'
        path = tmp_path / "v.jsonl"
        path.write_bytes(damaged(valid, cut, edits))
        assert exit_code("build-index", "--vectors", path, "--out", tmp_path / "i.bin") in (0, 2)
