import json
import re
import sys
import tracemalloc

import numpy as np
import pytest

from iseeq import embeddings
from iseeq.embeddings import (
    TokenDoc,
    VectorStore,
    build_token_doc,
    load_vectors,
    save_vectors,
    typed_field,
)
from iseeq.errors import DataError, EmptyInputError, ParseError

from conftest import make_store


class TestBinaryFormat:
    def test_small_round_trip(self, tmp_path):
        path = tmp_path / "v.bin"
        matrix = np.arange(12, dtype=np.float32).reshape(3, 4)
        save_vectors(path, ["a", "b", "c"], matrix)
        store = load_vectors(path)
        assert store.ids == ["a", "b", "c"]
        assert store.dim == 4
        assert np.array_equal(store.matrix, matrix)

    def test_random_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(5)
        matrix = rng.standard_normal((100, 17)).astype(np.float32)
        ids = [f"row-{i:03d}" for i in range(100)]
        path = tmp_path / "v.bin"
        save_vectors(path, ids, matrix)
        store = load_vectors(path)
        assert store.ids == ids
        assert store.matrix.tobytes() == matrix.tobytes()

    def test_utf8_ids(self, tmp_path):
        path = tmp_path / "v.bin"
        save_vectors(path, ["café", "naïve"], np.eye(2, dtype=np.float32))
        assert load_vectors(path).ids == ["café", "naïve"]

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "v.bin"
        save_vectors(path, ["a", "b"], np.eye(2, dtype=np.float32))
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(DataError):
            load_vectors(path)

    def test_cut_inside_last_row_names_the_byte(self, tmp_path):
        # long ids let the header's row count pass the file-size check, so
        # the short read inside the last row's floats is what fails
        path = tmp_path / "v.bin"
        save_vectors(path, ["a" * 10, "b" * 10], np.ones((2, 2), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:57])  # 60 bytes whole: 3 of the last row's 8 cut
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: truncated at byte 57$"):
            load_vectors(path)

    def test_dim_zero_still_reads_ids(self, tmp_path):
        path = tmp_path / "v.bin"
        save_vectors(path, ["x", "yy", "zzz"], np.empty((3, 0), dtype=np.float32))
        store = load_vectors(path)
        assert store.ids == ["x", "yy", "zzz"]
        assert store.matrix.shape == (3, 0)
        assert store.norms.tolist() == [0.0, 0.0, 0.0]

    def test_count_zero(self, tmp_path):
        path = tmp_path / "v.bin"
        save_vectors(path, [], np.empty((0, 3), dtype=np.float32))
        store = load_vectors(path)
        assert store.ids == []
        assert store.matrix.shape == (0, 3)
        assert store.matrix.dtype == np.float32

    def test_load_peak_memory(self, tmp_path, monkeypatch):
        # the rows are read into the matrix in place: no whole-file buffer,
        # and no more than about one row in flight on top of matrix and ids
        rows, dim = 4000, 64
        ids = [f"row-{i:05d}" for i in range(rows)]
        matrix = np.random.default_rng(2).standard_normal((rows, dim)).astype(np.float32)
        path = tmp_path / "v.bin"
        save_vectors(path, ids, matrix)
        # _finish_store's checks and the store's norms are measured in test_store_peak_memory
        monkeypatch.setattr(embeddings, "_finish_store", lambda ids, matrix, origin: (ids, matrix))
        tracemalloc.start()
        try:
            loaded_ids, loaded = load_vectors(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.tobytes() == matrix.tobytes() and loaded_ids == ids
        held = loaded.nbytes + sys.getsizeof(loaded_ids) + sum(sys.getsizeof(i) for i in loaded_ids)
        assert peak < held + dim * 4 + 16_384  # the open file's 8 KiB buffer included


class TestJsonl:
    def test_unit_vector_norm(self, tmp_path):
        path = tmp_path / "v.jsonl"
        path.write_text('{"id": "p1", "vec": [1, 0, 0, 0]}\n')
        store = load_vectors(path)
        assert store.norms.tolist() == [1.0]

    def test_dim_mismatch(self, tmp_path):
        path = tmp_path / "v.jsonl"
        path.write_text('{"id": "a", "vec": [1, 0]}\n{"id": "b", "vec": [1]}\n')
        with pytest.raises(ParseError, match="dim mismatch"):
            load_vectors(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "v.jsonl"
        path.write_text('{"id": "a", "vec": [1]}\n{"id": "a", "vec": [2]}\n')
        with pytest.raises(DataError, match="duplicate"):
            load_vectors(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "v.jsonl"
        path.write_text('{"id": "a", "vec": [1e400]}\n')
        with pytest.raises(DataError):
            load_vectors(path)

    def test_norms_match_rows(self, tmp_path):
        rng = np.random.default_rng(11)
        rows = rng.standard_normal((20, 6))
        lines = [json.dumps({"id": f"r{i}", "vec": row.tolist()}) for i, row in enumerate(rows)]
        path = tmp_path / "v.jsonl"
        path.write_text("\n".join(lines))
        store = load_vectors(path)
        recomputed = np.linalg.norm(store.matrix.astype(np.float64), axis=1)
        assert np.abs(store.norms - recomputed).max() < 1e-6
        # self-cosine through the stored norms is 1
        cos = np.einsum("ij,ij->i", store.matrix, store.matrix) / store.norms**2
        assert np.abs(cos - 1.0).max() < 1e-6


@pytest.mark.parametrize("rows,dim", [(4097, 17), (2048, 5), (1, 3), (0, 3)])
def test_store_norms_match_the_whole_matrix(rows, dim):
    # blocks of NORM_BLOCK_ROWS rows, and a partial last block, give the
    # bits of one norm over the whole float64 matrix
    matrix = np.random.default_rng(rows).standard_normal((rows, dim)).astype(np.float32)
    store = VectorStore([f"v{i}" for i in range(rows)], matrix)
    assert store.norms.dtype == np.float64
    assert np.array_equal(store.norms, np.linalg.norm(matrix.astype(np.float64), axis=1))


def test_store_peak_memory():
    # Widening the whole matrix to float64 for the norms took about 2x
    # n * dim * 8 bytes; a block at a time takes a few blocks' worth.
    rows, dim = 8000, 128
    matrix = np.random.default_rng(0).standard_normal((rows, dim)).astype(np.float32)
    ids = [f"v{i}" for i in range(rows)]
    tracemalloc.start()
    try:
        VectorStore(ids, matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * rows * dim * 8


def test_store_needs_one_id_per_row():
    with pytest.raises(DataError, match="got 2 ids \\(2 distinct\\) for 3 rows"):
        make_store(["a", "b"], np.ones((3, 2)))


class TestTokenDoc:
    def test_frequency_weights(self):
        store = make_store(["a", "b"], np.eye(2))
        doc = build_token_doc("d", ["a", "a", "b"], store)
        assert doc.tokens == ["a", "b"]
        assert doc.weights.tolist() == [2 / 3, 1 / 3]

    def test_single_token(self):
        store = make_store(["a"], [[1.0, 2.0]])
        doc = build_token_doc("d", ["a"], store)
        assert doc.weights.tolist() == [1.0]

    def test_oov_dropped_lenient(self, caplog):
        store = make_store(["w0", "w1", "w2"], np.eye(3))
        tokens = ["w0"] * 10 + ["w1"] * 20 + ["w2"] * 15 + ["oov"] * 5
        doc = build_token_doc("d", tokens, store)
        assert doc.tokens == ["w0", "w1", "w2"]
        assert np.allclose(doc.weights, [10 / 45, 20 / 45, 15 / 45])
        assert abs(doc.weights.sum() - 1.0) < 1e-6
        assert "d: dropped 5 tokens missing from lookup" in caplog.text

    def test_all_oov_rejected(self):
        store = make_store(["a"], [[1.0]])
        with pytest.raises(EmptyInputError):
            build_token_doc("d", ["x", "y"], store)

    def test_vectors_are_the_lookup_rows(self):
        store = make_store(["a", "b", "c"], np.arange(6, dtype=np.float32).reshape(3, 2))
        doc = build_token_doc("d", ["c", "a", "c"], store)
        assert doc.tokens == ["c", "a"] and doc.vectors.dtype == np.float32
        assert np.array_equal(doc.vectors, np.vstack([store.row("c"), store.row("a")]))


class TestTypedField:
    RECORD = {"s": "x", "toks": ["a", "b"], "i": 3, "f": 0.5, "b": True, "big": 10**400,
              "nan": float("nan"), "mixed": ["a", 1], "vec": [1, 2.5], "nanvec": [1.0, float("nan")],
              "nested": [[1.0]]}

    def get(self, key, kind, **kw):
        return typed_field(self.RECORD, key, kind, "f.jsonl", 7, **kw)

    def test_accepted(self):
        assert self.get("s", str) == "x"
        assert self.get("toks", list[str]) == ["a", "b"]
        assert self.get("f", float) == 0.5
        value = self.get("i", float)
        assert value == 3.0 and type(value) is float
        assert self.get("absent", float, default=None) is None

    def test_accepted_new_kinds(self):
        assert self.get("i", int) == 3
        vec = self.get("vec", list[float])
        assert vec == [1.0, 2.5] and all(type(v) is float for v in vec)
        assert self.get("mixed", list) == ["a", 1]
        assert self.get("mixed", object) == ["a", 1] and self.get("b", object) is True
        assert self.get("absent", int, default=1) == 1

    @pytest.mark.parametrize(
        "key,kind,message",
        [
            ("absent", str, "missing 'absent'"),
            ("i", str, "'i' must be a string, not int"),
            ("s", list[str], "'s' must be a list of strings"),
            ("mixed", list[str], "'mixed' must be a list of strings"),
            ("b", float, "'b' must be a number, not bool"),
            ("s", float, "'s' must be a number, not str"),
            ("nan", float, "'nan' must be a finite number, not nan"),
            ("big", float, "'big' must be a finite number, not inf"),
            ("b", int, "'b' must be an integer, not bool"),
            ("f", int, "'f' must be an integer, not float"),
            ("s", list, "'s' must be a list, not str"),
            ("s", list[float], "'s' must be a list, not str"),
            ("mixed", list[float], "'mixed' must be a number, not str"),
            ("nanvec", list[float], "'nanvec' must be a finite number, not nan"),
            ("nested", list[float], "'nested' must be a number, not list"),
            ("absent", object, "missing 'absent'"),
        ],
    )
    def test_rejected_with_path_and_line(self, key, kind, message):
        with pytest.raises(ParseError, match=message) as info:
            self.get(key, kind)
        assert info.value.line_no == 7 and "f.jsonl" in str(info.value)
