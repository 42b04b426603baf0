import tracemalloc

import numpy as np
import pytest

from iseeq import sitq
from iseeq.errors import DataError, EmptyInputError
from iseeq.sitq import build_index, encode_query, load_index, query, save_index

from conftest import make_store, random_store
from oracles import brute_mips_ids, itq_build_allocating, sitq_query_lexsort


class TestBuild:
    def test_identical_vectors_identical_codes(self):
        store = make_store(["a", "b"], [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        index = build_index(store, code_bits=8, itq_iters=5, seed=0)
        assert np.array_equal(index.codes[0], index.codes[1])

    def test_antipodal_codes_complement(self):
        x = np.array([0.3, -1.2, 0.7])
        store = make_store(["p", "n"], [x, -x])
        index = build_index(store, code_bits=1, itq_iters=3, seed=1)
        # augmented residual is zero for both (norm equals the max norm)
        assert index.max_norm == pytest.approx(np.linalg.norm(x), rel=1e-6)
        assert (index.codes[0] ^ index.codes[1]) & 1 == 1

    def test_quantization_error_monotone(self):
        rng = np.random.default_rng(3)
        store = make_store([f"v{i}" for i in range(1000)], rng.standard_normal((1000, 32)))
        index = build_index(store, code_bits=64, itq_iters=50, seed=7)
        objective = np.array(index.itq_objective)
        assert len(objective) == 50
        assert np.all(np.diff(objective) <= 1e-9)

    def test_rotation_orthogonal(self):
        rng = np.random.default_rng(4)
        store = make_store([f"v{i}" for i in range(200)], rng.standard_normal((200, 16)))
        index = build_index(store, code_bits=16, itq_iters=20, seed=2)
        gram = index.rotation.T @ index.rotation
        assert np.abs(gram - np.eye(16)).max() < 1e-4

    def test_max_norm_bounds_rows(self):
        rng = np.random.default_rng(5)
        store = random_store(rng, 50, 8)
        index = build_index(store, code_bits=8, itq_iters=5, seed=0)
        assert (store.norms <= index.max_norm + 1e-12).all()

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(6)
        matrix = rng.standard_normal((100, 12))
        a = build_index(make_store([f"v{i}" for i in range(100)], matrix), seed=9)
        b = build_index(make_store([f"v{i}" for i in range(100)], matrix), seed=9)
        assert np.array_equal(a.codes, b.codes)
        assert np.array_equal(a.rotation, b.rotation)

    def test_empty_store_rejected(self):
        store = make_store([], np.zeros((0, 4)))
        with pytest.raises(EmptyInputError):
            build_index(store)

    def test_bad_args(self):
        store = make_store(["a"], [[1.0]])
        with pytest.raises(ValueError):
            build_index(store, code_bits=0)
        with pytest.raises(ValueError):
            build_index(store, itq_iters=0)

    def test_negative_seed_named(self):
        with pytest.raises(ValueError, match="seed must be >= 0, not -1"):
            build_index(make_store(["a"], [[1.0]]), seed=-1)

    @pytest.mark.parametrize(
        "rows,dim,code_bits,itq_iters,zero_row,sample,block",
        [
            pytest.param(5, 8, 64, 50, False, None, None, id="5-8-64-50-False"),  # fewer rows than bits
            pytest.param(60, 6, 12, 20, False, None, None, id="60-6-12-20-False"),  # code_bits > dim_aug
            pytest.param(300, 128, 16, 50, False, None, None, id="300-128-16-50-False"),
            pytest.param(300, 128, 64, 50, False, None, None, id="300-128-64-50-False"),
            pytest.param(300, 128, 100, 50, False, None, None, id="300-128-100-50-False"),  # two u64 words
            pytest.param(300, 128, 64, 1, False, None, None, id="300-128-64-1-False"),
            pytest.param(80, 10, 16, 30, True, None, None, id="80-10-16-30-True"),
            # covariance and codes over three blocks
            pytest.param(80, 10, 16, 30, True, None, 32, id="80-10-16-30-True-block32"),
            # ITQ on a 64-row sample
            pytest.param(300, 128, 64, 50, False, 64, None, id="300-128-64-50-False-sample64"),
            # sampled, two words, five blocks
            pytest.param(300, 16, 100, 20, False, 64, 64, id="300-16-100-20-False-sample64-block64"),
            # one row more than the sample, then exactly the sample: every row
            pytest.param(65, 12, 16, 10, False, 64, None, id="65-12-16-10-False-sample64"),
            pytest.param(64, 12, 16, 10, False, 64, None, id="64-12-16-10-False-sample64"),
            # signs still flip at the last iteration, in more rows than one 256-row block
            pytest.param(3000, 64, 64, 50, False, None, 256, id="3000-64-64-50-False-block256"),
        ],
    )
    def test_matches_allocating_build(self, caplog, monkeypatch, rows, dim, code_bits, itq_iters,
                                      zero_row, sample, block):
        if sample is not None:
            monkeypatch.setattr(sitq, "ITQ_SAMPLE", sample)
        if block is not None:
            monkeypatch.setattr(sitq, "BLOCK_ROWS", block)
        rng = np.random.default_rng(rows + code_bits + itq_iters)
        matrix = rng.standard_normal((rows, dim))
        if zero_row:
            matrix[rows // 2] = 0.0
        store = make_store([f"v{i}" for i in range(rows)], matrix)
        index = build_index(store, code_bits=code_bits, itq_iters=itq_iters, seed=3)
        expected = itq_build_allocating(store, code_bits, itq_iters, seed=3,
                                        block_rows=sitq.BLOCK_ROWS, sample_size=sitq.ITQ_SAMPLE)
        for name in ("mean", "projection", "codes"):
            assert np.array_equal(getattr(index, name), expected[name]), name
        # The build updates V^T B from the rows whose signs flipped and takes the
        # objective from its singular values, so these two round differently.
        assert index.itq_objective == pytest.approx(expected["itq_objective"], rel=1e-12)
        if min(rows, sitq.ITQ_SAMPLE) > dim:
            # With fewer sample rows than dim + 1, V^T B is rank-deficient and
            # the rotation is not unique; the codes and objective above still are.
            assert np.abs(index.rotation - expected["rotation"]).max() <= 1e-12
        assert ("exceeds augmented dim" in caplog.text) == (code_bits > dim + 1)

    def test_peak_memory(self):
        # The covariance and the codes go through 2,048-row blocks. With
        # fewer rows than the ITQ sample, ITQ sees every row: their augmented
        # matrix and its projection set the peak here (1.55x). The ITQ loop
        # then holds the projection, one buffer of that size and two boolean
        # sign arrays.
        rng = np.random.default_rng(8)
        rows, dim = 8000, 128
        store = random_store(rng, rows, dim)
        tracemalloc.start()
        try:
            build_index(store, code_bits=64, itq_iters=5, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * rows * (dim + 1) * 8


class TestQuery:
    def test_singleton_index(self):
        store = make_store(["only"], [[1.0, 0.0]])
        index = build_index(store, code_bits=4, itq_iters=3, seed=0)
        for probe in (1, 10):
            result = query(index, np.array([0.5, 0.5]), top_n=1, probe=probe)
            assert [c.passage_id for c in result] == ["only"]

    def test_exhaustive_probe_is_exact(self):
        rng = np.random.default_rng(8)
        store = random_store(rng, 100, 16)
        index = build_index(store, code_bits=16, itq_iters=10, seed=3)
        target = store.matrix[17].astype(np.float64)
        unit = target / np.linalg.norm(target)
        result = query(index, unit, top_n=5, probe=100)
        expected = brute_mips_ids(store.ids, store.matrix, unit, 5)
        assert [c.passage_id for c in result] == expected
        assert result[0].passage_id == "v17"

    def test_augmentation_preserves_mips_order(self):
        rng = np.random.default_rng(9)
        store = random_store(rng, 60, 10)
        index = build_index(store, code_bits=10, itq_iters=5, seed=4)
        q = rng.standard_normal(10)
        q /= np.linalg.norm(q)
        ips = store.matrix.astype(np.float64) @ q
        aug_data = np.hstack(
            [
                store.matrix.astype(np.float64) / index.max_norm,
                np.sqrt(
                    np.clip(1 - (store.norms / index.max_norm) ** 2, 0, None)
                )[:, None],
            ]
        )
        cos = aug_data @ np.concatenate([q, [0.0]])  # both sides unit norm
        assert np.array_equal(np.argsort(-ips, kind="stable"), np.argsort(-cos, kind="stable"))

    def test_probe_raised_to_top_n(self, caplog):
        rng = np.random.default_rng(10)
        store = random_store(rng, 30, 6)
        index = build_index(store, code_bits=6, itq_iters=5, seed=5)
        result = query(index, rng.standard_normal(6), top_n=10, probe=2)
        assert len(result) == 10

    def test_dim_mismatch(self):
        store = make_store(["a"], [[1.0, 0.0]])
        index = build_index(store, code_bits=2, itq_iters=2, seed=0)
        with pytest.raises(DataError):
            query(index, np.array([1.0, 0.0, 0.0]), top_n=1)

    def test_zero_query_rejected(self):
        store = make_store(["a"], [[1.0, 0.0]])
        index = build_index(store, code_bits=2, itq_iters=2, seed=0)
        with pytest.raises(DataError):
            query(index, np.zeros(2), top_n=1)

    def test_recall_nondecreasing_in_probe(self):
        rng = np.random.default_rng(11)
        store = random_store(rng, 2000, 32)
        index = build_index(store, code_bits=32, itq_iters=20, seed=6)
        for qi in range(5):
            q = rng.standard_normal(32)
            true_top = set(brute_mips_ids(store.ids, store.matrix, q, 50))
            last = -1.0
            for probe in (50, 200, 800, 2000):
                got = {c.passage_id for c in query(index, q, top_n=50, probe=probe)}
                recall = len(got & true_top) / 50
                assert recall >= last
                last = recall
            assert last == 1.0  # exhaustive probe

    def test_candidate_recall_quality(self):
        # 64-bit codes over 10k Gaussian rows: the exhaustive-MIPS top-100
        # overlap at probe 500 sits near one half; guard against regressions.
        rng = np.random.default_rng(12)
        store = random_store(rng, 10_000, 64)
        index = build_index(store, code_bits=64, itq_iters=50, seed=0)
        overlaps = []
        for _ in range(10):
            q = rng.standard_normal(64)
            got = {c.passage_id for c in query(index, q, top_n=100, probe=500)}
            true_top = set(brute_mips_ids(store.ids, store.matrix, q, 100))
            overlaps.append(len(got & true_top) / 100)
        assert np.mean(overlaps) >= 0.40

    def test_ids_that_differ_by_trailing_nuls(self):
        # Identical rows tie on distance, norm and inner product, so the
        # ids alone order the result, in str order; each is the store's own.
        ids = ["s", "p\x00", "q", "p", "q\x00\x00", "r"]
        store = make_store(ids, np.ones((6, 3)))
        index = build_index(store, code_bits=4, itq_iters=3, seed=0)
        result = query(index, np.array([1.0, 0.5, 0.0]), top_n=6, probe=6)
        assert [c.passage_id for c in result] == ["p", "p\x00", "q", "q\x00\x00", "r", "s"]
        assert all(any(c.passage_id is pid for pid in store.ids) for c in result)


def _store(rows, dim, seed, repeat=1):
    """Random rows, each repeated ``repeat`` times in a row, under ids whose
    order is not the row order."""
    rng = np.random.default_rng(seed)
    matrix = np.repeat(rng.standard_normal((rows, dim)), repeat, axis=0)
    return make_store([f"r{i:04d}" for i in rng.permutation(len(matrix))], matrix)


def _one_distance(tmp_path):
    index = build_index(_store(200, 6, 4), code_bits=8, itq_iters=5, seed=0)
    index.codes[:] = 0  # every row is at the query code's popcount
    return index


def _loaded_over_shuffled_store(tmp_path):
    store = _store(300, 10, 5)
    save_index(build_index(store, code_bits=16, itq_iters=10, seed=2), tmp_path / "index.bin")
    perm = np.random.default_rng(6).permutation(len(store))
    return load_index(tmp_path / "index.bin", make_store([store.ids[i] for i in perm], store.matrix[perm]))


INDEXES = {
    "bits2": lambda tmp_path: build_index(_store(300, 12, 1), code_bits=2, itq_iters=5, seed=0),
    "bits4": lambda tmp_path: build_index(_store(300, 12, 1), code_bits=4, itq_iters=5, seed=0),
    "bits8": lambda tmp_path: build_index(_store(300, 12, 1), code_bits=8, itq_iters=5, seed=0),
    "bits64": lambda tmp_path: build_index(_store(300, 12, 1), code_bits=64, itq_iters=5, seed=0),
    # equal codes and equal norms: the id is the only tie-break
    "duplicated-rows": lambda tmp_path: build_index(_store(60, 8, 2, repeat=5), code_bits=8,
                                                    itq_iters=5, seed=0),
    "one-distance": _one_distance,
    "loaded-shuffled": _loaded_over_shuffled_store,
}


class TestQueryMatchesFullSort:
    """``query`` ranks only the rows at the cutoff distance; the oracle sorts
    every row. Hamming distances and inner products must match exactly."""

    @pytest.mark.parametrize("name", list(INDEXES))
    @pytest.mark.parametrize("top_n,probe", [(10, 10), (10, 37), (10, None), (10, 300), (10, 10_000)],
                             ids=["probe-eq-top-n", "probe-37", "probe-default", "probe-300",
                                  "probe-past-rows"])
    def test_same_candidates(self, tmp_path, name, top_n, probe):
        index = INDEXES[name](tmp_path)
        rng = np.random.default_rng(len(name))
        for _ in range(8):
            q = rng.standard_normal(index.raw.dim)
            assert query(index, q, top_n=top_n, probe=probe) == sitq_query_lexsort(index, q, top_n, probe)

    def test_cutoff_inside_a_run_of_equal_distances(self):
        index = INDEXES["bits2"](None)
        rng = np.random.default_rng(7)
        for probe in (5, 50, 120, 250):
            q = rng.standard_normal(index.raw.dim)
            hamming = np.bitwise_count(index.codes ^ encode_query(index, q)).sum(axis=1)
            cutoff = np.sort(hamming)[probe - 1]
            assert (hamming < cutoff).sum() < probe < (hamming <= cutoff).sum()
            assert query(index, q, top_n=5, probe=probe) == sitq_query_lexsort(index, q, 5, probe)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        store = random_store(rng, 80, 12)
        index = build_index(store, code_bits=24, itq_iters=10, seed=7)
        path = tmp_path / "index.bin"
        save_index(index, path)
        loaded = load_index(path, store)
        assert loaded.ids == index.ids
        assert np.array_equal(loaded.codes, index.codes)
        assert np.array_equal(loaded.rotation, index.rotation)
        assert loaded.max_norm == index.max_norm
        q = rng.standard_normal(12)
        assert [c.passage_id for c in query(loaded, q, top_n=5, probe=80)] == [
            c.passage_id for c in query(index, q, top_n=5, probe=80)
        ]

    def test_reordered_store_still_aligns(self, tmp_path):
        rng = np.random.default_rng(14)
        store = random_store(rng, 40, 8)
        index = build_index(store, code_bits=8, itq_iters=5, seed=8)
        path = tmp_path / "index.bin"
        save_index(index, path)
        perm = rng.permutation(40)
        shuffled = make_store(
            [store.ids[i] for i in perm], store.matrix[perm]
        )
        loaded = load_index(path, shuffled)
        q = rng.standard_normal(8)
        assert [c.passage_id for c in query(loaded, q, top_n=5, probe=40)] == [
            c.passage_id for c in query(index, q, top_n=5, probe=40)
        ]

    def test_shuffled_store_gives_the_same_candidates(self, tmp_path):
        rng = np.random.default_rng(17)
        store = random_store(rng, 300, 10)
        index = build_index(store, code_bits=16, itq_iters=10, seed=2)
        path = tmp_path / "index.bin"
        save_index(index, path)
        perm = rng.permutation(300)
        shuffled = make_store([store.ids[i] for i in perm], store.matrix[perm])
        loaded = load_index(path, shuffled)
        assert loaded.ids == shuffled.ids
        assert np.array_equal(loaded.codes, index.codes[perm])
        for _ in range(10):
            q = rng.standard_normal(10)
            assert query(loaded, q, top_n=20, probe=60) == query(index, q, top_n=20, probe=60)

    def test_store_ids_must_each_be_indexed_once(self, tmp_path):
        rng = np.random.default_rng(18)
        store = random_store(rng, 10, 4)
        path = tmp_path / "index.bin"
        save_index(build_index(store, code_bits=4, itq_iters=3, seed=0), path)
        wider = make_store(store.ids + ["extra"], np.vstack([store.matrix, np.ones((1, 4))]))
        with pytest.raises(DataError, match="indexes 10 of the store's 11 vectors; 'extra'"):
            load_index(path, wider)
        data = path.read_bytes()
        assert data.endswith(b"\x02\x00v9")
        path.write_bytes(data[:-1] + b"8")
        with pytest.raises(DataError, match="'v8' is indexed more than once"):
            load_index(path, store)

    def test_missing_ids_rejected(self, tmp_path):
        rng = np.random.default_rng(15)
        store = random_store(rng, 10, 4)
        index = build_index(store, code_bits=4, itq_iters=3, seed=0)
        path = tmp_path / "index.bin"
        save_index(index, path)
        partial = make_store(store.ids[:5], store.matrix[:5])
        with pytest.raises(DataError):
            load_index(path, partial)

    def test_query_code_stable_across_save(self, tmp_path):
        rng = np.random.default_rng(16)
        store = random_store(rng, 30, 6)
        index = build_index(store, code_bits=12, itq_iters=5, seed=1)
        path = tmp_path / "index.bin"
        save_index(index, path)
        loaded = load_index(path, store)
        q = rng.standard_normal(6)
        assert np.array_equal(encode_query(index, q), encode_query(loaded, q))
