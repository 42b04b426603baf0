from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from iseeq import wmd
from iseeq.embeddings import TokenDoc
from iseeq.errors import DataError, EmptyInputError, IseeqError
from iseeq.wmd import cost_matrix, soft_match, wmd_exact

from oracles import relaxed_transport, soft_match_loops, transport_bruteforce


def doc(doc_id, vectors, weights=None, tokens=None):
    vectors = np.asarray(vectors, dtype=np.float32)
    n = vectors.shape[0]
    if weights is None:
        weights = np.full(n, 1.0 / n)
    return TokenDoc(
        doc_id=doc_id,
        tokens=tokens or [f"t{i}" for i in range(n)],
        vectors=vectors,
        weights=np.asarray(weights, dtype=np.float64),
    )


def random_doc(rng, doc_id, n, dim):
    weights = rng.random(n) + 0.05
    return doc(doc_id, rng.standard_normal((n, dim)), weights / weights.sum())


def counted_doc(rng, doc_id, n, dim, grid=False):
    """nBOW-like weights (small counts over their total); grid vectors tie many costs."""
    counts = rng.integers(1, 4, size=n)
    vectors = rng.integers(0, 3, size=(n, dim)) if grid else rng.standard_normal((n, dim))
    return doc(doc_id, vectors, counts / counts.sum())


def highs_transport(a, b, costs):
    """Reference optimum from HiGHS; the last column constraint is implied and dropped."""
    n, m = costs.shape
    a_eq = np.zeros((n + m - 1, n * m))
    for i in range(n):
        a_eq[i, i * m : (i + 1) * m] = 1.0
    for j in range(m - 1):
        a_eq[n + j, j::m] = 1.0
    b_eq = np.concatenate([a, b[:-1]])
    result = linprog(costs.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert result.success, result.message
    return result.fun


def relaxed(a, b):
    return relaxed_transport(a.weights, b.weights, cost_matrix(a, b))


def assert_matches_references(a, b):
    """wmd_exact equals HiGHS, and the tableau oracle up to 6 tokens a side, to 1e-9."""
    got = wmd_exact(a, b)
    costs = cost_matrix(a, b)
    assert got == pytest.approx(highs_transport(a.weights, b.weights, costs), rel=1e-9, abs=1e-12)
    if max(costs.shape) <= 6:
        expected = transport_bruteforce(a.weights, b.weights, costs)
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)
    return got


class TestExact:
    def test_identical_docs_zero(self):
        d = doc("a", [[1.0, 0.0], [0.0, 1.0]], [0.3, 0.7])
        assert wmd_exact(d, d) == pytest.approx(0.0, abs=1e-12)

    def test_single_tokens_euclidean(self):
        u = np.array([1.0, 2.0, 2.0])
        v = np.array([4.0, 6.0, 2.0])
        got = wmd_exact(doc("a", [u], [1.0]), doc("b", [v], [1.0]))
        assert got == pytest.approx(5.0, abs=1e-9)

    def test_matches_lp_oracle_random(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            a = random_doc(rng, "a", rng.integers(1, 6), 4)
            b = random_doc(rng, "b", rng.integers(1, 6), 4)
            got = wmd_exact(a, b)
            expected = transport_bruteforce(a.weights, b.weights, cost_matrix(a, b))
            assert got == pytest.approx(expected, abs=1e-6)

    def test_matches_highs_on_300_seeded_problems(self):
        rng = np.random.default_rng(29)
        for k in range(300):
            top = 7 if k % 3 == 0 else 61  # a third small enough for the tableau oracle
            n, m = (int(x) for x in rng.integers(1, top, size=2))
            if k % 2:
                a, b = random_doc(rng, "a", n, 8), random_doc(rng, "b", m, 8)
            else:
                a, b = counted_doc(rng, "a", n, 8), counted_doc(rng, "b", m, 8)
            assert_matches_references(a, b)

    def test_symmetry(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            a = random_doc(rng, "a", rng.integers(1, 7), 5)
            b = random_doc(rng, "b", rng.integers(1, 7), 5)
            assert wmd_exact(a, b) == pytest.approx(wmd_exact(b, a), abs=1e-9)

    def test_triangle_on_uniform_equal_size(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            a, b, c = (doc(k, rng.standard_normal((n, 4))) for k in "abc")
            ab, bc, ac = wmd_exact(a, b), wmd_exact(b, c), wmd_exact(a, c)
            assert ac <= ab + bc + 1e-9

    def test_dim_mismatch(self):
        with pytest.raises(DataError):
            wmd_exact(doc("a", [[1.0, 0.0]]), doc("b", [[1.0, 0.0, 0.0]]))

    def test_empty_doc_rejected(self):
        empty = TokenDoc("e", [], np.zeros((0, 2), dtype=np.float32), np.zeros(0))
        with pytest.raises(EmptyInputError):
            wmd_exact(empty, doc("b", [[1.0, 0.0]]))

    def test_mass_mismatch_names_both_docs(self):
        a = doc("qa", [[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5])
        b = doc("pb", [[0.0, 1.0], [1.0, 1.0]], [0.5, 0.4])
        with pytest.raises(DataError, match="'qa'.*'pb'"):
            wmd_exact(a, b)

    def test_negative_weight_rejected(self):
        a = doc("qa", [[0.0, 0.0], [1.0, 0.0]], [1.5, -0.5])
        with pytest.raises(DataError, match="negative"):
            wmd_exact(a, doc("pb", [[0.0, 1.0]], [1.0]))

    def test_non_finite_vector_rejected(self):
        a = doc("qa", [[0.0, np.nan]], [1.0])
        with pytest.raises(DataError, match="non-finite"):
            wmd_exact(a, doc("pb", [[0.0, 1.0]], [1.0]))

    def test_pivot_cap_raises(self, monkeypatch):
        rng = np.random.default_rng(30)
        a, b = random_doc(rng, "a", 12, 4), random_doc(rng, "b", 12, 4)
        wmd_exact(a, b)
        monkeypatch.setattr(wmd, "_MAX_PIVOTS_PER_CELL", 0)
        with pytest.raises(IseeqError, match="not optimal after 0 pivots"):
            wmd_exact(a, b)

    def test_cost_matrix_zero_iff_equal(self):
        a = doc("a", [[1.0, 2.0], [3.0, 4.0]])
        b = doc("b", [[1.0, 2.0], [0.0, 0.0]])
        costs = cost_matrix(a, b)
        assert costs[0, 0] == pytest.approx(0.0, abs=1e-9)
        assert (costs >= 0).all() and np.isfinite(costs).all()
        assert costs[1, 0] > 1e-9


class TestDegenerate:
    """Problems whose least-cost start and pivots hit zero flows and equal costs."""

    @pytest.mark.parametrize("n", [2, 3, 5, 6, 17, 40])
    def test_assignment_problem(self, n):
        rng = np.random.default_rng(31 + n)
        a, b = doc("a", rng.standard_normal((n, 4))), doc("b", rng.standard_normal((n, 4)))
        got = assert_matches_references(a, b)
        if n <= 6:  # Birkhoff: some permutation is optimal
            costs = cost_matrix(a, b)
            best = min(sum(costs[i, p[i]] for i in range(n)) for p in permutations(range(n)))
            assert got == pytest.approx(best / n, rel=1e-9)

    def test_duplicate_vectors_zero_cost_cells(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            shared = rng.standard_normal((int(rng.integers(1, 5)), 3))
            own_a, own_b = (rng.standard_normal((int(rng.integers(0, 4)), 3)) for _ in "ab")
            # a also repeats one of its own vectors
            a = doc("a", np.vstack([shared, own_a, shared[:1]]))
            b = doc("b", np.vstack([own_b, shared]))
            assert_matches_references(a, b)
        perm = rng.permutation(len(b.tokens))
        assert wmd_exact(b, doc("b2", b.vectors[perm])) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 7, 60])
    def test_one_token_doc_on_either_side(self, m):
        rng = np.random.default_rng(33 + m)
        single = doc("s", rng.standard_normal((1, 5)), [1.0])
        other = counted_doc(rng, "o", m, 5)
        expected = float(np.dot(other.weights, cost_matrix(single, other)[0]))
        assert wmd_exact(single, other) == pytest.approx(expected, rel=1e-12)
        assert wmd_exact(other, single) == pytest.approx(expected, rel=1e-12)
        assert_matches_references(single, other)

    def test_totals_one_ulp_from_one(self):
        rng = np.random.default_rng(34)
        for k in range(40):
            n, m = (int(x) for x in rng.integers(1, 25, size=2))
            a, b = counted_doc(rng, "a", n, 4), counted_doc(rng, "b", m, 4)
            a.weights[0] = np.nextafter(a.weights[0], 2.0 if k % 2 else -1.0)
            b.weights[-1] = np.nextafter(b.weights[-1], -1.0 if k % 2 else 2.0)
            assert_matches_references(a, b)
            assert_matches_references(b, a)

    def test_integer_grid_vectors(self):
        rng = np.random.default_rng(35)
        for _ in range(40):
            n, m = (int(x) for x in rng.integers(1, 30, size=2))
            a, b = counted_doc(rng, "a", n, 2, grid=True), counted_doc(rng, "b", m, 2, grid=True)
            assert_matches_references(a, b)


class TestRelaxed:
    """The one-sided relaxation oracle never exceeds the exact kernel."""

    def test_identical_zero(self):
        d = doc("a", [[1.0, 0.0], [0.0, 1.0]])
        assert relaxed(d, d) == pytest.approx(0.0, abs=1e-12)

    def test_single_tokens_tight(self):
        u, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        a, b = doc("a", [u], [1.0]), doc("b", [v], [1.0])
        assert relaxed(a, b) == pytest.approx(wmd_exact(a, b), abs=1e-9)

    def test_lower_bounds_exact_everywhere(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            a = random_doc(rng, "a", rng.integers(1, 6), 3)
            b = random_doc(rng, "b", rng.integers(1, 6), 3)
            assert relaxed(a, b) <= wmd_exact(a, b) + 1e-9

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=1, max_value=15),
        st.integers(min_value=1, max_value=15),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.booleans(),
    )
    def test_symmetric_and_above_relaxed_bound(self, n, m, seed, grid):
        rng = np.random.default_rng(seed)
        a, b = counted_doc(rng, "a", n, 3, grid), counted_doc(rng, "b", m, 3, grid)
        ab, ba = wmd_exact(a, b), wmd_exact(b, a)
        assert abs(ab - ba) <= 1e-9 * max(1.0, ab)
        assert ab >= relaxed(a, b) - 1e-9 * max(1.0, ab)


class TestSoftMatch:
    def test_self_match_one(self):
        d = doc("a", [[0.6, 0.8], [1.0, 0.0]], [0.5, 0.5])
        assert soft_match(d, d) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_zero(self):
        a = doc("a", [[1.0, 0.0]], [1.0])
        b = doc("b", [[0.0, 1.0]], [1.0])
        assert soft_match(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(25)
        a = random_doc(rng, "a", 3, 6)
        b = random_doc(rng, "b", 4, 6)
        expected = soft_match_loops(a.vectors, a.weights, b.vectors)
        assert soft_match(a, b) == pytest.approx(expected, abs=1e-9)

    def test_permutation_invariant_in_b(self):
        rng = np.random.default_rng(26)
        a = random_doc(rng, "a", 4, 5)
        b = random_doc(rng, "b", 5, 5)
        perm = rng.permutation(5)
        b_perm = doc("b2", b.vectors[perm], b.weights[perm])
        assert soft_match(a, b) == pytest.approx(soft_match(a, b_perm), abs=1e-12)

    def test_scale_invariant(self):
        rng = np.random.default_rng(27)
        a = random_doc(rng, "a", 3, 4)
        b = random_doc(rng, "b", 3, 4)
        # power-of-two scale stays exact in float32 storage
        b_scaled = doc("b2", b.vectors * 32.0, b.weights)
        assert soft_match(a, b) == pytest.approx(soft_match(a, b_scaled), abs=1e-9)

    def test_range_bounded(self):
        rng = np.random.default_rng(28)
        for _ in range(20):
            a = random_doc(rng, "a", int(rng.integers(1, 5)), 3)
            b = random_doc(rng, "b", int(rng.integers(1, 5)), 3)
            assert -1.0 - 1e-9 <= soft_match(a, b) <= 1.0 + 1e-9
