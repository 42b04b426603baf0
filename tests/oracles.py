"""Independent reference implementations used to check the real ones.

Everything here is deliberately written with different algorithms and
data layouts than the package: breadth-first reachability instead of
DFS, recursion instead of an explicit stack, a dense two-phase tableau simplex instead of a network simplex on
the transport tree, memoized recursion instead of iterative DP,
character-level scanning instead of token matching, a word-at-a-time
tokenizer instead of one regex pass, a full sort of every
indexed row by string id instead of a Hamming cutoff, and a batch rescored
for every loss step instead of one pass. Slow and simple on purpose.
"""

from __future__ import annotations

import math
import re
from collections import deque
from functools import lru_cache

import numpy as np


def bfs_triples(triples: list[tuple[str, str, str]], seeds: list[str], max_hops: int) -> set:
    """Subject-rooted triples reachable within max_hops edges, by BFS."""
    adjacency: dict[str, list[tuple[str, str, str]]] = {}
    entities = set()
    for s, r, o in triples:
        adjacency.setdefault(s, []).append((s, r, o))
        entities.update((s, o))
    depth = {}
    queue = deque()
    for seed in seeds:
        if seed in entities and seed not in depth:
            depth[seed] = 0
            queue.append(seed)
    out = set()
    while queue:
        node = queue.popleft()
        d = depth[node]
        if d > max_hops - 1:
            continue
        for s, r, o in adjacency.get(node, []):
            out.add((s, r, o))
            if o not in depth or depth[o] > d + 1:
                depth[o] = d + 1
                queue.append(o)
    return out


def dfs_triples_recursive(kg, seeds: list[str], max_hops: int) -> list:
    """Subject-rooted triples in depth-first order, one recursive call per
    hop; an entity is expanded again when reached at a shallower depth."""
    out, emitted, best_depth = [], set(), {}

    def visit(entity: str, depth: int) -> None:
        if depth >= max_hops or best_depth.get(entity, max_hops) <= depth:
            return
        best_depth[entity] = depth
        for triple in kg.outgoing(entity):
            if triple not in emitted:
                emitted.add(triple)
                out.append(triple)
            visit(triple.object, depth + 1)

    for seed in seeds:
        if seed in kg.entities:
            visit(seed, 0)
    return out


def all_substring_matches(lexicon: dict[str, str], text: str) -> set[tuple[int, int, str]]:
    """Every (start, end, entity) whose normalized token span is in the lexicon."""
    tokens = []
    for m in re.finditer(r"[A-Za-z0-9_']+", text):
        tok = m.group().lower().strip("'")
        if tok.endswith("'s"):
            tok = tok[:-2]
        if tok:
            tokens.append((tok, m.start(), m.end()))
    found = set()
    for i in range(len(tokens)):
        for j in range(i + 1, len(tokens) + 1):
            phrase = "_".join(t[0] for t in tokens[i:j])
            if phrase in lexicon:
                found.add((tokens[i][1], tokens[j - 1][2], lexicon[phrase]))
    return found


def strip_injections(eq) -> str:
    """The source text of an expanded query: each injected clause cut out
    of the augmented text, last one first, at its shifted position."""
    text = eq.augmented_text
    shifts = [sum(len(inserted) for _, inserted in eq.injections[:j]) for j in range(len(eq.injections))]
    for (offset, inserted), shift in reversed(list(zip(eq.injections, shifts))):
        at = offset + shift
        assert text[at : at + len(inserted)] == inserted
        text = text[:at] + text[at + len(inserted) :]
    return text


def tokenize_by_word(text: str) -> list[str]:
    """Passage tokens one word at a time: each ``[A-Za-z0-9_']+`` run of the
    lowercased text, stripped of quotes and then of a trailing 's, split at
    underscores, empty parts dropped."""
    parts = []
    for raw in re.findall(r"[A-Za-z0-9_']+", text.lower()):
        word = raw.strip("'")
        if word.endswith("'s"):
            word = word[:-2]
        parts.extend(part for part in word.split("_") if part)
    return parts


def brute_mips_ids(ids: list[str], matrix: np.ndarray, q: np.ndarray, n: int) -> list[str]:
    """Exact top-n inner-product ids, ties broken by id ascending."""
    ips = matrix.astype(np.float64) @ np.asarray(q, dtype=np.float64)
    order = sorted(range(len(ids)), key=lambda i: (-ips[i], ids[i]))
    return [ids[i] for i in order[:n]]


def itq_build_allocating(store, code_bits: int, itq_iters: int, seed: int, *,
                         block_rows: int, sample_size: int) -> dict:
    """SITQ build over one n x (dim + 1) augmented array, with a fresh array
    for every step: the covariance summed over the same ``block_rows`` row
    blocks as ``sitq.build_index``, the ITQ loop on the same seeded sample of
    ``sample_size`` rows, and every row encoded at once. The arithmetic is
    the same in the same order, so every output must match bit for bit.
    Codes are packed one Python int per 64-bit word, least significant bit
    first."""
    max_norm = float(store.norms.max())
    scaled = store.matrix.astype(np.float64) / max_norm
    resid = np.clip(1.0 - np.einsum("ij,ij->i", scaled, scaled), 0.0, None)
    aug = np.hstack([scaled, np.sqrt(resid)[:, None]])
    n, dim_aug = aug.shape
    total = np.zeros(dim_aug)
    gram = np.zeros((dim_aug, dim_aug))
    for start in range(0, n, block_rows):
        block = aug[start : start + block_rows]
        total += block.sum(axis=0)
        gram += block.T @ block
    mean = total / n

    _, vecs = np.linalg.eigh(gram - n * np.outer(mean, mean))
    projection = np.zeros((dim_aug, code_bits))
    for j in range(min(code_bits, dim_aug)):
        vec = vecs[:, dim_aug - 1 - j]  # eigh sorts ascending
        projection[:, j] = vec if vec[np.argmax(np.abs(vec))] > 0.0 else -vec

    rng = np.random.default_rng(seed)
    rotation, _ = np.linalg.qr(rng.standard_normal((code_bits, code_bits)))
    rows = np.sort(rng.choice(n, sample_size, replace=False)) if n > sample_size else np.arange(n)
    v = (aug[rows] - mean) @ projection
    objective: list[float] = []
    for _ in range(itq_iters):
        b = np.where(v @ rotation >= 0.0, 1.0, -1.0)
        u, _, wt = np.linalg.svd(v.T @ b)
        rotation = u @ wt
        objective.append(float(((v @ rotation - b) ** 2).sum()))

    bits = (aug - mean) @ projection @ rotation >= 0.0
    words = -(-code_bits // 64)
    codes = np.zeros((n, words), dtype=np.uint64)
    for i, row in enumerate(bits):
        for w in range(words):
            codes[i, w] = sum(1 << j for j, bit in enumerate(row[64 * w : 64 * w + 64]) if bit)
    return {"mean": mean, "projection": projection, "rotation": rotation,
            "codes": codes, "itq_objective": objective}


def sitq_query_lexsort(index, q: np.ndarray, top_n: int, probe: int | None = None) -> list:
    """SITQ query by one ``lexsort`` of every row on (hamming, -norm, id
    string), then the probe set re-ranked on (-inner product, id string).
    numpy's string keys drop trailing NULs, so ids that differ only there
    are out of scope."""
    from iseeq.sitq import Candidate, encode_query

    if probe is None:
        probe = 8 * top_n
    probe = min(max(probe, top_n), len(index))
    qcode = encode_query(index, q)
    hamming = np.bitwise_count(index.codes ^ qcode).sum(axis=1)
    ids_arr = np.asarray(index.ids)
    pick = np.lexsort((ids_arr, -index.raw.norms, hamming))[:probe]

    ips = index.raw.matrix[pick].astype(np.float64) @ np.asarray(q, dtype=np.float64)
    order = np.lexsort((ids_arr[pick], -ips))[:top_n]
    return [
        Candidate(
            passage_id=str(ids_arr[pick[i]]),
            hamming=int(hamming[pick[i]]),
            inner_product=float(ips[i]),
        )
        for i in order
    ]


def lcs_recursive(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    """Memoized-recursion LCS, independent of the bit-parallel ``losses.lcs_len``."""

    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + go(i + 1, j + 1)
        return max(go(i + 1, j), go(i, j + 1))

    return go(0, 0)


def nes_bruteforce(text: str, entities: list[str]) -> float:
    """Character-level NES: normalize the passage to space-separated
    words and look for each entity as a delimited substring."""
    if not entities:
        return 0.0
    lowered = text.lower()
    lowered = re.sub(r"'s(?![a-z0-9])", " ", lowered)
    lowered = re.sub(r"[^a-z0-9]+", " ", lowered.replace("_", " "))
    haystack = f" {' '.join(lowered.split())} "
    unique = set(entities)
    hits = sum(1 for e in unique if f" {e.replace('_', ' ')} " in haystack)
    return hits / len(unique)


def soft_match_loops(a_tokens_vecs, a_weights, b_tokens_vecs) -> float:
    """Plain double loop over normalized vectors."""
    total = 0.0
    for w, va in zip(a_weights, a_tokens_vecs):
        va = np.asarray(va, dtype=np.float64)
        va = va / np.linalg.norm(va)
        best = -2.0
        for vb in b_tokens_vecs:
            vb = np.asarray(vb, dtype=np.float64)
            vb = vb / np.linalg.norm(vb)
            best = max(best, float(va @ vb))
        total += w * best
    return total


def ce_loop(batch, cfg, reward, indicator) -> float:
    """Batch CE by its own loop over the pairs, each pair rescored."""
    total = 0.0
    for pair in batch.pairs:
        total += reward(pair, cfg) * indicator(pair.reference, pair.generated) * math.log(pair.gen_prob)
    return -total / len(batch.pairs)


def rce_loop(batch, cfg, reward, indicator) -> float:
    """Batch RCE by its own loop over the pairs, each pair rescored."""
    total = 0.0
    for pair in batch.pairs:
        total += reward(pair, cfg) * (1.0 - indicator(pair.reference, pair.generated)) * pair.gen_prob
    return -total / len(batch.pairs)


def erl_loops(batch, cfg, reward, indicator) -> list[float]:
    """Every ERL step with the whole batch's CE or RCE recomputed per step:
    n^2 + 2n reward calls for n pairs."""
    return [
        ce_loop(batch, cfg, reward, indicator) - record.prob
        if record.label.value == "entailment"
        else rce_loop(batch, cfg, reward, indicator) - (1.0 - record.prob)
        for record in batch.entailments
    ]


# ------------------------------------------------------------ dense LP

_TOL = 1e-10


def _tableau_simplex(tableau: np.ndarray, basis: list[int], n_real: int) -> None:
    """Bland's-rule simplex on a tableau whose last row is the objective
    (to minimize) and last column the RHS. Mutates in place."""
    n_rows = tableau.shape[0] - 1
    while True:
        costs = tableau[-1, :-1]
        enter = -1
        for j in range(len(costs)):
            if costs[j] < -_TOL:
                enter = j
                break
        if enter < 0:
            return
        ratios = []
        for i in range(n_rows):
            coef = tableau[i, enter]
            if coef > _TOL:
                ratios.append((tableau[i, -1] / coef, basis[i], i))
        if not ratios:
            raise RuntimeError("unbounded LP (impossible for transport)")
        _, _, leave = min(ratios, key=lambda t: (t[0], t[1]))
        pivot = tableau[leave, enter]
        tableau[leave] /= pivot
        for i in range(tableau.shape[0]):
            if i != leave and abs(tableau[i, enter]) > 0:
                tableau[i] -= tableau[i, enter] * tableau[leave]
        basis[leave] = enter


def transport_bruteforce(a: np.ndarray, b: np.ndarray, costs: np.ndarray) -> float:
    """Optimal transport cost via two-phase dense tableau simplex.

    Small-instance oracle: constraint matrix is built densely and the
    redundant final column constraint is dropped.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    costs = np.asarray(costs, dtype=np.float64)
    n, m = costs.shape
    nv = n * m
    n_rows = n + m - 1
    A = np.zeros((n_rows, nv))
    for i in range(n):
        A[i, i * m : (i + 1) * m] = 1.0
    for j in range(m - 1):
        A[n + j, j::m] = 1.0
    rhs = np.concatenate([a, b[:-1]])

    # Phase 1: artificial basis.
    tab = np.zeros((n_rows + 1, nv + n_rows + 1))
    tab[:n_rows, :nv] = A
    tab[:n_rows, nv : nv + n_rows] = np.eye(n_rows)
    tab[:n_rows, -1] = rhs
    tab[-1, :nv] = -A.sum(axis=0)
    tab[-1, -1] = -rhs.sum()
    basis = list(range(nv, nv + n_rows))
    _tableau_simplex(tab, basis, nv)
    if tab[-1, -1] < -1e-7:
        raise RuntimeError("infeasible transport (weights must sum equal)")

    # Drive any degenerate artificials out of the basis.
    for i, var in enumerate(basis):
        if var >= nv:
            for j in range(nv):
                if abs(tab[i, j]) > _TOL:
                    pivot = tab[i, j]
                    tab[i] /= pivot
                    for r in range(tab.shape[0]):
                        if r != i and abs(tab[r, j]) > 0:
                            tab[r] -= tab[r, j] * tab[i]
                    basis[i] = j
                    break

    # Phase 2: real objective, artificial columns frozen.
    tab2 = np.zeros((n_rows + 1, nv + 1))
    tab2[:n_rows, :nv] = tab[:n_rows, :nv]
    tab2[:n_rows, -1] = tab[:n_rows, -1]
    tab2[-1, :nv] = costs.ravel()
    for i, var in enumerate(basis):
        if var < nv:
            tab2[-1] -= tab2[-1, var] * tab2[i]
    _tableau_simplex(tab2, basis, nv)

    x = np.zeros(nv)
    for i, var in enumerate(basis):
        if var < nv:
            x[var] = tab2[i, -1]
    return float(costs.ravel() @ x)


def relaxed_transport(a: np.ndarray, b: np.ndarray, costs: np.ndarray) -> float:
    """Lower bound on the transport cost: the larger one-sided relaxation.

    Dropping the column constraints lets every row ship to its nearest
    column, and dropping the row constraints lets every column receive
    from its nearest row; neither can cost more than the optimum.
    """
    n, m = len(a), len(b)
    rows_only = sum(a[i] * min(costs[i][j] for j in range(m)) for i in range(n))
    cols_only = sum(b[j] * min(costs[i][j] for i in range(n)) for j in range(m))
    return float(max(rows_only, cols_only))
