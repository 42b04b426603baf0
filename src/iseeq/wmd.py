"""Word mover's distance and related token-level similarity kernels.

``wmd_exact`` solves the transportation problem between two nBOW
documents to optimality (Euclidean ground metric) with a network
simplex on the bipartite spanning tree: a least-cost start, u-v node
potentials, Dantzig entering cells and Cunningham's strongly feasible
leaving rule, as in Bonneel et al. (SIGGRAPH Asia 2011).
``soft_match`` is the greedy per-token best-cosine score used by the
generation reward, where only the best counterpart of each token
matters rather than a full transport plan.
"""

from __future__ import annotations

import numpy as np

from .embeddings import TokenDoc
from .errors import DataError, EmptyInputError, IseeqError

# Pivots allowed per cell of the cost matrix before the simplex gives up.
_MAX_PIVOTS_PER_CELL = 10


def _check_pair(a: TokenDoc, b: TokenDoc) -> None:
    if len(a.tokens) == 0 or len(b.tokens) == 0:
        raise EmptyInputError("cannot compare empty token documents")
    if a.dim != b.dim:
        raise DataError(f"embedding dim mismatch: {a.dim} != {b.dim}")


def cost_matrix(a: TokenDoc, b: TokenDoc) -> np.ndarray:
    """Pairwise Euclidean distances between token vectors, float64."""
    # Imported here: scipy.spatial adds about 35 MB of RSS, and only WMD needs it.
    from scipy.spatial.distance import cdist

    _check_pair(a, b)
    return cdist(a.vectors.astype(np.float64), b.vectors.astype(np.float64))


def wmd_exact(a: TokenDoc, b: TokenDoc) -> float:
    """Optimal transport cost between the two nBOW distributions."""
    costs = cost_matrix(a, b)
    mass_a, mass_b = float(a.weights.sum()), float(b.weights.sum())
    if not abs(mass_a - mass_b) <= 1e-9 * max(mass_a, mass_b):  # NaN fails too
        raise DataError(
            f"token weights of {a.doc_id!r} and {b.doc_id!r} sum to {mass_a!r} and {mass_b!r}"
        )
    if min(a.weights.min(), b.weights.min()) < 0.0 or not np.isfinite(costs).all():
        raise DataError(f"negative weight or non-finite vector in {a.doc_id!r} or {b.doc_id!r}")
    return _transport_cost(a.weights, b.weights, costs)


def _least_cost_start(supply, demand, costs):
    """Basic cells ``(row, col, flow)`` of a least-cost start: n + m - 1 of them.

    Cells are visited in ascending cost; each shipment closes exactly
    one line. Row supplies carry +eps and the last column's demand
    +n*eps (Orden's perturbation, tracked as an integer second key), so
    a tie closes the line that keeps the tree strongly feasible towards
    the last column. Once one row or one column is left open it takes
    everything that remains, which absorbs rounding in the totals.
    """
    n, m = costs.shape
    s_x, s_e = supply.tolist(), [1] * n
    d_x, d_e = demand.tolist(), [0] * (m - 1) + [n]
    row_open, col_open = [True] * n, [True] * m
    rows_left, cols_left = n, m
    cells = []
    if n > 1 and m > 1:
        order = np.argsort(costs, axis=None, kind="stable")
        for i, j in zip((order // m).tolist(), (order % m).tolist()):
            if not (row_open[i] and col_open[j]):
                continue
            if (s_x[i], s_e[i]) < (d_x[j], d_e[j]):
                x = s_x[i]
                d_x[j] -= x
                d_e[j] -= s_e[i]
                row_open[i] = False
                rows_left -= 1
            else:
                x = d_x[j]
                s_x[i] -= x
                s_e[i] -= d_e[j]
                col_open[j] = False
                cols_left -= 1
            cells.append((i, j, x))
            if rows_left == 1 or cols_left == 1:
                break
    open_rows = [i for i in range(n) if row_open[i]]
    open_cols = [j for j in range(m) if col_open[j]]
    if rows_left == 1:
        cells += [(open_rows[0], j, d_x[j]) for j in open_cols]
    else:
        cells += [(i, open_cols[0], s_x[i]) for i in open_rows]
    return cells


def _transport_cost(supply: np.ndarray, demand: np.ndarray, costs: np.ndarray) -> float:
    """Network simplex on the transport tree; rows are nodes 0..n-1, columns n..n+m-1.

    Each non-root node stores the flow on the edge to its parent. With
    ``w`` = u on rows and -v on columns, a basic cell (i, j) has
    ``w[i] - w[n + j] == costs[i, j]``, so re-hanging a subtree shifts
    all of its potentials by one constant.
    """
    n, m = costs.shape
    root = n + m - 1
    parent = [-1] * (n + m)
    depth = [0] * (n + m)
    flow = [0.0] * (n + m)
    children: list[list[int]] = [[] for _ in range(n + m)]
    w = np.zeros(n + m)

    adjacent: list[list[tuple[int, float]]] = [[] for _ in range(n + m)]
    for i, j, x in _least_cost_start(supply, demand, costs):
        adjacent[i].append((n + j, x))
        adjacent[n + j].append((i, x))
    stack = [root]
    while stack:
        p = stack.pop()
        for c, x in adjacent[p]:
            if c != parent[p]:
                parent[c], depth[c], flow[c] = p, depth[p] + 1, x
                children[p].append(c)
                w[c] = w[p] + costs[c, p - n] if c < n else w[p] - costs[p, c - n]
                stack.append(c)

    tol = -1e-12 * max(1.0, float(costs.max()))
    cap = _MAX_PIVOTS_PER_CELL * n * m
    w_rows, w_cols = w[:n, None], w[n:]  # views: they follow every update of w
    for pivots in range(cap + 1):
        reduced = costs - w_rows
        reduced += w_cols
        k = int(reduced.argmin())
        rc = float(reduced.flat[k])
        if rc >= tol:
            break
        if pivots == cap:
            raise IseeqError(f"transport simplex not optimal after {cap} pivots")
        i, j = divmod(k, m)
        # Cycle: entering cell i -> n+j, then the tree path back to i.
        # Edges are named by their child node; from the row end the
        # edges whose child is a row lose flow, from the column end
        # those whose child is a column.
        p, q = i, n + j
        up_i, up_j = [], []
        while p != q:
            if depth[p] >= depth[q]:
                up_i.append(p)
                p = parent[p]
            else:
                up_j.append(q)
                q = parent[q]
        # Cunningham: walking the cycle from the apex in the entering
        # direction, the last blocking edge leaves.
        theta, leave_at, side = float("inf"), -1, up_j
        for at, x in enumerate(up_j):
            if x >= n and flow[x] <= theta:
                theta, leave_at = flow[x], at
        for at, x in enumerate(up_i):
            if x < n and flow[x] < theta:
                theta, leave_at, side = flow[x], at, up_i
        if theta > 0.0:
            for x in up_i:
                flow[x] += -theta if x < n else theta
            for x in up_j:
                flow[x] += -theta if x >= n else theta
        # Cut the leaving edge and re-hang its subtree from the entering
        # cell, reversing the parent links on the path to the new top.
        if side is up_i:
            top, hook, delta = i, n + j, rc
        else:
            top, hook, delta = n + j, i, -rc
        new_parent, new_flow = hook, theta
        for x in side[: leave_at + 1]:
            old_parent, old_flow = parent[x], flow[x]
            children[old_parent].remove(x)
            children[new_parent].append(x)
            parent[x], flow[x] = new_parent, new_flow
            new_parent, new_flow = x, old_flow
        depth[top] = depth[hook] + 1
        subtree = [top]
        for x in subtree:
            below = children[x]
            if below:
                d = depth[x] + 1
                for c in below:
                    depth[c] = d
                subtree += below
        w[np.array(subtree, dtype=np.intp)] += delta

    rows = [x if x < n else parent[x] for x in range(root)]
    cols = [parent[x] - n if x < n else x - n for x in range(root)]
    return float(np.dot(costs[rows, cols], flow[:root]))


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    safe = np.where(norms == 0.0, 1.0, norms)
    return matrix / safe


def soft_match(a: TokenDoc, b: TokenDoc) -> float:
    """Mean over a's tokens of the best cosine against b's tokens.

    Weighted by a's nBOW weights, which makes the result identical to
    averaging over the raw (pre-collapse) token list. Vectors are
    normalized internally, so the result lies in [-1, 1] and is scale-
    invariant.
    """
    _check_pair(a, b)
    an = _unit_rows(a.vectors.astype(np.float64))
    bn = _unit_rows(b.vectors.astype(np.float64))
    best = (an @ bn.T).max(axis=1)
    return float(np.dot(a.weights, best))
