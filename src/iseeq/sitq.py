"""SITQ approximate maximum-inner-product index.

Inner-product search is reduced to cosine search by padding each vector
x with sqrt(1 - ||x/M||^2) where M is the largest row norm (queries get
a zero pad), then binary codes are learned on the augmented data:
center, project onto the top principal directions, and refine a random
orthogonal rotation by alternating sign-quantization with the
orthogonal-Procrustes update. Search scans packed codes by Hamming
distance, keeps the closest ``probe`` rows as candidates and re-ranks
them by exact inner product.

Code row i belongs to row i of the index's vector store, so a query
reads the store's norms and rows with no row map; :func:`load_index`
puts a file's codes in the store's row order once. Each index also
holds ``rank``, every id's place in Python ``str`` order, so ties break
on integers rather than strings. A query does O(rows) work once: it
counts the rows at each Hamming distance, takes the cutoff as the
smallest distance at which the running count reaches ``probe``, keeps
every row below the cutoff, and sorts only the rows at the cutoff (by
larger norm, then id rank) to fill the probe set. The probe set is then
put in (distance, -norm, id rank) order, which is the order a full sort
of every row would give, before the exact inner products.

Build is deterministic given the seed (the rotation init and the ITQ
sample are its only randomized steps). Two passes read the rows in
``BLOCK_ROWS``-row blocks of augmented data; the rest of the work does
not grow with n. The first pass sums the mean and the (dim + 1)^2
covariance, whose top ``code_bits`` eigenvectors, each signed so that
its largest-magnitude entry is positive, are the projection. The
rotation is then learned on a seeded, sorted sample of ``ITQ_SAMPLE``
rows (every row when there are fewer), so ``itq_objective`` is that
sample's quantization error, and the second pass encodes every row.
No n x (dim + 1) array is built: apart from the packed codes the build
holds one block, and the sample's augmented rows, their projection V,
one buffer of that size for V @ rotation and two boolean arrays of its
signs. Each ITQ iteration does one dense product, V @ rotation. Few
signs flip once ITQ settles, so the codes' product V^T B is kept
current over only the rows that flipped, in ``BLOCK_ROWS``-row blocks,
and the objective ||V R - B||^2 = ||V||^2 + V.size - 2 sum(sigma) is
read off the singular values of V^T B that the Procrustes step
computes anyway.
"""

from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import RunConfig, check_setting
from .embeddings import VectorStore, read_exact, read_id, write_id
from .errors import DataError, EmptyInputError

logger = logging.getLogger(__name__)

IDX_MAGIC = b"ISEQIDX1"
BLOCK_ROWS = 2048  # rows augmented at a time for the covariance and the encoding pass
# Rows the ITQ rotation is learned on; every row when fewer. Rotations learned
# on 4,096 to 8,192 rows put a planted near neighbour past the probe cutoff on
# 2 or 3 of 56 seeded coverage corpora; 16,384 rows and every row, on none.
ITQ_SAMPLE = 16384


@dataclass(frozen=True, slots=True)
class Candidate:
    passage_id: str
    hamming: int
    inner_product: float


@dataclass
class SitqIndex:
    max_norm: float
    mean: np.ndarray  # (dim + 1,) centering vector of the augmented data
    projection: np.ndarray  # (dim + 1, code_bits)
    rotation: np.ndarray  # (code_bits, code_bits), orthogonal
    codes: np.ndarray  # (len(raw), words) uint64, packed sign bits of raw's rows
    raw: VectorStore
    itq_objective: list[float] = field(default_factory=list)
    rank: np.ndarray = field(init=False, repr=False)  # (len(raw),) each id's place in str order

    def __post_init__(self):
        ids = self.raw.ids
        self.rank = np.empty(len(ids), dtype=np.intp)
        self.rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))

    @property
    def ids(self) -> list[str]:
        """The indexed ids: the store's, in its row order."""
        return self.raw.ids

    @property
    def code_bits(self) -> int:
        return self.rotation.shape[0]

    def __len__(self) -> int:
        return len(self.codes)


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a (n, code_bits) boolean array into little-endian u64 words."""
    n, code_bits = bits.shape
    words = (code_bits + 63) // 64
    padded = np.zeros((n, words * 64), dtype=np.uint8)
    padded[:, :code_bits] = bits
    return np.packbits(padded, axis=1, bitorder="little").view("<u8").reshape(n, words)


def _augment_data(matrix: np.ndarray, max_norm: float) -> np.ndarray:
    aug = np.empty((len(matrix), matrix.shape[1] + 1))  # filled in place: no temporaries of this size
    scaled = aug[:, :-1]
    scaled[...] = matrix
    scaled /= max_norm
    np.sqrt(np.clip(1.0 - np.einsum("ij,ij->i", scaled, scaled), 0.0, None), out=aug[:, -1])
    return aug


def build_index(
    store: VectorStore,
    code_bits: int = RunConfig.code_bits,
    itq_iters: int = RunConfig.itq_iters,
    seed: int = RunConfig.seed,
) -> SitqIndex:
    """Learn codes for every vector in ``store``."""
    for name, value in (("code_bits", code_bits), ("itq_iters", itq_iters), ("seed", seed)):
        check_setting(name, value)
    if len(store) == 0:
        raise EmptyInputError("cannot index an empty vector store")
    if code_bits > store.dim + 1:
        logger.warning(
            "code_bits=%d exceeds augmented dim %d; extra bits carry no signal",
            code_bits, store.dim + 1,
        )
    max_norm = float(store.norms.max())
    if max_norm == 0.0:
        raise DataError("all vectors are zero; nothing to index")

    n, dim_aug = len(store), store.dim + 1
    blocks = range(0, n, BLOCK_ROWS)
    total = np.zeros(dim_aug)
    gram = np.zeros((dim_aug, dim_aug))
    for start in blocks:
        aug = _augment_data(store.matrix[start : start + BLOCK_ROWS], max_norm)
        total += aug.sum(axis=0)
        gram += aug.T @ aug
    mean = total / n
    _, vecs = np.linalg.eigh(gram - n * np.outer(mean, mean))
    keep = min(code_bits, dim_aug)
    top = vecs[:, ::-1][:, :keep]
    top *= np.sign(top[np.abs(top).argmax(axis=0), np.arange(keep)])
    projection = np.zeros((dim_aug, code_bits))
    projection[:, :keep] = top

    rng = np.random.default_rng(seed)
    rotation, _ = np.linalg.qr(rng.standard_normal((code_bits, code_bits)))
    sample = np.sort(rng.choice(n, ITQ_SAMPLE, replace=False)) if n > ITQ_SAMPLE else slice(None)
    aug = _augment_data(store.matrix[sample], max_norm)
    aug -= mean
    v = aug @ projection
    del aug
    # ||V R - B||^2 = ||V||^2 + ||B||^2 - 2 tr(R^T V^T B), and the Procrustes R
    # makes the trace the sum of the singular values of V^T B.
    base = float(np.vdot(v, v)) + v.size
    vr = np.empty_like(v)
    old = np.zeros(v.shape, dtype=bool)  # B = -1 everywhere, so V^T B starts at -V^T 1
    new = np.empty_like(old)
    vtb = np.repeat(-v.sum(axis=0)[:, None], code_bits, axis=1)
    objective: list[float] = []
    for _ in range(itq_iters):
        np.matmul(v, rotation, out=vr)
        np.greater_equal(vr, 0.0, out=new)
        # V^T B changes only in the rows whose signs flipped, by 2 V[rows]^T (new - old).
        flipped = np.flatnonzero((new != old).any(axis=1))
        for start in range(0, len(flipped), BLOCK_ROWS):
            rows = flipped[start : start + BLOCK_ROWS]
            vtb += 2.0 * (v[rows].T @ (new[rows].astype(np.float64) - old[rows]))
        old, new = new, old
        u, sigma, wt = np.linalg.svd(vtb)
        rotation = u @ wt
        objective.append(base - 2.0 * float(sigma.sum()))
    del v, vr, old, new

    codes = np.empty((n, -(-code_bits // 64)), dtype=np.uint64)
    for start in blocks:
        aug = _augment_data(store.matrix[start : start + BLOCK_ROWS], max_norm)
        aug -= mean
        codes[start : start + BLOCK_ROWS] = _pack_bits(aug @ projection @ rotation >= 0.0)
    return SitqIndex(
        max_norm=max_norm,
        mean=mean,
        projection=projection,
        rotation=rotation,
        codes=codes,
        raw=store,
        itq_objective=objective,
    )


def encode_query(index: SitqIndex, q: np.ndarray) -> np.ndarray:
    """Packed code for a query vector (normalized, zero-padded)."""
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (index.raw.dim,):
        raise DataError(f"query dim {q.shape} does not match store dim {index.raw.dim}")
    norm = np.linalg.norm(q)
    if norm == 0.0:
        raise DataError("cannot search with a zero query vector")
    qa = np.concatenate([q / norm, [0.0]])
    bits = ((qa - index.mean) @ index.projection @ index.rotation) >= 0.0
    return _pack_bits(bits[None, :])[0]


def query(
    index: SitqIndex,
    q: np.ndarray,
    top_n: int = RunConfig.top_n,
    probe: int | None = None,
) -> list[Candidate]:
    """Approximate MIPS: Hamming-scan candidates, exact re-rank.

    Returns up to ``top_n`` candidates ordered by exact inner product
    (descending, ties by id). ``probe`` rows with the smallest Hamming
    distance are examined; equal distances are broken by larger stored
    norm first (the better MIPS bet), then id. Ids compare in ``str``
    order, and each ``passage_id`` is the store's own id object.
    ``probe`` below ``top_n`` is raised to it.
    """
    check_setting("top_n", top_n)
    if probe is None:
        probe = 8 * top_n
    if probe < top_n:
        logger.warning("probe=%d < top_n=%d; raising probe", probe, top_n)
        probe = top_n
    probe = min(probe, len(index))

    qcode = encode_query(index, q)
    hamming = np.bitwise_count(index.codes ^ qcode).sum(axis=1, dtype=np.intp)
    norms, rank = index.raw.norms, index.rank
    # The cutoff is the smallest distance that reaches ``probe`` rows: every
    # row below it is taken, and only the rows at it are ranked to fill up.
    cutoff = int(np.searchsorted(np.cumsum(np.bincount(hamming)), probe))
    below = np.flatnonzero(hamming < cutoff)
    tied = np.flatnonzero(hamming == cutoff)
    tied = tied[np.lexsort((rank[tied], -norms[tied]))[: probe - len(below)]]
    pick = np.concatenate((below, tied))
    pick = pick[np.lexsort((rank[pick], -norms[pick], hamming[pick]))]

    ips = index.raw.matrix[pick].astype(np.float64) @ np.asarray(q, dtype=np.float64)
    order = np.lexsort((rank[pick], -ips))[:top_n]
    ids = index.raw.ids
    return [
        Candidate(passage_id=ids[pick[i]], hamming=int(hamming[pick[i]]), inner_product=float(ips[i]))
        for i in order
    ]


def save_index(index: SitqIndex, path: str | Path) -> None:
    """Persist everything but the raw vectors (they live in their own file)."""
    dim, (count, words) = index.raw.dim, index.codes.shape
    with Path(path).open("wb") as fh:
        fh.write(IDX_MAGIC)
        fh.write(struct.pack("<IIIIQd", dim, dim + 1, index.code_bits, words, count, index.max_norm))
        fh.write(index.mean.astype("<f8").tobytes())
        fh.write(np.ascontiguousarray(index.projection, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(index.rotation, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(index.codes, dtype="<u8").tobytes())
        for pid in index.ids:
            write_id(fh, pid)


def load_index(path: str | Path, store: VectorStore) -> SitqIndex:
    """Load a persisted index over exactly the ids of ``store``, each once."""
    path = Path(path)
    with path.open("rb") as fh:
        magic = fh.read(8)
        if magic != IDX_MAGIC:
            raise DataError(f"{path}: bad magic {magic!r}")
        dim, padded, code_bits, words, count, max_norm = struct.unpack(
            "<IIIIQd", read_exact(fh, 32, path)
        )
        if padded != dim + 1 or code_bits < 1 or words != -(-code_bits // 64):
            raise DataError(
                f"{path}: inconsistent header (dim {dim}, augmented dim {padded}, "
                f"code_bits {code_bits}, words {words})"
            )
        if dim != store.dim:
            raise DataError(f"{path}: index dim {dim} != store dim {store.dim}")
        body = 8 * (padded + padded * code_bits + code_bits * code_bits + count * words)
        if body + 2 * count > path.stat().st_size - 40:
            raise DataError(f"{path}: header claims {count} codes, file too short")

        def block(dtype: str, *shape: int) -> np.ndarray:
            buf = read_exact(fh, 8 * math.prod(shape), path)
            return np.frombuffer(buf, dtype=dtype).reshape(shape).copy()

        mean = block("<f8", padded)
        projection = block("<f8", padded, code_bits)
        rotation = block("<f8", code_bits, code_bits)
        codes = block("<u8", count, words)
        ids = [read_id(fh, path) for _ in range(count)]
        if fh.read(1):
            raise DataError(f"{path}: trailing bytes after {count} ids")
    rows: dict[str, int] = {}  # indexed id -> store row, in file order
    for pid in ids:
        if pid not in store:
            raise DataError(f"{path}: indexed id {pid!r} missing from the vector store")
        if pid in rows:
            raise DataError(f"{path}: id {pid!r} is indexed more than once")
        rows[pid] = store.row_index(pid)
    if count < len(store):
        absent = next(pid for pid in store.ids if pid not in rows)
        raise DataError(
            f"{path}: indexes {count} of the store's {len(store)} vectors; {absent!r} is not indexed"
        )
    aligned = np.empty_like(codes)
    aligned[list(rows.values())] = codes
    return SitqIndex(
        max_norm=max_norm,
        mean=mean,
        projection=projection,
        rotation=rotation,
        codes=aligned,
        raw=store,
    )
