"""Precomputed-embedding ingestion.

All neural encoders live outside this package; their outputs arrive as
files. Two transports are supported: a compact binary format for bulk
passage/sentence vectors and JSONL for small fixtures. Token-level
documents for transport distances are normalized bags of words over a
vector lookup.

Binary layout (little-endian throughout):
    magic "ISEQVEC1" | u32 dim | u64 count |
    per row: u16 id_len | id utf-8 | dim * f32
"""

from __future__ import annotations

import json
import logging
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from .errors import DataError, EmptyInputError, ParseError

logger = logging.getLogger(__name__)

VEC_MAGIC = b"ISEQVEC1"
MAX_ID_BYTES = 0xFFFF  # the binary formats store an id's UTF-8 length in a u16
NORM_BLOCK_ROWS = 1024  # rows widened to float64 at a time for the norms


@dataclass
class VectorStore:
    """Immutable id-keyed float32 matrix with precomputed row norms."""

    ids: list[str]
    matrix: np.ndarray  # (len(ids), dim) float32, row-major
    dim: int = field(init=False)
    norms: np.ndarray = field(init=False)  # (len(ids),) float64

    def __post_init__(self):
        self.dim = self.matrix.shape[1]
        self.norms = np.empty(len(self.matrix))  # per row, so blocks give the same bits
        for start in range(0, len(self.matrix), NORM_BLOCK_ROWS):
            block = self.matrix[start : start + NORM_BLOCK_ROWS].astype(np.float64)
            self.norms[start : start + NORM_BLOCK_ROWS] = np.linalg.norm(block, axis=1)
        self._row_of = {pid: i for i, pid in enumerate(self.ids)}
        if not len(self._row_of) == len(self.ids) == len(self.matrix):
            raise DataError(f"vector store needs one id per row, no duplicates; got {len(self.ids)} "
                            f"ids ({len(self._row_of)} distinct) for {len(self.matrix)} rows")

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, vec_id: str) -> bool:
        return vec_id in self._row_of

    def row(self, vec_id: str) -> np.ndarray:
        return self.matrix[self._row_of[vec_id]]

    def row_index(self, vec_id: str) -> int:
        return self._row_of[vec_id]


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield ``(line_no, line)`` for each line of a UTF-8 text file, newline kept.

    A line that is not UTF-8 raises :class:`ParseError` with path and line.
    """
    with Path(path).open("rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}: invalid UTF-8: {exc}", line_no) from exc
            yield line_no, line


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield ``(line_no, record)`` for each non-blank line of a JSONL file.

    A line that is not UTF-8 or not a JSON object raises
    :class:`ParseError`; callers check the fields with :func:`typed_field`.
    """
    for line_no, line in read_lines(path):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
            raise ParseError(f"{path}: {exc}", line_no) from exc
        if not isinstance(record, dict):
            raise ParseError(f"{path}: expected a JSON object", line_no)
        yield line_no, record


_REQUIRED = object()

# kind -> (test, what the value must be), for the kinds typed_field returns as they are
_SHAPES = {
    object: (lambda v: True, "any value"),
    str: (lambda v: isinstance(v, str), "a string"),
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    list: (lambda v: isinstance(v, list), "a list"),
    list[str]: (lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
                "a list of strings"),
}


def typed_field(record: dict, key: str, kind, path: str | Path, line_no: int, default=_REQUIRED):
    """``record[key]`` checked against ``kind``, for a record of :func:`read_jsonl`.

    ``kind`` is ``object`` (any value; ids, which callers read with
    ``str()``), ``str``, ``int`` (not a bool), ``list``, ``list[str]``,
    ``float`` (a finite JSON number, not a bool, returned as a float) or
    ``list[float]`` (a flat list of such numbers). A missing key returns
    ``default`` if given; anything else raises :class:`ParseError` with
    path and line.
    """
    if key not in record:
        if default is _REQUIRED:
            raise ParseError(f"{path}: missing '{key}'", line_no)
        return default
    value = record[key]
    if kind in _SHAPES:
        test, shape = _SHAPES[kind]
        if test(value):
            return value
        raise ParseError(f"{path}: '{key}' must be {shape}, not {type(value).__name__}", line_no)
    if kind is float:
        return _finite_number(value, key, path, line_no)
    if kind == list[float]:
        values = typed_field(record, key, list, path, line_no)
        return [_finite_number(v, key, path, line_no) for v in values]
    raise TypeError(f"unsupported field kind {kind!r}")


def _finite_number(value, key: str, path: str | Path, line_no: int) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{path}: '{key}' must be a number, not {type(value).__name__}", line_no)
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ParseError(f"{path}: '{key}' must be a finite number, not {number!r}", line_no)
    return number


def read_exact(fh: BinaryIO, n: int, origin: str | Path) -> bytes:
    """Exactly ``n`` bytes from ``fh``; a short read is a truncated file."""
    buf = fh.read(n)
    if len(buf) != n:
        raise DataError(f"{origin}: truncated at byte {fh.tell()}")
    return buf


def write_id(fh: BinaryIO, vec_id: str) -> None:
    """Write an id as u16 byte length + UTF-8 bytes."""
    encoded = vec_id.encode("utf-8")
    if len(encoded) > MAX_ID_BYTES:
        raise ValueError(f"id too long: {vec_id[:32]!r}...")
    fh.write(struct.pack("<H", len(encoded)))
    fh.write(encoded)


def read_id(fh: BinaryIO, origin: str | Path) -> str:
    """Inverse of :func:`write_id`."""
    (n,) = struct.unpack("<H", read_exact(fh, 2, origin))
    try:
        return read_exact(fh, n, origin).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{origin}: id is not valid UTF-8 near byte {fh.tell()}") from exc


def _finish_store(ids: list[str], matrix: np.ndarray, origin: str) -> VectorStore:
    if matrix.size and not np.isfinite(matrix).all():
        bad = int(np.argwhere(~np.isfinite(matrix).all(axis=1))[0][0])
        raise DataError(f"{origin}: non-finite value in vector {ids[bad]!r}")
    return VectorStore(ids, matrix)


def load_vectors(path: str | Path) -> VectorStore:
    """Load a vector store, sniffing binary vs JSONL by the magic bytes."""
    path = Path(path)
    with path.open("rb") as fh:
        if fh.read(8) == VEC_MAGIC:
            return _load_binary(fh, path)
    return _load_jsonl(path)


def _load_binary(fh: BinaryIO, path: Path) -> VectorStore:
    """Rows of an open ``ISEQVEC1`` file positioned after the magic.

    Each row's floats are read straight into its slice of the matrix;
    no buffer holds more than one id.
    """
    dim, count = struct.unpack("<IQ", read_exact(fh, 12, path))
    row_bytes = dim * 4
    if count * (2 + row_bytes) > path.stat().st_size - 20:
        raise DataError(f"{path}: header claims {count} rows of dim {dim}, file too short")
    ids: list[str] = []
    matrix = np.empty((count, dim), dtype="<f4")
    flat = memoryview(matrix.reshape(-1).view(np.uint8))  # a cast view rejects 0 rows or dim 0
    for i in range(count):
        ids.append(read_id(fh, path))
        if fh.readinto(flat[i * row_bytes : (i + 1) * row_bytes]) != row_bytes:
            raise DataError(f"{path}: truncated at byte {fh.tell()}")
    return _finish_store(ids, matrix, str(path))


def _load_jsonl(path: Path) -> VectorStore:
    ids: list[str] = []
    rows: list[list[float]] = []
    for line_no, record in read_jsonl(path):
        ids.append(str(typed_field(record, "id", object, path, line_no)))
        try:  # accept only the ids the binary formats can hold
            size = len(ids[-1].encode("utf-8"))
        except UnicodeEncodeError as exc:  # a lone surrogate such as "\ud800"
            raise ParseError(f"{path}: 'id' is not valid Unicode: {exc}", line_no) from exc
        if size > MAX_ID_BYTES:
            raise ParseError(f"{path}: 'id' is {size} UTF-8 bytes; at most {MAX_ID_BYTES} fit", line_no)
        vec = typed_field(record, "vec", list[float], path, line_no)
        if rows and len(vec) != len(rows[0]):
            raise ParseError(f"{path}: dim mismatch ({len(vec)} != {len(rows[0])})", line_no)
        rows.append(vec)
    if not rows:
        raise EmptyInputError(f"{path}: no vectors")
    return _finish_store(ids, np.array(rows, dtype=np.float32), str(path))


def save_vectors(path: str | Path, ids: list[str], matrix: np.ndarray) -> None:
    """Write the binary transport format. Round-trips bit-exactly."""
    matrix = np.ascontiguousarray(matrix, dtype=np.float32)
    if matrix.ndim != 2 or matrix.shape[0] != len(ids):
        raise ValueError("matrix must be 2-D with one row per id")
    with Path(path).open("wb") as fh:
        fh.write(VEC_MAGIC)
        fh.write(struct.pack("<IQ", matrix.shape[1], matrix.shape[0]))
        for vec_id, row in zip(ids, matrix):
            write_id(fh, vec_id)
            fh.write(row.astype("<f4").tobytes())


@dataclass
class TokenDoc:
    """Token-level embedding bag with nBOW weights.

    Duplicate tokens are collapsed; ``weights`` are occurrence counts
    normalized to sum to 1.
    """

    doc_id: str
    tokens: list[str]
    vectors: np.ndarray  # (len(tokens), dim) float32
    weights: np.ndarray  # (len(tokens),) float64, sums to 1

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def build_token_doc(doc_id: str, tokens: list[str], lookup: VectorStore) -> TokenDoc:
    """Assemble a TokenDoc from raw tokens and a token-vector lookup.

    Raises :class:`EmptyInputError` when no token has a vector; otherwise
    unknown tokens are dropped with a warning.
    """
    row_of = lookup._row_of
    counts: dict[str, int] = {}
    dropped = 0
    for token in tokens:
        if token in row_of:
            counts[token] = counts.get(token, 0) + 1
        else:
            dropped += 1
    if not counts:
        raise EmptyInputError(f"doc {doc_id}: no tokens with vectors")
    if dropped:
        logger.warning("doc %s: dropped %d tokens missing from lookup", doc_id, dropped)
    kept = list(counts)
    total = sum(counts.values())
    vectors = lookup.matrix[[row_of[t] for t in kept]]
    weights = np.array([counts[t] / total for t in kept], dtype=np.float64)
    return TokenDoc(doc_id=doc_id, tokens=kept, vectors=vectors, weights=weights)


def load_token_docs(path: str | Path, lookup: VectorStore) -> list[TokenDoc]:
    """Token docs from ``{"id", "tokens": [...]}`` JSONL, via :func:`build_token_doc`."""
    return [
        build_token_doc(str(typed_field(record, "id", object, path, line_no)),
                        typed_field(record, "tokens", list[str], path, line_no), lookup)
        for line_no, record in read_jsonl(path)
    ]
