"""The benchmark in ``perfbench/`` reaches into iseeq by module attribute.

Its traced pass wraps every ``(module, attribute)`` in
``perfbench/tracing.py``'s ``WRAPPED`` table, and its workloads call the
entry points listed below. A refactor that renames one of them breaks
the benchmark with an ``AttributeError``; these tests catch that first.
"""

import importlib
import importlib.util
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from iseeq import sitq
from iseeq.config import RunConfig
from iseeq.embeddings import VectorStore

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _wrapped() -> list[tuple[str, str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


def _resolve(module_name: str, dotted: str):
    obj = importlib.import_module(module_name)
    for attr in dotted.split("."):
        obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize("module_name,attr,span", _wrapped())
def test_traced_attribute_is_callable(module_name, attr, span):
    assert callable(_resolve(module_name, attr))


@pytest.mark.parametrize(
    "module_name,attr",
    [
        ("iseeq.cli", "main"),
        ("iseeq.embeddings", "save_vectors"),
        ("iseeq.kpr", "Passage"),
        ("iseeq.kpr", "tokenize_text"),
        ("iseeq.kpr", "batch_passages"),
        ("iseeq.kpr", "RetrievalResult.to_dict"),
        ("iseeq.kpr", "CoverageReport.to_dict"),
        ("iseeq.sqe", "QueryDescription"),
        ("iseeq.sqe", "QueryKind"),
        ("iseeq.errors", "EmptyInputError"),
    ],
)
def test_workload_entry_point_is_callable(module_name, attr):
    assert callable(_resolve(module_name, attr))


def test_run_config_has_the_settings_workloads_read():
    names = {f.name for f in fields(RunConfig)}
    assert {"code_bits", "itq_iters", "seed", "top_n", "top_k", "nes_threshold", "probe"} <= names


def test_index_exposes_what_workloads_read(tmp_path):
    """``Ann100k.extras`` compares ``codes`` and ``ids`` of a built and a
    loaded index, and ``layers.py`` takes ``len()`` of one."""
    ids = [f"v{i}" for i in range(20)]
    store = VectorStore(ids, np.random.default_rng(0).standard_normal((20, 3)).astype(np.float32))
    built = sitq.build_index(store, code_bits=8, itq_iters=2)
    sitq.save_index(built, tmp_path / "index.bin")
    loaded = sitq.load_index(tmp_path / "index.bin", store)
    for index in (built, loaded):
        assert index.codes.shape == (20, 1)
        assert len(index) == 20
        assert index.ids == ids
    assert np.array_equal(loaded.codes, built.codes)


def test_query_results_expose_what_checks_read():
    """``checks.check_ann`` and ``checks.recall`` read each candidate's
    ``passage_id`` and ``inner_product``; ``hamming`` is part of the record."""
    ids = [f"v{i}" for i in range(20)]
    matrix = np.random.default_rng(1).standard_normal((20, 3)).astype(np.float32)
    index = sitq.build_index(VectorStore(ids, matrix), code_bits=8, itq_iters=2)
    (top,) = sitq.query(index, np.array([1.0, 0.0, 0.0]), top_n=1, probe=20)
    assert top.passage_id in ids
    assert isinstance(top.hamming, int) and 0 <= top.hamming <= 8
    assert top.inner_product == float(matrix[ids.index(top.passage_id)].astype(np.float64) @ [1.0, 0.0, 0.0])
