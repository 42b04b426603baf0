import numpy as np
import pytest

from iseeq.embeddings import VectorStore
from iseeq.kg import load_kg

DATA_DIR = __file__.rsplit("/", 1)[0] + "/data"

CAREER_QUERY = (
    "Want to consider career options from becoming a physician's assistant vs a nurse"
)
CAREER_ENTITIES = {"career", "career_options", "physician", "physician_assistant", "nurse"}


@pytest.fixture(scope="session")
def career_kg_path():
    return f"{DATA_DIR}/career_kg.tsv"


@pytest.fixture(scope="session")
def career_kg(career_kg_path):
    return load_kg(career_kg_path)


def make_store(ids, matrix) -> VectorStore:
    return VectorStore(list(ids), np.asarray(matrix, dtype=np.float32))


def random_store(rng, n, dim, prefix="v") -> VectorStore:
    return make_store([f"{prefix}{i}" for i in range(n)], rng.standard_normal((n, dim)))
