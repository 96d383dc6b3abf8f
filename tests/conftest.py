from pathlib import Path

import numpy as np
import pytest

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260816)


@pytest.fixture(scope="session")
def connected8_path() -> Path:
    path = DATA_DIR / "connected8.g6"
    if not path.exists():
        pytest.fail(
            "tests/data/connected8.g6 is missing; regenerate it with "
            "tools/make_stream.py --order 8"
        )
    return path
