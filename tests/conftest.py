import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest

from obstructia import fincat, homotopy


def base_seed() -> int:
    return int(os.environ.get("OBSTRUCTIA_SEED", "0"))


@pytest.fixture
def seed() -> int:
    return base_seed()


@pytest.fixture(autouse=True)
def cold_memos(monkeypatch):
    """Every test starts with no text parsed, no walk taken and no powerset
    report kept, so what it exercises does not depend on which tests ran
    before it."""
    fincat._parse.cache_clear()
    monkeypatch.setattr(fincat, "_WALKS", fincat._WalkMemo())
    monkeypatch.setattr(homotopy, "_KEPT", homotopy._KeptReport())
