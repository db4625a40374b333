from __future__ import annotations

import os
from pathlib import Path

import hypothesis
import pytest

hypothesis.settings.register_profile("default", deadline=None)
hypothesis.settings.load_profile("default")

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def planted_dir() -> Path:
    return FIXTURES / "planted"


@pytest.fixture(scope="session")
def gett_dir() -> Path:
    return FIXTURES / "gett"


@pytest.fixture()
def sleeps(monkeypatch):
    """Backoff sleeps of the remote client, recorded instead of slept."""
    calls: list[float] = []
    monkeypatch.setattr("taxoforge.remote.sleep", calls.append)
    return calls


@pytest.fixture()
def usable_cpus(monkeypatch):
    """Set how many CPUs ``pool.run`` sees as usable, with any emtt type's clustering worth a fork."""

    def set_cpus(n: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        monkeypatch.setattr("taxoforge.emtt.MIN_SHARE_COST", 1)

    return set_cpus
