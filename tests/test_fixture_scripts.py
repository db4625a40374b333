"""The fixture generators under ``scripts/`` reproduce the checked-in fixtures byte for byte."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SCRIPTS = TESTS.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize(
    "script, fixture",
    [("gen_gett_fixture", "gett"), ("gen_planted_corpus", "planted")],
)
def test_generator_reproduces_checked_in_fixture(tmp_path, monkeypatch, script, fixture):
    module = load_script(script)
    monkeypatch.setattr(module, "FIXTURE_DIR", tmp_path)
    module.main()
    assert tree_bytes(tmp_path) == tree_bytes(TESTS / "fixtures" / fixture)
