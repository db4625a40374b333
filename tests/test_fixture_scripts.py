"""The scripts under ``scripts/``: the fixture generators reproduce the checked-in
fixtures byte for byte, and the demo runs both pipelines on them."""

from __future__ import annotations

import importlib.util
import json
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


def test_fixture_demo_prints_both_summaries(tmp_path, monkeypatch, capsys):
    module = load_script("run_fixture_demo")
    monkeypatch.setattr(module, "REPO", tmp_path)
    module.main_demo()
    summaries = {}
    for block in capsys.readouterr().out.split("=== ")[1:]:
        label, _, body = block.partition(" ===\n")
        summaries[label] = json.loads(body)
    emtt = summaries["embedding pipeline on the planted corpus"]
    gett = summaries["generative pipeline on the scripted corpus"]
    assert (emtt["type_count"], emtt["depth"], emtt["tcs"]) == (9, 2, 1.0)
    assert (gett["type_count"], gett["depth"], gett["tcs"]) == (8, 3, 1.0)
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["demo-emtt", "demo-gett"]
