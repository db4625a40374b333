"""The numpy-free commands behave the same on every supported CPython found.

Each command runs as ``python -m taxoforge.cli`` under the running
interpreter and under one interpreter of each other version from 3.10 on,
found on ``PATH`` as ``python3.X`` or under ``$PYENV_ROOT/versions``. Exit
code, stdout, the last stderr line and every artifact's bytes must agree.
emtt needs numpy, which another interpreter need not have, so it is not run
here. With no other interpreter found the test skips and names the versions
it looked for.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import taxoforge

FIXTURES = Path(__file__).parent / "fixtures"
GETT = FIXTURES / "gett"
PLANTED = FIXTURES / "planted"
VERSIONS = ("3.10", "3.11", "3.12", "3.13")
RUNNING = "%d.%d" % sys.version_info[:2]
# the child imports the same package as this process, installed or not, and writes no
# bytecode of its own version beside it
ENV = {
    "PATH": os.defpath,
    "PYTHONPATH": str(Path(taxoforge.__file__).resolve().parents[1]),
    "PYTHONDONTWRITEBYTECODE": "1",
}


def _version(exe: str) -> tuple[int, int] | None:
    """``(major, minor)`` of an interpreter; ``None`` when it does not start in ``ENV``.

    A pyenv shim for a version pyenv has not selected prints
    ``pyenv: python3.10: command not found`` and exits 127, and outside
    pyenv's ``PATH`` no shim starts.
    """
    code = "import sys; print('%d %d' % sys.version_info[:2])"
    try:
        proc = subprocess.run([exe, "-c", code], capture_output=True, text=True, env=ENV, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    major, minor = proc.stdout.split()
    return int(major), int(minor)


def find_interpreters() -> dict[str, str]:
    """``"3.X"`` -> one interpreter of that version, 3.10 or later, other than the running one."""
    pyenv = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    names = [shutil.which(f"python{v}") for v in VERSIONS]
    names += [str(p) for p in sorted(pyenv.glob("versions/*/bin/python3"))]
    found: dict[str, str] = {}
    for exe in filter(None, names):
        version = _version(exe)
        if version is None or version < (3, 10):
            continue
        key = "%d.%d" % version
        if key != RUNNING and key not in found:
            found[key] = exe
    return found


@pytest.fixture(scope="module")
def interpreters() -> dict[str, str]:
    found = find_interpreters()
    if not found:
        missing = [v for v in VERSIONS if v != RUNNING]
        pytest.skip(f"no other CPython found; looked for {', '.join(missing)}")
    return found


PLANTED_TABLE = (PLANTED / "tables" / "uni_col_1.csv").read_bytes()


def _mutated_tables(content: bytes):
    """``ingest-check`` on the planted tables with ``uni_col_1.csv`` replaced by ``content``."""

    def build(inputs: Path) -> list[str]:
        shutil.copytree(PLANTED / "tables", inputs / "tables")
        (inputs / "tables" / "uni_col_1.csv").write_bytes(content)
        return ["ingest-check", "../in/tables"]

    return build


def _taxonomy_file(content: bytes):
    """``stats`` on a taxonomy file holding ``content``."""

    def build(inputs: Path) -> list[str]:
        (inputs / "taxonomy.json").write_bytes(content)
        return ["stats", "../in/taxonomy.json"]

    return build


def _fixed(*argv: str):
    return lambda inputs: list(argv)


GT_TAXONOMY = str(GETT / "gt" / "gt_taxonomy.json")
# case -> (argv builder, the running interpreter's exit code)
CASES = {
    "gett-fixture": (
        _fixed(
            "run", "--method", "gett", "--llm", "scripted", "--edge-scorer", "llm", "--seed", "3",
            "--script-path", str(GETT / "script.json"), "--tables-dir", str(GETT / "tables"),
            "--gt-path", str(GETT / "gt"), "--out-dir", "out",
        ),
        0,
    ),
    "eval": (_fixed("eval", GT_TAXONOMY, "--gt", str(GETT / "gt"), "--out", "report.json"), 0),
    "stats": (_fixed("stats", GT_TAXONOMY), 0),
    "ingest-check": (_fixed("ingest-check", str(PLANTED / "tables")), 0),
    "table-nul": (_mutated_tables(PLANTED_TABLE.replace(b"North", b"No\x00rth")), 1),
    "table-bom": (_mutated_tables(b"\xef\xbb\xbf" + PLANTED_TABLE), 0),
    "table-cr-newlines": (_mutated_tables(PLANTED_TABLE.replace(b"\r\n", b"\r")), 0),
    # a quote, or a line break str.splitlines knows and csv does not, sends a table to csv
    "table-quoted": (_mutated_tables(PLANTED_TABLE.replace(b"North Ridge", b'"North,\r\nRidge"')), 0),
    "table-vertical-tab": (_mutated_tables(PLANTED_TABLE.replace(b"North", b"No\x0brth")), 0),
    "table-long-field": (_mutated_tables(PLANTED_TABLE + b"x" * 200_000 + b",1,urban,1900-01-01\n"), 1),
    "taxonomy-deep": (_taxonomy_file(b"[" * 100_000 + b"]" * 100_000), 1),
    "taxonomy-huge-int": (_taxonomy_file(b'{"types": ' + b"9" * 5000 + b"}"), 1),
    "bad-method": (_fixed("run", "--method", "bogus"), 1),
}


def run_command(exe: str, argv: list[str], cwd: Path) -> tuple[int, bytes, str, dict[str, bytes]]:
    """Exit code, stdout, last stderr line and every file written, of one run in a new ``cwd``."""
    cwd.mkdir()
    proc = subprocess.run(
        [exe, "-m", "taxoforge.cli", *argv], cwd=cwd, capture_output=True, env=ENV, timeout=120
    )
    err = proc.stderr.decode("utf-8", "replace").splitlines()
    artifacts = {str(p.relative_to(cwd)): p.read_bytes() for p in sorted(cwd.rglob("*")) if p.is_file()}
    return proc.returncode, proc.stdout, err[-1] if err else "", artifacts


@pytest.mark.parametrize("case", list(CASES))
def test_command_agrees_across_interpreters(interpreters, tmp_path, case):
    build, code = CASES[case]
    inputs = tmp_path / "in"
    inputs.mkdir()
    argv = build(inputs)
    # every run is in a sibling of in/, so paths in error lines read the same
    runs = {RUNNING: sys.executable, **interpreters}
    with ThreadPoolExecutor(max_workers=len(runs)) as pool:
        futures = {v: pool.submit(run_command, exe, argv, tmp_path / v) for v, exe in runs.items()}
        results = {v: f.result() for v, f in futures.items()}
    expected = results.pop(RUNNING)
    assert expected[0] == code, expected[2]
    if case == "taxonomy-huge-int":
        # 3.10 says "Exceeds the limit (4300) for integer string conversion",
        # 3.11 and later "(4300 digits)": compare up to the path, which is ours
        prefix = "error: ../in/taxonomy.json: "
        assert expected[2].startswith(prefix)
        results = {v: (r[0], r[1], r[2][: len(prefix)], r[3]) for v, r in results.items()}
        expected = (expected[0], expected[1], prefix, expected[3])
    for version, result in results.items():
        assert result == expected, f"{case} on {version} ({interpreters[version]})"
