"""Every input file, mutated, through ``cli.main``: an exit code or one ``error:`` line, never a traceback.

Each case copies one fixture input into a fresh directory, applies one
mutation to it and runs the subcommand that reads it. On exit 1 the last
stderr line is the error, and when that line names the mutated file the
run made nothing: ``--out-dir`` (or ``eval --out``) does not exist. Also
here: the guards that every input file is opened through ``open_input``,
that only ``pool.py`` forks, signals or reaps processes, that no module
imports another's private names, and that every module uses what it
imports.
"""

from __future__ import annotations

import ast
import contextlib
import io
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import taxoforge
from taxoforge.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
PLANTED = FIXTURES / "planted"
GETT = FIXTURES / "gett"

BOM = b"\xef\xbb\xbf"
# past the JSON decoder's recursion limit, the csv module's 131072-character
# field limit and the 4300-digit limit of int()
DEEP_JSON = b"[" * 100_000 + b"]" * 100_000
HUGE_FIELD = b"x" * 131_073
HUGE_INT = b"9" * 5_000
# config keys whose values a mutation can reach without touching any path
CONFIG = b"method=gett\nllm=scripted\nedge_scorer=constant\nseed=3\nk_max=8\ndelta=0.1\nmax_iters=5\n"


def _gett_run(tables: Path, script: Path, out: Path, *extra: str) -> list[str]:
    return [
        "run", "--method", "gett", "--llm", "scripted", "--script-path", str(script),
        "--edge-scorer", "constant", "--tables-dir", str(tables), "--out-dir", str(out), *extra,
    ]


def _emtt_run(tables: Path, out: Path, *extra: str) -> list[str]:
    return ["run", "--method", "emtt", "--tables-dir", str(tables), "--out-dir", str(out), *extra]


def table_case(work: Path) -> tuple[Path, list[list[str]], Path]:
    shutil.copytree(PLANTED / "tables", work / "tables")
    out = work / "out"
    return work / "tables" / "uni_col_1.csv", [_emtt_run(work / "tables", out)], out


def gt_case(name: str):
    def build(work: Path) -> tuple[Path, list[list[str]], Path]:
        shutil.copytree(GETT / "gt", work / "gt")
        out = work / "out"
        argv = _gett_run(GETT / "tables", GETT / "script.json", out, "--gt-path", str(work / "gt"))
        return work / "gt" / name, [argv], out

    return build


def subject_map_case(work: Path) -> tuple[Path, list[list[str]], Path]:
    path = work / "subjects.csv"
    path.write_bytes(b"# table_id,col_index\nuni_col_1,0\nveh_car_1,1\n")
    out = work / "out"
    return path, [_emtt_run(PLANTED / "tables", out, "--subject-col-map", str(path))], out


def config_case(work: Path) -> tuple[Path, list[list[str]], Path]:
    path = work / "run.cfg"
    path.write_bytes(CONFIG)
    out = work / "out"
    # the paths are flags, so no mutation can point the run at another directory
    return path, [_gett_run(GETT / "tables", GETT / "script.json", out, "--config", str(path))], out


def script_case(work: Path) -> tuple[Path, list[list[str]], Path]:
    path = work / "script.json"
    shutil.copy(GETT / "script.json", path)
    out = work / "out"
    return path, [_gett_run(GETT / "tables", path, out)], out


def taxonomy_case(work: Path) -> tuple[Path, list[list[str]], Path]:
    path = work / "taxonomy.json"
    shutil.copy(PLANTED / "gt" / "gt_taxonomy.json", path)
    out = work / "report.json"
    return path, [["eval", str(path), "--gt", str(PLANTED / "gt"), "--out", str(out)], ["stats", str(path)]], out


CASES = {
    "table": table_case,
    "gt-taxonomy": gt_case("gt_taxonomy.json"),
    "gt-annotations": gt_case("gt_annotations.csv"),
    "subject-map": subject_map_case,
    "config": config_case,
    "script": script_case,
    "taxonomy": taxonomy_case,
}


def _huge_int(data: bytes, at: int) -> bytes:
    # over the first number or JSON boolean, where a parser converts it; else inserted
    match = re.search(rb"\d+|true|false", data)
    if match:
        return data[: match.start()] + HUGE_INT + data[match.end() :]
    return data[:at] + HUGE_INT + data[at:]


@st.composite
def mutations(draw):
    """A ``(name, bytes -> bytes)`` pair; positions are fractions of the file length."""
    kind = draw(st.sampled_from(
        ["insert", "delete", "replace", "truncate", "bom", "invalid-utf8", "nul", "deep-json", "huge-field", "huge-int"]
    ))
    frac = draw(st.floats(min_value=0, max_value=1))
    chunk = draw(st.binary(min_size=1, max_size=4))
    span = draw(st.integers(min_value=1, max_value=64))

    def apply(data: bytes) -> bytes:
        at = int(frac * len(data))
        return {
            "insert": lambda: data[:at] + chunk + data[at:],
            "delete": lambda: data[:at] + data[at + span :],
            "replace": lambda: data[:at] + chunk + data[at + len(chunk) :],
            "truncate": lambda: data[:at],
            "bom": lambda: BOM + data,
            "invalid-utf8": lambda: data[:at] + b"caf\xe9" + data[at:],
            "nul": lambda: data[:at] + b"\x00" + data[at:],
            "deep-json": lambda: DEEP_JSON,
            "huge-field": lambda: data[:at] + HUGE_FIELD + data[at:],
            "huge-int": lambda: _huge_int(data, at),
        }[kind]()

    return kind, apply


@pytest.mark.parametrize("case", list(CASES))
@settings(derandomize=True, max_examples=25, deadline=None)
@given(mutation=mutations())
def test_mutated_input_ends_in_an_exit_code(case, mutation):
    _, apply = mutation
    with tempfile.TemporaryDirectory() as tmp:
        path, commands, out = CASES[case](Path(tmp))
        path.write_bytes(apply(path.read_bytes()))
        for argv in commands:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2)
            text = err.getvalue()
            assert "Traceback" not in text
            if code == 1:
                last = text.splitlines()[-1]
                assert last.startswith("error: ")
                if str(path) in last:
                    assert not out.exists()


# --- one opener ---------------------------------------------------------------

READ_CALLS = {"open", "read_text", "read_bytes"}
# reads that are not inputs: the vector cache's own files and the packaged prompts
ALLOWED_READERS = {"open_input", "VectorCache._open", "load_prompt"}


def _is_write(call: ast.Call) -> bool:
    """An ``open`` whose literal mode writes, appends or creates."""
    mode_at = 1 if isinstance(call.func, ast.Name) else 0  # open(path, mode) or path.open(mode)
    mode = call.args[mode_at] if len(call.args) > mode_at else None
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), mode)
    return isinstance(mode, ast.Constant) and bool(set(str(mode.value)) & set("wax"))


def file_reads(tree: ast.Module) -> list[tuple[str, int]]:
    """``(qualified function name, line)`` of every file read in ``tree``."""
    reads: list[tuple[str, int]] = []

    def visit(node: ast.AST, scope: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in READ_CALLS and not (name == "open" and _is_write(child)):
                    reads.append((".".join(scope) or "<module>", child.lineno))
            visit(child, scope)

    visit(tree, [])
    return reads


def test_file_reads_are_spotted():
    src = (
        "def a(p):\n    return open(p).read()\n"
        "def b(p):\n    with p.open('a') as fh:\n        fh.write('x')\n"
        "class C:\n    def c(self, p):\n        return p.read_bytes() + p.open(mode='rb').read()\n"
        "def d(p):\n    return open(p, 'w')\n"
    )
    assert file_reads(ast.parse(src)) == [("a", 2), ("C.c", 8), ("C.c", 8)]


def test_every_input_file_is_opened_through_open_input():
    package = Path(taxoforge.__file__).parent
    stray = [
        f"{path.name}:{line} {where}"
        for path in sorted(package.glob("*.py"))
        for where, line in file_reads(ast.parse(path.read_text(encoding="utf-8")))
        if where not in ALLOWED_READERS
    ]
    assert stray == []


# --- one process manager -------------------------------------------------------

PROCESS_CALLS = {
    "os": {"fork", "pipe", "waitpid", "kill", "_exit", "sched_getaffinity"},
    "signal": {"signal"},
}


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a chain of attributes on a name; ``None`` for any other expression."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return base and f"{base}.{node.attr}"
    return None


def module_calls(tree: ast.Module, calls: dict[str, set[str]]) -> list[tuple[int, str]]:
    """``(line, name)`` of every use of a function in ``calls`` (module to names) in
    ``tree``, as an attribute of its module or imported from it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            module = dotted_name(node.value)
            if node.attr in calls.get(module, ()):
                found.append((node.lineno, f"{module}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module in calls:
            found += [
                (node.lineno, f"{node.module}.{alias.name}")
                for alias in node.names
                if alias.name in calls[node.module]
            ]
    return sorted(found)


def process_calls(tree: ast.Module) -> list[tuple[int, str]]:
    return module_calls(tree, PROCESS_CALLS)


def test_process_calls_are_spotted():
    src = (
        "import os\nimport signal\nfrom os import fork as spawn, getpid\n"
        "def a():\n    return os.fork()\n"
        "def b(pid):\n    os.kill(pid, signal.SIGKILL)\n    signal.signal(signal.SIGTERM, signal.SIG_DFL)\n"
        "def c():\n    return os.getpid(), os.path.join('a'), hasattr(os, 'fork')\n"
        "leave = os._exit\n"
    )
    assert process_calls(ast.parse(src)) == [
        (3, "os.fork"), (5, "os.fork"), (7, "os.kill"), (8, "signal.signal"), (11, "os._exit")
    ]


def test_only_pool_manages_processes():
    package = Path(taxoforge.__file__).parent
    stray = [
        f"{path.name}:{line} {name}"
        for path in sorted(package.glob("*.py"))
        if path.name != "pool.py"
        for line, name in process_calls(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert stray == []


# --- one thread starter ----------------------------------------------------------

THREAD_CALLS = {
    "threading": {"Thread", "Timer"},
    "concurrent.futures": {"ThreadPoolExecutor"},
    "multiprocessing.pool": {"ThreadPool"},
}


def thread_calls(tree: ast.Module) -> list[tuple[int, str]]:
    return module_calls(tree, THREAD_CALLS)


def test_thread_calls_are_spotted():
    src = (
        "import threading\nimport concurrent.futures\n"
        "from concurrent.futures import ThreadPoolExecutor as Pool, wait\n"
        "def a(f):\n    return threading.Thread(target=f)\n"
        "def b():\n    return concurrent.futures.ThreadPoolExecutor(2), threading.Lock(), threading.active_count()\n"
        "later = threading.Timer\n"
    )
    assert thread_calls(ast.parse(src)) == [
        (3, "concurrent.futures.ThreadPoolExecutor"),
        (5, "threading.Thread"),
        (7, "concurrent.futures.ThreadPoolExecutor"),
        (8, "threading.Timer"),
    ]


def test_only_remote_starts_threads():
    # every thread is a remote call, so remote.MAX_IN_FLIGHT alone caps open connections
    package = Path(taxoforge.__file__).parent
    stray = [
        f"{path.name}:{line} {name}"
        for path in sorted(package.glob("*.py"))
        if path.name != "remote.py"
        for line, name in thread_calls(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert stray == []
    remote_src = (package / "remote.py").read_text(encoding="utf-8")
    assert [name for _, name in thread_calls(ast.parse(remote_src))] == ["concurrent.futures.ThreadPoolExecutor"]


# --- module boundaries -----------------------------------------------------------


def test_no_module_imports_a_private_name_of_another():
    package = Path(taxoforge.__file__).parent
    private = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "taxoforge")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


# emtt imports cut and silhouette without calling them: bench/tracer.py wraps them there by name
UNUSED_IMPORTS_ALLOWED = {("emtt.py", "cut"), ("emtt.py", "silhouette")}


def unused_imports(tree: ast.Module) -> list[tuple[str, int]]:
    """``(bound name, line)`` of every top-level import in ``tree`` that no name in it reads."""
    bound = [
        (alias.asname or alias.name.split(".")[0], node.lineno)
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(name, line) for name, line in bound if name not in read]


def test_unused_imports_are_spotted():
    src = (
        "from __future__ import annotations\nimport logging\nimport os.path\n"
        "from .x import a, b as c\nfrom .y import d\n"
        "def f() -> d:\n    return os.path.join(a)\n"
    )
    assert unused_imports(ast.parse(src)) == [("logging", 2), ("c", 4)]


def test_every_module_uses_what_it_imports():
    package = Path(taxoforge.__file__).parent
    unused = [
        f"{path.name}:{line} {name}"
        for path in sorted(package.glob("*.py"))
        for name, line in unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if (path.name, name) not in UNUSED_IMPORTS_ALLOWED
    ]
    assert unused == []
