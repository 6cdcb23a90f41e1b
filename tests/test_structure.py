"""The package's design rules, held mechanically:

- stdlib-only: every absolute import names a standard-library module;
- no alias that only renames: no two public names are bound to one object,
  and no two `number` families print the same record under another name;
- no concurrency and no module-level cache;
- one way to build a triangle: `CoeffTable(...)` is called only in
  `stirling.py`.

The rules read the sources with `ast`. The two that need live objects run in
`python -m polyfam` or `python -c` child processes, so this module never
imports polyfam and runs on any Python from 3.10, where
`sys.stdlib_module_names` arrived.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

from conftest import SRC, run_cli

PACKAGE = Path(SRC) / "polyfam"
TREES = {
    path.name: ast.parse(path.read_text(), str(path))
    for path in sorted(PACKAGE.glob("*.py"))
}
SUBMODULES = ("algebra", "bernoulli", "cauchy", "harness", "stirling")


def _absolute_imports(tree: ast.AST):
    """(module, name) for every absolute import in `tree`, at any depth; name
    is None for a plain `import module`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                yield node.module, alias.name


def test_every_module_imports_only_the_standard_library():
    tops = {
        module.split(".")[0]
        for tree in TREES.values()
        for module, _ in _absolute_imports(tree)
    }
    assert tops <= sys.stdlib_module_names, tops - sys.stdlib_module_names
    # cli's `import csv` sits inside a function: the walk reaches it.
    assert "csv" in tops


def test_no_module_runs_threads_or_keeps_a_function_cache():
    found = []
    for name, tree in TREES.items():
        for module, imported in _absolute_imports(tree):
            if module.split(".")[0] in ("threading", "concurrent", "multiprocessing"):
                found.append((name, module))
            if module == "functools" and imported in ("lru_cache", "cache"):
                found.append((name, imported))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in ("lru_cache", "cache")
                and getattr(node.value, "id", None) == "functools"
            ):
                found.append((name, node.attr))
    assert found == []


def test_only_stirling_builds_a_coefficient_triangle():
    builders = set()
    for name, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "CoeffTable" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None),
            ):
                builders.add(name)
    assert builders == {"stirling.py"}


def test_no_two_public_names_are_bound_to_one_object():
    child = (
        "import importlib, json\n"
        "names = {}\n"
        f"for module in {SUBMODULES!r}:\n"
        "    mod = importlib.import_module('polyfam.' + module)\n"
        "    for name in mod.__all__:\n"
        "        names.setdefault(id(getattr(mod, name)), set()).add(name)\n"
        "print(json.dumps(sorted(sorted(n) for n in names.values() if len(n) > 1)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def _number_families() -> list:
    """The keys of cli.FAMILY_ROUTES, read from its dict literal."""
    for node in ast.walk(TREES["cli.py"]):
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "FAMILY_ROUTES" for target in node.targets
        ):
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError("cli.py defines no FAMILY_ROUTES")


def test_no_number_family_only_renames_another():
    # --k 2 shows that cauchy-1 and cauchy-2 force k = 1.
    seen = {}
    for family in _number_families():
        proc = run_cli("number", family, "--n", "2", "--k", "2")
        assert proc.returncode == 0, proc.stderr
        (line,) = proc.stdout.splitlines()
        record = json.loads(line)
        del record["family"]
        seen.setdefault(json.dumps(record, sort_keys=True), []).append(family)
    assert [names for names in seen.values() if len(names) > 1] == []
