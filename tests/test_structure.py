"""The package's design rules, held mechanically:

- stdlib-only: every absolute import names a standard-library module;
- no alias that only renames: no two public names are bound to one object,
  no two `number` families print the same record under another name, no
  function below the sweep layer only forwards its own parameters, and no
  two private functions there differ in one name alone;
- no concurrency and no module-level cache;
- one way to build a triangle: `CoeffTable(...)` is called only in
  `stirling.py`;
- a box is its lengths: below the point records no family function takes k
  beside `lengths`, so k = len(lengths) is checked in one place, and only
  `FamilyPoint` raises the box-length messages;
- the layers import downward: the family modules, `transforms` among
  them, never import the sweep layer (`harness`) or the command line
  (`cli`); the package imports `transforms` and the sweep layer only on
  first use, reading their names from their `__all__` with no copy of one
  in `__init__.py`; and `cli` imports the sweep layer only to verify;
- the package exports what it computes: every name in a submodule's
  `__all__` is read by another line of the package, named by the benchmark
  (`perfbench/*.py`), or one of the paper's objects listed in `KEPT`. A
  check that only tests call lives in `tests/oracles.py`;
- a catalog entry's names are looked up in one place: in `harness.py` only
  `verify` reads `globals()`, and every argument of a `CATALOG` entry is a
  literal (or a module-level name bound to one), none of them a tuple that
  holds a string, so each name is a top-level string `verify` resolves;
- one evaluator serves many entries: every evaluator of `CATALOG` but
  `_eval_T41` serves at least two, so an entry names its routes in its
  arguments rather than in an evaluator of its own;
- an entry names the points it takes: outside `CATALOG` no code in
  `harness.py` holds a catalog id as a string, so the sweep reads an entry's
  `points` field and never tests its id;
- the benchmark's tracer runs on the package: `Tracer.install` from
  `perfbench/tracing.py` raises nothing, so every `algebra` method it reads
  as `vars(cls)[name]` is defined in its class's own body, and no polyfam
  module still binds a function that it wrapped in another.

The rules read the sources with `ast`. The live ones read the facts that one
`-X dev -W error` child prints: it imports every polyfam module, runs `number`
through `cli.main` and installs the tracer. So this module never imports
polyfam and runs on any Python from 3.10, where `sys.stdlib_module_names`
arrived.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import PYTHON, SRC

PACKAGE = Path(SRC) / "polyfam"
PERFBENCH = Path(SRC).parent / "perfbench"
TREES = {
    path.name: ast.parse(path.read_text(), str(path))
    for path in sorted(PACKAGE.glob("*.py"))
}
SUBMODULES = ("algebra", "bernoulli", "cauchy", "harness", "stirling", "transforms")
# The family layer, below the sweep: the inversion transforms sit here too.
FAMILIES = ("algebra", "stirling", "cauchy", "bernoulli", "transforms")


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


def _functions(body, prefix=""):
    """(qualified name, node) for every function defined in `body`, methods
    and nested functions included."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = prefix + node.name
            if isinstance(node, ast.FunctionDef):
                yield name, node
            yield from _functions(node.body, name + ".")


# The point records take k and their lengths, and FamilyPoint checks that the
# two agree; `specialize` builds its unit box from k. Every other function
# reads k from len(lengths) or from a FamilyPoint.
BOX_BUILDERS = {"cauchy.FamilyPoint.__init__", "cauchy.specialize"}


def test_no_family_function_takes_k_beside_the_box_lengths():
    both = set()
    for module in FAMILIES:
        for name, node in _functions(TREES[f"{module}.py"].body):
            args = node.args
            params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            if {"k", "lengths"} <= params:
                both.add(f"{module}.{name}")
    assert both - BOX_BUILDERS == set()


def _message(node: ast.expr) -> str:
    """The text of a string or f-string literal, each field read as {}."""
    if isinstance(node, ast.JoinedStr):
        return "".join(_message(part) for part in node.values)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return "{}"


def _raised_messages(node):
    """The message of every `raise E(message)` in a function's own body, not
    in the functions and classes it defines."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            continue
        if isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call):
            yield " ".join(_message(arg) for arg in child.exc.args)
        yield from _raised_messages(child)


def test_only_the_family_point_checks_its_box():
    # "need at least one integration variable" (box_moments' empty box) and
    # the parameter count (generalized_harmonic's own) are raised elsewhere
    # too; the two box messages are FamilyPoint's alone.
    raisers = set()
    for module in SUBMODULES + ("cli",):
        for name, node in _functions(TREES[f"{module}.py"].body):
            for text in _raised_messages(node):
                box = text.startswith("expected {} box lengths")
                if box or text == "box lengths must be nonzero":
                    raisers.add(f"{module}.{name}")
    assert raisers == {"cauchy.FamilyPoint.__init__"}


def _package_imports(nodes):
    """The polyfam submodules that the import statements among `nodes` name,
    relative (`from .harness import x`, `from . import harness`) or absolute."""
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                yield node.module.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)


def _assigned(module: str, name: str) -> ast.expr:
    """The value assigned, annotated or not, to the top-level `name` of `module`."""
    for node in TREES[module].body:
        targets = getattr(node, "targets", [getattr(node, "target", None)])
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and any(
            getattr(target, "id", None) == name for target in targets
        ):
            return node.value
    raise AssertionError(f"{module} assigns no module-level {name}")


def test_the_families_never_import_the_sweep_or_the_command_line():
    upper = {"harness", "cli", "polyfam.harness", "polyfam.cli"}
    for module in FAMILIES:
        imported = set(_package_imports(ast.walk(TREES[f"{module}.py"])))
        assert not imported & upper, (module, imported & upper)
    lazy = {"transforms", "polyfam.transforms"}
    assert not set(_package_imports(TREES["__init__.py"].body)) & (upper | lazy)
    # The package reads the lazy names from each module's __all__; no copy.
    lazy_names = {
        name
        for module in ("harness.py", "transforms.py")
        for name in ast.literal_eval(_assigned(module, "__all__"))
    }
    copied = {
        node.value
        for node in ast.walk(TREES["__init__.py"])
        if isinstance(node, ast.Constant) and node.value in lazy_names
    }
    assert copied == set()


def test_the_command_line_loads_the_sweep_only_to_verify():
    # `number`, `poly` and `table` never load the sweep layer: cli's
    # module-level imports name no harness, and only `verify`'s own
    # functions import it.
    sweep = {"harness", "polyfam.harness"}
    body = TREES["cli.py"].body
    assert not set(_package_imports(body)) & sweep
    importers = {
        name
        for name, node in _functions(body)
        if set(_package_imports(ast.walk(node))) & sweep
    }
    assert importers == {"_cmd_verify", "_ids_list"}


# Public even where only tests read them: the paper's objects, and
# `summarize`, the reader the ROADMAP plans behind `verify --stats`.
KEPT = {
    "bernoulli_from_first",
    "bernoulli_from_second",
    "classic_poly_bernoulli",
    "comtet_second_explicit",
    "first_from_bernoulli",
    "generalized_harmonic",
    "lah_closed_form",
    "modified_bell",
    "second_from_bernoulli",
    "stirling_second",
    "summarize",
}


def _loaded_names(tree: ast.AST):
    """Every name that `tree` loads, reads as an attribute or imports by name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_public_name_is_read_by_the_package_the_benchmark_or_the_paper():
    exported = {
        f"{module}.{name}": name
        for module in SUBMODULES
        for name in ast.literal_eval(_assigned(f"{module}.py", "__all__"))
    }
    # The `__all__` entries are strings, so a string in the package is no
    # reader; the benchmark names its routes as strings and getattr's them.
    read = {name for tree in TREES.values() for name in _loaded_names(tree)}
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read.update(_loaded_names(tree))
        read.update(
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        )
    assert KEPT <= set(exported.values()), KEPT - set(exported.values())
    unread = [where for where, name in exported.items() if name not in read | KEPT]
    assert unread == [], unread


# The one child of the live rules, given the perfbench directory and the
# submodules whose `__all__` it reads. A traced function is one that `install`
# rebinds in some module; a module that still binds it after `install` is not.
CHILD = """
import collections, contextlib, importlib, inspect, io, json, sys
from polyfam import cli, harness

modules = {m: importlib.import_module('polyfam.' + m) for m in sys.argv[2:]}
names, foreign = {}, []
for module, mod in modules.items():
    for name in mod.__all__:
        obj = getattr(mod, name)
        names.setdefault(id(obj), set()).add(name)
        if inspect.isclass(obj) or inspect.isroutine(obj):
            if (obj.__module__ or '').split('.')[0] != 'polyfam':
                foreign.append(f'{module}.{name}')
served = collections.Counter(e.evaluate.__name__ for e in harness.CATALOG)
numbers = {}
for family in cli.FAMILY_ROUTES:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(['number', family, '--n', '2', '--k', '2'])
    numbers[family] = (code, out.getvalue())

sys.path.insert(0, sys.argv[1])
from tracing import Tracer
before = {
    (module, name): value
    for module, mod in sys.modules.items() if module.partition('.')[0] == 'polyfam'
    for name, value in vars(mod).items() if inspect.isfunction(value)
}
install_error = None
try:
    Tracer().install()
except Exception as exc:
    install_error = repr(exc)
now = {(module, name): getattr(sys.modules[module], name) for module, name in before}
traced = {id(before[key]) for key in before if now[key] is not before[key]}
unwrapped = sorted(f'{m}.{n}' for (m, n), value in now.items() if id(value) in traced)
print(json.dumps(dict(
    aliases=sorted(sorted(n) for n in names.values() if len(n) > 1),
    lonely=sorted(name for name, n in served.items() if n < 2),
    foreign=foreign, numbers=numbers, install_error=install_error, unwrapped=unwrapped,
)))
"""


@pytest.fixture(scope="module")
def live():
    args = [*PYTHON, "-c", CHILD, str(PERFBENCH), *SUBMODULES]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_no_two_public_names_are_bound_to_one_object(live):
    assert live["aliases"] == []


def test_every_public_class_and_function_is_defined_in_the_package(live):
    # A public name bound to a class or function from elsewhere (such as
    # `Rat = Fraction`) is a second name for it; modules and data are exempt.
    assert live["foreign"] == []


def _is_literal(node: ast.expr) -> bool:
    try:
        ast.literal_eval(node)
    except ValueError:
        return False
    return True


def _only_renames(node: ast.FunctionDef) -> bool:
    """Whether the body, docstring aside, is one `return f(...)` that passes
    exactly the function's own parameters plus literal constants."""
    body = node.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return False
    call = body[0].value
    if not isinstance(call, ast.Call):
        return False
    args = node.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    params += [a.arg for a in (args.vararg, args.kwarg) if a]
    passed = []
    for arg in call.args + [keyword.value for keyword in call.keywords]:
        arg = arg.value if isinstance(arg, ast.Starred) else arg
        if isinstance(arg, ast.Name):
            passed.append(arg.id)
        elif not _is_literal(arg):
            return False
    return sorted(passed) == sorted(params)


def test_no_family_function_only_forwards_its_parameters():
    # A function whose one statement hands its own parameters and some
    # constants to another is that function under another name: a kind's
    # kernel is the shared kernel called with the kind's sign. The sweep
    # layer is out of scope: a catalog entry names its evaluator and the
    # arguments it takes (CASES-2 and CASES-3 name `_cases` with a sign), and
    # a `C` entry reuses its parent's.
    renames = [
        f"{module}.{name}"
        for module in FAMILIES
        for name, node in _functions(TREES[f"{module}.py"].body)
        if _only_renames(node)
    ]
    assert renames == []


def _body_shape(node: ast.FunctionDef) -> tuple:
    """The body, docstring aside, as the sequence of its AST node types and,
    apart, the sequence of its leaves (every name, attribute, constant and
    other plain field), both in one walk order."""
    body = node.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    kinds, leaves = [], []
    for stmt in body:
        for child in ast.walk(stmt):
            kinds.append(type(child).__name__)
            leaves.extend(
                repr(value)
                for _, value in ast.iter_fields(child)
                if not isinstance(value, (ast.AST, list))
            )
    return tuple(kinds), leaves


def test_no_two_private_family_functions_differ_in_one_name():
    # Two bodies of one shape that differ in at most one name, attribute or
    # constant are one function with that leaf as a parameter: a number and
    # its polynomial come from one triangle row under two pairings, so one
    # kernel takes the pairing. The sweep layer and the public routes are
    # out of scope: they are thin by design.
    private = []
    for module in FAMILIES:
        for name, node in _functions(TREES[f"{module}.py"].body):
            own = name.rpartition(".")[2]
            if own.startswith("_") and not own.startswith("__"):
                private.append((f"{module}.{name}", _body_shape(node)))
    clones = [
        (a, b)
        for i, (a, (kinds_a, leaves_a)) in enumerate(private)
        for b, (kinds_b, leaves_b) in private[i + 1 :]
        if kinds_a == kinds_b
        and sum(x != y for x, y in zip(leaves_a, leaves_b)) <= 1
    ]
    assert clones == []


def test_no_number_family_only_renames_another(live):
    # Any flags show a pure rename. A family that ignored --k 2 would print a
    # k = 1 record of its own and pass here; tests/test_cli.py's
    # test_a_value_flag_changes_the_value_or_is_refused catches that.
    seen = {}
    for family, (code, out) in live["numbers"].items():
        assert code == 0, out
        (line,) = out.splitlines()
        record = json.loads(line)
        del record["family"]
        seen.setdefault(json.dumps(record, sort_keys=True), []).append(family)
    assert [names for names in seen.values() if len(names) > 1] == []


def test_every_method_the_tracer_wraps_is_defined_in_its_class(live):
    """The per-layer trace wraps Polynomial.from_roots and the
    TruncatedSeries methods by name, through `vars(cls)[name]`, which sees a
    class's own body only: a method deleted or inherited there is a KeyError
    in `perfbench/check.py --trace 1` and in every traced benchmark run. So
    `exp`, `log` and `__pow__` stay, though no library path calls `log` or
    `__pow__` and only `modified_bell` calls `exp`, until the tracer's name
    list changes with the benchmark."""
    assert live["install_error"] is None


def test_every_module_that_binds_a_traced_function_is_traced(live):
    """`Tracer.install` rebinds each traced layer's public functions in the
    modules its `modules` tuple names. A module outside it that bound one by
    name (`from .stirling import comtet_first`) would call the unwrapped
    function, and its calls would drop out of the per-layer figures. So a
    module outside the tuple (`transforms`) reads them through their module
    at call time, or not at all."""
    assert live["unwrapped"] == []


def test_only_verify_looks_up_what_a_catalog_entry_names():
    """`verify` resolves an entry's arguments when the entry runs. A second
    `globals()` read would be a second lookup rule; a function bound at
    import in place of its string, or a name nested in a tuple, would escape
    the one there is. A module-level name among the arguments is read as the
    literal it is bound to in harness.py or transforms.py: the weights are
    tuples of integers and a bool."""
    tree = TREES["harness.py"]

    def reads(node):
        calls = (call for call in ast.walk(node) if isinstance(call, ast.Call))
        return [call for call in calls if getattr(call.func, "id", None) == "globals"]

    (verify,) = [node for name, node in _functions(tree.body) if name == "verify"]
    assert reads(tree) == reads(verify) != []
    literals = {
        target.id: node.value
        for module in ("transforms.py", "harness.py")
        for node in TREES[module].body
        if isinstance(node, ast.Assign) and _is_literal(node.value)
        for target in node.targets
    }
    catalog = _assigned("harness.py", "CATALOG")
    escaping = []
    for node in ast.walk(catalog):
        if not isinstance(node, ast.Tuple) or node is catalog:
            continue
        for arg in node.elts:
            if isinstance(arg, ast.Starred):
                continue
            value = literals.get(getattr(arg, "id", None), arg)
            if not _is_literal(value) or (
                isinstance(value, ast.Tuple)
                and any(isinstance(v, str) for v in ast.literal_eval(value))
            ):
                escaping.append(ast.unparse(arg))
    assert escaping == []


def test_the_sweep_never_tests_a_catalog_id():
    # Which points an entry takes is its `points` field, and whatever needs
    # that fact reads the entry: outside the `CATALOG` assignment no string
    # constant of harness.py's code is a catalog id. Docstrings and comments
    # may still name ids.
    tree = TREES["harness.py"]
    catalog = _assigned("harness.py", "CATALOG")
    # An entry's id is the first argument of `Identity`, the second of
    # `_single_integral`.
    position = {"Identity": 0, "_single_integral": 1}
    ids = {
        call.args[position[call.func.id]].value
        for call in ast.walk(catalog)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) in position
    }
    assert len(ids) == 31
    skipped = {id(node) for node in ast.walk(catalog)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                skipped.add(id(first.value))
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value in ids
        and id(node) not in skipped
    ]
    assert found == []


def test_every_catalog_evaluator_serves_at_least_two_entries(live):
    # An evaluator that serves one entry holds what that entry compares in its
    # code, where the entry's arguments could name it. `_eval_T41` is exempt:
    # it checks a point of its own, of size `order` and with the first
    # `order` + 1 distinct parameters (`_distinct_head`), which no other entry
    # reads.
    assert set(live["lonely"]) <= {"_eval_T41"}
