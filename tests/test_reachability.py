"""The package holds what its commands reach.

The CLI invocations below cover every subcommand and option value, and
``verify --suite all`` at the smallest max-N that reaches as much as any
larger one.  Every module-level function of ``src/equivar/``, every
class with methods of its own, and every method other than a dunder must
run on one of them.  A name
that ``perfbench/`` imports from equivar, or wraps in its ``TRACED`` table,
is exempt, because the benchmark finds it there.  The references that tests
compare against live in ``tests/reference.py``, and each of them must be
named by another test."""

import ast
import contextlib
import importlib
import io
import sys
from pathlib import Path

from test_imports import unreferenced_definitions

from equivar.cli import main

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "equivar"
PERFBENCH = TESTS.parent / "perfbench"

INVOCATIONS = [
    ["dim", "--kind", "P", "--s", "1", "--n", "1", "--N", "2"],
    ["dim", "--kind", "Q", "--s", "1", "--n", "1", "--N", "2"],
    ["dim", "--kind", "P", "--s", "1", "--n", "1", "--N", "2", "--dump"],
    ["dim", "--kind", "Q", "--s", "2", "--n", "1", "--N", "2", "--dump"],
    ["hom", "--src", "Q,1,1", "--dst", "P,1,1", "--N", "3"],
    ["ext", "--mode", "stable", "--s", "1", "--n-source", "1", "--n-target", "1",
     "--N", "3", "--max-i", "2"],
    ["ext", "--mode", "truncated", "--s", "1", "--N", "2", "--max-i", "2"],
    ["ext", "--mode", "truncated", "--s", "1", "--src", "P,1,1", "--dst", "Q,1,1",
     "--N", "2", "--max-i", "2"],
    ["ext", "--mode", "truncated", "--s", "1", "--src", "Q,1,2", "--dst", "P,1,1",
     "--N", "2", "--max-i", "2"],
    ["tor", "--s", "1", "--r", "2", "--N", "2"],
    ["kclass", "--op", "p2q", "--s", "1", "--lambda", "2,1"],
    ["kclass", "--op", "q2p", "--s", "1", "--lambda", "2,1"],
    ["kclass", "--op", "expand", "--s", "1", "--lambda", "2", "--kind", "P"],
    ["kclass", "--op", "expand", "--s", "1", "--lambda", "2", "--kind", "Q"],
    ["kclass", "--op", "char", "--s", "1", "--n", "2"],
    ["cas", "--op", "hom", "--m", "1", "--n", "2", "--s", "1"],
    ["cas", "--op", "injective", "--m", "2", "--n", "2", "--s", "1"],
    ["cas", "--op", "injective", "--m", "1", "--n", "2", "--s", "1"],
    ["cas", "--op", "compare", "--m", "1", "--n", "1", "--s", "1"],
    ["cas", "--op", "compare", "--m", "1", "--n", "1", "--s", "1", "--N", "3"],
]
VERIFY = ["--format", "json", "verify", "--suite", "all", "--max-N", "3"]


def reached_functions() -> set:
    """(module, qualified name) of every package function that runs on the
    invocations, each in both output formats, and on ``verify``."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    argvs = [["--format", fmt, *argv] for argv in INVOCATIONS for fmt in ("json", "table")]
    argvs.append(VERIFY)
    # a memoized function that answers from its cache runs no frame
    for path in SRC.glob("*.py"):
        if path.stem != "__init__":
            for obj in vars(importlib.import_module(f"equivar.{path.stem}")).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            exits = [main(argv) for argv in argvs]
    finally:
        sys.setprofile(previous)
    assert exits == [0] * len(argvs)
    return {(Path(code.co_filename).stem, code.co_qualname) for code in codes
            if Path(code.co_filename).resolve().parent == SRC}


def unreached(reached: set, modules: dict, exempt: set) -> list:
    """Module-level functions of ``modules`` (name -> source) that never ran,
    classes none of whose own methods ran, and the methods other than
    dunders that never ran of the other classes, other than ``exempt``
    names (a method by its qualified name; an exempt method counts as
    run)."""
    found = []
    for module, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.ClassDef):
                methods = [f"{node.name}.{m.name}" for m in node.body
                           if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
                ran = not methods or any((module, m) in reached or m in exempt for m in methods)
                if ran:  # a class that never ran is reported as a whole
                    found += [f"{module}.{m}" for m in methods
                              if not m.split(".")[1].startswith("__")
                              and (module, m) not in reached and m not in exempt]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                ran = (module, node.name) in reached
            else:
                continue
            if not ran and node.name not in exempt:
                found.append(f"{module}.{node.name}")
    return found


def perfbench_names() -> set:
    """The names that ``perfbench/`` imports from equivar, and the functions
    and methods (as Class.method) that its ``TRACED`` table wraps."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("equivar"):
                names.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
                  and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)):
                for entry in node.value.elts:
                    cls, attr = (ast.literal_eval(e) for e in entry.elts[2:4])
                    names.add(f"{cls}.{attr}" if cls else attr)
    return names


def test_every_package_definition_runs_on_a_command():
    exempt = perfbench_names()
    modules = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unreached(reached_functions(), modules, exempt) == []


def test_unreached_definition_is_reported():
    modules = {"a": "import os\nX = 1\ndef f():\n    pass\ndef g():\n    pass\n"
                    "class C:\n    def m(self):\n        pass\n"
                    "class D:\n    def m(self):\n        pass\n"
                    "class E:\n    pass\ndef h():\n    pass\n"}
    assert unreached({("a", "f"), ("a", "C.m")}, modules, {"h"}) == ["a.g", "a.D"]


def test_unreached_method_is_reported():
    modules = {"equivariant": "class C:\n    def __init__(self):\n        pass\n"
                              "    def f(self):\n        pass\n    def g(self):\n        pass\n"
                              "    def h(self):\n        pass\n",
               "other": "class C:\n    def f(self):\n        pass\n    def g(self):\n        pass\n"}
    reached = {("equivariant", "C.f"), ("other", "C.f")}
    assert unreached(reached, modules, {"C.h"}) == ["equivariant.C.g", "other.C.g"]


def test_perfbench_names_are_its_imports_and_wraps():
    names = perfbench_names()
    assert {"build_P", "hom_mapping_property", "EquivModule.perm_matrix",
            "SparseRationalMatrix.apply", "q_into_p_embedding"} <= names
    assert not {"check", "rank", "dim"} & names


def test_every_reference_is_compared_against():
    others = [path.read_text() for path in sorted(TESTS.glob("*.py"))
              if path.name != "reference.py"]
    assert unreferenced_definitions({"reference": (TESTS / "reference.py").read_text()},
                                    others) == []
