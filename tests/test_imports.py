"""Every name a package module imports is used there or re-exported, every
name it exports is bound there, every function, class or method it defines
is named somewhere else in the sources, importing the package loads no
introspection modules and no ``fractions``, and a verify run loads no
process-pool module."""

import ast
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "equivar"


def unused_imports(source: str) -> list:
    """Names bound by import statements that the module neither reads nor
    lists in ``__all__``; ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used | exported)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = "from __future__ import annotations\nimport os\nfrom a import b, c as d\n" \
             "__all__ = ['b']\n"
    assert unused_imports(source) == ["d", "os"]


def undefined_exports(source: str) -> list:
    """Names listed in ``__all__`` that no top-level def, class, assignment
    or import of the module binds."""
    bound, exported = set(), []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            bound |= names
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
    return sorted(set(exported) - bound)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_all_names_are_defined(path):
    assert undefined_exports(path.read_text()) == []


def test_undefined_export_is_reported():
    source = "import os\nfrom a import b as c\nx: int = 1\ndef f():\n    y = 2\n" \
             "class C:\n    def g(self):\n        pass\n" \
             "__all__ = ['os', 'c', 'x', 'f', 'C', 'b', 'g', 'y']\n"
    assert undefined_exports(source) == ["b", "g", "y"]


WORD = re.compile(r"\w+")


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unreferenced_definitions(modules: dict, others=()) -> list:
    """Module-level functions and classes of ``modules`` (name -> source),
    and the methods of those classes other than dunders, whose name occurs
    in no source outside its own definition and its module's ``__all__``;
    ``others`` are further sources that may use them."""
    words = Counter()
    for text in [*modules.values(), *others]:
        words.update(WORD.findall(text))
    found = []
    for module, source in modules.items():
        lines = source.splitlines()
        body = ast.parse(source).body
        listed = [node for node in body if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)]
        defs = [(node, module, [node, *listed]) for node in body if isinstance(node, DEFS)]
        defs += [(meth, f"{module}.{cls.name}", [meth]) for cls, *_ in defs
                 if isinstance(cls, ast.ClassDef) for meth in cls.body
                 if isinstance(meth, DEFS) and not meth.name.startswith("__")]
        for node, owner, spans in defs:
            own = 0
            for span in spans:
                text = "\n".join(lines[span.lineno - 1:span.end_lineno])
                own += WORD.findall(text).count(node.name)
            if words[node.name] == own:
                found.append(f"{owner}.{node.name}")
    return sorted(found)


def test_every_definition_is_referenced():
    root = SRC.parents[1]
    modules = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    others = [path.read_text() for folder in ("tests", "perfbench")
              for path in sorted((root / folder).rglob("*.py"))]
    assert unreferenced_definitions(modules, others) == []


def test_unreferenced_definition_is_reported():
    modules = {"a": "__all__ = ['f', 'g']\ndef f():\n    return f()\n"
                    "def g():\n    pass\nclass C:\n    pass\nclass D:\n    pass\n",
               "b": "def h():\n    return C\n"}
    assert unreferenced_definitions(modules, ["D()"]) == ["a.f", "a.g", "b.h"]


def test_unreferenced_method_is_reported():
    modules = {"a": "class C:\n    def __init__(self):\n        self.f()\n"
                    "    def f(self):\n        return self.f\n"
                    "    @property\n    def g(self):\n        return 1\n"
                    "    def h(self):\n        pass\n"}
    assert unreferenced_definitions(modules, ["C().h()"]) == ["a.C.g"]


def modules_loaded_by(statement: str) -> set:
    """The module names in ``sys.modules`` of a fresh interpreter, started
    with the package's ``src`` first on its path, after ``statement`` ran."""
    code = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); {statement}; "
            "print(' '.join(sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return set(out.stdout.split())


def test_package_import_loads_no_introspection_modules():
    # site hooks may preload modules, so compare with a bare interpreter;
    # fractions (which loads decimal) is imported where a Fraction is made
    bare = modules_loaded_by("pass")
    added = modules_loaded_by("import equivar.cli, equivar.verify, equivar.homcalc") - bare
    assert "equivar.verify" in added
    assert {"dataclasses", "inspect", "fractions", "decimal"} & added == set()


def test_integer_requests_load_no_fractions():
    # stable Hom and both Ext paths stay on integer arithmetic, on requests
    # with nonzero answers (2; [2, 4, 6, 8]; [21, 0, 0])
    bare = modules_loaded_by("pass")
    added = modules_loaded_by(
        "from equivar.homcalc import PQFamily, stable_hom, ext_stable, ext_truncated; "
        "from equivar.equivariant import build_P, build_Q; "
        "stable_hom(PQFamily('Q', 1, 2), PQFamily('P', 1, 1), 4); "
        "ext_stable(2, 2, 2, 4, 3); "
        "ext_truncated(build_Q(2, 2, 4), build_P(2, 1, 4), 2)") - bare
    assert "equivar.homcalc" in added
    assert {"fractions", "decimal"} & added == set()


def test_verify_runs_in_one_process():
    # every suite runs in the calling process, with no pool of workers
    bare = modules_loaded_by("pass")
    added = modules_loaded_by(
        "from equivar.verify import SUITE_NAMES, run_suites; run_suites(SUITE_NAMES, 2)") - bare
    assert "equivar.verify" in added
    assert {"concurrent.futures", "multiprocessing"} & added == set()
