"""The package holds what the program runs: every top-level function and
class in ``src/trendgat``, and every method and property of its classes,
is referred to by some other code in ``src/trendgat`` or ``perfbench``.
Test-only helpers live under ``tests/``."""

import ast
import pydoc
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "trendgat"


def _identifiers(node: ast.AST) -> set[str]:
    """Every name ``node`` refers to: bare names, attributes and imported
    names."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rpartition(".")[2])
    return found


def unreferenced_definitions(package: Path, users: list[Path]) -> list[str]:
    """``module.name`` of each top-level def or class in ``package`` that no
    top-level statement of ``package`` or ``users`` other than its own
    definition refers to."""
    files = [path for d in (package, *users) for path in sorted(d.glob("*.py"))]
    statements = [(path, stmt) for path in files
                  for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    references = [(stmt, _identifiers(stmt)) for _, stmt in statements]
    missing = []
    for path, stmt in statements:
        if path.parent != package or not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not any(stmt.name in names for other, names in references if other is not stmt):
            missing.append(f"{path.stem}.{stmt.name}")
    return sorted(missing)


def _imported_names(tree: ast.Module) -> dict[str, str]:
    """Local name -> dotted path of each absolute import in ``tree``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.partition(".")[0]
                names[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return names


def _outside_class(base: ast.expr, imported: dict[str, str]):
    """The class a base expression names when it comes from outside the
    package (a builtin or an absolute import), else None."""
    head, dot, rest = ast.unparse(base).partition(".")
    found = pydoc.locate(imported.get(head, head) + dot + rest)
    return found if isinstance(found, type) else None


def unreferenced_methods(package: Path, users: list[Path]) -> list[str]:
    """``module.Class.name`` of each method or property of a top-level class
    in ``package`` whose name no attribute in ``package`` or ``users``
    spells, outside the method's own body.  Dunder methods are exempt, and
    so is an override of what a direct base from outside the package
    defines (``argparse.ArgumentParser.error``)."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for d in (package, *users) for path in sorted(d.glob("*.py"))}
    attributes = Counter(sub.attr for tree in trees.values() for sub in ast.walk(tree)
                         if isinstance(sub, ast.Attribute))
    missing = []
    for path, tree in trees.items():
        if path.parent != package:
            continue
        imported = _imported_names(tree)
        for cls in (stmt for stmt in tree.body if isinstance(stmt, ast.ClassDef)):
            bases = [found for found in (_outside_class(b, imported) for b in cls.bases) if found]
            for method in cls.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = method.name
                if name.startswith("__") and name.endswith("__") or any(
                        hasattr(base, name) for base in bases):
                    continue
                own = sum(isinstance(sub, ast.Attribute) and sub.attr == name
                          for sub in ast.walk(method))
                if attributes[name] == own:
                    missing.append(f"{path.stem}.{cls.name}.{name}")
    return sorted(missing)


def test_every_package_definition_has_a_caller():
    assert unreferenced_definitions(PACKAGE, [ROOT / "perfbench"]) == []


def test_every_package_method_has_a_caller():
    assert unreferenced_methods(PACKAGE, [ROOT / "perfbench"]) == []


def test_the_scan_flags_a_definition_only_its_own_body_uses(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n"
        "class Orphan:\n    pass\n")
    (package / "b.py").write_text("from .a import used\n")
    users = tmp_path / "bench"
    users.mkdir()
    (users / "run.py").write_text("import pkg.a as a\nprint(a.Orphan)\n")
    assert unreferenced_definitions(package, []) == ["a.Orphan", "a.recursive"]
    assert unreferenced_definitions(package, [users]) == ["a.recursive"]


def test_the_method_scan_exempts_dunders_and_outside_hooks(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(
        "import argparse\n\n"
        "class Box:\n"
        "    def __init__(self):\n        self.size = self.used()\n\n"
        "    def used(self):\n        return 1\n\n"
        "    @property\n    def shown(self):\n        return 2\n\n"
        "    def recursive(self, n):\n        return self.recursive(n - 1) if n else 0\n\n"
        "class Parser(argparse.ArgumentParser):\n"
        "    def error(self, message):\n        raise SystemExit(message)\n\n"
        "    def unused(self):\n        return None\n\n"
        "class Pair(tuple):\n"
        "    def count(self, value):\n        return 0\n")
    users = tmp_path / "bench"
    users.mkdir()
    (users / "run.py").write_text("from pkg.a import Box\nprint(Box().shown)\n")
    assert unreferenced_methods(package, []) == [
        "a.Box.recursive", "a.Box.shown", "a.Parser.unused"]
    assert unreferenced_methods(package, [users]) == ["a.Box.recursive", "a.Parser.unused"]
