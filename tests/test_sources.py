"""The package holds what the program runs: every top-level function and
class in ``src/trendgat`` is referred to by some other code in
``src/trendgat`` or ``perfbench``.  Test-only helpers live under
``tests/``."""

import ast
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


def test_every_package_definition_has_a_caller():
    assert unreferenced_definitions(PACKAGE, [ROOT / "perfbench"]) == []


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
