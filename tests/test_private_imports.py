"""Import hygiene of ``src/repro``, checked on the AST.

**Private names stay private across packages.**  A leading underscore
means "this package's business".  The first test fails when a module
under ``src/repro/<pkg>/`` imports an underscore-prefixed name from a
*different* ``repro`` package — the coupling that let four packages
grow four copies of the shard-worker protocol.  Imports within one
package are fine.

**The standard library only.**  ``pyproject.toml`` promises
``dependencies = []``; the last test fails on any import — guarded by
``try`` or not — of a top-level package that is neither ``repro`` nor
in ``sys.stdlib_module_names``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Known offenders predating this test, as
#: ``(importing module, source module, name)``.  This list may only
#: shrink: fix an entry by giving the name a public home, then delete it.
ALLOWED = {
    ("feedback/table.py", "repro.core.tuples", "_pattern_matches"),
    ("service/panes.py", "repro.operators.aggregate", "_GroupState"),
    ("service/panes.py", "repro.operators.aggregate", "_normalize_group_by"),
    ("service/service.py", "repro.cql.planner", "_Passthrough"),
}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _cross_package_private_imports():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        if len(rel.parts) < 2:
            continue  # top-level modules belong to no sub-package
        package = rel.parts[0]
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level:
                continue
            parts = (node.module or "").split(".")
            if parts[0] != "repro" or len(parts) < 2 or parts[1] == package:
                continue
            for alias in node.names:
                if _is_private(alias.name) or any(
                    _is_private(part) for part in parts[2:]
                ):
                    found.add((rel.as_posix(), node.module, alias.name))
    return found


def test_no_new_cross_package_private_imports():
    offenders = _cross_package_private_imports() - ALLOWED
    assert not offenders, (
        "underscore-prefixed names imported across repro packages "
        f"(export them publicly instead): {sorted(offenders)}"
    )


def test_allowlist_only_names_live_offenders():
    """An entry that no longer occurs must be deleted, so the list
    shrinks with every fix instead of fossilising."""
    stale = ALLOWED - _cross_package_private_imports()
    assert not stale, f"remove fixed entries from ALLOWED: {sorted(stale)}"


def test_src_imports_stdlib_only():
    allowed = set(sys.stdlib_module_names) | {"repro"}
    foreign = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            for module in modules:
                if module.split(".")[0] not in allowed:
                    foreign.add((path.relative_to(SRC).as_posix(), module))
    assert not foreign, (
        "src/repro must run on the standard library alone "
        f"(dependencies = []): {sorted(foreign)}"
    )
