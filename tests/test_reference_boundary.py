"""The verification references stay out of the production path.

``repro.verify`` holds the scalar and event-driven references the
oracles hold production code to.  No module outside it may import it,
except for the lazy import that backs the ``repro verify`` command, and
``repro.simulation`` exports only the closed-form simulation.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Optional, Tuple

import repro
import repro.simulation

PACKAGE_ROOT = Path(repro.__file__).resolve().parent

#: (module, enclosing function, imported module, imported names) of the
#: one permitted import: ``repro verify`` loads the fuzz driver lazily.
ALLOWED = {("repro.cli", "_cmd_verify", "repro.verify", ("fuzz",))}


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _imports(
    tree: ast.AST, module: str, is_package: bool
) -> Iterator[Tuple[Optional[str], str, Tuple[str, ...]]]:
    """(enclosing function, imported module, names) of every import."""

    def walk(node: ast.AST, function: Optional[str]):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child.name)
                continue
            if isinstance(child, ast.Import):
                for alias in child.names:
                    yield function, alias.name, ()
            elif isinstance(child, ast.ImportFrom):
                target = child.module or ""
                if child.level:
                    package = module.split(".")
                    drop = child.level - 1 if is_package else child.level
                    base = package[: len(package) - drop]
                    target = ".".join(base + ([target] if target else []))
                names = tuple(alias.name for alias in child.names)
                if target == "repro" and "verify" in names:
                    target, names = "repro.verify", ()
                yield function, target, names
            yield from walk(child, function)

    yield from walk(tree, None)


def _production_modules():
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        module = _module_name(path)
        if module == "repro.verify" or module.startswith("repro.verify."):
            continue
        yield path, module


def test_no_production_module_imports_verify():
    offenders = []
    checked = 0
    for path, module in _production_modules():
        checked += 1
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for function, target, names in _imports(
            tree, module, path.name == "__init__.py"
        ):
            if target != "repro.verify" and not target.startswith(
                "repro.verify."
            ):
                continue
            if (module, function, target, names) not in ALLOWED:
                offenders.append(f"{module} ({function}): {target} {names}")
    assert checked > 20
    assert offenders == []


def test_the_verify_command_import_is_still_lazy():
    tree = ast.parse((PACKAGE_ROOT / "cli.py").read_text(encoding="utf-8"))
    found = {
        ("repro.cli", function, target, names)
        for function, target, names in _imports(tree, "repro.cli", False)
        if target.startswith("repro.verify")
    }
    assert found == ALLOWED


def test_simulation_exports_only_the_closed_form_path():
    retired = {
        "SimulationEngine",
        "Event",
        "EventPriority",
        "BroadcastChannel",
        "WaitingTimeCollector",
    }
    exported = set(repro.simulation.__all__) | set(dir(repro.simulation))
    assert retired.isdisjoint(exported)
    assert not [name for name in exported if name.startswith("Indexed")]
