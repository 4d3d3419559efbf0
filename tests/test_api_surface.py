"""Every public definition in ``src/repro`` has a caller outside the tests.

An AST scan collects each module-level function and class, and each
method that is not a dunder, under ``src/repro``.  A definition is live
when its name is referenced from ``src``, ``benchmarks``, ``examples``
or ``perfbench``: as a name, an attribute, an imported name, or a
string that is an identifier or ends a dotted path of them
(``perfbench/layers.py`` wraps functions by dotted name, ``__all__``
lists names).  A name defined only for tests to call is dead code with
a second copy of its behaviour to keep in step, so the scan fails on
it.

Exempt:

- classes decorated with ``register_estimator``: the registry reaches
  them by key (``create_estimator("acbm")``);
- ``repro/reference.py``: the seed oracles the golden suites compare
  the production paths against, which only tests call by design;
- ``FrameArena.open_segments``, which goes with the shared-memory
  transport path (ROADMAP item 4).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "benchmarks", "examples", "perfbench")
EXEMPT_MODULES = {"repro/reference.py"}
EXEMPT_NAMES = {"FrameArena.open_segments"}

#: A string that is one identifier or a dotted path of them; its last
#: name is the one referenced.
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _registered(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "register_estimator":
            return True
    return False


def definitions() -> list[tuple[str, str, str]]:
    """``(module path, qualified name, bare name)`` of every scanned
    definition under ``src/repro``."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE.parent).as_posix()
        if module in EXEMPT_MODULES:
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((module, node.name, node.name))
            elif isinstance(node, ast.ClassDef):
                if _registered(node):
                    continue
                found.append((module, node.name, node.name))
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _is_dunder(
                        item.name
                    ):
                        found.append((module, f"{node.name}.{item.name}", item.name))
    return found


def references() -> set[str]:
    """Every identifier used from a caller directory."""
    names: set[str] = set()
    for top in CALLER_DIRS:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.update(node.name.split("."))
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if _DOTTED.fullmatch(node.value):
                        names.add(node.value.rpartition(".")[2])
    return names


def test_every_definition_has_a_non_test_caller():
    used = references()
    dead = [
        f"{module}: {qualname}"
        for module, qualname, name in definitions()
        if name not in used and qualname not in EXEMPT_NAMES
    ]
    assert not dead, "definitions only tests call:\n" + "\n".join(dead)


def test_scan_sees_definitions_and_exemptions():
    found = {(module, qualname) for module, qualname, _ in definitions()}
    assert ("repro/core/classifier.py", "classify_block") in found
    assert ("repro/transport/arena.py", "FrameArena.open_segments") in found
    assert not any(module == "repro/reference.py" for module, _ in found)
    assert not any(qualname.startswith("ACBMEstimator") for _, qualname in found)
