"""The protocol layer talks only to ``EnvironmentAPI``: a static check.

``repro.core`` holds the paper's algorithms and their state.  They reach the
platform only through :class:`~repro.core.interfaces.EnvironmentAPI` and the
failure-detector view types, so any engine (or any other transport) can
drive them unchanged.  This test parses every ``src/repro/core/*.py`` and
fails on an import of anything but the standard library, ``repro.core``
itself, and ``repro.failure_detectors.base`` / ``.labels``.  An engine-side
helper that lands in ``core`` (and drags numpy or the simulator in with it)
fails here, at no run-time cost.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

CORE = Path(__file__).resolve().parents[2] / "src" / "repro" / "core"
ALLOWED = ("repro.core", "repro.failure_detectors.base",
           "repro.failure_detectors.labels")


def _imported_modules(path: Path) -> list[tuple[int, str]]:
    """``(line, absolute module name)`` of every import in *path*."""
    package = ["repro", "core"]
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package[:len(package) - node.level + 1]
                name = ".".join(base + ([node.module] if node.module else []))
            else:
                name = node.module or ""
            found.append((node.lineno, name))
    return found


def _allowed(name: str) -> bool:
    if name.split(".")[0] in sys.stdlib_module_names:
        return True
    return any(name == prefix or name.startswith(prefix + ".")
               for prefix in ALLOWED)


def test_core_imports_only_stdlib_core_and_detector_views():
    sources = sorted(CORE.glob("*.py"))
    assert sources, f"no sources under {CORE}"
    offending = [
        f"{path.name}:{line}: {name}"
        for path in sources
        for line, name in _imported_modules(path)
        if not _allowed(name)
    ]
    assert not offending, "repro.core imports outside its layer:\n" + \
        "\n".join(offending)


def test_relative_imports_resolve_against_the_core_package(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import tags\nfrom .state import MessageSet\n"
        "from ..failure_detectors.labels import Label\n"
        "from ..simulation.vectorized import PayloadInterner\n"
        "import numpy as np\n",
        encoding="utf-8",
    )
    assert _imported_modules(probe) == [
        (1, "repro.core"),
        (2, "repro.core.state"),
        (3, "repro.failure_detectors.labels"),
        (4, "repro.simulation.vectorized"),
        (5, "numpy"),
    ]
    assert [_allowed(name) for _, name in _imported_modules(probe)] == [
        True, True, True, False, False]
