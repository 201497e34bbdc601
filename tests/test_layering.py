"""Layering guard: the simulator layers never import ``repro.core``.

``repro.core`` (the paper's scenarios and studies) builds on the
kernel, network, protocol and traffic packages; an import the other
way round would make a protocol or topology module depend on the
experiments run over it.  Every module under those packages is parsed
with :mod:`ast`, so an import inside a function counts too.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
LAYERS = ("sim", "net", "pimdm", "mld", "mipv6", "traffic")
FORBIDDEN = "repro.core"


def _imported_modules(source: str, package: tuple):
    """Absolute names of every module ``source`` imports, with line
    numbers; ``package`` is the dotted package it lives in, as parts."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package[: len(package) - node.level + 1]
                module = ".".join(base + ((node.module,) if node.module else ()))
            else:
                module = node.module
            yield node.lineno, module
            for alias in node.names:  # ``from .. import core``
                yield node.lineno, f"{module}.{alias.name}"


def _is_forbidden(module: str) -> bool:
    return module == FORBIDDEN or module.startswith(FORBIDDEN + ".")


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_does_not_import_core(layer: str) -> None:
    offenders = [
        f"{path.relative_to(SRC)}:{line} imports {module}"
        for path in sorted((SRC / "repro" / layer).rglob("*.py"))
        for line, module in _imported_modules(
            path.read_text(), path.relative_to(SRC).parts[:-1]
        )
        if _is_forbidden(module)
    ]
    assert not offenders, "\n".join(offenders)


@pytest.mark.parametrize(
    "source",
    (
        "from ..core import scenario\n",
        "from .. import core\n",
        "def f():\n    from ..core.scenario import PaperScenario\n",
        "import repro.core.goldens\n",
    ),
)
def test_guard_sees_every_import_shape(source: str) -> None:
    modules = [m for _, m in _imported_modules(source, ("repro", "net"))]
    assert any(_is_forbidden(m) for m in modules), modules


def test_guard_passes_lower_layer_imports() -> None:
    source = "from ..sim import Simulator\nfrom .link import Link\nimport repro.corex\n"
    modules = [m for _, m in _imported_modules(source, ("repro", "net"))]
    assert not any(_is_forbidden(m) for m in modules), modules
