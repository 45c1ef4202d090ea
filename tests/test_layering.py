"""Layering: what a package's modules must never import.

Telemetry sits below the service: the service imports it, never back.
Serving runs each program as written, so the service never imports the
rewriting system, whose lowerings exist to generate OpenCL code.
"""

import ast
from pathlib import Path

import pytest

import repro

#: ``(package, a package it must not import)``.
RULES = [("telemetry", "service"), ("service", "rewriting")]


def _imports(path: Path, package: str):
    """Every module ``path`` imports, relative imports made absolute."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            parts = package.split(".")
            base = parts[:len(parts) - node.level + 1] if node.level else []
            yield ".".join(base + ([node.module] if node.module else []))
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)


@pytest.mark.parametrize("package, forbidden", RULES,
                         ids=[f"{a}-not-{b}" for a, b in RULES])
def test_package_does_not_import(package, forbidden):
    root = Path(repro.__file__).parent / package
    banned = f"repro.{forbidden}"
    offenders = [f"{path.name}: {name}"
                 for path in sorted(root.glob("*.py"))
                 for name in _imports(path, f"repro.{package}")
                 if name == banned or name.startswith(banned + ".")]
    assert not offenders
