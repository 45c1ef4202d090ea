"""Layering: what a package's modules must never import.

Telemetry and the backend sit below the service: the service imports
them, never back (what both use, such as the helper pool of
:mod:`repro.helpers`, lives below both).
Serving runs each program as written, so the service never imports the
rewriting system, whose lowerings exist to generate OpenCL code — neither
directly nor through a module it imports, which a fresh interpreter checks.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: ``(package, a package it must not import)``.
RULES = [("telemetry", "service"), ("service", "rewriting"),
         ("backend", "service")]


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


#: Packages of the Lift search, which serving never runs.
SEARCH_PACKAGES = ("repro.rewriting", "repro.engine", "repro.tuning")


def test_serving_loads_no_search_module():
    src = str(Path(repro.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [path for path in [os.environ.get("PYTHONPATH")] if path]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, repro.service; print(*sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    loaded = [name for name in done.stdout.split()
              if ".".join(name.split(".")[:2]) in SEARCH_PACKAGES]
    assert not loaded
