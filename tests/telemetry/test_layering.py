"""Telemetry sits below the service: the service imports it, never back."""

import ast
from pathlib import Path

import repro.telemetry


def test_telemetry_imports_nothing_from_the_service():
    package = Path(repro.telemetry.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [("." * node.level) + (node.module or "")]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            offenders += [f"{path.name}: {name}" for name in names
                          if name.startswith(("repro.service", "..service"))]
    assert not offenders
