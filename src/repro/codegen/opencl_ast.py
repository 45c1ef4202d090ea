"""A small OpenCL-C abstract syntax tree.

The code generator builds statements out of these nodes and renders them with
consistent indentation.  The AST is intentionally minimal — just enough to
express the kernels Lift produces for stencils: declarations, assignments,
``for`` loops, conditionals, barriers and raw statements for user-function
bodies.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


class Node:
    """Base class of all OpenCL-C AST nodes."""

    def render(self, indent: int = 0) -> str:
        raise NotImplementedError

    def _pad(self, indent: int) -> str:
        return "    " * indent


class Comment(Node):
    def __init__(self, text: str) -> None:
        self.text = text

    def render(self, indent: int = 0) -> str:
        return f"{self._pad(indent)}/* {self.text} */"


class RawStatement(Node):
    def __init__(self, code: str) -> None:
        self.code = code

    def render(self, indent: int = 0) -> str:
        return f"{self._pad(indent)}{self.code}"


class VarDecl(Node):
    def __init__(self, c_type: str, name: str, init: Optional[str] = None,
                 qualifier: str = "") -> None:
        self.c_type = c_type
        self.name = name
        self.init = init
        self.qualifier = qualifier

    def render(self, indent: int = 0) -> str:
        prefix = f"{self.qualifier} " if self.qualifier else ""
        suffix = f" = {self.init}" if self.init is not None else ""
        return f"{self._pad(indent)}{prefix}{self.c_type} {self.name}{suffix};"


class Assign(Node):
    def __init__(self, target: str, value: str) -> None:
        self.target = target
        self.value = value

    def render(self, indent: int = 0) -> str:
        return f"{self._pad(indent)}{self.target} = {self.value};"


class Block(Node):
    def __init__(self, statements: Optional[Sequence[Node]] = None) -> None:
        self.statements: List[Node] = list(statements or [])

    def add(self, node: Node) -> None:
        self.statements.append(node)

    def render(self, indent: int = 0) -> str:
        return "\n".join(stmt.render(indent) for stmt in self.statements)


class ForLoop(Node):
    """``for (int var = start; var < bound; var += step) { body }``"""

    def __init__(self, var: str, start: str, bound: str, step: str = "1",
                 body: Optional[Block] = None) -> None:
        self.var = var
        self.start = start
        self.bound = bound
        self.step = step
        self.body = body or Block()

    def render(self, indent: int = 0) -> str:
        pad = self._pad(indent)
        increment = f"{self.var}++" if self.step == "1" else f"{self.var} += {self.step}"
        header = (
            f"{pad}for (int {self.var} = {self.start}; "
            f"{self.var} < {self.bound}; {increment}) {{"
        )
        body = self.body.render(indent + 1)
        return f"{header}\n{body}\n{pad}}}"


class If(Node):
    def __init__(self, condition: str, then: Block) -> None:
        self.condition = condition
        self.then = then

    def render(self, indent: int = 0) -> str:
        pad = self._pad(indent)
        return f"{pad}if ({self.condition}) {{\n{self.then.render(indent + 1)}\n{pad}}}"


class Barrier(Node):
    """An OpenCL work-group barrier (local-memory fence)."""

    def render(self, indent: int = 0) -> str:
        return f"{self._pad(indent)}barrier(CLK_LOCAL_MEM_FENCE);"


class FunctionDef(Node):
    """A helper (non-kernel) function, e.g. an inlined user function."""

    def __init__(self, return_type: str, name: str, params: Sequence[str], body: str) -> None:
        self.return_type = return_type
        self.name = name
        self.params = list(params)
        self.body = body

    def render(self, indent: int = 0) -> str:
        pad = self._pad(indent)
        params = ", ".join(self.params)
        body_lines = "\n".join(
            f"{self._pad(indent + 1)}{line.strip()}" for line in self.body.splitlines() if line.strip()
        )
        return f"{pad}inline {self.return_type} {self.name}({params}) {{\n{body_lines}\n{pad}}}"


class KernelFunction(Node):
    """The ``__kernel`` entry point."""

    def __init__(self, name: str, params: Sequence[str], body: Optional[Block] = None) -> None:
        self.name = name
        self.params = list(params)
        self.body = body or Block()

    def render(self, indent: int = 0) -> str:
        pad = self._pad(indent)
        params = ",\n".join(f"{self._pad(indent + 2)}{p}" for p in self.params)
        header = f"{pad}__kernel void {self.name}(\n{params}) {{"
        return f"{header}\n{self.body.render(indent + 1)}\n{pad}}}"


__all__ = [
    "Node",
    "Comment",
    "RawStatement",
    "VarDecl",
    "Assign",
    "Block",
    "ForLoop",
    "If",
    "Barrier",
    "FunctionDef",
    "KernelFunction",
]
