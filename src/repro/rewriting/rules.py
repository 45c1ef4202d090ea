"""The rewrite-rule abstraction.

A :class:`RewriteRule` is a partial function on expressions: ``matches``
decides whether the rule applies to a given sub-expression and ``rewrite``
produces the replacement.  Rules never mutate their input; the application
helpers rebuild the spine of the enclosing expression (see
:func:`repro.core.ir.replace`).
"""

from __future__ import annotations

from typing import List, Optional

from ..core.ir import Expr, replace


class RuleApplicationError(Exception):
    """Raised when a rule is applied to an expression it does not match."""


class RewriteRule:
    """Base class for semantics-preserving rewrite rules."""

    #: Human-readable rule name (used in exploration logs and tests).
    name: str = "<rule>"

    def matches(self, expr: Expr) -> bool:
        """True when the rule can rewrite ``expr`` (the whole sub-expression)."""
        raise NotImplementedError

    def rewrite(self, expr: Expr) -> Expr:
        """Return the rewritten replacement for ``expr`` (which must match)."""
        raise NotImplementedError

    def apply(self, expr: Expr) -> Expr:
        """Match-checked rewrite."""
        if not self.matches(expr):
            raise RuleApplicationError(f"rule {self.name!r} does not match {expr!r}")
        return self.rewrite(expr)

    def __repr__(self) -> str:
        return f"<rule {self.name}>"


def find_applications(root: Expr, rule: RewriteRule) -> List[Expr]:
    """All sub-expressions of ``root`` (by identity) where ``rule`` matches."""
    return [node for node in root.walk() if rule.matches(node)]


def apply_at(root: Expr, rule: RewriteRule, target: Expr) -> Expr:
    """Apply ``rule`` at the given sub-expression and rebuild the program."""
    rewritten = rule.apply(target)
    return replace(root, target, rewritten)


def apply_everywhere(root: Expr, rule: RewriteRule, max_applications: int = 100) -> Expr:
    """Repeatedly apply ``rule`` anywhere it matches until it no longer does.

    The traversal restarts after every application because rewriting changes
    the tree.  ``max_applications`` guards against non-terminating rule sets.
    """
    current = root
    for _ in range(max_applications):
        candidates = find_applications(current, rule)
        if not candidates:
            return current
        current = apply_at(current, rule, candidates[0])
    raise RuleApplicationError(
        f"rule {rule.name!r} did not reach a fixed point after {max_applications} steps"
    )


def apply_first(root: Expr, rule: RewriteRule) -> Optional[Expr]:
    """Apply ``rule`` at the first matching position, or return ``None``."""
    candidates = find_applications(root, rule)
    if not candidates:
        return None
    return apply_at(root, rule, candidates[0])


__all__ = [
    "RewriteRule",
    "RuleApplicationError",
    "find_applications",
    "apply_at",
    "apply_everywhere",
    "apply_first",
]
