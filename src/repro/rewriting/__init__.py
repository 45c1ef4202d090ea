"""Rewrite rules and exploration.

Lift encodes every optimisation as a semantics-preserving rewrite rule.  This
package provides:

* :mod:`repro.rewriting.rules` — the rule abstraction and application machinery,
* :mod:`repro.rewriting.algorithmic_rules` — map fusion, split-join and the
  paper's **overlapped tiling** rule for N-dimensional stencils,
* :mod:`repro.rewriting.lowering_rules` — mapping map nests onto the OpenCL
  thread hierarchy, local-memory copies and loop unrolling,
* :mod:`repro.rewriting.strategies` — :func:`~.strategies.lower_program`,
  which lowers a program by applying the tiling rule (for tiled strategies),
  then the map-nest, local-memory and reduce rules at its outermost stencil,
* :mod:`repro.rewriting.exploration` — enumeration of the optimisation space
  explored by the auto-tuner.
"""

from .rules import RewriteRule, apply_at, apply_everywhere, find_applications
from .algorithmic_rules import (
    MapFusionRule,
    MapJoinInterchangeRule,
    SplitJoinRule,
    TileStencilNDRule,
    match_stencil,
)
from .lowering_rules import (
    LowerMapNestRule,
    LowerReduceSeqRule,
    LowerReduceUnrollRule,
    ToLocalRule,
)

__all__ = [
    "RewriteRule",
    "apply_at",
    "apply_everywhere",
    "find_applications",
    "MapFusionRule",
    "MapJoinInterchangeRule",
    "SplitJoinRule",
    "TileStencilNDRule",
    "match_stencil",
    "LowerMapNestRule",
    "LowerReduceSeqRule",
    "LowerReduceUnrollRule",
    "ToLocalRule",
]
