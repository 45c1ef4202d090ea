"""The view system: data-layout primitives as index arithmetic.

:func:`layout_view` holds the one view rule per layout primitive; the walk
over a lowered expression that calls it is :mod:`repro.codegen`'s.
"""

from .view import (
    View,
    ViewError,
    ViewIndexed,
    ViewMemory,
    ViewScalar,
    array_size,
    c_literal,
    layout_view,
)

__all__ = [
    "View",
    "ViewError",
    "ViewIndexed",
    "ViewMemory",
    "ViewScalar",
    "array_size",
    "c_literal",
    "layout_view",
]
