"""Gradient benchmark (5-point 2D, Figure 8).

Computes the local gradient magnitude of a scalar field — a common building
block of edge-detection pipelines and one of the 2D kernels from Rawat et al.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from ..core import builders as L
from ..core.ir import FunCall, Lambda
from ..core.types import Float
from ..core.userfuns import make_userfun
from ..core.arithmetic import Var
from .base import StencilBenchmark, random_grid


gradient_fn = make_userfun(
    "gradient5pt",
    ["c", "n", "s", "w", "e"],
    "return sqrt((c - n) * (c - n) + (c - s) * (c - s) + "
    "(c - w) * (c - w) + (c - e) * (c - e));",
    # Squares are written as products, like the C body: Python's ``** 2`` is
    # libm ``pow`` and NumPy's ``power`` squares, which differ by an ulp on
    # some inputs, and a product is the same IEEE operation in all three.
    lambda c, n, s, w, e: math.sqrt(
        (c - n) * (c - n) + (c - s) * (c - s) + (c - w) * (c - w) + (c - e) * (c - e)),
    numpy_fn=lambda c, n, s, w, e: np.sqrt(
        (c - n) * (c - n) + (c - s) * (c - s) + (c - w) * (c - w) + (c - e) * (c - e)
    ),
)


def build_gradient() -> Lambda:
    def body(grid):
        def f(nbh):
            center = L.at(1, L.at(1, nbh))
            north = L.at(1, L.at(0, nbh))
            south = L.at(1, L.at(2, nbh))
            west = L.at(0, L.at(1, nbh))
            east = L.at(2, L.at(1, nbh))
            return FunCall(gradient_fn, center, north, south, west, east)
        padded = L.pad_nd(1, 1, L.CLAMP, grid, 2)
        return L.map_nd(f, L.slide_nd(3, 1, padded, 2), 2)

    return L.fun([L.array_type(Float, Var("N"), Var("M"))], body, names=["grid"])


def reference_gradient(grid: np.ndarray) -> np.ndarray:
    p = np.pad(grid, 1, mode="edge")
    n, m = grid.shape
    c = p[1:1 + n, 1:1 + m]
    north = p[0:n, 1:1 + m]
    south = p[2:2 + n, 1:1 + m]
    west = p[1:1 + n, 0:m]
    east = p[1:1 + n, 2:2 + m]
    return np.sqrt((c - north) * (c - north) + (c - south) * (c - south)
                   + (c - west) * (c - west) + (c - east) * (c - east))


def _inputs(shape, seed) -> List[np.ndarray]:
    return [random_grid(shape, seed)]


GRADIENT = StencilBenchmark(
    name="Gradient",
    ndims=2,
    points=5,
    num_grids=1,
    default_shape=(4096, 4096),
    small_shape=(4096, 4096),
    large_shape=(8192, 8192),
    build_program=build_gradient,
    reference=reference_gradient,
    make_inputs=_inputs,
    flops_per_output=13.0,
    in_figure8=True,
    stencil_extent=3,
    description="5-point gradient magnitude (Rawat et al.)",
)


__all__ = ["GRADIENT", "build_gradient", "reference_gradient"]
