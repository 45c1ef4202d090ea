#!/usr/bin/env python3
"""Quickstart: the paper's running example, end to end.

This script reproduces the paper's Listings 1, 2 and 4:

1. express the 3-point Jacobi stencil with ``pad``, ``slide`` and ``map``
   (Listing 2),
2. type-check it and run it with the reference interpreter against the plain C
   semantics of Listing 1,
3. apply the overlapped-tiling rewrite rule (Listing 4) and show that the
   rewritten expression computes the same result,
4. lower both variants and generate OpenCL kernels from them.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations


from repro.core import builders as L
from repro.core import pretty
from repro.core.arithmetic import Var
from repro.core.ir import Lambda
from repro.core.typecheck import check_program
from repro.core.types import Float, array
from repro.core.userfuns import add
from repro.codegen import generate_kernel
from repro.rewriting.algorithmic_rules import TileStencilNDRule
from repro.rewriting.rules import apply_at, find_applications
from repro.rewriting.strategies import NAIVE, lower_program, tiled_strategy
from repro.runtime.interpreter import evaluate_program


def listing1_reference(a: list[float]) -> list[float]:
    """The plain C loop nest of Listing 1, transcribed to Python."""
    n = len(a)
    out = []
    for i in range(n):
        total = 0.0
        for j in (-1, 0, 1):
            pos = min(max(i + j, 0), n - 1)
            total += a[pos]
        out.append(total)
    return out


def main() -> None:
    n = Var("N")

    # --- Listing 2: the stencil in Lift -----------------------------------
    sum_nbh = L.fun_n(1, lambda nbh: L.reduce(add, 0.0, nbh))
    stencil = L.fun(
        [array(Float, n)],
        lambda a: L.map(sum_nbh, L.slide(3, 1, L.pad(1, 1, L.CLAMP, a))),
        names=["A"],
    )
    print("Listing 2 (3-point Jacobi in Lift):")
    print(" ", pretty(stencil))

    result_type = check_program(stencil, [array(Float, 16)])
    print("  inferred type for N=16:", result_type)

    data = [float((i * 7) % 5) for i in range(16)]
    lift_out = [v[0] for v in evaluate_program(stencil, [data])]
    assert lift_out == listing1_reference(data)
    print("  interpreter output matches the C semantics of Listing 1 ✓")

    # --- Listing 4: overlapped tiling as a rewrite rule ---------------------
    rule = TileStencilNDRule(tile_size=6)
    position = find_applications(stencil.body, rule)[0]
    tiled = Lambda(stencil.params, apply_at(stencil.body, rule, position))
    print("\nListing 4 (after the overlapped-tiling rewrite, tile size 6):")
    print(" ", pretty(tiled))

    tiled_out = [v[0] for v in evaluate_program(tiled, [data])]
    assert tiled_out == lift_out
    print("  the rewrite is semantics-preserving ✓")

    # --- Code generation ------------------------------------------------------
    jacobi2d = L.fun(
        [array(Float, Var("N"), Var("M"))],
        lambda a: L.map_nd(
            lambda nbh: L.reduce(add, 0.0, L.join(nbh)),
            L.slide_nd(3, 1, L.pad_nd(1, 1, L.CLAMP, a, 2), 2),
            2,
        ),
        names=["grid"],
    )
    naive_kernel = generate_kernel(
        lower_program(jacobi2d, NAIVE), [array(Float, 64, 64)], "jacobi2d_naive"
    )
    tiled_kernel = generate_kernel(
        lower_program(jacobi2d, tiled_strategy(18)), [array(Float, 64, 64)],
        "jacobi2d_tiled",
    )
    print("\nGenerated OpenCL (naive, one work-item per element):")
    print(naive_kernel.source)
    print("Generated OpenCL (overlapped tiling + local memory), first lines:")
    print("\n".join(tiled_kernel.source.splitlines()[:24]))
    print("  ...")
    print("\nKernel launch metadata:")
    print(" ", naive_kernel.describe())
    print(" ", tiled_kernel.describe())


if __name__ == "__main__":
    main()
