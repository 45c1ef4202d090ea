"""The region IR: one verified value per fusable run, two printers.

A :class:`~repro.backend.fuse.Region` is built once per run of traced
schedules; the native C printer and the ufunc-tile printer read nothing
else.  The acceptance properties: what every suite app prints, and what its
plans report, is what it was before the region IR existed (literals
recorded then, in both the compiler and the no-compiler lane); a region
built by hand, with no tracer, prints to native and to 1-, 2- and 3-chunk
tiles that agree with NumPy; every verifier condition raises
:class:`~repro.backend.fuse.FusionError`; and a native tape that fails its
capture-time check is re-printed from the same regions, not re-analysed.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.apps.suite import ALL_BENCHMARKS, get_benchmark
from repro.backend import fuse, native
from repro.backend import plan as plan_module
from repro.backend.base import NumpyBackend
from repro.backend.fuse import (
    FusionError,
    Load,
    Op,
    Region,
    Temp,
    build_region,
    print_tiles,
)
from repro.backend.plan import _same_or_nan
from repro.backend.pool import BufferPool
from repro.backend.ufunc_trace import replay, trace_function

try:
    native.compiler()
    HAVE_CC = True
except native.Unavailable:
    HAVE_CC = False

needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler on this host")

SHAPES = {2: (13, 11), 3: (5, 7, 9)}
RAGGED_TILES = {2: (4, 3), 3: (2, 3, 4)}

#: sha256 of each app's one native C text at :data:`SHAPES`.  Byte-equal
#: text is what keeps every object already in a native cache a hit.
NATIVE_TEXTS = {
    "acoustic": "48a93cf7ffae58688c59c3ec32ffb42e887b52480547a4be29c2c7d180663f18",
    "gaussian": "ba63b2230257369e989eeb66004342524d2cc13394cb6a963fad58edda898dac",
    "gradient": "fe1f1c213f8fd9cab3f87d8aa185cf7dc67c51f6762cf183f8df5e354638e89e",
    "heat": "b726d02027fb4c592d10ad2fc01252dc613dd604a303e7894ab0ec5bbbe3dd00",
    "hotspot2d": "85705a7c8ecd95efec8cc49eaac93c1b0f64a76c87f6df158e138f074aa15024",
    "hotspot3d": "b464683e9bc385ab464de7c23af4b3167ec2c4255b1ec63de8235d3e442f9d9e",
    "jacobi2d5pt": "39fd3effe466093b60e6c4cea9189a744600e894173087279f631bc94c98c7a6",
    "jacobi2d9pt": "5b1bf8b72e6fe9b0a34bf47506b678b798f2295d3b764cea494f32d8695f8192",
    "jacobi3d13pt": "5a52f36630c6d22bdac517338b0a8cce3f7bb60c2861fc11268e74da3dbbaef3",
    "jacobi3d7pt": "b1f6cbb96fb1d4723eb122386c7d0274501ff7ee4a0f4be004e10067b5b8a3f6",
    "poisson": "890d7f415d3ee0913da1a8c909c4b0a7c3ebcad3282b6b027e5c5dbf083bc787",
    "srad1": "1532378c135814a803ab0b99890a22954b15abe847f2dcb7a1603064f14bda1a",
    "srad2": "f162889f5eb87cf751440efde17c13641fc6ce12a6b56b5c1fd2de28beef7c12",
    "stencil2d": "be1bb382af95c694f6e57c1a03e6b0c499f2699a1bd153b78d6853b9c22d6a05",
}

STAT_KEYS = ("fused_regions", "native_regions", "fused_tiles",
             "fusion_fallbacks", "replay_bytes_per_step", "buffers",
             "buffer_bytes")

#: :data:`STAT_KEYS` after 4 iterate steps at :data:`SHAPES`, per app:
#: (default plan with a compiler, default plan without one, the ragged
#: explicit tile, ``tile_shape=False``).
PLAN_STATS = {
    "acoustic": ((4, 4, 4, 0, 13104, 6, 27216), (4, 0, 4, 0, 99225, 22, 58716),
                 (4, 0, 108, 0, 99225, 22, 29616), (0, 0, 0, 0, 99225, 22, 58716)),
    "gaussian": ((3, 3, 3, 0, 88736, 6, 91920), (3, 0, 3, 0, 198560, 12, 98784),
                 (3, 0, 48, 0, 198560, 12, 92496), (0, 0, 0, 0, 198560, 12, 98784)),
    "gradient": ((3, 3, 3, 0, 3536, 3, 4680), (3, 0, 3, 0, 40872, 9, 11544),
                 (3, 0, 48, 0, 40872, 9, 5256), (0, 0, 0, 0, 40872, 9, 11544)),
    "heat": ((3, 3, 3, 0, 14112, 3, 16632), (3, 0, 3, 0, 69048, 9, 31752),
             (3, 0, 81, 0, 69048, 9, 17784), (0, 0, 0, 0, 69048, 9, 31752)),
    "hotspot2d": ((3, 3, 3, 0, 4680, 4, 5824), (3, 0, 3, 0, 42016, 13, 16120),
                  (3, 0, 48, 0, 42016, 13, 6688), (0, 0, 0, 0, 42016, 13, 16120)),
    "hotspot3d": ((3, 3, 3, 0, 16632, 4, 19152), (3, 0, 3, 0, 124488, 13, 41832),
                  (3, 0, 81, 0, 124488, 13, 20880), (0, 0, 0, 0, 124488, 13, 41832)),
    "jacobi2d5pt": ((3, 3, 3, 0, 3536, 3, 4680), (3, 0, 3, 0, 16848, 6, 8112),
                    (3, 0, 48, 0, 16848, 6, 4968), (0, 0, 0, 0, 16848, 6, 8112)),
    "jacobi2d9pt": ((3, 3, 3, 0, 3536, 3, 4680), (3, 0, 3, 0, 32864, 6, 8112),
                    (3, 0, 48, 0, 32864, 6, 4968), (0, 0, 0, 0, 32864, 6, 8112)),
    "jacobi3d13pt": ((3, 3, 3, 0, 28368, 3, 30888), (3, 0, 3, 0, 116352, 6, 38448),
                     (3, 0, 81, 0, 116352, 6, 31464), (0, 0, 0, 0, 116352, 6, 38448)),
    "jacobi3d7pt": ((3, 3, 3, 0, 14112, 3, 16632), (3, 0, 3, 0, 56448, 6, 24192),
                    (3, 0, 81, 0, 56448, 6, 17208), (0, 0, 0, 0, 56448, 6, 24192)),
    "poisson": ((3, 3, 3, 0, 14112, 3, 16632), (3, 0, 3, 0, 167328, 9, 31752),
                (3, 0, 81, 0, 167328, 9, 17784), (0, 0, 0, 0, 167328, 9, 31752)),
    "srad1": ((3, 3, 3, 0, 3536, 3, 4680), (3, 0, 3, 0, 99502, 27, 29133),
              (3, 0, 48, 0, 99502, 27, 6732), (0, 0, 0, 0, 99502, 27, 29133)),
    "srad2": ((3, 3, 3, 0, 5096, 4, 6240), (3, 0, 3, 0, 44304, 10, 13104),
              (3, 0, 48, 0, 44304, 10, 6816), (0, 0, 0, 0, 44304, 10, 13104)),
    "stencil2d": ((3, 3, 3, 0, 3536, 3, 4680), (3, 0, 3, 0, 35152, 9, 11544),
                  (3, 0, 48, 0, 35152, 9, 5256), (0, 0, 0, 0, 35152, 9, 11544)),
}


def bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array).view(np.uint64)


def iterated_plan(key, tile_shape=None):
    bench = get_benchmark(key)
    inputs = bench.make_inputs(SHAPES[bench.ndims], 7)
    plan = NumpyBackend(cache=None).plan(bench.build_program(), inputs,
                                         tile_shape=tile_shape)
    plan.iterate(inputs, 4, carry=bench.carry_spec())
    return plan


# ---------------------------------------------------------------------------
# What every suite app prints and reports
# ---------------------------------------------------------------------------

class TestSuiteAppsPrintWhatTheyPrinted:
    @needs_cc
    @pytest.mark.parametrize("key", sorted(ALL_BENCHMARKS))
    def test_native_text_is_byte_identical(self, key):
        texts = {hashlib.sha256(source.encode()).hexdigest()
                 for source in iterated_plan(key).native_sources()}
        assert texts == {NATIVE_TEXTS[key]}

    @pytest.mark.parametrize("key", sorted(ALL_BENCHMARKS))
    def test_plan_stats_match_in_this_lane(self, key):
        native_default, tiled_default, ragged, unfused = PLAN_STATS[key]
        ndims = ALL_BENCHMARKS[key].ndims
        for tile_shape, expected in (
                (None, native_default if HAVE_CC else tiled_default),
                (RAGGED_TILES[ndims], ragged), (False, unfused)):
            stats = iterated_plan(key, tile_shape).stats()
            assert tuple(stats[name] for name in STAT_KEYS) == expected, \
                (key, tile_shape)


# ---------------------------------------------------------------------------
# A region built by hand, no tracer
# ---------------------------------------------------------------------------

def hand_built_region():
    """``(a * b + 1.5) / b``: two loads, three ops (the first two sharing a
    scratch slot, as liveness reuse would have them), one store."""
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(7, 10)), rng.normal(size=(7, 10))
    a[0, :4] = [np.nan, np.inf, -0.0, 5e-324]
    b[1, :3] = [0.0, -np.inf, np.nan]
    out = np.zeros((7, 10))
    dtype = np.dtype(np.float64)
    ops = [Op(np.multiply, (Load(0), Load(1)), (7, 10), dtype, 0),
           Op(np.add, (Temp(0), 1.5), (7, 10), dtype, 0),
           Op(np.true_divide, (Temp(1), Load(1)), (7, 10), dtype, 1)]
    region = Region((7, 10), [a, b], ops, [(out, 2)], [])
    with np.errstate(all="ignore"):
        expected = (a * b + 1.5) / b
    return region, out, expected


class TestHandBuiltRegion:
    @pytest.mark.parametrize("chunks", [1, 2, 3])
    def test_ufunc_tiles_are_bit_identical_to_numpy(self, chunks):
        region, out, expected = hand_built_region()
        pool, scratch = BufferPool(), []
        parts = print_tiles(region, (3, 4), chunks, pool, scratch)
        assert len(parts) == chunks
        assert len(scratch) == chunks  # one scratch slot per chunk
        assert all(buffer.shape == (3, 4) for buffer in scratch)
        with np.errstate(all="ignore"):
            for part in parts:
                replay(part)
        assert np.array_equal(bits(out), bits(expected))

    @needs_cc
    def test_native_is_bit_identical_to_numpy_off_nan(self):
        region, out, expected = hand_built_region()
        source, loads, stores = native.lower(region)
        assert loads == region.loads and stores == [out]
        assert source.count("_[j];") == 2 and "r2" in source
        native.build(region)()
        assert _same_or_nan(out, expected)
        real = ~np.isnan(expected)
        assert np.array_equal(bits(out)[real], bits(expected)[real])


# ---------------------------------------------------------------------------
# The verifier: one negative per condition
# ---------------------------------------------------------------------------

def traced(fn, *args, pool=None):
    with np.errstate(all="ignore"):
        schedule, result = trace_function(fn, list(args), pool or BufferPool())
    assert schedule is not None
    return schedule, result


def grids():
    rng = np.random.default_rng(9)
    return rng.normal(size=(6, 10)), rng.normal(size=(6, 10))


class TestVerifier:
    def test_a_node_that_does_not_broadcast_to_the_region(self):
        a, b = grids()
        full, _ = traced(lambda x, y: x * y + y, a, b)
        row, _ = traced(lambda r: r * 2.0 + r, b[:1])
        with pytest.raises(FusionError, match="does not broadcast"):
            build_region([full, row], [row.out])

    def test_a_leaf_viewing_an_internal_buffer_out_of_alignment(self):
        a, b = grids()
        first, mid = traced(lambda x, y: x * y + y, a, b)
        second, _ = traced(lambda m, y: m - y, mid[::-1], b)
        with pytest.raises(FusionError, match="non-aligned"):
            build_region([first, second], [second.out])

    def test_an_escaping_buffer_that_is_not_region_shaped(self):
        a, b = grids()
        row, mid = traced(lambda r: r * 2.0 + r, b[:1])
        full, _ = traced(lambda m, x: m * x + x, mid, a)
        # the row is read again after the run: it must be stored, and a
        # store spans the whole region
        with pytest.raises(FusionError, match="not region-shaped"):
            build_region([row, full], [full.out, mid])
        assert build_region([row, full], [full.out]).stores[0][0] is full.out

    def test_a_temp_read_before_it_is_defined(self):
        a, b = grids()
        first, mid = traced(lambda x, y: x * y + y, a, b)
        second, _ = traced(lambda m, y: m - y * 2.0, mid, b)
        with pytest.raises(FusionError, match="before it is defined"):
            build_region([second, first], [second.out])
        # Stored, the same read is last sweep's contents: a load.
        region = build_region([second, first], [second.out, mid])
        assert any(load is mid for load in region.loads)
        assert [store for store, _op in region.stores][-1] is mid


# ---------------------------------------------------------------------------
# The demotion re-prints; it does not re-analyse
# ---------------------------------------------------------------------------

@needs_cc
def test_a_rejected_native_tape_is_reprinted_from_the_same_regions(
        monkeypatch):
    analysed, printed = [], []
    genuine_regions, genuine_lower = fuse.fusable_regions, fuse.lower_tape
    genuine_same = plan_module._same_or_nan
    calls = []

    def regions(entries, out_buffer):
        found = genuine_regions(entries, out_buffer)
        analysed.append(found)
        return found

    def lower(entries, found, *args):
        printed.append(found)
        return genuine_lower(entries, found, *args)

    def reject_first(a, b):
        calls.append(1)
        return genuine_same(a, b) and len(calls) > 1

    monkeypatch.setattr(plan_module, "fusable_regions", regions)
    monkeypatch.setattr(plan_module, "lower_tape", lower)
    monkeypatch.setattr(plan_module, "_same_or_nan", reject_first)
    stats = iterated_plan("hotspot2d").stats()
    assert stats["fused_regions"] == 3 and stats["native_regions"] == 2
    assert len(analysed) == stats["tapes"] == 3 and len(printed) == 4
    assert printed[0] is printed[1] is analysed[0]
