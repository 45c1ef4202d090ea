"""The region IR: one verified value per fusable run, two printers.

A :class:`~repro.backend.fuse.Region` is built once per run of traced
schedules; the native C printer and the ufunc-tile printer read nothing
else.  Every read is an :class:`~repro.backend.fuse.Access`: a base (the
allocation) plus a per-axis offset into it.  The acceptance properties:
every suite app reads the pinned bases at the pinned offsets, prints one
pinned C text (and, where iterate runs temporal blocks, one pinned
``steps`` text), and its plans report what they reported before accesses
existed (literals recorded then, in both the compiler and the no-compiler
lane); regions built by hand or generated, with no tracer, print to native
and to 1-, 2- and 3-chunk tiles that agree with NumPy; every verifier
condition raises :class:`~repro.backend.fuse.FusionError`; a store into an
allocation the region reads stays off the native path; and a native tape
that fails its capture-time check is re-printed from the same regions,
not re-analysed.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.suite import ALL_BENCHMARKS, get_benchmark
from repro.backend import fuse, native
from repro.backend import plan as plan_module
from repro.backend.base import NumpyBackend
from repro.backend.fuse import (
    Access,
    FusionError,
    Op,
    Region,
    Temp,
    build_region,
    print_tiles,
)
from repro.backend.plan import _same_or_nan
from repro.backend.pool import BufferPool
from repro.backend.ufunc_trace import _select, replay, trace_function

try:
    native.compiler()
    HAVE_CC = True
except native.Unavailable:
    HAVE_CC = False

needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler on this host")

SHAPES = {2: (13, 11), 3: (5, 7, 9)}
RAGGED_TILES = {2: (4, 3), 3: (2, 3, 4)}

#: sha256 of each app's one native C text at :data:`SHAPES`.  Byte-equal
#: text is what keeps every object already in a native cache a hit; a
#: change that means to alter the text re-records these.
NATIVE_TEXTS = {
    "acoustic": "d49166f82df10cec6f4d95c8a379b0508aa4d710de117ec60095d13db44f7409",
    "gaussian": "83adb6758e899629562deba77ddaa83858b40ca3583da0980d6831f8e495c35e",
    "gradient": "0018143849d0becd8a148903c5614ad4dc80d2c9f91319db355cc0e42bf3855e",
    "heat": "1c651485331a3388b818f42f71855c2cf4046b3737f82a4e1ca65e388f3f7325",
    "hotspot2d": "8c61bf8e3feb2bcaaede67467a9cc746b1758a00967c6efac5327f88cf31abbe",
    "hotspot3d": "55e789c4d2a646d63fd5c0e75c3022f0feba0ea38142f8f7b6f247aadb6468d1",
    "jacobi2d5pt": "4305d7e6786e61720f5b388eddd6559225193a90ab7a44b741fefa56adfdd400",
    "jacobi2d9pt": "c0e9fa9f9a625617d2ce1f3e1c438ce5d760b5a21cdd67561de490b59d9c8814",
    "jacobi3d13pt": "bfd8f386d3a804a8a3662b70a415f9e17d14418f67c136c212be83208df42c8e",
    "jacobi3d7pt": "ed2467d1589df983bed62d4136cd32d1247d660594b91998d74a871c14ec46ca",
    "poisson": "72dc6abf3dd891df53ecae01abc097eb635d352e178f8c01d0a3c432a63494d6",
    "srad1": "b4119993ebcf0e7b269e8cf5b6e43ad7062ebd40ff4855082a1a5063de9a3c70",
    "srad2": "27690fdf8eb5df87d9805e97c5cc5ea92fbbb6e61d45d9442a76151f3ddea0fa",
    "stencil2d": "a30eab96144b149f25eeeb5e1d7c684e9a7d36e8052cc12c292d559236bca2b4",
}

#: sha256 of the temporal block's ``steps`` text at :data:`SHAPES`, for
#: each app whose plan runs blocks (the others run per step).  It is its
#: own text and object, beside the region's, and the same at every band
#: count (re-recorded when ``steps`` gained its band, ``lo, hi``, when
#: ring rows moved to their own stride, the last word of ``g``, and when
#: the row control left the ``(k, t)`` loop: each ``k``'s level range from
#: closed forms, ring slots stepped, ``level_`` only at the grid's edges).
#: Acoustic's is a barrier block's: its ``region`` text plus a ``steps`` loop
#: (re-recorded when that text lost the ``level_`` it never called).
BLOCK_TEXTS = {
    "acoustic": "c46f5cb62c0bddb5878b53f081e5cb9793292a08e78a99476c38f7ae5648e83a",
    "gradient": "7d91eac5e71b5f235313bf1c57d20893633db7b4bc2537ddba18d2f34e96fef6",
    "heat": "6dabdd06cf59ba42c31382d65a158756cb8f161b44a5ded54c38ae30b200d79d",
    "hotspot2d": "5475627ceb280ef4351b30dc46bb6cf9a88e51081521a34e683d46345bbc7479",
    "hotspot3d": "e3ea173ab86b9924f5c38e8918c8271a038d63786770185188cc41253525c4c2",
    "jacobi2d5pt": "bb0a061dd98dc1a5e4b26c0c6c751cc6121b7888b6af44db727f1a1c48413c14",
    "jacobi2d9pt": "6d201576d7c4016326dc63919221957dd9b87193c36fbeaaefa62e334904181f",
    "jacobi3d13pt": "e58c056941eb5dca07fe82b99fc37f3df17b5516cfc9d3ce72e4a879b6a50e5b",
    "jacobi3d7pt": "05f9b7838cec0ddbdefbdd78e7d65c97319cac5e46747ba13435e12a817ac5a6",
    "poisson": "5e1035fa8a23a31138ed233d920368a2810f969c8b79763140363752a778a271",
    "srad1": "79b9f689236ad9eb2a5cb754c630e2f6f0953c6a9526c89dd1bb6c6ba81950ca",
    "srad2": "fa9c0b664e162de4109f34f3f9a26f3609c75bfab9c5348b5bacf5bfd8535680",
    "stencil2d": "37e5d2c4108a58be9612fd8b03c9f2ef7f7361d44c402c9e76c26ea90c197274",
}

STAT_KEYS = ("fused_regions", "native_regions", "fused_tiles",
             "fusion_fallbacks", "replay_bytes_per_step", "buffers",
             "buffer_bytes")

#: :data:`STAT_KEYS` after 4 iterate steps at :data:`SHAPES`, per app:
#: (default plan with a compiler, default plan without one, the ragged
#: explicit tile, ``tile_shape=False``).  With a compiler, an app that runs
#: wavefront blocks holds one more buffer, the blocks' row ring (rows of
#: whole cache lines, plus a line of slack); Acoustic's
#: barrier block holds none, but its check walks all five bindings of its
#: rotation in the first iterate.
PLAN_STATS = {
    "acoustic": ((5, 5, 5, 0, 13104, 6, 27216), (4, 0, 4, 0, 99225, 22, 58716),
                 (4, 0, 108, 0, 99225, 22, 29616), (0, 0, 0, 0, 99225, 22, 58716)),
    "gaussian": ((3, 3, 3, 0, 88736, 6, 91920), (3, 0, 3, 0, 198560, 12, 98784),
                 (3, 0, 48, 0, 198560, 12, 92496), (0, 0, 0, 0, 198560, 12, 98784)),
    "gradient": ((3, 3, 3, 0, 3536, 4, 16264), (3, 0, 3, 0, 40872, 9, 11544),
                 (3, 0, 48, 0, 40872, 9, 5256), (0, 0, 0, 0, 40872, 9, 11544)),
    "heat": ((3, 3, 3, 0, 14112, 4, 66616), (3, 0, 3, 0, 69048, 9, 31752),
             (3, 0, 81, 0, 69048, 9, 17784), (0, 0, 0, 0, 69048, 9, 31752)),
    "hotspot2d": ((3, 3, 3, 0, 4680, 5, 17408), (3, 0, 3, 0, 42016, 13, 16120),
                  (3, 0, 48, 0, 42016, 13, 6688), (0, 0, 0, 0, 42016, 13, 16120)),
    "hotspot3d": ((3, 3, 3, 0, 16632, 5, 69136), (3, 0, 3, 0, 124488, 13, 41832),
                  (3, 0, 81, 0, 124488, 13, 20880), (0, 0, 0, 0, 124488, 13, 41832)),
    "jacobi2d5pt": ((3, 3, 3, 0, 3536, 4, 16264), (3, 0, 3, 0, 16848, 6, 8112),
                    (3, 0, 48, 0, 16848, 6, 4968), (0, 0, 0, 0, 16848, 6, 8112)),
    "jacobi2d9pt": ((3, 3, 3, 0, 3536, 4, 16264), (3, 0, 3, 0, 32864, 6, 8112),
                    (3, 0, 48, 0, 32864, 6, 4968), (0, 0, 0, 0, 32864, 6, 8112)),
    "jacobi3d13pt": ((3, 3, 3, 0, 28368, 4, 140392), (3, 0, 3, 0, 116352, 6, 38448),
                     (3, 0, 81, 0, 116352, 6, 31464), (0, 0, 0, 0, 116352, 6, 38448)),
    "jacobi3d7pt": ((3, 3, 3, 0, 14112, 4, 66616), (3, 0, 3, 0, 56448, 6, 24192),
                    (3, 0, 81, 0, 56448, 6, 17208), (0, 0, 0, 0, 56448, 6, 24192)),
    "poisson": ((3, 3, 3, 0, 14112, 4, 66616), (3, 0, 3, 0, 167328, 9, 31752),
                (3, 0, 81, 0, 167328, 9, 17784), (0, 0, 0, 0, 167328, 9, 31752)),
    "srad1": ((3, 3, 3, 0, 3536, 4, 16264), (3, 0, 3, 0, 99502, 27, 29133),
              (3, 0, 48, 0, 99502, 27, 6732), (0, 0, 0, 0, 99502, 27, 29133)),
    "srad2": ((3, 3, 3, 0, 5096, 5, 17824), (3, 0, 3, 0, 44304, 10, 13104),
              (3, 0, 48, 0, 44304, 10, 6816), (0, 0, 0, 0, 44304, 10, 13104)),
    "stencil2d": ((3, 3, 3, 0, 3536, 4, 16264), (3, 0, 3, 0, 35152, 9, 11544),
                  (3, 0, 48, 0, 35152, 9, 5256), (0, 0, 0, 0, 35152, 9, 11544)),
}


def bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array).view(np.uint64)


def iterated_plan(key, tile_shape=None, workers=None):
    bench = get_benchmark(key)
    inputs = bench.make_inputs(SHAPES[bench.ndims], 7)
    plan = NumpyBackend(cache=None).plan(bench.build_program(), inputs,
                                         tile_shape=tile_shape,
                                         parallel_workers=workers)
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

    @needs_cc
    @pytest.mark.parametrize("key", sorted(ALL_BENCHMARKS))
    def test_block_text_is_byte_identical(self, key):
        for workers in (None, 3):  # one band, three bands
            source = iterated_plan(key, workers=workers).block_source()
            digest = source and hashlib.sha256(source.encode()).hexdigest()
            assert digest == BLOCK_TEXTS.get(key), workers

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
# What every suite app reads: bases and offsets
# ---------------------------------------------------------------------------

POINT5 = ((0, 1), (1, 0), (1, 1), (1, 2), (2, 1))
POINT9 = tuple((i, j) for i in range(3) for j in range(3))
POINT7 = ((0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1), (1, 1, 2), (1, 2, 1),
          (2, 1, 1))
POINT13 = ((0, 2, 2), (1, 2, 2), (2, 0, 2), (2, 1, 2), (2, 2, 0), (2, 2, 1),
           (2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 3, 2), (2, 4, 2), (3, 2, 2),
           (4, 2, 2))
POINT19 = tuple(point for point in np.ndindex(3, 3, 3)
                if sum(x != 1 for x in point) < 3)  # the cube less its corners

#: Per app, every distinct access table its regions have at
#: :data:`SHAPES`: one entry per base, the sorted offsets it is read at.
#: Acoustic's previous wave is a plain grid on the first step and a
#: padded grid's interior (offset 1 on every axis) after it.
ACCESSES = {
    "acoustic": {(((0, 0, 0),), ((0, 0, 0),), POINT7),
                 (((0, 0, 0),), POINT7, ((1, 1, 1),))},
    "gaussian": {(tuple((0, 0, k) for k in range(25)),)},
    "gradient": {(POINT5,)},
    "heat": {(POINT7,)},
    "hotspot2d": {(((0, 1), (1, 0), (1, 1), (1, 2), (2, 1)), ((0, 0),))},
    "hotspot3d": {(POINT7, ((0, 0, 0),))},
    "jacobi2d5pt": {(POINT5,)},
    "jacobi2d9pt": {(POINT9,)},
    "jacobi3d13pt": {(POINT13,)},
    "jacobi3d7pt": {(POINT7,)},
    "poisson": {(POINT19,)},
    "srad1": {(POINT5,)},
    "srad2": {(POINT5, ((1, 1), (1, 2), (2, 1)))},
    "stencil2d": {(POINT9,)},
}

#: Per-axis radius of each 5-, 7-, 9- and 13-point app's stencil base.
RADIUS = {
    "acoustic": (1, 1, 1), "gradient": (1, 1), "heat": (1, 1, 1),
    "hotspot2d": (1, 1), "hotspot3d": (1, 1, 1), "jacobi2d5pt": (1, 1),
    "jacobi2d9pt": (1, 1), "jacobi3d13pt": (2, 2, 2),
    "jacobi3d7pt": (1, 1, 1), "srad1": (1, 1), "srad2": (1, 1),
    "stencil2d": (1, 1),
}


def access_table(region: Region):
    offsets = [sorted(access.offset for access in region.accesses()
                      if access.base == base)
               for base in range(len(region.bases))]
    return tuple(sorted(tuple(read) for read in offsets))


def app_regions(key, monkeypatch):
    """Every region of ``key``'s default plan at :data:`SHAPES`."""
    found = []
    genuine = fuse.fusable_regions

    def regions(entries, out_buffer):
        result = genuine(entries, out_buffer)
        found.extend(region for _start, _end, region in result)
        return result

    monkeypatch.setattr(plan_module, "fusable_regions", regions)
    iterated_plan(key)
    return found


class TestSuiteAppsReadBasesAtOffsets:
    @pytest.mark.parametrize("key", sorted(ALL_BENCHMARKS))
    def test_access_table(self, key, monkeypatch):
        regions = app_regions(key, monkeypatch)
        assert {access_table(region) for region in regions} == \
            {tuple(sorted(table)) for table in ACCESSES[key]}
        assert all(base is fuse._root(base) for region in regions
                   for base in region.bases)  # every base an allocation

    @pytest.mark.parametrize("key", sorted(RADIUS))
    def test_radius_derives_from_the_offsets(self, key, monkeypatch):
        for region in app_regions(key, monkeypatch):
            reads = [[access.offset for access in region.accesses()
                      if access.base == base]
                     for base in range(len(region.bases))]
            widest = max(range(len(reads)), key=lambda base: len(reads[base]))
            offsets = np.array(reads[widest])
            low, high = offsets.min(axis=0), offsets.max(axis=0)
            radius = tuple(int(r) for r in (high - low) // 2)
            assert radius == RADIUS[key] and len(offsets) in (5, 7, 9, 13)
            # centred: the base is the region's grid padded by the radius
            assert not low.any()
            assert region.bases[widest].shape == tuple(
                extent + 2 * r for extent, r in zip(region.shape, radius))


# ---------------------------------------------------------------------------
# A region built by hand, no tracer
# ---------------------------------------------------------------------------

def hand_built_region():
    """``(a * b + 1.5) / b``: two bases, three ops (the first two sharing a
    scratch slot, as liveness reuse would have them), one store."""
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(7, 10)), rng.normal(size=(7, 10))
    a[0, :4] = [np.nan, np.inf, -0.0, 5e-324]
    b[1, :3] = [0.0, -np.inf, np.nan]
    out = np.zeros((7, 10))
    dtype = np.dtype(np.float64)
    a0, b0 = Access(0, (0, 0)), Access(1, (0, 0))
    ops = [Op(np.multiply, (a0, b0), (7, 10), dtype, 0),
           Op(np.add, (Temp(0), 1.5), (7, 10), dtype, 0),
           Op(np.true_divide, (Temp(1), b0), (7, 10), dtype, 1)]
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
        source = native.lower(region)
        assert set(re.findall(r"p\[\d+\]", source)) == {"p[0]", "p[1]", "p[2]"}
        assert source.count("_[j];") == 2 and "r2" in source
        native.build(region)()
        assert _same_or_nan(out, expected)
        real = ~np.isnan(expected)
        assert np.array_equal(bits(out)[real], bits(expected)[real])

    @needs_cc
    def test_a_store_into_a_base_declines(self):
        # An in-place stencil: the store writes the interior of the grid the
        # accesses read, so a loop nest would read cells it already wrote.
        padded = np.random.default_rng(2).normal(size=(8, 9))
        expected = padded[1:-1, :-2] * 0.5 + padded[:-2, 1:-1]
        dtype = np.dtype(np.float64)
        ops = [Op(np.multiply, (Access(0, (1, 0)), 0.5), (6, 7), dtype, 0),
               Op(np.add, (Temp(0), Access(0, (0, 1))), (6, 7), dtype, 1)]
        region = Region((6, 7), [padded], ops, [(padded[1:-1, 1:-1], 1)], [])
        with pytest.raises(native.Unavailable) as declined:
            native.build(region)
        assert declined.value.reason == "native_layout"
        # one whole-region tile lets NumPy buffer the overlap: still exact
        for part in print_tiles(region, (6, 7), 1, BufferPool(), []):
            replay(part)
        assert np.array_equal(bits(padded[1:-1, 1:-1]), bits(expected))


# ---------------------------------------------------------------------------
# Generated regions, no tracer: each printer against the NumPy expression
# ---------------------------------------------------------------------------

SPECIAL = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1e308])
#: ``np.negative`` is left out: NumPy 2.4's strided loop for it misreads an
#: input strided by 8 or more items into a strided output
#: (``np.negative(a[::8][:4], out=b[::2][:4])``), so a one-column tile
#: would differ from NumPy's own whole-array answer.
FLOAT_OPS = [np.add, np.subtract, np.multiply, np.true_divide, np.absolute,
             np.sqrt, np.clip, _select]
COMPARE_OPS = [np.less, np.greater_equal, np.not_equal]
SCALARS = [1.5, -0.25, 0.0, -0.0, 3.0, np.inf]
EVALUATE = {_select: np.where}  # the NumPy call of an out-form


@st.composite
def generated_regions(draw):
    """``(region, expected)``: a region over 1-3 padded bases (a full grid,
    a broadcast one missing leading axes or with extent-1 axes, or one with
    a trailing fixed-index axis) read at random in-radius offsets, a
    whitelisted op DAG, liveness-shared slots and 1-2 stores; ``expected``
    maps each store to what NumPy computes from the same views."""
    rank = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(1, 6), min_size=rank,
                                max_size=rank)))
    radius = draw(st.lists(st.integers(0, 2), min_size=rank, max_size=rank))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    bases, reads = [], []  # reads: (Access, the NumPy view it means)
    for index in range(draw(st.integers(1, 3))):
        kind = "full" if index == 0 else draw(
            st.sampled_from(["full", "broadcast", "fixed"]))
        lead = draw(st.integers(0, rank - 1)) if kind == "broadcast" else 0
        extents = [1 if kind == "broadcast" and draw(st.booleans())
                   else shape[axis] + 2 * radius[axis]
                   for axis in range(lead, rank)]
        base = np.array(rng.normal(size=extents + [3] * (kind == "fixed")) * 3)
        special = rng.random(base.shape) < 0.1
        base[special] = rng.choice(SPECIAL, size=int(special.sum()))
        bases.append(base)
        for _ in range(draw(st.integers(1, 3))):
            offset, selector = [], []
            for k, extent in enumerate(base.shape):
                if lead + k >= rank:  # a fixed index
                    offset.append(draw(st.integers(0, extent - 1)))
                    selector.append(offset[-1])
                elif extent == 1:     # a broadcast axis
                    offset.append(0)
                    selector.append(slice(0, 1))
                else:
                    offset.append(draw(st.integers(0, 2 * radius[lead + k])))
                    selector.append(slice(offset[-1],
                                          offset[-1] + shape[lead + k]))
            reads.append((Access(index, tuple(offset)), base[tuple(selector)]))

    values, ops = [], []  # per op so far: its NumPy value; (fn, args, value)

    def pick(kind):
        """An argument of dtype kind ``kind``: an access (every base is
        float) or an earlier op's value."""
        candidates = (reads if kind == "f" else []) + [
            (Temp(k), value) for k, value in enumerate(values)
            if value.dtype.kind == kind]
        return candidates[draw(st.integers(0, len(candidates) - 1))]

    for _ in range(draw(st.integers(1, 6))):
        fn = draw(st.sampled_from(FLOAT_OPS + COMPARE_OPS))
        if fn is _select and not any(v.dtype == bool for v in values):
            fn = np.add
        args = [pick("f")]
        if fn is np.clip:
            args += [(bound, bound) for bound in sorted(
                draw(st.sampled_from(SCALARS)) for _ in range(2))]
        elif fn is _select:
            args = [pick("b"), args[0], pick("f")]
        elif fn not in (np.absolute, np.sqrt):  # binary
            args.append(pick("f") if draw(st.booleans()) else
                        (scalar := draw(st.sampled_from(SCALARS)), scalar))
        with np.errstate(all="ignore"):
            value = np.asarray(EVALUATE.get(fn, fn)(*[v for _a, v in args]))
        ops.append((fn, tuple(arg for arg, _v in args), value))
        values.append(value)
    final = values[-1]
    if final.shape != shape:  # a store spans the region
        access, view = reads[0]
        ops.append((np.add, (Temp(len(ops) - 1), access),
                    final + np.broadcast_to(view, shape)))
        values.append(ops[-1][2])

    # Slots as liveness reuse would share them (a dying operand's buffer
    # only for a plain ufunc, as the tracer does); every op's value lives
    # in its slot until its last reader has run.
    last = {k: max([j for j, (_fn, args, _v) in enumerate(ops)
                    if Temp(k) in args], default=len(ops))  # unread: kept
            for k in range(len(ops))}
    slots, free, keys = [], [], []
    for j, (fn, args, value) in enumerate(ops):
        key = (value.shape, value.dtype)
        dying = [slots[t.op] for t in args
                 if isinstance(t, Temp) and last[t.op] == j]
        reusable = [slot for slot in free if keys[slot] == key]
        if isinstance(fn, np.ufunc):
            reusable += [slot for slot in dying if keys[slot] == key]
        if reusable and draw(st.booleans()):
            slot = reusable[0]
        else:
            slot, keys = len(keys), keys + [key]
        slots.append(slot)
        free = [s for s in free if s != slot] + [s for s in dying if s != slot]
    stored = {slots[-1]}
    if draw(st.booleans()):
        stored.add(slots[draw(st.integers(0, len(ops) - 1))])
    writer = {slot: j for j, slot in enumerate(slots)}
    stores, expected = [], []
    for slot in sorted(stored):
        value = values[writer[slot]]
        if value.shape != shape:
            continue
        stores.append((np.full(shape, 7.0, dtype=value.dtype), writer[slot]))
        expected.append(value)
    used = sorted({arg.base for _fn, args, _v in ops for arg in args
                   if isinstance(arg, Access)})
    renumber = {old: new for new, old in enumerate(used)}
    region_ops = [
        Op(fn, tuple(Access(renumber[arg.base], arg.offset)
                     if isinstance(arg, Access) else arg for arg in args),
           value.shape, value.dtype, slot)
        for (fn, args, value), slot in zip(ops, slots)]
    region = Region(shape, [bases[old] for old in used], region_ops,
                    stores, [])
    return region, expected


def assert_stores(region, expected, relation):
    for (buffer, _op), value in zip(region.stores, expected):
        if buffer.dtype == bool:
            assert np.array_equal(buffer, value)
        else:
            relation(buffer, value)


def same_bits(out, value):
    assert np.array_equal(bits(out), bits(value))


def same_or_nan(out, value):
    assert _same_or_nan(out, value)
    real = ~np.isnan(value)
    assert np.array_equal(bits(out)[real], bits(value)[real])


@settings(max_examples=40, deadline=None)
@given(generated_regions(), st.data())
def test_generated_regions_print_what_numpy_computes(generated, data):
    region, expected = generated
    for chunks in (1, 2, 3):
        tiles = tuple(data.draw(st.integers(1, extent), label="tile")
                      for extent in region.shape)
        for buffer, _op in region.stores:
            buffer.fill(7)
        with np.errstate(all="ignore"):
            for part in print_tiles(region, tiles, chunks, BufferPool(), []):
                replay(part)
        assert_stores(region, expected, same_bits)
    if HAVE_CC:
        for buffer, _op in region.stores:
            buffer.fill(7)
        native.build(region)()
        assert_stores(region, expected, same_or_nan)


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
        # a broadcast row of it is its own base, not the buffer's
        row, _ = traced(lambda m, y: m - y, mid[:1], b)
        with pytest.raises(FusionError, match="non-aligned"):
            build_region([first, row], [row.out])

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
        # Stored, the same read is last sweep's contents: an access.
        region = build_region([second, first], [second.out, mid])
        assert any(base is mid for base in region.bases)
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
