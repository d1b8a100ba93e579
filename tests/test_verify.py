import dataclasses
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from topobetti.constructions import (
    BettiVector,
    CuttingSpec,
    FoldingSpec,
    build_topo_network,
    predict_betti,
)
from topobetti.exactgeom import BoxDomain
from topobetti.homology import analyze_network
from topobetti.relunet import AffineLayer, ReluNetwork, eval_scalar
from topobetti.stability import _perturbed
from conftest import REFERENCE_INSTANCES
from helpers import network_and_box, reference_grid_beta0
from topobetti import verify
from topobetti.verify import (
    SignGrid,
    default_resolution,
    grid_beta0,
    grid_sign_sample,
    reconcile,
    write_csv,
    write_pgm,
)


def _linear(coeffs, bias):
    d = len(coeffs)
    zero = Fraction(0)
    return ReluNetwork(
        (
            AffineLayer(
                (tuple(Fraction(c) for c in coeffs), (zero,) * d),
                (zero, Fraction(1)),
            ),
            AffineLayer(((Fraction(1), zero),), (Fraction(bias),)),
        )
    )


def _grid_point(box, N, idx):
    return tuple(lo + (up - lo) * Fraction(i, N) for lo, up, i in zip(box.lower, box.upper, idx))


def _assert_signs_match(net, box, N):
    sg = grid_sign_sample(net, box, N)
    assert sg.signs.shape == (N + 1,) * box.dimension
    for idx in np.ndindex(sg.signs.shape):
        v = eval_scalar(net, _grid_point(box, N, idx))
        assert sg.signs[idx] == (v > 0) - (v < 0), idx


def _beyond_int64():
    """A network whose scaled pass needs Python ints.

    One denominator near 2^40 per layer: every integer weight fits in int64,
    but three layers of products reach ~2^130, so an int64 pass would wrap
    and the oracle must fall back to Python ints.
    """

    def layer(q, rows, bias):
        return AffineLayer(
            tuple(tuple(Fraction(k * 2**40 + 7, q) for k in row) for row in rows),
            tuple(Fraction(b) for b in bias),
        )

    return ReluNetwork(
        (
            layer(2**40 + 3, ((1, -2), (-3, 1), (2, 2)), (Fraction(1, 3),) * 3),
            layer(2**40 + 5, ((1, -1, 2), (-2, 3, -1)), (0, 0)),
            layer(2**40 + 9, ((3, -4),), (0,)),
        )
    )


def _three_tiers():
    """A network whose layers step from int32 to int64 to Python ints.

    A first layer of small weights stays below 2^30; the last two layers of
    _beyond_int64, with one denominator near 2^40 each, take the bound past
    2^30 and then past 2^62.
    """
    first = AffineLayer(
        tuple(tuple(map(Fraction, row)) for row in ((1, -2), (-3, 1), (2, 2))),
        (Fraction(1, 3),) * 3,
    )
    return ReluNetwork((first, *_beyond_int64().layers[1:]))


def _scaled_pair(c):
    """relu(c·(x₁ + x₂ − 1)) − relu(c·(x₁ − x₂)), all weights integers.

    On the unit square at N = 16 the grid numerators are at most 16, so the
    layer bounds are 48c and 96c.
    """
    c = Fraction(c)
    return ReluNetwork(
        (
            AffineLayer(((c, c), (c, -c)), (-c, Fraction(0))),
            AffineLayer(((Fraction(1), Fraction(-1)),), (Fraction(0),)),
        )
    )


def _signs_match_on_tiers(net, box, N, monkeypatch):
    """_assert_signs_match, returning the (bound, dtype) each layer of the pass took."""
    taken = []
    choose = verify._dtype

    def spy(bound):
        taken.append((bound, choose(bound)))
        return taken[-1][1]

    monkeypatch.setattr(verify, "_dtype", spy)
    _assert_signs_match(net, box, N)
    return taken


def _signs_at_two_blocks(net, box, N, monkeypatch):
    """The grid's signs with the module's own block and with blocks of 2 048 points."""
    own = grid_sign_sample(net, box, N).signs
    monkeypatch.setattr(verify, "_BLOCK", 2048)
    return own, grid_sign_sample(net, box, N).signs


def _through_relu(coeffs, bias):
    """c·x + bias as relu(c·x + bias) − relu(−c·x − bias): one hidden layer."""
    c = tuple(Fraction(v) for v in coeffs)
    b = Fraction(bias)
    return ReluNetwork(
        (
            AffineLayer((c, tuple(-v for v in c)), (b, -b)),
            AffineLayer(((Fraction(1), Fraction(-1)),), (Fraction(0),)),
        )
    )


def _affine_signs(coeffs, bias, box, N):
    """Sign of c·x + bias at every grid point, computed on numpy int64.

    Every value is scaled by S = N·lcm(denominators), which makes each axis's
    term c_t·(lo_t + i·(up_t − lo_t)/N)·S an integer affine in i.
    """
    d = box.dimension
    bias = Fraction(bias)
    S = N * math.lcm(*(v.denominator for v in (*box.lower, *box.upper, bias)))
    i = np.arange(N + 1)
    total = np.full((N + 1,) * d, int(bias * S), dtype=np.int64)
    for t, (c, lo, up) in enumerate(zip(coeffs, box.lower, box.upper)):
        axis = [1] * d
        axis[t] = N + 1
        total += (int(c * lo * S) + int(c * (up - lo) * S / N) * i).reshape(axis)
    return np.sign(total)


weights = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def network_box_resolution(draw):
    """A scalar ReLU net (d ≤ 3, one or two hidden layers of width ≤ 4), a box, N ≤ 12."""
    d = draw(st.sampled_from((1, 2, 3)))
    hidden = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    widths = [d] + hidden + [1]
    net = ReluNetwork(
        tuple(
            AffineLayer(
                tuple(tuple(draw(weights) for _ in range(n_in)) for _ in range(n_out)),
                tuple(draw(weights) for _ in range(n_out)),
            )
            for n_in, n_out in zip(widths, widths[1:])
        )
    )
    corner = st.fractions(min_value=-2, max_value=1, max_denominator=5)
    side = st.fractions(min_value=Fraction(1, 3), max_value=3, max_denominator=5)
    lower = [draw(corner) for _ in range(d)]
    upper = [lo + draw(side) for lo in lower]
    N = draw(st.integers(1, 12))
    return net, BoxDomain(tuple(lower), tuple(upper)), N


class TestGridSignSample:
    @given(network_box_resolution())
    @settings(max_examples=60, deadline=None)
    def test_signs_equal_exact_evaluation_on_random_networks(self, case):
        _assert_signs_match(*case)

    def test_magnitudes_beyond_int64(self):
        _assert_signs_match(_beyond_int64(), BoxDomain((Fraction(-1),) * 2, (Fraction(1),) * 2), 8)

    @pytest.mark.parametrize(
        "c, tiers",
        [((2**30 - 1) // 96, [np.int32, np.int32]), ((2**30 - 1) // 96 + 1, [np.int32, np.int64])],
        ids=["just-below-2^30", "just-above-2^30"],
    )
    def test_int32_tier_edge(self, c, tiers, monkeypatch):
        taken = _signs_match_on_tiers(_scaled_pair(c), BoxDomain.unit_cube(2), 16, monkeypatch)
        assert [bound for bound, _ in taken] == [48 * c, 96 * c]
        assert abs(96 * c - 2**30) < 96
        assert [dtype for _, dtype in taken] == tiers

    def test_python_int_first_layer(self, monkeypatch):
        # weights ±2⁷⁰ take even the first layer's bound past 2^62, so its sum
        # runs on Python ints and takes no buffer.  F vanishes where
        # |x₁ − x₂| = 3/4, on grid points at N = 12
        big = Fraction(2**70)
        net = ReluNetwork(
            (
                AffineLayer(((big, -big), (-big, big)), (-big / 4, -big / 4)),
                AffineLayer(((Fraction(1), Fraction(1)),), (-big / 2,)),
            )
        )
        taken = _signs_match_on_tiers(net, BoxDomain.unit_cube(2), 12, monkeypatch)
        assert [dtype for _, dtype in taken] == [object, object]

    def test_int32_to_int64_to_python_ints(self, monkeypatch):
        box = BoxDomain((Fraction(-1),) * 2, (Fraction(1),) * 2)
        taken = _signs_match_on_tiers(_three_tiers(), box, 12, monkeypatch)
        assert [dtype for _, dtype in taken] == [np.int32, np.int64, object]

    @given(network_box_resolution())
    @settings(max_examples=60, deadline=None)
    def test_magnitude_bound_covers_the_scaled_pass(self, case):
        # replay the pass in Python ints: |b·D| + Σ|w_j·x_j| bounds every
        # partial sum of a row, in whatever order einsum adds them
        net, box, N = case
        layers = verify._scaled_layers(net)
        den = N * math.lcm(*(v.denominator for v in (*box.lower, *box.upper)))
        axes = [
            [int((lo + (up - lo) * Fraction(i, N)) * den) for i in range(N + 1)]
            for lo, up in zip(box.lower, box.upper)
        ]
        spans = [int((up - lo) * den) for lo, up in zip(box.lower, box.upper)]
        top = max(*(abs(c) for axis in axes for c in axis), *spans)
        bounds = verify._magnitude_bound(layers, top, den)
        assert len(bounds) == len(layers)
        assert all(a <= b for a, b in zip(bounds, bounds[1:]))
        # the first layer's per-axis table entries w_t·N·step_t
        assert all(abs(w * s) <= bounds[0] for row in layers[0][0] for w, s in zip(row, spans))
        for k, (wint, _, _) in enumerate(layers):
            assert all(abs(w) <= bounds[k] for row in wint for w in row)
        for point in product(*axes):
            x, D = list(point), den
            for (wint, bint, t), bound in zip(layers, bounds):
                rows = list(zip(wint, bint))
                for row, b in rows:
                    assert abs(b * D) + sum(abs(w * v) for w, v in zip(row, x)) <= bound
                x = [max(0, b * D + sum(w * v for w, v in zip(row, x))) for row, b in rows]
                D *= t

    def test_one_dimensional_grid(self):
        net = ReluNetwork(
            (
                AffineLayer(((Fraction(1),),), (Fraction(0),)),
                AffineLayer(((Fraction(1),),), (Fraction(-1, 3),)),
            )
        )
        box = BoxDomain((Fraction(0),), (Fraction(1),))
        assert list(grid_sign_sample(net, box, 6).signs) == [-1, -1, 0, 1, 1, 1, 1]
        # a grid of several blocks: the sign of i/N − 1/3 at every point
        N = 30_000
        i = np.arange(N + 1)
        expected = np.sign(3 * i - N)
        assert np.array_equal(grid_sign_sample(net, box, N).signs, expected)

    @pytest.mark.parametrize(
        "coeffs, bias, lower, upper, N, block, cut",
        [
            # 101 lines of 101 points: the last block holds fewer lines
            ((3, -7), Fraction(1, 3), (0, 0), (1, 1), 100, None, False),
            # lines longer than the block are cut along the last axis; under
            # GRID_POINT_CAP a line in d ≥ 2 fits in the module's own block,
            # so this case pins the block at 2 048 points
            ((2, -5), Fraction(-1, 7), (-1, 0), (1, Fraction(1, 2)), 2048 + 52, 2048, True),
            # in d = 1 a line is cut at the module's own block
            ((-3,), Fraction(5, 7), (-1,), (Fraction(3, 2),), verify._BLOCK + 52, None, True),
            ((1, -2, 3), Fraction(1, 5), (0, -1, 0), (1, 1, Fraction(3, 2)), 30, None, False),
            ((1, 1, -1, 2), Fraction(-2, 3), (0,) * 4, (1,) * 4, 9, None, False),
        ],
        ids=["d2-short-last-block", "d2-long-lines", "d1-long-line", "d3", "d4"],
    )
    def test_signs_of_affine_functionals(
        self, coeffs, bias, lower, upper, N, block, cut, monkeypatch
    ):
        if block is not None:
            monkeypatch.setattr(verify, "_BLOCK", block)
        assert (N + 1 > verify._BLOCK) == cut
        box = BoxDomain(tuple(map(Fraction, lower)), tuple(map(Fraction, upper)))
        expected = _affine_signs(coeffs, bias, box, N)
        assert np.array_equal(grid_sign_sample(_through_relu(coeffs, bias), box, N).signs, expected)

    @pytest.mark.parametrize("d, N", [(1, 40), (2, 11), (3, 6)])
    @pytest.mark.parametrize("block", [1, 5, 12, 64])
    def test_every_block_layout(self, d, N, block, monkeypatch):
        # blocks of one point, of a part of a line, of one line and of
        # several lines, on lines of 7 to 41 points
        monkeypatch.setattr(verify, "_BLOCK", block)
        coeffs, bias = (3, -2, 1)[:d], Fraction(-1, 4)
        box = BoxDomain((Fraction(0),) * d, (Fraction(1),) * d)
        expected = _affine_signs(coeffs, bias, box, N)
        assert np.array_equal(grid_sign_sample(_through_relu(coeffs, bias), box, N).signs, expected)

    def test_single_affine_layer(self):
        # no hidden layer: the first layer's sum is the output
        for coeffs in ((2, -3), (1, -1, 2)):
            d = len(coeffs)
            net = ReluNetwork(
                (AffineLayer((tuple(map(Fraction, coeffs)),), (Fraction(-1, 2),)),)
            )
            box = BoxDomain((Fraction(-1),) * d, (Fraction(1),) * d)
            expected = _affine_signs(coeffs, Fraction(-1, 2), box, 24)
            assert np.array_equal(grid_sign_sample(net, box, 24).signs, expected)

    def test_magnitudes_beyond_int64_over_several_blocks(self, monkeypatch):
        # 47² points take two blocks of 2 048 points, of whole lines, in the
        # Python-int pass
        monkeypatch.setattr(verify, "_BLOCK", 2048)
        assert 47 * 47 > verify._BLOCK
        _assert_signs_match(_beyond_int64(), BoxDomain((Fraction(-1),) * 2, (Fraction(1),) * 2), 46)

    @pytest.mark.parametrize(
        "name, perturbed",
        [*((i[0], False) for i in REFERENCE_INSTANCES), ("d2-M4-w3", True)],
        ids=[*(i[0] for i in REFERENCE_INSTANCES), "d2-M4-w3-perturbed"],
    )
    def test_signs_do_not_depend_on_the_block(
        self, name, perturbed, reference_networks, monkeypatch
    ):
        net, fold, cut, _ = reference_networks[name]
        N = default_resolution(fold.M, cut.w_vec)
        box = BoxDomain.unit_cube(fold.d)
        if perturbed:
            # at δ = 10⁻⁶ the first layer runs in int64 and the next ones in
            # Python ints, so each block hands its buffered first layer over
            # to arrays of its own.  N = 100 keeps the Python-int pass short,
            # and its 101 lines end on a partial block of 20 lines at 8 192
            # points and of 1 line at 2 048.  On the unit cube the grid
            # numerators are at most N over the denominator N
            net = _perturbed(net, Fraction(1, 10**6), random.Random(f"7:{name}"))
            N = 100
            bounds = verify._magnitude_bound(verify._scaled_layers(net), N, N)
            assert [verify._dtype(b) for b in bounds] == [np.int64, object, object]
            assert [(N + 1) % (block // (N + 1)) for block in (verify._BLOCK, 2048)] == [20, 1]
        assert (N + 1) ** fold.d > verify._BLOCK
        signs = _signs_at_two_blocks(net, box, N, monkeypatch)
        assert np.array_equal(*signs)
        if perturbed:
            # the last line, in the partial last block, against exact evaluation
            for j, s in enumerate(signs[0][N]):
                v = eval_scalar(net, _grid_point(box, N, (N, j)))
                assert s == (v > 0) - (v < 0), j

    def test_python_int_signs_do_not_depend_on_the_block(self, monkeypatch):
        box = BoxDomain((Fraction(-1),) * 2, (Fraction(1),) * 2)
        signs = _signs_at_two_blocks(_beyond_int64(), box, 46, monkeypatch)
        assert np.array_equal(*signs)

    @pytest.mark.parametrize(
        "d, m_vec, w_vec, N",
        [(2, (2, 4), (4,), 1000), (3, (2, 2), (1, 1), 99), (4, (2,), (1, 1, 1), 31)],
        ids=["d2", "d3", "d4"],
    )
    def test_working_memory_stays_flat(self, d, m_vec, w_vec, N):
        # about 10^6 grid points: beyond the int8 signs themselves the pass
        # allocates blocks of width × _BLOCK entries, not arrays that grow
        # with the grid
        net = build_topo_network(FoldingSpec(d, m_vec), CuttingSpec(d, w_vec))
        box = BoxDomain.unit_cube(d)
        tracemalloc.start()
        try:
            signs = grid_sign_sample(net, box, N).signs
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert signs.size >= 10**6
        assert peak - signs.nbytes < 2 * 2**20

    @pytest.mark.parametrize("name", [i[0] for i in REFERENCE_INSTANCES])
    def test_blocks_run_in_the_one_buffer_allocation(self, name, reference_networks):
        # beyond the int8 signs, a pass allocates two buffers at once, each as
        # large as the widest int32/int64 array of a full block.  The rest of
        # its peak is numpy's iterator buffers (the first layer's sum casts
        # through 8 192 entries of 8 bytes) and arrays of a line, 80-84 KiB.
        # An array of block size made outside the buffers adds to it: an
        # einsum's copy of an input it would overwrite, 95-181 KiB, or the
        # last block's own first layer, 79-236 KiB, but only 12 KiB on
        # d2-M8-w4, whose last block holds three lines
        net, fold, cut, _ = reference_networks[name]
        N = default_resolution(fold.M, cut.w_vec)
        n = N + 1
        layers = verify._scaled_layers(net)
        # on the unit cube the grid numerators are at most N over N
        bounds = verify._magnitude_bound(layers, N, N)
        itemsizes = [np.dtype(verify._dtype(b)).itemsize for b in bounds]
        widest = max(
            len(layers[0][0]) * itemsizes[0],
            *(max(len(w), len(w[0])) * size for (w, _, _), size in zip(layers[1:], itemsizes[1:])),
        )
        buffers = 2 * widest * (verify._BLOCK // n) * n
        tracemalloc.start()
        try:
            signs = grid_sign_sample(net, BoxDomain.unit_cube(fold.d), N).signs
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - signs.nbytes - buffers < 128 * 2**10

    def test_signs_match_exact_evaluation(self):
        net = build_topo_network(FoldingSpec(2, (2,)), CuttingSpec(2, (1,)))
        _assert_signs_match(net, BoxDomain.unit_cube(2), 12)

    def test_non_unit_box(self):
        net = _linear((1, 0), Fraction(-1, 2))
        box = BoxDomain(
            (Fraction(0), Fraction(-1)), (Fraction(1), Fraction(1))
        )
        sg = grid_sign_sample(net, box, 4)
        # sign of x₁ − 1/2 along the first axis: −,−,0,+,+
        assert list(sg.signs[:, 0]) == [-1, -1, 0, 1, 1]
        # on [0, 1/2]² the grid step is 1/8, so x₁ − 1/4 reads −,−,0,+,+ too
        half = BoxDomain((Fraction(0),) * 2, (Fraction(1, 2),) * 2)
        sg = grid_sign_sample(_linear((1, 0), Fraction(-1, 4)), half, 4)
        assert list(sg.signs[:, 0]) == [-1, -1, 0, 1, 1]

    def test_validation(self):
        net = _linear((1, 0), 0)
        box = BoxDomain.unit_cube(2)
        with pytest.raises(ValueError):
            grid_sign_sample(net, box, 0)
        from topobetti.constructions import build_folding_network

        with pytest.raises(ValueError):
            grid_sign_sample(build_folding_network(FoldingSpec(2, (2,))), box, 4)

    def test_a_grid_over_the_point_cap_is_rejected(self, monkeypatch):
        # 7 072² points exceed the cap; the check comes before numpy is
        # imported, so nothing is allocated
        assert 7071**2 <= verify.GRID_POINT_CAP < 7072**2
        monkeypatch.setitem(sys.modules, "numpy", None)
        with pytest.raises(ValueError, match="grid of 50013184 points exceeds cap 50000000"):
            grid_sign_sample(_linear((1, 0), 0), BoxDomain.unit_cube(2), 7071)

    @pytest.mark.parametrize("resolution", [True, 10.0, "10"])
    def test_a_resolution_that_is_not_an_int_is_rejected(self, resolution, monkeypatch):
        # True made a 2 × 2 grid and 10.0 a numpy TypeError; the check comes
        # before numpy is imported
        monkeypatch.setitem(sys.modules, "numpy", None)
        with pytest.raises(ValueError, match="resolution must be an int"):
            grid_sign_sample(_linear((1, 0), 0), BoxDomain.unit_cube(2), resolution)

    @pytest.mark.parametrize("d", [2, 4], ids=["box-too-small", "box-too-large"])
    def test_box_of_the_wrong_dimension_is_rejected(self, d, monkeypatch):
        # the pass zips the box's axes with the first layer's columns, so
        # unchecked it signed x₁ + x₂ − 1/2 on the square and ignored the
        # 4-cube's last axis, each with no error.  The check comes before
        # numpy is even imported
        net = _linear((1, 1, 1), Fraction(-1, 2))
        monkeypatch.setitem(sys.modules, "numpy", None)
        with pytest.raises(ValueError, match=f"box of dimension {d} does not match network input 3"):
            grid_sign_sample(net, BoxDomain.unit_cube(d), 4)


@st.composite
def sign_grids(draw):
    """An int8 sign grid, d ≤ 3 and N ≤ 7, with random shares of −1, 0 and +1."""
    d = draw(st.sampled_from((1, 2, 3)))
    N = draw(st.integers(1, 7))
    # k of 8 entries positive, the rest split between −1 and 0
    k = draw(st.integers(0, 8))
    zeros = draw(st.integers(0, 8 - k))
    pool = [1] * k + [0] * zeros + [-1] * (8 - k - zeros)
    # fill=nothing draws every entry, so the shares hold across the grid
    signs = draw(
        arrays(np.int8, (N + 1,) * d, elements=st.sampled_from(pool), fill=st.nothing())
    )
    return SignGrid(resolution=N, d=d, signs=signs)


def _grid(N, d, nonpositive):
    """Grid of resolution N in dimension d, nonpositive exactly at the given points."""
    signs = np.ones((N + 1,) * d, dtype=np.int8)
    for p in nonpositive:
        signs[p] = -1
    return SignGrid(resolution=N, d=d, signs=signs)


class TestGridBeta0:
    @given(sign_grids())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_union_find(self, sg):
        assert grid_beta0(sg) == reference_grid_beta0(sg)

    def test_line_end_does_not_wrap(self):
        # [i, n−1] and [i+1, 0] are consecutive flat indices, not neighbours
        for N in (1, 2, 5):
            for i in range(N):
                assert grid_beta0(_grid(N, 2, [(i, N), (i + 1, 0)])) == 2

    def test_slab_end_does_not_wrap(self):
        N = 3
        pairs = [
            ((1, 2, N), (1, 3, 0)),  # along the last axis
            ((1, N, 2), (2, 0, 2)),  # along axis 1: one flat step of n
            ((0, N, N), (1, 0, 0)),  # both at once
        ]
        for pair in pairs:
            assert grid_beta0(_grid(N, 3, pair)) == 2
            # the true neighbour across axis 0 does connect
            assert grid_beta0(_grid(N, 3, [pair[0], (pair[0][0] + 1, *pair[0][1:])])) == 1

    def test_serpentine_path(self):
        # every other column, joined alternately at the top and the bottom:
        # one component made of many single-point runs in a chain
        N = 40
        signs = np.ones((N + 1, N + 1), dtype=np.int8)
        signs[:, ::2] = 0
        signs[0, 1::4] = -1
        signs[N, 3::4] = -1
        sg = SignGrid(resolution=N, d=2, signs=signs)
        assert grid_beta0(sg) == 1
        # cutting the path in the middle of one column leaves two pieces
        signs[N // 2, 20] = 1
        assert grid_beta0(sg) == reference_grid_beta0(sg) == 2

    def test_comb(self):
        N = 30
        signs = np.ones((N + 1,) * 3, dtype=np.int8)
        signs[0, 0, :] = -1  # spine along the last axis
        signs[:, 0, ::2] = -1  # teeth along axis 0
        signs[N, :, ::6] = 0  # every third tooth ends in a foot along axis 1
        sg = SignGrid(resolution=N, d=3, signs=signs)
        assert grid_beta0(sg) == 1
        signs[1, 0, :] = 1  # cut every tooth off the spine
        assert grid_beta0(sg) == reference_grid_beta0(sg) == 1 + len(range(0, N + 1, 2))

    def test_all_nonpositive(self):
        for d, N in ((1, 9), (2, 6), (3, 4)):
            signs = np.zeros((N + 1,) * d, dtype=np.int8)
            assert grid_beta0(SignGrid(resolution=N, d=d, signs=signs)) == 1

    def test_every_grid_of_resolution_one(self):
        for d in (1, 2, 3):
            for values in product((-1, 1), repeat=2**d):
                signs = np.array(values, dtype=np.int8).reshape((2,) * d)
                sg = SignGrid(resolution=1, d=d, signs=signs)
                assert grid_beta0(sg) == reference_grid_beta0(sg)

    def test_wrong_shape_is_rejected(self):
        for N, d, shape in ((2, 2, (3, 4)), (2, 3, (3, 3)), (3, 1, (3,)), (2, 2, (9,))):
            with pytest.raises(ValueError):
                SignGrid(resolution=N, d=d, signs=np.ones(shape, dtype=np.int8))

    def test_two_blobs(self):
        signs = np.ones((5, 5), dtype=np.int8)
        signs[0, 0] = -1
        signs[4, 3] = -1
        signs[4, 4] = 0
        sg = SignGrid(resolution=4, d=2, signs=signs)
        assert grid_beta0(sg) == 2

    def test_diagonal_is_not_connected(self):
        signs = np.ones((3, 3), dtype=np.int8)
        signs[0, 0] = -1
        signs[1, 1] = -1
        sg = SignGrid(resolution=2, d=2, signs=signs)
        assert grid_beta0(sg) == 2

    def test_empty_grid(self):
        sg = SignGrid(resolution=2, d=2, signs=np.ones((3, 3), dtype=np.int8))
        assert grid_beta0(sg) == 0

    def test_3d_ring(self):
        signs = np.ones((3, 3, 3), dtype=np.int8)
        for i in range(3):
            for j in range(3):
                if (i, j) != (1, 1):
                    signs[i, j, 1] = -1
        sg = SignGrid(resolution=2, d=3, signs=signs)
        assert grid_beta0(sg) == 1

    def test_matches_exact_beta0_on_small_instance(self):
        fold, cut = FoldingSpec(2, (2,)), CuttingSpec(2, (1,))
        net = build_topo_network(fold, cut)
        N = default_resolution(fold.M, cut.w_vec)
        sg = grid_sign_sample(net, BoxDomain.unit_cube(2), N)
        assert grid_beta0(sg) == predict_betti(fold.M, cut.w_vec, 2).values[0]


class TestReconcile:
    def test_agreement(self):
        net = build_topo_network(FoldingSpec(2, (2,)), CuttingSpec(2, (1,)))
        report = analyze_network(
            net, predicted=predict_betti(2, (1,), 2), oracle_beta0=2
        )
        rec = reconcile(report)
        assert rec.all_agree
        assert rec.oracle_agrees and rec.serra_ok
        assert rec.to_json()["all_agree"] is True

    def test_disagreement_is_reported_not_resolved(self):
        net = build_topo_network(FoldingSpec(2, (2,)), CuttingSpec(2, (1,)))
        report = analyze_network(net, oracle_beta0=99)
        rec = reconcile(report)
        assert not rec.all_agree
        assert rec.oracle_agrees is False
        assert rec.oracle_beta0 == 99 and rec.betti[0] == 2

    def test_euler_mismatch_breaks_agreement(self):
        net = build_topo_network(FoldingSpec(2, (2,)), CuttingSpec(2, (1,)))
        report = analyze_network(net, predicted=predict_betti(2, (1,), 2))
        assert reconcile(report).euler_ok
        rec = reconcile(dataclasses.replace(report, euler_cells=report.euler_cells + 1))
        assert not rec.euler_ok
        assert not rec.all_agree
        assert rec.to_json()["euler_ok"] is False

    def test_region_count_over_serra_bound_fails(self):
        # bounds hold on every real network, so the failures are made by hand
        net = build_topo_network(FoldingSpec(2, (2,)), CuttingSpec(2, (1,)))
        report = analyze_network(net)
        report = dataclasses.replace(report, region_count=report.serra_bound + 1)
        rec = reconcile(report)
        assert not rec.serra_ok and all(rec.binomial_ok)
        assert not rec.all_agree
        assert report.to_json()["bounds_satisfied"] is False

    def test_betti_over_binomial_bound_fails(self):
        net = build_topo_network(FoldingSpec(2, (2,)), CuttingSpec(2, (1,)))
        report = analyze_network(net)
        values = list(report.betti.values)
        values[1] = report.binomial_bounds[1] + 1
        report = dataclasses.replace(report, betti=BettiVector(tuple(values)))
        rec = reconcile(report)
        assert rec.serra_ok and rec.binomial_ok == (True, False)
        assert not rec.all_agree
        assert report.to_json()["bounds_satisfied"] is False

    @given(network_and_box())
    @example((ReluNetwork((AffineLayer(((1, 1),), (-3,)),)), BoxDomain.unit_cube(2)))
    @settings(max_examples=60, deadline=None)
    def test_bounds_hold_on_random_networks(self, case):
        # with no positive cell the sublevel set is the whole box: β₀ = 1 and
        # complement_cell_bounds[0] = 0, which only the k = 0 allowance admits
        rec = reconcile(analyze_network(*case))
        assert all(rec.complement_ok) and rec.euler_ok


class TestDumps:
    def test_pgm(self, tmp_path):
        net = build_topo_network(FoldingSpec(2, (2,)), CuttingSpec(2, (1,)))
        sg = grid_sign_sample(net, BoxDomain.unit_cube(2), 8)
        path = tmp_path / "grid.pgm"
        write_pgm(sg, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "P2" and lines[1] == "9 9"
        assert len(lines) == 3 + 9

    def test_csv(self, tmp_path):
        net = build_topo_network(FoldingSpec(2, (2,)), CuttingSpec(2, (1,)))
        sg = grid_sign_sample(net, BoxDomain.unit_cube(2), 8)
        path = tmp_path / "grid.csv"
        write_csv(sg, str(path))
        rows = [line.split(",") for line in path.read_text().splitlines()]
        assert len(rows) == 9 and all(len(r) == 9 for r in rows)
        assert {v for r in rows for v in r} <= {"-1", "0", "1"}

    def test_pgm_levels(self, tmp_path):
        signs = np.array([[-1, 0, 1], [1, 0, -1], [0, 0, 0]], dtype=np.int8)
        path = tmp_path / "levels.pgm"
        write_pgm(SignGrid(resolution=2, d=2, signs=signs), str(path))
        assert path.read_text().splitlines()[3:] == ["0 127 255", "255 127 0", "127 127 127"]

    def test_rejects_non_2d(self, tmp_path):
        sg = SignGrid(resolution=2, d=3, signs=np.ones((3, 3, 3), dtype=np.int8))
        with pytest.raises(ValueError, match="PGM dump requires a 2-d grid"):
            write_pgm(sg, str(tmp_path / "never.pgm"))
        with pytest.raises(ValueError, match="CSV dump requires a 2-d grid"):
            write_csv(sg, str(tmp_path / "never.csv"))
        assert list(tmp_path.iterdir()) == []
