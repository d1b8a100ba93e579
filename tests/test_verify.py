import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topobetti.constructions import (
    CuttingSpec,
    FoldingSpec,
    build_topo_network,
    predict_betti,
)
from topobetti.exactgeom import BoxDomain
from topobetti.homology import analyze_network
from topobetti.relunet import AffineLayer, ReluNetwork, eval_scalar
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
        # one denominator near 2^40 per layer: every integer weight fits in
        # int64, but three layers of products reach ~2^130, so an int64 pass
        # would wrap and the oracle must fall back to Python ints
        def layer(q, rows, bias):
            return AffineLayer(
                tuple(tuple(Fraction(k * 2**40 + 7, q) for k in row) for row in rows),
                tuple(Fraction(b) for b in bias),
            )

        net = ReluNetwork(
            (
                layer(2**40 + 3, ((1, -2), (-3, 1), (2, 2)), (Fraction(1, 3),) * 3),
                layer(2**40 + 5, ((1, -1, 2), (-2, 3, -1)), (0, 0)),
                layer(2**40 + 9, ((3, -4),), (0,)),
            )
        )
        box = BoxDomain((Fraction(-1),) * 2, (Fraction(1),) * 2)
        _assert_signs_match(net, box, 8)

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


class TestGridBeta0:
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

    def test_rejects_non_2d(self):
        sg = SignGrid(resolution=2, d=3, signs=np.ones((3, 3, 3), dtype=np.int8))
        with pytest.raises(ValueError):
            write_pgm(sg, "/tmp/never.pgm")
