import random
from fractions import Fraction
from itertools import product

import pytest

from helpers import folding_closed_form, random_point_in_cube
from oracles import build_cutting_network
from topobetti.constructions import (
    BettiVector,
    CuttingSpec,
    FoldingSpec,
    betti_upper_bound,
    build_carving_network,
    build_folding_layer,
    build_folding_network,
    build_topo_network,
    closure_offset,
    euler_characteristic,
    predict_betti,
    serra_region_bound,
)
from topobetti.relunet import eval_network, eval_scalar


class TestSpecs:
    def test_folding_spec_validation(self):
        assert FoldingSpec(2, (2, 4)).M == 8
        with pytest.raises(ValueError):
            FoldingSpec(2, (3,))
        with pytest.raises(ValueError):
            FoldingSpec(0, (2,))
        with pytest.raises(ValueError):
            FoldingSpec(2, ())

    def test_cutting_spec_validation(self):
        with pytest.raises(ValueError):
            CuttingSpec(3, (1,))
        with pytest.raises(ValueError):
            CuttingSpec(2, (0,))
        with pytest.raises(ValueError):
            CuttingSpec(1, ())

    def test_betti_vector(self):
        assert BettiVector((3, 1)).values == (3, 1)
        with pytest.raises(ValueError):
            BettiVector((-1,))


class TestFolding:
    @pytest.mark.parametrize(
        "m, d, message",
        [(3, 1, "folding factor must be even and ≥ 2, got 3"), (2, 0, "dimension must be ≥ 1")],
        ids=["odd-m", "d0"],
    )
    def test_layer_validation(self, m, d, message):
        with pytest.raises(ValueError, match=message):
            build_folding_layer(m, d)

    @pytest.mark.parametrize("d,m_vec", [(1, (2,)), (2, (4,)), (2, (2, 2)), (3, (2,))])
    def test_matches_closed_form_on_sampled_cubes(self, d, m_vec):
        spec = FoldingSpec(d, m_vec)
        net = build_folding_network(spec)
        M = spec.M
        rng = random.Random(f"fold:{d}:{m_vec}")
        for index in product(range(1, M + 1), repeat=d):
            for _ in range(3):
                x = random_point_in_cube(M, index, rng)
                assert eval_network(net, x) == folding_closed_form(M, index, x)

    def test_multi_layer_equals_single_layer_with_same_M(self):
        single = build_folding_network(FoldingSpec(2, (4,)))
        stacked = build_folding_network(FoldingSpec(2, (2, 2)))
        rng = random.Random("fold:equal")
        for _ in range(25):
            x = tuple(Fraction(rng.randint(0, 10**4), 10**4) for _ in range(2))
            assert eval_network(single, x) == eval_network(stacked, x)

    def test_fixes_cube_corners(self):
        net = build_folding_network(FoldingSpec(2, (2,)))
        assert eval_network(net, (Fraction(0), Fraction(0))) == (0, 0)
        assert eval_network(net, (Fraction(1), Fraction(1))) == (0, 0)
        assert eval_network(net, (Fraction(1, 2), Fraction(1, 2))) == (1, 1)

    def test_weight_magnitudes(self):
        for m in (2, 4, 8):
            net = build_folding_network(FoldingSpec(2, (m,)))
            first = net.layers[0]
            assert all(abs(v) <= 2 * m for row in first.weights for v in row)
            assert all(abs(b) <= 2 * (m - 1) for b in first.bias)


def _shell_point(w, d, s):
    """A point of the cutting domain at ℓ₁-distance s from (1,…,1,0)."""
    return (Fraction(1) - s,) + (Fraction(1),) * (d - 2) + (Fraction(0),)


class TestCutting:
    @pytest.mark.parametrize("w", [1, 2, 3, 4])
    def test_shell_signs_alternate_from_negative(self, w):
        net = build_cutting_network(w, 2)
        for q in range(1, w + 1):
            mid = Fraction(2 * q - 1, 8 * w)
            value = eval_scalar(net, _shell_point(w, 2, mid))
            assert value != 0
            assert (value < 0) == (q % 2 == 1)

    @pytest.mark.parametrize("w", [1, 3])
    def test_vanishes_on_shell_boundaries_and_outside(self, w):
        net = build_cutting_network(w, 2)
        for q in range(0, w + 1):
            s = Fraction(q, 4 * w)
            assert eval_scalar(net, _shell_point(w, 2, s)) == 0
        for s in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1)):
            assert eval_scalar(net, _shell_point(w, 2, s)) == 0

    def test_depends_only_on_l1_distance(self):
        net = build_cutting_network(2, 3)
        s = Fraction(1, 16)
        points = [
            (1 - s, Fraction(1), Fraction(0)),
            (Fraction(1), 1 - s, Fraction(0)),
            (Fraction(1), Fraction(1), s),
            (1 - s / 2, 1 - s / 4, s / 4),
        ]
        values = {eval_scalar(net, p) for p in points}
        assert len(values) == 1

    def test_architecture(self):
        assert build_cutting_network(3, 2).architecture == (2, 5, 1)


class TestCarving:
    def test_architecture(self):
        assert build_carving_network(CuttingSpec(3, (1, 1))).architecture == (3, 6, 1)
        assert build_carving_network(CuttingSpec(2, (3,))).architecture == (2, 5, 1)

    def test_stage_supports_are_disjoint(self):
        # wherever a stage is nonzero, the carving equals that stage alone
        spec = CuttingSpec(3, (1, 2))
        carve = build_carving_network(spec)
        stage2 = build_cutting_network(1, 2)
        stage3 = build_cutting_network(2, 3)
        rng = random.Random("carve:disjoint")
        for _ in range(200):
            x = tuple(Fraction(rng.randint(0, 64), 64) for _ in range(3))
            v2 = eval_scalar(stage2, x[:2])
            v3 = eval_scalar(stage3, x)
            assert eval_scalar(carve, x) == v2 + v3
            assert v2 == 0 or v3 == 0

    def test_vanishes_far_from_every_mirrored_corner(self):
        # ℓ₁-distance > 1/4 from (1,0,·) and from (1,1,0) forces output 0
        carve = build_carving_network(CuttingSpec(3, (1, 1)))
        grid = [Fraction(i, 16) for i in range(17)]
        for x in product(grid, repeat=3):
            d2 = (1 - x[0]) + x[1]
            d3 = (1 - x[0]) + (1 - x[1]) + x[2]
            if d2 > Fraction(1, 4) and d3 > Fraction(1, 4):
                assert eval_scalar(carve, x) == 0


class TestComposedClassifier:
    def test_reference_architectures(self):
        net = build_topo_network(FoldingSpec(2, (4,)), CuttingSpec(2, (3,)))
        assert net.architecture == (2, 8, 5, 1)
        net = build_topo_network(FoldingSpec(3, (2, 2)), CuttingSpec(3, (1, 1)))
        assert net.architecture == (3, 6, 6, 6, 1)

    def test_offset_shifts_output_bias_only(self):
        fold, cut = FoldingSpec(2, (4,)), CuttingSpec(2, (3,))
        plain = build_topo_network(fold, cut, with_offset=False)
        offset = build_topo_network(fold, cut, with_offset=True)
        b = closure_offset(4, (3,))
        assert b == Fraction(1, 96)
        assert offset.layers[:-1] == plain.layers[:-1]
        assert offset.layers[-1].weights == plain.layers[-1].weights
        assert offset.layers[-1].bias[0] - plain.layers[-1].bias[0] == b

    def test_closure_offset_minimum(self):
        assert closure_offset(4, (1, 2)) == Fraction(1, 64)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_topo_network(FoldingSpec(2, (2,)), CuttingSpec(3, (1, 1)))


class TestPredictions:
    @pytest.mark.parametrize(
        "M,w_vec,d,expected",
        [
            (4, (3,), 2, (12, 4)),
            (8, (4,), 2, (40, 24)),
            (2, (1, 1), 3, (4, 0, 0)),
            (4, (1, 1), 3, (18, 2, 4)),
        ],
    )
    def test_reference_vectors(self, M, w_vec, d, expected):
        assert predict_betti(M, w_vec, d).values == expected

    @pytest.mark.parametrize(
        "M,w_vec,d",
        [(3, (1,), 2), (4, (1,), 3), (2, (), 1), (4, (0,), 2), (4, (1, -1), 3)],
        ids=["odd-M", "short-w", "d1", "zero-width", "negative-width"],
    )
    def test_validation(self, M, w_vec, d):
        # no network of the family has these inputs
        with pytest.raises(ValueError):
            predict_betti(M, w_vec, d)

    def test_euler_characteristic(self):
        assert euler_characteristic(BettiVector((12, 4))) == 8
        assert euler_characteristic(BettiVector((18, 2, 4))) == 20
        assert euler_characteristic(BettiVector((0, 0))) == 0


class TestBounds:
    def test_serra_known_values(self):
        assert serra_region_bound((2, 1, 1)) == 2
        for n in (1, 2, 5, 9):
            assert serra_region_bound((1, n, 1)) == n + 1
        assert serra_region_bound((2, 8, 5, 1)) == 592
        assert serra_region_bound((3, 1)) == 1

    def test_serra_validation(self):
        with pytest.raises(ValueError):
            serra_region_bound((2,))
        with pytest.raises(ValueError):
            serra_region_bound((2, 3, 2))

    def test_betti_upper_bound(self):
        arch = (2, 8, 5, 1)
        r = serra_region_bound(arch)
        assert betti_upper_bound(arch, 0) == r
        assert betti_upper_bound(arch, 1) == r  # C(592, 1)
        assert betti_upper_bound((3, 1), 1) == 0  # C(1, 2)
        with pytest.raises(ValueError):
            betti_upper_bound(arch, 2)
