from fractions import Fraction

import pytest

from helpers import box_complex, ring_cubes_2d
from topobetti.arrangement import (
    ComplexSizeError,
    canonical_complex,
    cell_volume,
    linear_region_count,
    signed_complex,
    sublevel_subcomplex,
    validate_complex,
)
from topobetti.constructions import (
    CuttingSpec,
    FoldingSpec,
    build_folding_layer,
    build_folding_network,
    build_topo_network,
)
from topobetti.exactgeom import BoxDomain
from topobetti.relunet import AffineLayer, ReluNetwork, eval_network, eval_scalar


def _tent(m, d=1):
    return build_folding_layer(m, d)


def _constant(value, d=2):
    zero = Fraction(0)
    return ReluNetwork(
        (
            AffineLayer(((zero,) * d,), (Fraction(1),)),
            AffineLayer(((zero,),), (Fraction(value),)),
        )
    )


def _dims(pc):
    counts = {}
    for c in pc.cells.values():
        counts[c.dim] = counts.get(c.dim, 0) + 1
    return counts


class TestCanonicalComplex:
    def test_tent_on_interval(self):
        pc = canonical_complex(_tent(2), BoxDomain.unit_cube(1))
        assert _dims(pc) == {0: 3, 1: 2}
        assert validate_complex(pc) == []

    def test_tent_on_square(self):
        pc = canonical_complex(_tent(2, d=2), BoxDomain.unit_cube(2))
        assert _dims(pc) == {0: 9, 1: 12, 2: 4}
        assert validate_complex(pc) == []

    def test_affine_maps_reproduce_the_network(self):
        net = _tent(4, d=2)
        pc = canonical_complex(net, BoxDomain.unit_cube(2))
        for cell in pc.full_cells():
            # the cell's affine restriction must agree with the network on
            # its vertices (interior points are covered by convexity)
            for v in cell.vertices:
                assert cell.evaluate(v) == eval_network(net, v)

    def test_deterministic(self):
        net = build_topo_network(FoldingSpec(2, (2,)), CuttingSpec(2, (1,)))
        a = canonical_complex(net, BoxDomain.unit_cube(2))
        b = canonical_complex(net, BoxDomain.unit_cube(2))
        assert {cid: c.vertices for cid, c in a.cells.items()} == {
            cid: c.vertices for cid, c in b.cells.items()
        }
        assert a.faces == b.faces

    def test_constant_network_single_region(self):
        pc = canonical_complex(_constant(1), BoxDomain.unit_cube(2))
        assert len(pc.full_cells()) == 1
        assert validate_complex(pc) == []

    def test_cell_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("TOPOBETTI_MAX_CELLS", "4")
        net = build_folding_network(FoldingSpec(2, (4,)))
        with pytest.raises(ComplexSizeError):
            canonical_complex(net, BoxDomain.unit_cube(2))

    def test_bad_cap_rejected(self, monkeypatch):
        monkeypatch.setenv("TOPOBETTI_MAX_CELLS", "zero")
        with pytest.raises(ValueError):
            canonical_complex(_tent(2), BoxDomain.unit_cube(1))


class TestVolumes:
    def test_tent_halves(self):
        pc = canonical_complex(_tent(2, d=2), BoxDomain.unit_cube(2))
        vols = sorted(cell_volume(pc, c.id) for c in pc.full_cells())
        assert vols == [Fraction(1, 4)] * 4

    @pytest.mark.parametrize("m", [2, 4])
    def test_full_cells_tile_the_box(self, m):
        net = build_folding_network(FoldingSpec(2, (m,)))
        pc = canonical_complex(net, BoxDomain.unit_cube(2))
        total = sum(cell_volume(pc, c.id) for c in pc.full_cells())
        assert total == pc.box.volume()


class TestLinearRegions:
    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_tent_region_count(self, m):
        pc = canonical_complex(_tent(m), BoxDomain.unit_cube(1))
        assert linear_region_count(pc) == m

    def test_merges_cells_with_equal_affine_map(self):
        # a ReLU that is inactive on the whole box: one region despite the kink
        zero = Fraction(0)
        net = ReluNetwork(
            (
                AffineLayer(
                    ((Fraction(1), zero), (Fraction(-1), zero)), (zero, Fraction(-2))
                ),
                AffineLayer(((Fraction(1), Fraction(1)),), (zero,)),
            )
        )
        pc = canonical_complex(net, BoxDomain.unit_cube(2))
        assert linear_region_count(pc) == 1


class TestSignedAndSublevel:
    def test_labels_match_pointwise_evaluation(self):
        net = build_topo_network(FoldingSpec(2, (2,)), CuttingSpec(2, (1,)))
        sc = signed_complex(net, BoxDomain.unit_cube(2))
        from topobetti.exactgeom import centroid, sign

        for cell in sc.cells.values():
            c = centroid(cell.vertices)
            expected = sign(eval_scalar(net, c))
            label = {-1: "negative", 0: "zero", 1: "positive"}[expected]
            assert cell.sign_label == label

    def test_sublevel_rejects_unsigned_complexes(self):
        with pytest.raises(ValueError):
            sublevel_subcomplex(canonical_complex(_tent(2, d=2), BoxDomain.unit_cube(2)))
        with pytest.raises(ValueError):
            sublevel_subcomplex(box_complex(ring_cubes_2d(), 2))

    def test_sublevel_of_constant_positive_is_empty(self):
        sc = signed_complex(_constant(1), BoxDomain.unit_cube(2))
        assert len(sublevel_subcomplex(sc).cells) == 0

    def test_sublevel_of_constant_negative_is_everything(self):
        sc = signed_complex(_constant(-1), BoxDomain.unit_cube(2))
        sub = sublevel_subcomplex(sc)
        assert len(sub.cells) == len(sc.cells)

    def test_sublevel_cells_are_nonpositive_on_vertices(self):
        net = build_topo_network(FoldingSpec(2, (4,)), CuttingSpec(2, (3,)))
        sub = sublevel_subcomplex(signed_complex(net, BoxDomain.unit_cube(2)))
        for cell in sub.cells.values():
            for v in cell.vertices:
                assert eval_scalar(net, v) <= 0

    def test_validate_reference_instance(self):
        net = build_topo_network(FoldingSpec(2, (2,)), CuttingSpec(2, (1,)))
        sc = signed_complex(net, BoxDomain.unit_cube(2))
        assert validate_complex(sc) == []
