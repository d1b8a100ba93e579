from fractions import Fraction

from helpers import box_complex, ring_cubes_2d, shell_cubes_3d
from topobetti.arrangement import signed_complex, sublevel_subcomplex
from topobetti.constructions import CuttingSpec, FoldingSpec, build_topo_network
from topobetti.exactgeom import BoxDomain
from topobetti.homology import (
    _boundary_rows,
    _component_cells,
    analyze_network,
    betti_numbers,
    order_complex,
)


class TestOrderComplex:
    def test_square_face_lattice(self):
        # one square: 4 vertices, 4 edges, 1 two-cell → 9 poset elements;
        # barycentric subdivision has 9 vertices, 16 edges, 8 triangles
        pc = box_complex([(0, 0)], 2)
        counts = [len(s) for s in order_complex(pc).simplices]
        assert counts == [9, 16, 8]
        assert sum((-1) ** k * n for k, n in enumerate(counts)) == 1

    def test_interval(self):
        pc = box_complex([(0,)], 1)
        assert [len(s) for s in order_complex(pc).simplices] == [3, 2]

    def test_boundary_of_boundary_vanishes(self):
        simplices = order_complex(box_complex([(0, 0), (1, 0)], 2)).simplices
        assert len(simplices) == 3
        for k in range(2, len(simplices)):
            rows_k = _boundary_rows(simplices[k], simplices[k - 1])
            rows_km1 = _boundary_rows(simplices[k - 1], simplices[k - 2])
            for row in rows_k:
                # row is a k-simplex's boundary over (k−1)-simplices; apply
                # ∂_{k−1} and check it vanishes
                acc = {}
                for i, coeff in row.items():
                    for j, v in rows_km1[i].items():
                        acc[j] = acc.get(j, 0) + coeff * v
                assert not any(acc.values())


class TestBettiNumbers:
    def test_single_cube(self):
        pc = box_complex([(0, 0, 0)], 3)
        assert betti_numbers(pc).values == (1, 0, 0)

    def test_square_ring(self):
        pc = box_complex(ring_cubes_2d(), 2)
        assert betti_numbers(pc).values == (1, 1)

    def test_hollow_shell(self):
        pc = box_complex(shell_cubes_3d(), 3)
        assert betti_numbers(pc).values == (1, 0, 1)

    def test_disjoint_union_adds_componentwise(self):
        ring = box_complex(ring_cubes_2d(), 2)
        # translate a second ring far away and a lone square farther still
        shifted = [(i + 10, j) for i, j in ring_cubes_2d()]
        pc = box_complex(ring_cubes_2d() + shifted + [(25, 0)], 2)
        assert len(_component_cells(pc)) == 3
        assert betti_numbers(pc).values == (
            betti_numbers(ring).values[0] * 2 + 1,
            betti_numbers(ring).values[1] * 2,
        )

    def test_beta0_equals_component_count(self):
        pc = box_complex([(0, 0), (5, 5), (9, 0)], 2)
        assert len(_component_cells(pc)) == 3
        assert betti_numbers(pc).values == (3, 0)

    def test_two_bars_in_one_dimension(self):
        pc = box_complex([(0,), (1,), (5,)], 1)
        assert betti_numbers(pc).values == (2,)

    def test_euler_matches_cell_count(self):
        for cubes, d in [(ring_cubes_2d(), 2), (shell_cubes_3d(), 3)]:
            pc = box_complex(cubes, d)
            b = betti_numbers(pc).values
            chi = sum((-1) ** k * v for k, v in enumerate(b))
            assert chi == pc.euler_cells()


class TestPipelineHomology:
    def test_smallest_instance(self):
        net = build_topo_network(FoldingSpec(2, (2,)), CuttingSpec(2, (1,)))
        sub = sublevel_subcomplex(signed_complex(net, BoxDomain.unit_cube(2)))
        # M = 2 leaves no interior cutting points: just the two boundary disks
        assert betti_numbers(sub).values == (2, 0)

    def test_analyze_network_report(self):
        net = build_topo_network(FoldingSpec(2, (2,)), CuttingSpec(2, (1,)))
        from topobetti.constructions import predict_betti

        report = analyze_network(net, predicted=predict_betti(2, (1,), 2))
        assert report.betti.values == (2, 0)
        assert report.predicted_agrees
        assert report.bounds_satisfied
        assert report.euler == report.euler_cells == 2
        assert report.region_count <= report.serra_bound

    def test_constant_positive_network_is_empty(self):
        from topobetti.relunet import AffineLayer, ReluNetwork

        zero = Fraction(0)
        net = ReluNetwork(
            (
                AffineLayer(((zero, zero),), (Fraction(1),)),
                AffineLayer(((zero,),), (Fraction(2),)),
            )
        )
        report = analyze_network(net)
        assert report.betti.values == (0, 0)
        assert report.euler == 0
