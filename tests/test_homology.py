import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import LARGE_INSTANCES, REFERENCE_INSTANCES
from helpers import (
    box_complex,
    network_and_box,
    ring_cubes_2d,
    shell_cubes_3d,
    uncollapsed_betti,
)
from topobetti.arrangement import signed_complex, sublevel_subcomplex
from topobetti.constructions import (
    BettiVector,
    CuttingSpec,
    FoldingSpec,
    betti_upper_bound,
    build_topo_network,
    euler_characteristic,
    predict_betti,
    serra_region_bound,
)
from topobetti.exactgeom import BoxDomain
from topobetti.homology import (
    _boundary_rows,
    _poset_collapse,
    analyze_network,
    betti_numbers,
    order_complex,
)
from topobetti.stability import _perturbed


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
        assert betti_numbers(pc).values == (
            betti_numbers(ring).values[0] * 2 + 1,
            betti_numbers(ring).values[1] * 2,
        )

    def test_beta0_equals_component_count(self):
        pc = box_complex([(0, 0), (5, 5), (9, 0)], 2)
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
        report = analyze_network(net, predicted=predict_betti(2, (1,), 2))
        assert report.betti.values == (2, 0)
        assert report.predicted_agrees
        assert report.bounds_satisfied
        assert report.euler == report.euler_cells == 2
        assert report.region_count <= report.serra_bound

    @pytest.mark.parametrize("values", [(12,), (12, 4, 7)], ids=["short", "long"])
    def test_prediction_of_the_wrong_length_is_rejected(self, values, reference_networks):
        # reconcile compares the prediction entry by entry, so one of the
        # wrong length would agree with the report on their common prefix
        net = reference_networks["d2-M4-w3"][0]
        with pytest.raises(ValueError, match=f"has {len(values)} entries, expected 2"):
            analyze_network(net, predicted=BettiVector(values))

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


def _sublevel(net, d):
    return sublevel_subcomplex(signed_complex(net, BoxDomain.unit_cube(d)))


@pytest.fixture(scope="module")
def d3_m4_w11_sublevel(reference_networks):
    return _sublevel(reference_networks["d3-M4-w11"][0], 3)


def _collapse_fixtures(d3_m4_w11_sublevel):
    ring = ring_cubes_2d()
    return [
        box_complex([(0, 0, 0)], 3),
        box_complex(ring, 2),
        box_complex(shell_cubes_3d(), 3),
        box_complex(ring + [(i + 10, j) for i, j in ring] + [(25, 0)], 2),
        d3_m4_w11_sublevel,
    ]


class TestPosetCollapse:
    def test_survivors_are_closed(self, d3_m4_w11_sublevel):
        for pc in _collapse_fixtures(d3_m4_w11_sublevel):
            kept = _poset_collapse(pc)
            for c in kept.cells.values():
                assert all(f in kept.cells for f in c.facets)

    def test_euler_characteristic_is_unchanged(self, d3_m4_w11_sublevel):
        for pc in _collapse_fixtures(d3_m4_w11_sublevel):
            assert _poset_collapse(pc).euler_cells() == pc.euler_cells()

    def test_reference_complex_shrinks(self, d3_m4_w11_sublevel):
        kept = _poset_collapse(d3_m4_w11_sublevel)
        assert len(kept.cells) < len(d3_m4_w11_sublevel.cells) // 10

    def test_single_cube_collapses_to_one_vertex(self):
        kept = _poset_collapse(box_complex([(0, 0, 0)], 3))
        assert [c.dim for c in kept.cells.values()] == [0]
        assert [c.facets for c in kept.cells.values()] == [()]

    def test_ring_and_shell_keep_their_homology(self):
        ring = _poset_collapse(box_complex(ring_cubes_2d(), 2))
        shell = _poset_collapse(box_complex(shell_cubes_3d(), 3))
        assert uncollapsed_betti(ring) == (1, 1)
        assert uncollapsed_betti(shell) == (1, 0, 1)

    def test_survivors_are_the_same_on_a_second_run(self, d3_m4_w11_sublevel):
        for pc in _collapse_fixtures(d3_m4_w11_sublevel):
            first = sorted(_poset_collapse(pc).cells)
            assert sorted(_poset_collapse(pc).cells) == first

    def test_subcomplexes_hand_out_the_parent_cells(self, d3_m4_w11_sublevel):
        net = build_topo_network(FoldingSpec(2, (2,)), CuttingSpec(2, (1,)))
        sc = signed_complex(net, BoxDomain.unit_cube(2))
        assert len(sublevel_subcomplex(sc).cells) < len(sc.cells)
        for parent in [sc, *_collapse_fixtures(d3_m4_w11_sublevel)]:
            facets = {cid: c.facets for cid, c in parent.cells.items()}
            for sub in (sublevel_subcomplex(parent), _poset_collapse(parent)):
                assert sub.cells
                for cid, c in sub.cells.items():
                    assert c is parent.cells[cid]
                    assert c.facets == facets[cid]


_OFFSETS = pytest.mark.parametrize("with_offset", [True, False], ids=["offset", "no-offset"])
_REFERENCE = pytest.mark.parametrize(
    "name, d, m_vec, w_vec",
    [i[:4] for i in REFERENCE_INSTANCES],
    ids=[i[0] for i in REFERENCE_INSTANCES],
)


class TestCollapseAgreesWithUncollapsedPath:
    """betti_numbers against the ranks of the order complex of every cell."""

    @_OFFSETS
    @_REFERENCE
    def test_reference_instances(self, name, d, m_vec, w_vec, with_offset):
        net = build_topo_network(FoldingSpec(d, m_vec), CuttingSpec(d, w_vec), with_offset)
        sub = _sublevel(net, d)
        assert betti_numbers(sub).values == uncollapsed_betti(sub)

    @_OFFSETS
    @_REFERENCE
    def test_perturbed_reference_instances(self, name, d, m_vec, w_vec, with_offset):
        net = build_topo_network(FoldingSpec(d, m_vec), CuttingSpec(d, w_vec), with_offset)
        sub = _sublevel(_perturbed(net, Fraction(1, 10**6), random.Random("7:0")), d)
        assert betti_numbers(sub).values == uncollapsed_betti(sub)

    @given(network_and_box())
    @settings(max_examples=60, deadline=None)
    def test_random_networks(self, case):
        sub = sublevel_subcomplex(signed_complex(*case))
        assert betti_numbers(sub).values == uncollapsed_betti(sub)

    @given(network_and_box(dims=(4,), max_width=2, max_hidden=1))
    @settings(max_examples=15, deadline=None)
    def test_random_four_dimensional_networks(self, case):
        sub = sublevel_subcomplex(signed_complex(*case))
        assert betti_numbers(sub).values == uncollapsed_betti(sub)


@pytest.mark.parametrize(
    "name, d, m_vec, w_vec, expected", LARGE_INSTANCES, ids=[i[0] for i in LARGE_INSTANCES]
)
def test_large_instances_match_the_closed_form(name, d, m_vec, w_vec, expected, large_complexes):
    predicted = predict_betti(FoldingSpec(d, m_vec).M, w_vec, d)
    assert predicted.values == expected
    facts = large_complexes[name]
    assert facts.betti.values == expected
    # what reconcile checks of an analyze_network report, on the shared complex
    assert euler_characteristic(facts.betti) == facts.euler_cells
    assert facts.regions <= serra_region_bound(facts.architecture)
    for k, b in enumerate(facts.betti.values):
        assert b <= betti_upper_bound(facts.architecture, k)
        assert b <= facts.positive_cells[k + 1]


@pytest.mark.parametrize(
    "name, M, neurons, expected, bound",
    [("d2-M32-w4", 32, 26, (544, 480), 352), ("d2-M64-w4", 64, 30, (2112, 1984), 466)],
    ids=["d2-M32-w4", "d2-M64-w4"],
)
def test_depth_separation(name, M, neurons, expected, bound, large_complexes):
    """Depth separation on d = 2, m_vec (2,)·L, w (4) for L = 5 and 6: the
    exact Betti numbers of the deep network exceed betti_upper_bound for one
    hidden layer with the same number of neurons, in both degrees.
    """
    facts = large_complexes[name]
    betti = facts.betti.values
    assert betti == expected == predict_betti(M, (4,), 2).values
    assert sum(facts.architecture[1:-1]) == neurons
    shallow = (2, neurons, 1)
    for k in (0, 1):
        assert betti_upper_bound(shallow, k) == bound
        assert betti[k] > bound


def test_readme_depth_separation_table():
    """Every row of the README's depth-separation table, recomputed."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| (\d+) \| (\d+) \| \((\d+), (\d+)\) \| (\d+) \|$", readme, re.M)
    assert [int(row[0]) for row in rows] == [4, 5, 6]
    for layers, neurons, b0, b1, bound in (map(int, row) for row in rows):
        net = build_topo_network(FoldingSpec(2, (2,) * layers), CuttingSpec(2, (4,)))
        assert sum(net.architecture[1:-1]) == neurons
        assert predict_betti(2**layers, (4,), 2).values == (b0, b1)
        assert betti_upper_bound((2, neurons, 1), 0) == bound
        assert betti_upper_bound((2, neurons, 1), 1) == bound
