import hashlib
import math
import random
import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import LARGE_INSTANCES, REFERENCE_INSTANCES
from helpers import (
    box_complex,
    build_and_assemble,
    network_and_box,
    relabel,
    ring_cubes_2d,
    shell_cubes_3d,
    uncollapsed_betti,
)
from oracles import canonical_ids, nerve_betti
from topobetti import homology
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
from topobetti.exactgeom import BoxDomain, sparse_pivots
from topobetti.homology import (
    _boundary_rows,
    _poset_collapse,
    analyze_network,
    betti_numbers,
    order_complex,
)
from topobetti.relunet import AffineLayer, ReluNetwork
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

    def test_a_complex_missing_a_face_is_rejected(self):
        pc = box_complex([(0, 0)], 2)
        edge = next(c.id for c in pc.cells.values() if c.dim == 1)
        square = next(c.id for c in pc.cells.values() if c.dim == 2)
        broken = replace(pc, cells={cid: c for cid, c in pc.cells.items() if cid != edge})
        with pytest.raises(ValueError, match=f"not closed under faces: cell {square}, facet {edge}$"):
            betti_numbers(broken)

    def test_a_facet_past_every_cell_id_is_rejected(self):
        # an edge renumbered 0 names facets above every id the complex holds
        pc = box_complex([(0, 0)], 2)
        edge = next(c for c in pc.cells.values() if c.dim == 1)
        broken = replace(pc, cells={0: replace(edge, id=0)})
        with pytest.raises(ValueError, match=f"cell 0, facet {edge.facets[-1]}$"):
            betti_numbers(broken)

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
        out = report.to_json()
        assert out["predicted_agrees"] is True and out["bounds_satisfied"] is True
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
def reference_sublevels(reference_networks):
    return {name: _sublevel(net, fold.d) for name, (net, fold, _, _) in reference_networks.items()}


@pytest.fixture(scope="module")
def d3_m4_w11_sublevel(reference_sublevels):
    return reference_sublevels["d3-M4-w11"]


def _collapse_fixtures(d3_m4_w11_sublevel):
    ring = ring_cubes_2d()
    return [
        box_complex([(0, 0, 0)], 3),
        box_complex(ring, 2),
        box_complex(shell_cubes_3d(), 3),
        box_complex(ring + [(i + 10, j) for i, j in ring] + [(25, 0)], 2),
        d3_m4_w11_sublevel,
    ]


# what _poset_collapse keeps of each sublevel complex in canonical numbering
# (oracles.canonical_ids): cells by dimension and the first 16 hex digits of
# sha256(repr(sorted(ids)))
_SURVIVORS = {
    "d3-M2-w11": ([4, 0, 0, 0], "a168952d8f34e11d"),
    "d3-M2-w11-perturbed": ([4, 0, 0, 0], "d530f12a1d529df7"),
    "d3-M4-w11": ([44, 56, 32, 0], "7e2b4c9c83395138"),
}


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

    @pytest.mark.parametrize("name", sorted(_SURVIVORS))
    def test_survivors_are_pinned(self, name, reference_networks):
        # the homology benchmark's sublevel complexes, in canonical numbering:
        # which cells survive depends on the ids.  The perturbed one is
        # perturbed as the benchmark does it
        net = reference_networks[name.removesuffix("-perturbed")][0]
        if name.endswith("-perturbed"):
            net = _perturbed(net, Fraction(1, 10**6), random.Random(f"7:{name}"))
        sc = signed_complex(net, BoxDomain.unit_cube(3))
        sub = sublevel_subcomplex(relabel(sc, canonical_ids(sc)))
        kept = _poset_collapse(sub)
        counts = [0] * (sub.ambient_dim + 1)
        for c in kept.cells.values():
            counts[c.dim] += 1
        digest = hashlib.sha256(repr(sorted(kept.cells)).encode()).hexdigest()[:16]
        assert (counts, digest) == _SURVIVORS[name]

    def test_subcomplexes_hand_out_the_parent_cells(self, d3_m4_w11_sublevel, reference_networks):
        # the parent's own Cell objects and points, which no subcomplex copies
        sc = signed_complex(reference_networks["d2-M4-w3"][0], BoxDomain.unit_cube(2))
        assert len(sublevel_subcomplex(sc).cells) < len(sc.cells)
        for parent in [sc, *_collapse_fixtures(d3_m4_w11_sublevel)]:
            facets = {cid: c.facets for cid, c in parent.cells.items()}
            for sub in (sublevel_subcomplex(parent), _poset_collapse(parent)):
                assert sub.cells
                assert sub.points is parent.points
                for cid, c in sub.cells.items():
                    assert c is parent.cells[cid]
                    assert c.facets == facets[cid]


class TestClearing:
    """betti_numbers skips the rows of ∂_k at the pivot columns of ∂_{k+1}."""

    def test_cleared_ranks_equal_full_ranks(
        self, monkeypatch, d3_m4_w11_sublevel, reference_sublevels
    ):
        calls = []  # (rows given, pivot table) of each call, ∂_k from the top k down

        def recording(rows):
            rows = list(rows)
            calls.append((len(rows), sparse_pivots(rows)))
            return calls[-1][1]

        monkeypatch.setattr(homology, "sparse_pivots", recording)
        skipped = 0
        for pc in [*_collapse_fixtures(d3_m4_w11_sublevel), *reference_sublevels.values()]:
            calls.clear()
            betti_numbers(pc)
            simplices = order_complex(_poset_collapse(pc)).simplices
            ks = range(len(simplices) - 1, 0, -1)
            assert len(calls) == len(ks)
            for k, (given_rows, pivots) in zip(ks, calls):
                full = sparse_pivots(_boundary_rows(simplices[k], simplices[k - 1]))
                assert len(pivots) == len(full)
                assert pivots == full
                for col, row in pivots.items():
                    assert col == max(row)
                    assert math.gcd(*row.values()) == 1
                skipped += len(simplices[k]) - given_rows
        assert skipped > 0


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


def _l1_shell(d):
    """| ‖x − c‖₁ − 1/4 | with c the unit cube's centre: no region is negative.

    The sublevel set is the zero set, the boundary of a cross-polytope, made
    only of the positive regions' faces on the output's hyperplane.
    """
    zero, one = Fraction(0), Fraction(1)
    rows = [tuple(s * one if j == t else zero for j in range(d)) for t in range(d) for s in (1, -1)]
    bias = [-s * Fraction(1, 2) for _ in range(d) for s in (1, -1)]
    n = 2 * d
    return ReluNetwork(
        (
            AffineLayer(tuple(rows), tuple(bias)),
            AffineLayer(((one,) * n, (-one,) * n), (Fraction(-1, 4), Fraction(1, 4))),
            AffineLayer(((one, one),), (zero,)),
        )
    )


_NERVE_CASES = [
    *((i[0], "offset") for i in REFERENCE_INSTANCES),
    ("d3-M4-w11", "no-offset"),
    ("d2-M8-w4", "perturbed"),
    ("d3-M4-w11", "perturbed"),
]


class TestNerveOfTheSublevelCover:
    """oracles.nerve_betti, from the build alone, against the assembly and betti_numbers."""

    @pytest.mark.parametrize(
        "name, variant", _NERVE_CASES, ids=[f"{name}-{variant}" for name, variant in _NERVE_CASES]
    )
    def test_constructed_instances(self, name, variant):
        # the reference instance with its offset, without it, or perturbed
        # at δ = 10⁻⁶ as the other perturbed tests are
        _, d, m_vec, w_vec, _ = next(i for i in REFERENCE_INSTANCES if i[0] == name)
        with_offset = variant != "no-offset"
        net = build_topo_network(FoldingSpec(d, m_vec), CuttingSpec(d, w_vec), with_offset)
        if variant == "perturbed":
            net = _perturbed(net, Fraction(1, 10**6), random.Random("7:0"))
        b, sc = build_and_assemble(net, BoxDomain.unit_cube(d))
        assert nerve_betti(b) == betti_numbers(sublevel_subcomplex(sc)).values

    @pytest.mark.parametrize("d, expected", [(2, (1, 1)), (3, (1, 0, 1))], ids=["d2", "d3"])
    def test_sublevel_set_of_zero_faces_only(self, d, expected):
        b, sc = build_and_assemble(_l1_shell(d), BoxDomain.unit_cube(d))
        assert all(r.activations[0][0] > 0 for r in b.regions)
        assert nerve_betti(b) == betti_numbers(sublevel_subcomplex(sc)).values == expected


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


def test_readme_depth_separation_table_in_three_dimensions():
    """Every row of the README's d = 3 depth-separation table, recomputed."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    rows = re.findall(
        r"^\| (\d+) \| (\d+) \| \((\d+), (\d+), (\d+)\) \| (\d+) \| (\d+) \| (yes|no) \|$",
        readme,
        re.M,
    )
    assert [(int(row[0]), row[-1]) for row in rows] == [(4, "yes"), (5, "no"), (6, "no")]
    for row in rows:
        layers, neurons, b0, b1, b2, bound, middle_bound = map(int, row[:-1])
        net = build_topo_network(FoldingSpec(3, (2,) * layers), CuttingSpec(3, (1, 1)))
        assert sum(net.architecture[1:-1]) == neurons
        assert predict_betti(2**layers, (1, 1), 3).values == (b0, b1, b2)
        shallow = (3, neurons, 1)
        assert betti_upper_bound(shallow, 0) == betti_upper_bound(shallow, 2) == bound
        assert betti_upper_bound(shallow, 1) == middle_bound
