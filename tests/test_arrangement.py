import gc
import math
import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LARGE_INSTANCES, REFERENCE_INSTANCES
from helpers import (
    box_complex,
    build_and_assemble,
    complex_digest,
    generic_network,
    network_and_box,
    reference_assemble,
    relabel,
    ring_cubes_2d,
    shell_cubes_3d,
)
from oracles import (
    _det,
    box_volume,
    canonical_ids,
    cell_vertices,
    cell_volume,
    centroid,
    dehomogenize,
    region_tables,
    validate_complex,
)
from topobetti import arrangement
from topobetti.arrangement import (
    Cell,
    ComplexSizeError,
    _assemble,
    _Builder,
    _gc_paused,
    linear_region_count,
    signed_complex,
    sublevel_complex,
    sublevel_subcomplex,
)
from topobetti.constructions import (
    CuttingSpec,
    FoldingSpec,
    build_folding_layer,
    build_folding_network,
    build_topo_network,
)
from topobetti.exactgeom import BoxDomain, homogenize, sign
from topobetti.homology import betti_numbers
from topobetti.relunet import AffineLayer, NeuronId, ReluNetwork, compose, eval_scalar
from topobetti.stability import _perturbed


def _scalar(net):
    """Sum of the outputs plus 1: for nets with outputs ≥ 0 the result is ≥ 1,
    so the output zero-set misses the box and adds no split."""
    k = net.output_dim
    return compose(ReluNetwork((AffineLayer(((1,) * k,), (1,)),)), net)


def _tent(m, d=1):
    return _scalar(build_folding_layer(m, d))


def _constant(value, d=2):
    zero = Fraction(0)
    return ReluNetwork(
        (
            AffineLayer(((zero,) * d,), (Fraction(1),)),
            AffineLayer(((zero,),), (Fraction(value),)),
        )
    )


def _assert_maps_reproduce(net, pc):
    # each full cell's map must agree with the network on its vertices
    # (interior points are covered by convexity)
    vertices = cell_vertices(pc)
    for cell in pc.full_cells():
        cols, (const,), den = cell.affine_map
        for v in map(dehomogenize, vertices[cell.id]):
            assert (sum(g * x for (g,), x in zip(cols, v)) + const) / den == eval_scalar(net, v)


def _dims(pc):
    counts = {}
    for c in pc.cells.values():
        counts[c.dim] = counts.get(c.dim, 0) + 1
    return counts


def _assert_is_the_halved_grid(pc):
    # the 2-fold tent folds each axis at 1/2: canonically numbered, its
    # complex is helpers.box_complex of the 2^d unit cubes, halved
    d = pc.ambient_dim
    grid = box_complex(list(product((0, 1), repeat=d)), d)
    canon = relabel(pc, canonical_ids(pc))
    assert [(c.id, c.dim, c.facets) for c in canon.cells.values()] == [
        (c.id, c.dim, c.facets) for c in grid.cells.values()
    ]
    assert canon.points == tuple(homogenize([Fraction(x, 2) for x in p[:-1]]) for p in grid.points)


def _assert_numbered_in_build_order(pc):
    """Build-order numbering: the 0-cells are ids 0 … V − 1, their vertex ids,
    the cells lie in increasing id order, and every facet's id is below its
    cell's."""
    assert [c.id for c in pc.cells.values() if c.dim == 0] == list(range(len(pc.points)))
    assert all(cid == c.id for cid, c in pc.cells.items())
    assert list(pc.cells) == sorted(pc.cells)
    assert all(f < c.id for c in pc.cells.values() for f in c.facets)


# Prints a sha256 of each raw complex, d2-M8-w4's and perturbed d3-M4-w11's:
# their points and, for each cell in id order, its id, dimension, facets,
# label and affine map.
_RAW_COMPLEXES = """
import hashlib, random
from fractions import Fraction
from topobetti.arrangement import signed_complex
from topobetti.constructions import CuttingSpec, FoldingSpec, build_topo_network
from topobetti.exactgeom import BoxDomain
from topobetti.stability import _perturbed

for d, m_vec, w_vec, delta in ((2, (2, 4), (4,), 0), (3, (2, 2), (1, 1), Fraction(1, 10**6))):
    net = build_topo_network(FoldingSpec(d, m_vec), CuttingSpec(d, w_vec))
    if delta:
        net = _perturbed(net, delta, random.Random("7:0"))
    sc = signed_complex(net, BoxDomain.unit_cube(d))
    cells = [(c.id, c.dim, c.facets, c.sign_label, c.affine_map) for c in sc.cells.values()]
    print(hashlib.sha256(repr((sc.points, cells)).encode()).hexdigest())
"""


class TestCanonicalComplex:
    def test_tent_on_interval(self):
        box = BoxDomain.unit_cube(1)
        pc = signed_complex(_tent(2), box)
        assert _dims(pc) == {0: 3, 1: 2}
        assert validate_complex(pc, box) == []
        _assert_is_the_halved_grid(pc)

    def test_tent_on_square(self):
        box = BoxDomain.unit_cube(2)
        pc = signed_complex(_tent(2, d=2), box)
        assert _dims(pc) == {0: 9, 1: 12, 2: 4}
        assert validate_complex(pc, box) == []
        _assert_is_the_halved_grid(pc)

    def test_affine_maps_reproduce_the_network(self):
        net = _tent(4, d=2)
        _assert_maps_reproduce(net, signed_complex(net, BoxDomain.unit_cube(2)))

    def test_deterministic(self):
        net = build_topo_network(FoldingSpec(2, (2,)), CuttingSpec(2, (1,)))
        a = signed_complex(net, BoxDomain.unit_cube(2))
        b = signed_complex(net, BoxDomain.unit_cube(2))
        assert a.points == b.points
        assert {cid: c.facets for cid, c in a.cells.items()} == {
            cid: c.facets for cid, c in b.cells.items()
        }

    def test_numbering_does_not_depend_on_the_hash_seed(self):
        # the raw complexes, with no relabelling, from two fresh interpreters
        # whose str and bytes hashes differ
        src = Path(arrangement.__file__).parents[1]
        path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
        outputs = [
            subprocess.run(
                [sys.executable, "-c", _RAW_COMPLEXES],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
                check=True,
            ).stdout
            for seed in ("0", "12345")
        ]
        assert len(outputs[0].split()) == 2
        assert outputs[0] == outputs[1]

    def test_constant_network_single_region(self):
        box = BoxDomain.unit_cube(2)
        pc = signed_complex(_constant(1), box)
        assert len(pc.full_cells()) == 1
        assert validate_complex(pc, box) == []

    def test_cell_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("TOPOBETTI_MAX_CELLS", "4")
        net = _scalar(build_folding_network(FoldingSpec(2, (4,))))
        with pytest.raises(ComplexSizeError):
            signed_complex(net, BoxDomain.unit_cube(2))

    def test_cell_cap_counts_faces(self, monkeypatch):
        # one region, so only the face lattice's 9 cells can exceed the cap
        monkeypatch.setenv("TOPOBETTI_MAX_CELLS", "4")
        with pytest.raises(ComplexSizeError):
            signed_complex(_constant(1), BoxDomain.unit_cube(2))

    def test_cell_cap_stops_the_walk_early(self, monkeypatch):
        # the 10-cube's one region has 3¹⁰ faces, and a full walk expands the
        # 52 905 of dimension ≥ 2; a cap of 3 000 cells must stop it after at
        # most the 3 000 − 2¹⁰ faces the cap leaves room for
        calls = []
        facets = arrangement._facets
        monkeypatch.setattr(arrangement, "_facets", lambda *a: calls.append(1) or facets(*a))
        monkeypatch.setenv("TOPOBETTI_MAX_CELLS", "3000")
        with pytest.raises(ComplexSizeError):
            signed_complex(_constant(1, d=10), BoxDomain.unit_cube(10))
        assert 0 < len(calls) <= 3000 - 2**10

    @pytest.mark.parametrize("cap", range(1, 10))
    def test_cell_cap_in_one_dimension(self, cap, monkeypatch):
        # y = relu(x − 1/3) + relu(x − 2/3) − 1/10 has 5 vertices and 4 edges
        # on [0, 1]; d = 1 has no walk below the full cells, which the cap
        # must count too
        net = ReluNetwork(
            (
                AffineLayer(((1,), (1,)), (Fraction(-1, 3), Fraction(-2, 3))),
                AffineLayer(((1, 1),), (Fraction(-1, 10),)),
            )
        )
        monkeypatch.setenv("TOPOBETTI_MAX_CELLS", str(cap))
        if cap < 9:
            with pytest.raises(ComplexSizeError):
                signed_complex(net, BoxDomain.unit_cube(1))
        else:
            sc = signed_complex(net, BoxDomain.unit_cube(1))
            assert len(sc.cells) == 9
            _assert_numbered_in_build_order(sc)

    def test_non_scalar_output_rejected(self):
        with pytest.raises(ValueError):
            signed_complex(build_folding_layer(2, 2), BoxDomain.unit_cube(2))

    def test_bad_cap_rejected(self, monkeypatch):
        for raw, message in (("zero", "must be an integer"), ("0", "must be positive")):
            monkeypatch.setenv("TOPOBETTI_MAX_CELLS", raw)
            with pytest.raises(ValueError, match=f"TOPOBETTI_MAX_CELLS {message}"):
                signed_complex(_tent(2), BoxDomain.unit_cube(1))

    def test_box_of_the_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match="box dimension does not match network input"):
            signed_complex(_tent(2), BoxDomain.unit_cube(2))


class TestLayerTables:
    """A layer's neurons are restricted once per distinct region map."""

    @pytest.mark.parametrize(
        "name, restrictions",
        [("d2-M4-w3", 148), ("d2-M8-w4", 588), ("d3-M2-w11", 94), ("d3-M4-w11", 758)],
    )
    def test_one_restriction_per_distinct_map(
        self, name, restrictions, reference_networks, monkeypatch
    ):
        # restricting on every split would take 291, 1 554, 166 and 1 342
        calls = []
        restrict = arrangement._restrict_functional
        monkeypatch.setattr(
            arrangement, "_restrict_functional", lambda *a: calls.append(1) or restrict(*a)
        )
        net, fold, _, _ = reference_networks[name]
        signed_complex(net, BoxDomain.unit_cube(fold.d))
        assert len(calls) == restrictions

    @pytest.mark.parametrize("name, restrictions", [("d2-M32-w4", 8252), ("d4-M4-w111", 4232)])
    def test_large_instances(self, name, restrictions, large_complexes):
        # restricting on every split would take 24 574 and 9 982
        assert large_complexes[name].restrictions == restrictions

    def test_split_children_share_their_parents_table(self, reference_networks, monkeypatch):
        cuts = []
        split = arrangement._Builder._split

        def checked(self, r, *args):
            children = split(self, r, *args)
            if len(children) == 2:
                cuts.append(all(c.table is r.table for c in children))
            return children

        monkeypatch.setattr(arrangement._Builder, "_split", checked)
        net, fold, _, _ = reference_networks["d3-M4-w11"]
        signed_complex(net, BoxDomain.unit_cube(fold.d))
        assert cuts and all(cuts)


class TestNewVertices:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_corner_cut_off_the_cube(self, d):
        # x_1 + … + x_d = 1/2 is negative only at the origin, but crosses just
        # the d edges from it: the diagonals to the other corners are no edges
        half = Fraction(1, 2)
        net = ReluNetwork((AffineLayer(((Fraction(1),) * d,), (-half,)),))
        box = BoxDomain.unit_cube(d)
        sc = signed_complex(net, box)
        assert len(set(sc.points)) == len(sc.points) == len(sc.cells_of_dim(0))
        new = set(sc.points) - set(map(homogenize, box.corners()))
        assert sorted(map(dehomogenize, new)) == sorted(
            tuple(half if j == i else 0 for j in range(d)) for i in range(d)
        )
        assert validate_complex(sc, box) == []
        # canonically the 0-cells are in the lexicographic order of their points
        canon = relabel(sc, canonical_ids(sc))
        assert validate_complex(canon, box) == []
        points = list(map(dehomogenize, canon.points))
        assert points == sorted(points)


def _prism_over_pyramid():
    """A d = 5 network on [0, 1]^5 whose split needs the tight-set edge test.

    Its first four neurons, 2x₃ − x₅, 2 − 2x₃ − x₅, 2x₄ − x₅ and
    2 − 2x₄ − x₅, are nonnegative together on a square pyramid in
    (x₃, x₄, x₅) times the square of (x₁, x₂).  The apex times that square
    lies on all four pyramid facets, so its opposite corners share
    d − 1 = 4 facets without spanning an edge, and both are non-simple:
    each also lies on two faces of the box.  The fifth neuron x₁ + x₂ − 1
    separates them.  The output is the sum of the first four ReLUs, less
    the fifth's, less 1/3.
    """
    rows = (
        (0, 0, 2, 0, -1),
        (0, 0, -2, 0, -1),
        (0, 0, 0, 2, -1),
        (0, 0, 0, -2, -1),
        (1, 1, 0, 0, 0),
    )
    hidden = AffineLayer(
        tuple(tuple(map(Fraction, row)) for row in rows), tuple(map(Fraction, (0, 2, 0, 2, -1)))
    )
    head = AffineLayer((tuple(map(Fraction, (1, 1, 1, 1, -1))),), (Fraction(-1, 3),))
    return ReluNetwork((hidden, head)), BoxDomain.unit_cube(5)


# complex_digest of _prism_over_pyramid's signed complex, recorded from the
# build that ran the tight-set edge test on every candidate pair
PRISM_DIGEST = "e346ff500425b0d1bcf00db949e2f22233ff61d8de54febd436a0805c0cb7969"


def _count_edge_tests(monkeypatch) -> list:
    """The answers of every arrangement._spans_edge call from now on, in call order."""
    answers = []
    spans = arrangement._spans_edge
    monkeypatch.setattr(
        arrangement, "_spans_edge", lambda *a: answers.append(spans(*a)) or answers[-1]
    )
    return answers


def _check_cuts_by_the_full_rule(net, box) -> int:
    """Every cut of the build against the edges the full tight-set rule finds.

    For each split that cuts a region, the functional is evaluated at the
    region's vertices from its (grad, const), and a positive u and a
    negative v span an edge when the region's vertices on every facet that
    holds both are u and v alone.  Each such edge must be a key of cuts, and
    each child's facet on the new hyperplane, less the region's vertices on
    it, must be exactly those edges' new vertices.  Returns the number of
    cutting splits checked.
    """
    checked = []
    split = _Builder._split

    def checked_split(self, r, nid, i, output, cuts):
        grad, const, hrow, _ = r.table[i]
        children = split(self, r, nid, i, output, cuts)
        if len(children) == 2:
            values = {}
            for v in r.vertices:
                *x, w = self.coords[v]
                values[v] = sign(sum(g * t for g, t in zip(grad, x)) + const * w)
            edges = [
                (u, v)
                for u in r.vertices
                if values[u] > 0
                for v in r.vertices
                if values[v] < 0
                and r.vertices.intersection(*(g for g in r.tight.values() if u in g and v in g))
                == {u, v}
            ]
            assert all(e in cuts for e in edges)
            zeros = {v for v, t in values.items() if t == 0}
            new = {cuts[e] for e in edges}
            hid = self.hids[hrow]
            assert [c.tight[hid] - zeros for c in children] == [new, new]
            checked.append(1)
        return children

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Builder, "_split", checked_split)
        signed_complex(net, box)
    return len(checked)


class TestEdgeRule:
    """_split runs the tight-set edge test (_spans_edge) only between two non-simple ends.

    A pair that shares d − 1 facets spans an edge at once when either end
    lies on exactly d facets; the test can reject a pair only from d = 5 on.
    """

    def test_non_simple_ends_need_the_tight_set_test(self, monkeypatch):
        answers = _count_edge_tests(monkeypatch)
        net, box = _prism_over_pyramid()
        b, sc = build_and_assemble(net, box)
        assert validate_complex(sc, box) == []
        assert (len(sc.cells), len(sc.points)) == (1879, 104)
        assert betti_numbers(sublevel_subcomplex(sc)).values == (1, 0, 0, 0, 0)
        tables, faults = region_tables(b)
        assert faults == []
        assert complex_digest(sc, tables) == PRISM_DIGEST
        # the opposite corners of the apex square are each rejected
        assert False in answers

    @pytest.mark.parametrize("name", [i[0] for i in REFERENCE_INSTANCES])
    def test_reference_instances_never_run_the_test(self, name, reference_networks, monkeypatch):
        # every candidate pair there has a simple end, so the saving holds
        answers = _count_edge_tests(monkeypatch)
        net, fold, _, _ = reference_networks[name]
        signed_complex(net, BoxDomain.unit_cube(fold.d))
        assert answers == []

    @pytest.mark.parametrize("perturbed", [False, True], ids=["exact", "perturbed"])
    @pytest.mark.parametrize(
        "name, d, m_vec, w_vec", [i[:4] for i in REFERENCE_INSTANCES + LARGE_INSTANCES[:1]]
    )
    def test_cuts_match_the_full_rule_on_constructions(self, name, d, m_vec, w_vec, perturbed):
        net = build_topo_network(FoldingSpec(d, m_vec), CuttingSpec(d, w_vec))
        if perturbed:
            net = _perturbed(net, Fraction(1, 10**6), random.Random("7:0"))
        assert _check_cuts_by_the_full_rule(net, BoxDomain.unit_cube(d)) > 0

    @pytest.mark.parametrize(
        "d, m, seed", [(2, 4, s) for s in range(10)] + [(3, 2, s) for s in range(10)]
    )
    def test_cuts_match_the_full_rule_on_generic_networks(self, d, m, seed):
        net = generic_network(seed, d, m)
        assert _check_cuts_by_the_full_rule(net, BoxDomain.unit_cube(d)) > 0

    def test_cuts_match_the_full_rule_between_non_simple_ends(self):
        assert _check_cuts_by_the_full_rule(*_prism_over_pyramid()) > 0


class TestAssembly:
    """_assemble against helpers.reference_assemble, the assembly it replaced."""

    @staticmethod
    def _both(net, box):
        """_assemble's and reference_assemble's complex of one build, and their digests."""
        b, sc = build_and_assemble(net, box)
        ref = reference_assemble(b)
        tables, faults = region_tables(b)
        assert faults == []
        return sc, ref, complex_digest(sc, tables), complex_digest(ref, tables)

    @given(
        network_and_box(dims=(1, 2, 3, 4), max_width=3),
        st.one_of(st.none(), st.integers(0, 2**32)),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_reference(self, case, seed):
        # seed None keeps the network; otherwise it is perturbed at δ = 10⁻⁶,
        # which breaks the coincidences of its small rational weights
        net, box = case
        if seed is not None:
            net = _perturbed(net, Fraction(1, 10**6), random.Random(seed))
        _, _, digest, expected = self._both(net, box)
        assert digest == expected

    @pytest.mark.parametrize(
        "d, zero_cells",
        [
            # x₁ + x₂ vanishes on [0,1]² only at the origin
            (2, [((0, 0),)]),
            # and on [0,1]³ along the edge x₁ = x₂ = 0
            (3, [((0, 0, 0),), ((0, 0, 1),), ((0, 0, 0), (0, 0, 1))]),
        ],
        ids=["corner", "edge"],
    )
    def test_output_touches_an_uncut_region(self, d, zero_cells):
        # the output's zero set meets the box's one region only at a face, so
        # the labels come from the vertices on its hyperplane, not from the
        # region's constraints
        row = (Fraction(1), Fraction(1)) + (Fraction(0),) * (d - 2)
        net = ReluNetwork((AffineLayer((row,), (Fraction(0),)),))
        sc, _, digest, expected = self._both(net, BoxDomain.unit_cube(d))
        vertices = cell_vertices(sc)
        zero = [vertices[cid] for cid, c in sc.cells.items() if c.sign_label == "zero"]
        assert sorted(zero) == sorted(tuple((*p, 1) for p in cell) for cell in zero_cells)
        assert {c.sign_label for c in sc.cells.values()} == {"zero", "positive"}
        assert digest == expected

    def test_output_on_a_constraint_of_both_regions(self):
        # h₁ = relu(x₁ − 1/2) splits the square at x₁ = 1/2, h₂ = relu(1/2 − x₁)
        # lies on that line too, and y = h₁ − h₂ = x₁ − 1/2 vanishes on it: the
        # output's hyperplane bounds both regions and splits neither
        half = Fraction(1, 2)
        net = ReluNetwork(
            (
                AffineLayer(((1, 0), (-1, 0)), (-half, half)),
                AffineLayer(((1, -1),), (0,)),
            )
        )
        sc, _, digest, expected = self._both(net, BoxDomain.unit_cube(2))
        vertices = cell_vertices(sc)
        left, right = sorted(sc.full_cells(), key=lambda c: vertices[c.id])
        assert (left.sign_label, right.sign_label) == ("negative", "positive")
        zero = [vertices[cid] for cid, c in sc.cells.items() if c.sign_label == "zero"]
        assert sorted(zero) == [((1, 0, 2),), ((1, 0, 2), (1, 2, 2)), ((1, 2, 2),)]
        assert linear_region_count(sc) == 1
        assert betti_numbers(sublevel_subcomplex(sc)).values == (1, 0)
        # h₂'s hyperplane is the same line, but it only bounds the regions
        assert [(nid, reason) for nid, _, reason in sc.violations] == [
            (NeuronId(2, 1), "vertex-on-hyperplane")
        ] * 2
        assert digest == expected

    def test_assembled_cells_are_ordinary_cells(self, reference_networks):
        # _assemble makes its cells without Cell's own __init__; a cell holds
        # no points, which the complex keeps once
        assert Cell.__slots__ == ("id", "dim", "affine_map", "sign_label", "facets")
        net, fold, _, _ = reference_networks["d3-M2-w11"]
        sc = signed_complex(net, BoxDomain.unit_cube(fold.d))
        for c in sc.cells.values():
            values = [getattr(c, f.name) for f in fields(Cell)]
            made = Cell(*values)
            assert type(c) is Cell
            assert c == made and hash(c) == hash(made)
            with pytest.raises(FrozenInstanceError):
                c.sign_label = "zero"
            with pytest.raises(FrozenInstanceError):
                del c.dim
            other = "positive" if c.sign_label == "zero" else "zero"
            assert replace(c, sign_label=other) == replace(made, sign_label=other) != made
            assert c == made

    def test_a_cells_map_names_its_owner(self, reference_networks):
        # oracles.region_tables finds a cell's owner by its map's identity:
        # every region has a map object of its own, and each cell holds that
        # of the first region, in build order, that holds all its vertices
        net, fold, _, _ = reference_networks["d3-M4-w11"]
        b, sc = build_and_assemble(net, BoxDomain.unit_cube(fold.d))
        owners = {id(r.affine): x for x, r in enumerate(b.regions)}
        assert len({id(c.affine_map) for c in sc.cells.values()}) == len(owners) == len(b.regions)
        holders = {}  # point -> indices of the regions that hold it
        for x, r in enumerate(b.regions):
            for v in r.vertices:
                holders.setdefault(b.coords[v], set()).add(x)
        vertices = cell_vertices(sc)
        for c in sc.cells.values():
            x = owners[id(c.affine_map)]
            assert c.affine_map is b.regions[x].affine
            assert x == min(set.intersection(*map(holders.__getitem__, vertices[c.id])))

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_a_facet_reached_twice_is_listed_once(self, d):
        # 2x₁ + x₂ − x₄ = 0 holds edges of [−1, 1]^d along x₃, so the walk
        # reaches some facets through two hids: _facets must keep both equal
        # sets, and for d ≥ 5 it must drop the lower faces below the facets
        row = (2, 1, 0, -1) + (0,) * (d - 4)
        net = ReluNetwork((AffineLayer((row,), (0,)), AffineLayer(((1,),), (Fraction(-1, 4),))))
        box = BoxDomain((-1,) * d, (1,) * d)
        sc, _, digest, expected = self._both(net, box)
        assert validate_complex(sc, box) == []
        assert digest == expected
        _assert_numbered_in_build_order(sc)

    @pytest.mark.parametrize("perturbed", [False, True], ids=["exact", "perturbed"])
    @pytest.mark.parametrize("name", [i[0] for i in REFERENCE_INSTANCES])
    def test_cells_are_numbered_in_build_order(self, name, perturbed, reference_networks):
        net, fold, _, _ = reference_networks[name]
        if perturbed:
            net = _perturbed(net, Fraction(1, 10**6), random.Random("7:0"))
        sc = signed_complex(net, BoxDomain.unit_cube(fold.d))
        _assert_numbered_in_build_order(sc)
        # each vertex is made once: a new one is shared through the edge it cuts
        assert len(set(sc.points)) == len(sc.points)

    @pytest.mark.parametrize("perturbed", [False, True], ids=["exact", "perturbed"])
    @pytest.mark.parametrize("name, bound", [("d2-M8-w4", 210), ("d3-M4-w11", 280)])
    def test_transient_memory_per_cell(self, name, bound, perturbed, reference_networks):
        # what the assembly allocates beyond the complex it returns: the face
        # keys and the walk's sets, but no record of each face.  Per cell,
        # 164-219 B here; 224-355 B when each face's record was kept and its
        # cell made in a second pass
        net, fold, _, _ = reference_networks[name]
        if perturbed:
            net = _perturbed(net, Fraction(1, 10**6), random.Random("7:0"))
        with _gc_paused():
            b = _Builder(net, BoxDomain.unit_cube(fold.d))
            b.run()
            tracemalloc.start()
            try:
                sc = _assemble(b)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert (peak - kept) / len(sc.cells) <= bound

    @pytest.mark.parametrize("name, bound", [("d2-M8-w4", 1950), ("d3-M4-w11", 2550)])
    def test_kept_memory_per_vertex(self, name, bound, reference_networks):
        # what the split keeps for the assembly: the regions with their tight
        # sets and records, the points and the hyperplane table, but no set of
        # hyperplanes per vertex and no index of the points.  Per vertex,
        # 1 766-1 844 and 2 284 B here; 2 038-2 117 and 2 793 B with both
        net, fold, _, _ = reference_networks[name]
        for layer in net.layers:
            layer.scaled  # the network's own integer form, made once
        with _gc_paused():
            tracemalloc.start()
            try:
                b = _Builder(net, BoxDomain.unit_cube(fold.d))
                b.run()
                # a full collection empties the interpreter's free lists, whose
                # objects are no part of the build but would count as kept
                gc.collect()
                kept, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert kept / len(b.coords) <= bound


def _with_facets(pc, cell, facets):
    """pc with this cell's facets replaced."""
    return replace(pc, cells={**pc.cells, cell.id: replace(cell, facets=facets)})


class TestValidateComplex:
    SQUARE, CUBE = BoxDomain.unit_cube(2), BoxDomain.unit_cube(3)

    def test_a_point_listed_twice_is_reported(self):
        # the square's 0-cells alone, the corner (0, 1) given the point (0, 0):
        # with no edge or full cell to bend, only the check that the points
        # are distinct sees it
        pc = box_complex([(0, 0)], 2)
        corners = replace(pc, cells={cid: c for cid, c in pc.cells.items() if c.dim == 0})
        assert validate_complex(corners, self.SQUARE) == []
        a, _, c, d = pc.points
        broken = replace(corners, points=(a, a, c, d))
        assert validate_complex(broken, self.SQUARE) == ["points: 0 and 1 are the same point"]

    def test_zero_cell_without_a_point_is_reported(self):
        # the last corner's point dropped: the ranks and the volume would
        # read it, so they are not checked
        pc = box_complex([(0, 0)], 2)
        broken = replace(pc, points=pc.points[:-1])
        assert validate_complex(broken, self.SQUARE) == ["points: 0-cell 3 has no point"]

    @pytest.mark.parametrize(
        "point", [(-1, -1, -1), (2, 2, 2), (1, 1, 0)], ids=["negative-w", "not-reduced", "zero-w"]
    )
    def test_vertex_not_in_homogeneous_form_is_reported(self, point):
        # the corner (1, 1) written otherwise keeps every rank, so only the
        # form check sees it, and the volume, which would divide by w = 0 or
        # take the wrong sign, is not checked
        pc = box_complex([(0, 0)], 2)
        points = tuple(point if p == (1, 1, 1) else p for p in pc.points)
        assert validate_complex(replace(pc, points=points), self.SQUARE) == [
            f"vertices: {point} is not a point (x…, w) with w > 0 and gcd 1"
        ]

    def test_facet_naming_no_cell_is_reported(self):
        # an id past the last cell keeps the facets in increasing order, adds
        # no 0-cell below the square and stops the volume sum, so only the
        # incidence check sees it
        pc = box_complex([(0, 0)], 2)
        (square,) = pc.full_cells()
        unknown = max(pc.cells) + 1
        broken = _with_facets(pc, square, square.facets + (unknown,))
        assert validate_complex(broken, self.SQUARE) == [
            f"incidence: unknown cell in pair ({unknown},{square.id})"
        ]

    def test_facet_of_the_wrong_dimension_is_reported(self):
        # the square's corner replaces one of the two edges through it: the
        # other edges still hold every corner, and the volume, coned from
        # that corner, is unchanged, so only the dimension check sees it
        pc = box_complex([(0, 0)], 2)
        (square,) = pc.full_cells()
        vertices = cell_vertices(pc)
        corner = vertices[square.id][0]
        (vertex,) = (c.id for c in pc.cells_of_dim(0) if vertices[c.id] == (corner,))
        edge = next(f for f in square.facets if corner in vertices[f])
        broken = _with_facets(pc, square, tuple(sorted({*square.facets} - {edge} | {vertex})))
        assert validate_complex(broken, self.SQUARE) == [
            f"incidence: dim mismatch in pair ({vertex},{square.id})"
        ]

    def test_cell_of_the_wrong_rank_is_reported(self):
        # the cube's boundary with its corner (1, 1, 1) raised to (1, 1, 2):
        # the faces on x = 1 and y = 1 stay flat and the one on z = 1 bends.
        # Without a full cell there is no volume to change, so only the rank
        # check sees it
        pc = box_complex([(0, 0, 0)], 3)
        (cube,) = pc.full_cells()
        points = tuple((1, 1, 2, 1) if p == (1, 1, 1, 1) else p for p in pc.points)
        cells = {cid: c for cid, c in pc.cells.items() if cid != cube.id}
        broken = replace(pc, cells=cells, points=points)
        vertices = cell_vertices(pc)
        (bent,) = (c.id for c in pc.cells_of_dim(2) if all(v[2] == 1 for v in vertices[c.id]))
        assert validate_complex(broken, self.CUBE) == [
            f"dimension: cell {bent} has affine rank != dim"
        ]

    def test_facet_of_three_full_cells_is_reported(self):
        # the left of two unit squares duplicated under a new id: the edge
        # they share then lies in three squares, and the copy's area overlaps
        pc = box_complex([(0, 0), (1, 0)], 2)
        left, right = pc.full_cells()
        copy = replace(left, id=max(pc.cells) + 1)
        broken = replace(pc, cells={**pc.cells, copy.id: copy})
        (shared,) = set(left.facets) & set(right.facets)
        assert validate_complex(broken, BoxDomain((0, 0), (2, 1))) == [
            f"cofaces: cell {shared} lies in 3 full cells",
            "interior-overlap: full cells exceed box volume",
        ]

    def test_facets_out_of_order_are_reported(self):
        pc = box_complex([(0, 0)], 2)
        (square,) = pc.full_cells()
        broken = _with_facets(pc, square, square.facets[::-1])
        assert validate_complex(broken, self.SQUARE) == [
            f"faces: facets of cell {square.id} are not in increasing id order"
        ]


class TestCanonicalIds:
    @pytest.mark.parametrize(
        "cubes, d", [(ring_cubes_2d(), 2), (shell_cubes_3d(), 3)], ids=["ring", "shell"]
    )
    def test_a_shuffled_complex_is_numbered_back(self, cubes, d):
        # box_complex numbers its cells canonically, so the oracle keeps its
        # ids and undoes any renumbering that keeps the 0-cells first
        pc = box_complex(cubes, d)
        assert canonical_ids(pc) == {cid: cid for cid in pc.cells}
        rng = random.Random(0)
        n = len(pc.points)
        zero, rest = list(range(n)), list(range(n, len(pc.cells)))
        rng.shuffle(zero)
        rng.shuffle(rest)
        shuffled = relabel(pc, dict(enumerate(zero + rest)))
        assert shuffled.cells != pc.cells
        assert relabel(shuffled, canonical_ids(shuffled)) == pc


class TestRegionTables:
    @pytest.mark.parametrize("corruption", ["splits", "vanishes"])
    def test_constraint_signs_are_checked(self, corruption):
        # on [0, 5/4]² the tent's vertices have denominators 1, 2 and 4.  Each
        # region in turn gains a hid in its tight sets: a new vertical line
        # through the region's vertex centroid, which has region vertices on
        # both sides, or a hyperplane of the build that is not the region's,
        # with every vertex of the region on it
        box = BoxDomain((Fraction(0),) * 2, (Fraction(5, 4),) * 2)
        b, _ = build_and_assemble(_tent(2, d=2), box)
        assert region_tables(b)[1] == []
        for r in b.regions:
            if corruption == "splits":
                points = {v: dehomogenize(b.coords[v]) for v in r.vertices}
                x = centroid(points.values())[0]
                hid = b.hids.setdefault((x.denominator, 0, -x.numerator), len(b.hids))
                on, signs = {v for v, p in points.items() if p[0] == x}, [-1, 1]
            else:
                hid = min(set(b.hids.values()) - r.tight.keys())
                on, signs = set(r.vertices), []
            kept, r.tight = r.tight, {**r.tight, hid: on}
            assert region_tables(b)[1] == [
                f"region {r.rid}: its vertices off constraint {hid} have signs {signs}"
            ]
            r.tight = kept


class TestVolumes:
    def test_tent_halves(self):
        pc = signed_complex(_tent(2, d=2), BoxDomain.unit_cube(2))
        vols = sorted(cell_volume(pc, c.id) for c in pc.full_cells())
        assert vols == [Fraction(1, 4)] * 4

    @pytest.mark.parametrize("m", [2, 4])
    def test_full_cells_tile_the_box(self, m):
        net = _scalar(build_folding_network(FoldingSpec(2, (m,))))
        box = BoxDomain.unit_cube(2)
        pc = signed_complex(net, box)
        total = sum(cell_volume(pc, c.id) for c in pc.full_cells())
        assert total == box_volume(box)

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n
            )
        )
    )
    def test_det_matches_the_leibniz_formula(self, rows):
        # small entries make zero pivots, row swaps and singular matrices common
        n = len(rows)
        leibniz = sum(
            (-1) ** sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
            * math.prod(rows[i][p[i]] for i in range(n))
            for p in permutations(range(n))
        )
        assert _det(rows) == leibniz


# linear_region_count of each instance's signed complex on the unit cube,
# recorded from the count that walked lists of each facet's full cofaces
REFERENCE_REGIONS = {"d2-M4-w3": 65, "d2-M8-w4": 321, "d3-M2-w11": 25, "d3-M4-w11": 161}
LARGE_REGIONS = {
    "d4-M2-w111": 57,
    "d4-M4-w111": 673,
    "d2-M16-w6": 1793,
    "d2-M32-w4": 5121,
    "d2-M64-w4": 20481,
}


class TestLinearRegions:
    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_tent_region_count(self, m):
        pc = signed_complex(_tent(m), BoxDomain.unit_cube(1))
        assert linear_region_count(pc) == m

    @pytest.mark.parametrize("with_offset", [True, False], ids=["offset", "no-offset"])
    @pytest.mark.parametrize("name, d, m_vec, w_vec", [i[:4] for i in REFERENCE_INSTANCES])
    def test_reference_counts_are_pinned(self, name, d, m_vec, w_vec, with_offset):
        net = build_topo_network(FoldingSpec(d, m_vec), CuttingSpec(d, w_vec), with_offset)
        sc = signed_complex(net, BoxDomain.unit_cube(d))
        assert linear_region_count(sc) == REFERENCE_REGIONS[name]

    @pytest.mark.parametrize("name", list(LARGE_REGIONS))
    def test_large_counts_are_pinned(self, name, large_complexes):
        assert large_complexes[name].regions == LARGE_REGIONS[name]

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
        pc = signed_complex(net, BoxDomain.unit_cube(2))
        assert linear_region_count(pc) == 1

    def test_output_split_leaves_one_linear_piece(self):
        # h = relu(x1 − 1/2), y = h − 1/4: the output's zero-set x1 = 3/4 cuts
        # the piece y = x1 − 3/4 in two, and y = −1/4 is negative on the left
        net = ReluNetwork(
            (
                AffineLayer(((1, 0),), (Fraction(-1, 2),)),
                AffineLayer(((1,),), (Fraction(-1, 4),)),
            )
        )
        pc = signed_complex(net, BoxDomain.unit_cube(2))
        full = pc.full_cells()
        assert len(full) == 3
        assert linear_region_count(pc) == 2
        vertices = cell_vertices(pc)
        right = [
            c for c in full if min(dehomogenize(v)[0] for v in vertices[c.id]) >= Fraction(1, 2)
        ]
        assert len(right) == 2 and right[0].affine_map == right[1].affine_map
        # including the cells where y < 0, whose rows a ReLU would zero
        _assert_maps_reproduce(net, pc)


class TestSignedAndSublevel:
    def test_labels_match_pointwise_evaluation(self):
        net = build_topo_network(FoldingSpec(2, (2,)), CuttingSpec(2, (1,)))
        sc = signed_complex(net, BoxDomain.unit_cube(2))
        vertices = cell_vertices(sc)
        for cell in sc.cells.values():
            c = centroid(map(dehomogenize, vertices[cell.id]))
            expected = sign(eval_scalar(net, c))
            label = {-1: "negative", 0: "zero", 1: "positive"}[expected]
            assert cell.sign_label == label

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
        vertices = cell_vertices(sub)
        for cell in sub.cells.values():
            for v in map(dehomogenize, vertices[cell.id]):
                assert eval_scalar(net, v) <= 0

    def test_validate_reference_instance(self):
        net = build_topo_network(FoldingSpec(2, (2,)), CuttingSpec(2, (1,)))
        box = BoxDomain.unit_cube(2)
        sc = signed_complex(net, box)
        assert validate_complex(sc, box) == []


def _abs_sum(d, k):
    """Σ_{i<k} |x_i − 1/2| in d dimensions, each term relu(x_i − ½) + relu(½ − x_i).

    It is ≥ 0 and vanishes only on a face where x_i = 1/2 for i < k, which
    each region touches from the positive side: no region is negative.
    """
    half = Fraction(1, 2)
    rows, bias = [], []
    for i in range(k):
        e = tuple(Fraction(int(j == i)) for j in range(d))
        rows += [e, tuple(-x for x in e)]
        bias += [-half, half]
    return ReluNetwork(
        (AffineLayer(tuple(rows), tuple(bias)), AffineLayer(((1,) * (2 * k),), (0,)))
    )


def _sublevel_triples(pc):
    vertices = cell_vertices(pc)
    return sorted((c.dim, vertices[c.id], c.sign_label) for c in pc.cells.values())


def _assert_sublevel_route_matches(net, box):
    """sublevel_complex against the full route; returns sublevel_complex's."""
    full = sublevel_subcomplex(signed_complex(net, box))
    sub = sublevel_complex(net, box)
    assert _sublevel_triples(sub) == _sublevel_triples(full)
    assert sub.points == full.points
    assert sub.violations == full.violations
    assert sub.constraints == full.constraints
    assert all(c.sign_label != "positive" for c in sub.cells.values())
    assert betti_numbers(sub) == betti_numbers(full)
    return sub


_SUBLEVEL_INSTANCES = [(n, d, m, w) for n, d, m, w, _ in REFERENCE_INSTANCES + LARGE_INSTANCES[:1]]
_GENERIC_CASES = [(2, 4, seed) for seed in range(10)] + [(3, 2, seed) for seed in range(10)]


class TestSublevelComplex:
    """arrangement.sublevel_complex: the sublevel walk equals the full route.

    The cells are compared by (dimension, vertex points, label), since the
    walk numbers them otherwise and may give a shared zero face another
    region's map.
    """

    @pytest.mark.parametrize("perturbed", [False, True], ids=["exact", "perturbed"])
    @pytest.mark.parametrize("name, d, m_vec, w_vec", _SUBLEVEL_INSTANCES,
                             ids=[i[0] for i in _SUBLEVEL_INSTANCES])
    def test_constructions(self, name, d, m_vec, w_vec, perturbed):
        net = build_topo_network(FoldingSpec(d, m_vec), CuttingSpec(d, w_vec))
        if perturbed:
            net = _perturbed(net, Fraction(1, 10**6), random.Random("7:0"))
        _assert_sublevel_route_matches(net, BoxDomain.unit_cube(d))

    @pytest.mark.parametrize("d, m, seed", _GENERIC_CASES,
                             ids=[f"d{d}-m{m}-{s}" for d, m, s in _GENERIC_CASES])
    def test_generic_networks(self, d, m, seed):
        _assert_sublevel_route_matches(generic_network(seed, d, m), BoxDomain.unit_cube(d))

    @pytest.mark.parametrize(
        "d, k, betti, zero_dim",
        [
            (2, 1, (1, 0), 1),  # the segment x₁ = 1/2
            (2, 2, (1, 0), 0),  # the point (1/2, 1/2)
            (3, 1, (1, 0, 0), 2),  # the square x₁ = 1/2
            (3, 3, (1, 0, 0), 0),  # the point (1/2, 1/2, 1/2)
        ],
        ids=["segment", "vertex", "square-3d", "vertex-3d"],
    )
    def test_zero_set_held_only_by_positive_regions(self, d, k, betti, zero_dim):
        # every region is positive, so the walk must fall back to walking a
        # region whole and dropping its positive cells
        sub = _assert_sublevel_route_matches(_abs_sum(d, k), BoxDomain.unit_cube(d))
        assert betti_numbers(sub).values == betti
        assert {c.sign_label for c in sub.cells.values()} == {"zero"}
        assert max(c.dim for c in sub.cells.values()) == zero_dim
        # each vertex has x_i = 1/2, homogeneously 2·x_i = w, for i < k
        points = [sub.points[c.id] for c in sub.cells_of_dim(0)]
        assert all(2 * p[i] == p[-1] for p in points for i in range(k))

    def test_all_positive_output_is_empty(self):
        sub = _assert_sublevel_route_matches(_constant(1), BoxDomain.unit_cube(2))
        assert sub.cells == {}
        assert betti_numbers(sub).values == (0, 0)

    def test_identically_zero_output_is_the_box(self):
        box = BoxDomain.unit_cube(2)
        sub = _assert_sublevel_route_matches(_constant(0), box)
        assert betti_numbers(sub).values == (1, 0)
        assert validate_complex(sub, box) == []
        assert {c.sign_label for c in sub.cells.values()} == {"zero"}

    @pytest.mark.parametrize("name", ["d2-M4-w3", "d3-M2-w11"])
    def test_makes_no_positive_cell(self, name, reference_networks, monkeypatch):
        # every Cell the walk makes is one it returns: a walk that made the
        # positive regions' cells again would make more.  Nor does it walk
        # their faces: the full walk expands more faces through _facets
        net, fold, _, _ = reference_networks[name]
        box = BoxDomain.unit_cube(fold.d)
        cells, expansions = [], []
        make, facets = arrangement._cell, arrangement._facets
        monkeypatch.setattr(arrangement, "_cell", lambda *a: cells.append(1) or make(*a))
        monkeypatch.setattr(arrangement, "_facets", lambda *a: expansions.append(1) or facets(*a))
        full = sublevel_subcomplex(signed_complex(net, box))
        full_expansions = len(expansions)
        cells.clear()
        expansions.clear()
        sub = sublevel_complex(net, box)
        assert len(cells) == len(sub.cells) == len(full.cells)
        assert len(expansions) < full_expansions

    def test_cap_counts_the_cells_the_route_makes(self, reference_networks, monkeypatch):
        # the cap bounds a cell's id, the vertices plus the cells of dim ≥ 1
        # made so far, so a cap that the sublevel walk fits under stops the
        # full walk
        net, fold, _, _ = reference_networks["d2-M4-w3"]
        box = BoxDomain.unit_cube(fold.d)
        cap = max(sublevel_complex(net, box).cells) + 1
        monkeypatch.setenv("TOPOBETTI_MAX_CELLS", str(cap))
        sublevel_complex(net, box)
        with pytest.raises(ComplexSizeError):
            signed_complex(net, box)
        monkeypatch.setenv("TOPOBETTI_MAX_CELLS", str(cap - 1))
        with pytest.raises(ComplexSizeError):
            sublevel_complex(net, box)


# sha256 of complex_digest(signed_complex(...)) for each reference instance,
# as (with offset, without offset, with offset and perturbed at δ = 10⁻⁶ by
# stability._perturbed with seed "7:0").  The first two were recorded from the
# Fraction-arithmetic build the integer kernel replaced, the third from the
# build that solved for each new vertex by Cramer's rule; so any change to
# cells, vertex order, faces, constraint signs, affine maps, labels or
# stability events shows here.
GOLDEN_DIGESTS = {
    "d2-M4-w3": (
        "b4335ef40764da72c4d75bb81fee84113c3b8f7da1cc8486388577cadbacd5cc",
        "10c299352e3c6df19903f5a837889f94268e164b860403dbc234dc78e52dcf10",
        "82c9abe80841944df4302d4fe1fcb3e9b5cb66d842360bfbadef3ac92504a08a",
    ),
    "d2-M8-w4": (
        "aefd8073d6c35e55fd7330cf39546d4da23ec619376968cb008eb8e3fe7f7647",
        "1948071440d31639c6df5494b82a5824d3455ded02cceb97e292d90bcf469684",
        "8c5f81c1c5eb78c1fe5c258dd96f1a8572c7ca0fd5b1be956dea55e8f064222a",
    ),
    "d3-M2-w11": (
        "a7eb928b733672c3f210064fa3f8ad4cf6135628b6c7b9debe281abf9c62a00c",
        "04029421327322d413892d6569f35c63d89fb1e519cb9c3fb3bd75379a6e7030",
        "19553f9eb2e0e7fe626d2f5ba7c25d2ad9882201dd5a66b703a3dad6956e02ba",
    ),
    "d3-M4-w11": (
        "125cae9603576848175d8ba16ebd7f46b852f22d0049da3aa7d68cc42396ab62",
        "f1393ab62a1817cdf3608f99b13f378c8c4ab442c2e207ee9b5a35f74189cfcc",
        "67a73fe1f1745175eec0d5c81015dd675352c643490f7d9d7f3ca1069d594037",
    ),
}


# The same digest for each of LARGE_INSTANCES, with the offset, recorded from
# the build that read ReLU signs and cell labels from vertex signs; d2-M32-w4's
# from the build that regrouped incidence sets instead of carrying each
# region's tight sets; d2-M64-w4's from the build that interned hyperplanes
# through Hyperplane.from_coefficients and sorted vertices by Fraction tuples.
# The d = 4 constructions are the only ones on which _facets needs its
# containment test; d4-M4-w111's digest was recorded from the build that
# decided facets by the rank of their points.
LARGE_DIGESTS = {
    "d4-M2-w111": "59152db29c5f6f8b44ed1bb45ae4d2581b0b16704df0b5a7918ae2c7cf669307",
    "d4-M4-w111": "b64f87af965dd22a3cfde53216adaf8c23407a25947108b5229643cc5d93a4f3",
    "d2-M16-w6": "467beac8baab242f26d0a86a277c11a92a75d7cd33465707a88da4dcadd5c534",
    "d2-M32-w4": "88db7ec797b546f3630f5e792b9272d9b27fb6ad22195f82c003c743108ce97f",
    "d2-M64-w4": "9b0a70000d1a60769dff9db3f4f6e1df8d2cac2dafbb3217d2f11819fe42ff99",
}


class TestGoldenComplex:
    @pytest.mark.parametrize("with_offset", [True, False], ids=["offset", "no-offset"])
    @pytest.mark.parametrize("name, d, m_vec, w_vec", [i[:4] for i in REFERENCE_INSTANCES])
    def test_reference_complex_is_unchanged(self, name, d, m_vec, w_vec, with_offset):
        net = build_topo_network(FoldingSpec(d, m_vec), CuttingSpec(d, w_vec), with_offset)
        b, sc = build_and_assemble(net, BoxDomain.unit_cube(d))
        tables, faults = region_tables(b)
        assert faults == []
        assert complex_digest(sc, tables) == GOLDEN_DIGESTS[name][0 if with_offset else 1]

    @pytest.mark.parametrize("name, d, m_vec, w_vec", [i[:4] for i in REFERENCE_INSTANCES])
    def test_perturbed_reference_complex_is_unchanged(self, name, d, m_vec, w_vec):
        net = build_topo_network(FoldingSpec(d, m_vec), CuttingSpec(d, w_vec))
        perturbed = _perturbed(net, Fraction(1, 10**6), random.Random("7:0"))
        b, sc = build_and_assemble(perturbed, BoxDomain.unit_cube(d))
        tables, faults = region_tables(b)
        assert faults == []
        assert complex_digest(sc, tables) == GOLDEN_DIGESTS[name][2]

    @pytest.mark.parametrize("name, d, m_vec, w_vec", [i[:4] for i in LARGE_INSTANCES])
    def test_large_complex_is_unchanged(self, name, d, m_vec, w_vec, large_complexes):
        assert large_complexes[name].digest == LARGE_DIGESTS[name]
