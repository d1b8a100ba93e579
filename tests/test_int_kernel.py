"""Properties of the integer arrangement kernel on random small networks.

The arrangement builds on homogeneous integer vertices and each region's
tight sets (hyperplane id → its vertices on it), and its complex hands out
those points and the hyperplanes' integer rows; everything here is checked
against code that reads only those and shares no code with the build (each
constraint evaluated at each vertex as a Fraction point, region_tables,
which reads constraint signs off the regions' homogeneous vertices,
validate_complex, which checks ranks on them, the network evaluated at each
cell's Fraction centroid, and a forward pass written out below).
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import REFERENCE_INSTANCES
from helpers import build_and_assemble, network_and_box, networks, weights
from oracles import (
    active_constraints,
    cell_vertices,
    centroid,
    dehomogenize,
    matrix_rank,
    region_tables,
    validate_complex,
)
from topobetti.arrangement import _Builder, _primitive
from topobetti.constructions import CuttingSpec, FoldingSpec, build_topo_network
from topobetti.exactgeom import BoxDomain, sign, vdot
from topobetti.relunet import AffineLayer, ReluNetwork, eval_network, eval_scalar
from topobetti.stability import _perturbed


def _fraction_forward(net, x):
    v = [Fraction(c) for c in x]
    for k, layer in enumerate(net.layers):
        v = [sum(w * t for w, t in zip(row, v)) + b for row, b in zip(layer.weights, layer.bias)]
        if k != len(net.layers) - 1:
            v = [max(t, Fraction(0)) for t in v]
    return tuple(v)


def _check_kernel_invariants(net, box):
    b, sc = build_and_assemble(net, box)
    assert validate_complex(sc, box) == []
    tables, faults = region_tables(b)
    assert faults == []
    vertices = cell_vertices(sc)
    for cell in sc.full_cells():
        # the map is reduced, so equal maps are equal tuples
        cols, (const,), den = cell.affine_map
        assert den > 0 and math.gcd(den, const, *(g for (g,) in cols)) == 1
        for v in map(dehomogenize, vertices[cell.id]):
            assert (sum(g * x for (g,), x in zip(cols, v)) + const) / den == eval_scalar(net, v)
    labels = {-1: "negative", 0: "zero", 1: "positive"}
    for cell in sc.cells.values():
        points = [dehomogenize(v) for v in vertices[cell.id]]
        # the owner's table rebuilt from its vertices, and the signs the
        # oracle rebuilds from it, against each constraint evaluated at each
        # Fraction point
        tight = dict(active_constraints(sc, cell, vertices[cell.id], tables))
        for hid, s in tables[id(cell.affine_map)]:
            *normal, offset = sc.constraints[hid]
            values = [vdot(normal, v) + offset for v in points]
            assert s in (-1, 1) and all(s * value >= 0 for value in values)
            assert (tight[hid] == 0) == all(value == 0 for value in values)
        # the builder reads labels from vertex signs, which is exact only if
        # the output has one sign on every cell
        assert cell.sign_label == labels[sign(eval_scalar(net, centroid(points)))]


def _check_carried_tight_sets(net, box):
    # the tight sets each region carries out of the splits, against the
    # region's vertices whose hyperplane row vanishes at their homogeneous
    # point, and each one against the rank of its points: every kept
    # constraint is a facet, whose homogeneous points have rank d (affine
    # rank d − 1)
    b, _ = build_and_assemble(net, box)
    rows = list(b.hids)  # by hid
    for r in b.regions:
        on = {
            hid: {v for v in r.vertices if vdot(rows[hid], b.coords[v]) == 0} for hid in r.tight
        }
        assert r.tight == on
        for group in r.tight.values():
            assert matrix_rank([b.coords[v] for v in group]) == box.dimension


def _square_face_case():
    # after the split at x1 = 0, the second neuron's plane 5·x1 − x2 − 1 = 0
    # leaves x1 ≥ 0 tight on only the square {x1 = 0, x2 = −1} of its
    # positive side: four vertices, yet no facet in d = 4.  Its vertex count
    # passes, so the builder drops it only because the side's sets on
    # x2 = −1 and on the new plane strictly contain it
    one, zero = Fraction(1), Fraction(0)
    net = ReluNetwork(
        (
            AffineLayer(((one, zero, zero, zero), (Fraction(5), -one, zero, zero)), (zero, -one)),
            AffineLayer(((one, one),), (-one,)),
        )
    )
    return net, BoxDomain((-one,) * 4, (one,) * 4)


class TestRandomNetworks:
    @given(network_and_box())
    @settings(max_examples=30, deadline=None)
    def test_complex_is_valid_and_exact(self, case):
        _check_kernel_invariants(*case)

    @given(network_and_box(dims=(4,), max_width=2, max_hidden=1))
    @settings(max_examples=6, deadline=None)
    def test_four_dimensional_complex_is_valid_and_exact(self, case):
        # in d = 4 a set of 4 or more vertices on a constraint can still be a
        # square, so the builder's containment test is exercised here
        _check_kernel_invariants(*case)

    def test_constraint_touching_a_square_face_is_pruned(self):
        net, box = _square_face_case()
        _check_kernel_invariants(net, box)
        b, sc = build_and_assemble(net, box)
        tables, faults = region_tables(b)
        assert faults == []
        hid = b.hids[(1, 0, 0, 0, 0)]  # x1 = 0

        def on_square(points):
            # x1 = 0 meets these points only in the square: 4 of them, whose
            # homogeneous rank 3 is affine rank 2
            on = [p for p in points if p[0] == 0]
            return len(on) == 4 and matrix_rank(on) == 3

        regions = [r for r in b.regions if on_square([b.coords[v] for v in r.vertices])]
        vertices = cell_vertices(sc)
        cells = [c for c in sc.full_cells() if on_square(vertices[c.id])]
        assert regions and cells
        # such a region keeps no tight set on x1 = 0, and such a cell no
        # nonzero sign
        assert all(hid not in r.tight for r in regions)
        assert all(
            s == 0
            for c in cells
            for k, s in active_constraints(sc, c, vertices[c.id], tables)
            if k == hid
        )

    @given(network_and_box())
    @settings(max_examples=30, deadline=None)
    def test_regions_carry_their_tight_sets(self, case):
        _check_carried_tight_sets(*case)

    def test_carried_tight_sets_drop_a_square_face(self):
        _check_carried_tight_sets(*_square_face_case())

    @pytest.mark.parametrize("perturbed", [False, True], ids=["exact", "perturbed"])
    @pytest.mark.parametrize("name", [i[0] for i in REFERENCE_INSTANCES])
    def test_reference_regions_carry_their_tight_sets(self, name, perturbed, reference_networks):
        net, fold, _, _ = reference_networks[name]
        if perturbed:
            net = _perturbed(net, Fraction(1, 10**6), random.Random("7:0"))
        _check_carried_tight_sets(net, BoxDomain.unit_cube(fold.d))

    @given(networks(), st.lists(weights, min_size=3, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_forward_pass_matches_fraction_reference(self, net, point):
        x = point[: net.input_dim]
        assert eval_network(net, x) == _fraction_forward(net, x)

    def test_perturbed_network_with_large_denominators(self):
        # the perturbation harness's inputs: every weight moved by up to 10^-6
        net = build_topo_network(FoldingSpec(2, (4,)), CuttingSpec(2, (3,)))
        perturbed = _perturbed(net, Fraction(1, 10**6), random.Random("7:0"))
        assert max(v.denominator for v in perturbed.layers[0].bias) > 10**6
        _check_kernel_invariants(perturbed, BoxDomain.unit_cube(2))


class TestIntegerPathsMatchDefinitions:
    """The builder's hyperplane normalizer and its layer tables' oriented rows."""

    @given(
        st.lists(st.integers(-6, 6), min_size=1, max_size=4).filter(any),
        st.one_of(st.just(0), st.integers(-6, 6)),
        st.one_of(st.just(1), st.integers(2, 10**6)),
    )
    @example([0, -4, 6], 0, 1)  # negative leading entry after a zero, zero offset
    @example([-3, 6, 9], 12, 1)  # negative leading entry, content 3
    @example([2, 4], 0, 7)  # zero offset, content 14
    def test_primitive_matches_its_definition(self, grad, const, scale):
        # scale makes the row non-primitive
        grad, const = tuple(scale * g for g in grad), scale * const
        row, orient = _primitive(grad, const)
        assert math.gcd(*row) == 1
        assert next(x for x in row[:-1] if x) > 0
        g = math.gcd(*grad, const)
        assert tuple(orient * g * x for x in row) == (*grad, const)

    @given(network_and_box(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_oriented_rows_give_the_functionals_signs(self, case, data):
        # each layer table's (grad, const, hrow, orow): orow is the interning
        # row hrow or its negation, and its sign at a homogeneous point
        # (x, w), w > 0, is the functional's, at random points and at the
        # build's vertices, many of which lie on the hyperplanes
        tables = []

        class Recording(_Builder):
            def _restrict_layer(self, weights, bias):
                super()._restrict_layer(weights, bias)
                tables.extend({id(r.table): r.table for r in self.regions}.values())

        net, box = case
        b = Recording(net, box)
        b.run()
        d = box.dimension
        coords = st.lists(st.integers(-50, 50), min_size=d, max_size=d)
        points = data.draw(st.lists(st.tuples(coords, st.integers(1, 50)), max_size=8))
        points = [(*x, w) for x, w in points] + b.coords
        for grad, const, hrow, orow in itertools.chain.from_iterable(tables):
            if hrow is None:
                assert orow is None and not any(grad)
                continue
            assert orow in (hrow, tuple(-x for x in hrow))
            for *x, w in points:
                assert sign(vdot(orow, (*x, w))) == sign(vdot(grad, x) + const * w)


class TestReducedMaps:
    """Each region's map after every layer's composition, not only the final cells'."""

    @pytest.mark.parametrize("perturbed", [False, True], ids=["exact", "perturbed"])
    @pytest.mark.parametrize("name", [i[0] for i in REFERENCE_INSTANCES])
    def test_every_composition_leaves_reduced_maps(self, name, perturbed, reference_networks):
        # the composition divides by the gcd only when it is not 1, which
        # must still leave den > 0 and gcd 1; and every region keeps a map
        # object of its own, which oracles.region_tables finds owners by
        layers = []

        class Checked(_Builder):
            def _compose(self, layer_den, relu):
                super()._compose(layer_den, relu)
                for r in self.regions:
                    cols, consts, den = r.affine
                    assert den > 0
                    assert math.gcd(den, *consts, *itertools.chain.from_iterable(cols)) == 1
                assert len({id(r.affine) for r in self.regions}) == len(self.regions)
                layers.append(relu)

        net, fold, _, _ = reference_networks[name]
        if perturbed:
            net = _perturbed(net, Fraction(1, 10**6), random.Random("7:0"))
        Checked(net, BoxDomain.unit_cube(fold.d)).run()
        assert layers == [True] * (len(net.layers) - 1) + [False]
