import math
import random
from dataclasses import replace
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LARGE_INSTANCES, REFERENCE_INSTANCES
from helpers import (
    box_complex,
    build_and_assemble,
    complex_digest,
    network_and_box,
    reference_assemble,
)
from oracles import (
    _det,
    box_volume,
    cell_volume,
    centroid,
    dehomogenize,
    region_tables,
    validate_complex,
)
from topobetti import arrangement
from topobetti.arrangement import (
    ComplexSizeError,
    linear_region_count,
    signed_complex,
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
    for cell in pc.full_cells():
        cols, (const,), den = cell.affine_map
        for v in map(dehomogenize, cell.vertices):
            assert (sum(g * x for (g,), x in zip(cols, v)) + const) / den == eval_scalar(net, v)


def _dims(pc):
    counts = {}
    for c in pc.cells.values():
        counts[c.dim] = counts.get(c.dim, 0) + 1
    return counts


class TestCanonicalComplex:
    def test_tent_on_interval(self):
        pc = signed_complex(_tent(2), BoxDomain.unit_cube(1))
        assert _dims(pc) == {0: 3, 1: 2}
        assert validate_complex(pc) == []

    def test_tent_on_square(self):
        pc = signed_complex(_tent(2, d=2), BoxDomain.unit_cube(2))
        assert _dims(pc) == {0: 9, 1: 12, 2: 4}
        assert validate_complex(pc) == []

    def test_affine_maps_reproduce_the_network(self):
        net = _tent(4, d=2)
        _assert_maps_reproduce(net, signed_complex(net, BoxDomain.unit_cube(2)))

    def test_deterministic(self):
        net = build_topo_network(FoldingSpec(2, (2,)), CuttingSpec(2, (1,)))
        a = signed_complex(net, BoxDomain.unit_cube(2))
        b = signed_complex(net, BoxDomain.unit_cube(2))
        assert {cid: c.vertices for cid, c in a.cells.items()} == {
            cid: c.vertices for cid, c in b.cells.items()
        }
        assert {cid: c.facets for cid, c in a.cells.items()} == {
            cid: c.facets for cid, c in b.cells.items()
        }

    def test_constant_network_single_region(self):
        pc = signed_complex(_constant(1), BoxDomain.unit_cube(2))
        assert len(pc.full_cells()) == 1
        assert validate_complex(pc) == []

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
            assert len(signed_complex(net, BoxDomain.unit_cube(1)).cells) == 9

    def test_non_scalar_output_rejected(self):
        with pytest.raises(ValueError):
            signed_complex(build_folding_layer(2, 2), BoxDomain.unit_cube(2))

    def test_bad_cap_rejected(self, monkeypatch):
        monkeypatch.setenv("TOPOBETTI_MAX_CELLS", "zero")
        with pytest.raises(ValueError):
            signed_complex(_tent(2), BoxDomain.unit_cube(1))


class TestNewVertices:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_corner_cut_off_the_cube(self, d):
        # x_1 + … + x_d = 1/2 is negative only at the origin, but crosses just
        # the d edges from it: the diagonals to the other corners are no edges
        half = Fraction(1, 2)
        net = ReluNetwork((AffineLayer(((Fraction(1),) * d,), (-half,)),))
        sc = signed_complex(net, BoxDomain.unit_cube(d))
        points = {v for c in sc.cells.values() for v in c.vertices}
        assert points == {c.vertices[0] for c in sc.cells_of_dim(0)}
        new = points - set(map(homogenize, BoxDomain.unit_cube(d).corners()))
        assert sorted(map(dehomogenize, new)) == sorted(
            tuple(half if j == i else 0 for j in range(d)) for i in range(d)
        )
        assert validate_complex(sc) == []


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
        assert sorted(c.vertices for c in sc.cells.values() if c.sign_label == "zero") == sorted(
            tuple((*p, 1) for p in cell) for cell in zero_cells
        )
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
        left, right = sorted(sc.full_cells(), key=lambda c: c.vertices)
        assert (left.sign_label, right.sign_label) == ("negative", "positive")
        zero = [c.vertices for c in sc.cells.values() if c.sign_label == "zero"]
        assert sorted(zero) == [((1, 0, 2),), ((1, 0, 2), (1, 2, 2)), ((1, 2, 2),)]
        assert linear_region_count(sc) == 1
        assert betti_numbers(sublevel_subcomplex(sc)).values == (1, 0)
        # h₂'s hyperplane is the same line, but it only bounds the regions
        assert [(nid, reason) for nid, _, reason in sc.violations] == [
            (NeuronId(2, 1), "vertex-on-hyperplane")
        ] * 2
        assert digest == expected

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
        for c in sc.cells.values():
            x = owners[id(c.affine_map)]
            assert c.affine_map is b.regions[x].affine
            assert x == min(set.intersection(*map(holders.__getitem__, c.vertices)))

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_a_facet_reached_twice_is_listed_once(self, d):
        # 2x₁ + x₂ − x₄ = 0 holds edges of [−1, 1]^d along x₃, so the walk
        # reaches some facets through two hids: _facets must keep both equal
        # sets, and for d ≥ 5 it must drop the lower faces below the facets
        row = (2, 1, 0, -1) + (0,) * (d - 4)
        net = ReluNetwork((AffineLayer((row,), (0,)), AffineLayer(((1,),), (Fraction(-1, 4),))))
        sc, _, digest, expected = self._both(net, BoxDomain((-1,) * d, (1,) * d))
        assert validate_complex(sc) == []
        assert digest == expected


def _with_facets(pc, cell, facets):
    """pc with this cell's facets replaced."""
    return replace(pc, cells={**pc.cells, cell.id: replace(cell, facets=facets)})


class TestValidateComplex:
    def test_extra_vertex_is_reported(self):
        # (1/2, 0) keeps the square's rank, facets and volume, so only the
        # vertex-list check sees it
        pc = box_complex([(0, 0)], 2)
        assert validate_complex(pc) == []
        (square,) = pc.full_cells()
        extra = replace(square, vertices=square.vertices + ((1, 0, 2),))
        broken = replace(pc, cells={**pc.cells, square.id: extra})
        assert validate_complex(broken) == [
            f"vertices: cell {square.id} does not list exactly the 0-cells below it"
        ]

    @pytest.mark.parametrize(
        "point", [(-1, -1, -1), (2, 2, 2), (1, 1, 0)], ids=["negative-w", "not-reduced", "zero-w"]
    )
    def test_vertex_not_in_homogeneous_form_is_reported(self, point):
        # the corner (1, 1) written otherwise keeps every rank, so only the
        # form check sees it, and the volume, which would divide by w = 0 or
        # take the wrong sign, is not summed
        pc = box_complex([(0, 0)], 2)
        moved = {(1, 1, 1): point}
        cells = {
            cid: replace(c, vertices=tuple(moved.get(v, v) for v in c.vertices))
            for cid, c in pc.cells.items()
        }
        assert validate_complex(replace(pc, cells=cells)) == [
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
        assert validate_complex(broken) == [
            f"incidence: unknown cell in pair ({unknown},{square.id})"
        ]

    def test_facet_of_the_wrong_dimension_is_reported(self):
        # the square's corner replaces one of the two edges through it: the
        # other edges still hold every corner, and the volume, coned from
        # that corner, is unchanged, so only the dimension check sees it
        pc = box_complex([(0, 0)], 2)
        (square,) = pc.full_cells()
        corner = square.vertices[0]
        (vertex,) = (c.id for c in pc.cells_of_dim(0) if c.vertices == (corner,))
        edge = next(f for f in square.facets if corner in pc.cells[f].vertices)
        broken = _with_facets(pc, square, tuple(sorted({*square.facets} - {edge} | {vertex})))
        assert validate_complex(broken) == [
            f"incidence: dim mismatch in pair ({vertex},{square.id})"
        ]

    def test_cell_of_the_wrong_rank_is_reported(self):
        # the cube's boundary with its corner (1, 1, 1) raised to (1, 1, 2):
        # the faces on x = 1 and y = 1 stay flat and the one on z = 1 bends.
        # Without a full cell there is no volume to change, so only the rank
        # check sees it
        pc = box_complex([(0, 0, 0)], 3)
        (cube,) = pc.full_cells()
        moved = {(1, 1, 1, 1): (1, 1, 2, 1)}
        cells = {
            cid: replace(c, vertices=tuple(moved.get(v, v) for v in c.vertices))
            for cid, c in pc.cells.items()
            if cid != cube.id
        }
        broken = replace(pc, cells=cells)
        (bent,) = (
            c.id for c in pc.cells_of_dim(2) if all(v[2] == 1 for v in c.vertices)
        )
        assert validate_complex(broken) == [f"dimension: cell {bent} has affine rank != dim"]

    def test_facets_out_of_order_are_reported(self):
        pc = box_complex([(0, 0)], 2)
        (square,) = pc.full_cells()
        broken = _with_facets(pc, square, square.facets[::-1])
        assert validate_complex(broken) == [
            f"faces: facets of cell {square.id} are not in increasing id order"
        ]


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
        pc = signed_complex(net, BoxDomain.unit_cube(2))
        total = sum(cell_volume(pc, c.id) for c in pc.full_cells())
        assert total == box_volume(pc.box)

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


class TestLinearRegions:
    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_tent_region_count(self, m):
        pc = signed_complex(_tent(m), BoxDomain.unit_cube(1))
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
        right = [c for c in full if min(dehomogenize(v)[0] for v in c.vertices) >= Fraction(1, 2)]
        assert len(right) == 2 and right[0].affine_map == right[1].affine_map
        # including the cells where y < 0, whose rows a ReLU would zero
        _assert_maps_reproduce(net, pc)


class TestSignedAndSublevel:
    def test_labels_match_pointwise_evaluation(self):
        net = build_topo_network(FoldingSpec(2, (2,)), CuttingSpec(2, (1,)))
        sc = signed_complex(net, BoxDomain.unit_cube(2))
        for cell in sc.cells.values():
            c = centroid(map(dehomogenize, cell.vertices))
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
        for cell in sub.cells.values():
            for v in map(dehomogenize, cell.vertices):
                assert eval_scalar(net, v) <= 0

    def test_validate_reference_instance(self):
        net = build_topo_network(FoldingSpec(2, (2,)), CuttingSpec(2, (1,)))
        sc = signed_complex(net, BoxDomain.unit_cube(2))
        assert validate_complex(sc) == []


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
