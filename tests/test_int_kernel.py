"""Properties of the integer arrangement kernel on random small networks.

The arrangement builds on homogeneous integer vertices with hyperplane
incidence sets; everything here is checked against Fraction arithmetic that
shares no code with it (Hyperplane.eval_at, validate_complex, a Gaussian
elimination and a forward pass written out below).
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import network_and_box, networks, weights
from topobetti.arrangement import signed_complex, validate_complex
from topobetti.constructions import CuttingSpec, FoldingSpec, build_topo_network
from topobetti.exactgeom import BoxDomain, Hyperplane, dehomogenize, intersect_hyperplanes
from topobetti.relunet import AffineLayer, ReluNetwork, eval_network
from topobetti.stability import _perturbed


def _fraction_forward(net, x):
    v = [Fraction(c) for c in x]
    for k, layer in enumerate(net.layers):
        v = [sum(w * t for w, t in zip(row, v)) + b for row, b in zip(layer.weights, layer.bias)]
        if k != len(net.layers) - 1:
            v = [max(t, Fraction(0)) for t in v]
    return tuple(v)


def _fraction_solve(normals, offsets):
    """Gaussian elimination over Fraction: the point where every normal·x + offset = 0."""
    n = len(normals)
    a = [[Fraction(v) for v in row] + [Fraction(-b)] for row, b in zip(normals, offsets)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        a[col] = [v / a[col][col] for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return tuple(a[r][n] for r in range(n))


def _check_kernel_invariants(net, box):
    sc = signed_complex(net, box)
    assert validate_complex(sc) == []
    for cell in sc.full_cells():
        for v in cell.vertices:
            assert cell.evaluate(v) == eval_network(net, v)
    for cell in sc.cells.values():
        for hid, s in cell.active_constraints:
            h = sc.constraints[hid]
            assert (s == 0) == all(h.eval_at(v) == 0 for v in cell.vertices)


class TestRandomNetworks:
    @given(network_and_box())
    @settings(max_examples=30, deadline=None)
    def test_complex_is_valid_and_exact(self, case):
        _check_kernel_invariants(*case)

    @given(network_and_box(dims=(4,), max_width=2, max_hidden=1))
    @settings(max_examples=6, deadline=None)
    def test_four_dimensional_complex_is_valid_and_exact(self, case):
        # in d = 4 a facet of a 4-cell can have 3 vertices and still not be
        # 3-dimensional, so the builder's rank test is exercised here
        _check_kernel_invariants(*case)

    def test_constraint_touching_a_square_face_is_pruned(self):
        # after the split at x1 = 0, the second neuron's plane 5·x1 − x2 − 1 = 0
        # leaves x1 ≥ 0 tight on only the square {x1 = 0, x2 = −1} of its
        # positive side: four vertices, yet no facet in d = 4
        one, zero = Fraction(1), Fraction(0)
        net = ReluNetwork(
            (
                AffineLayer(
                    ((one, zero, zero, zero), (Fraction(5), -one, zero, zero)), (zero, -one)
                ),
                AffineLayer(((one, one),), (-one,)),
            )
        )
        _check_kernel_invariants(net, BoxDomain((-one,) * 4, (one,) * 4))

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


class TestIntegerSolver:
    @given(st.data(), st.sampled_from((2, 3, 4)), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_matches_fraction_reference(self, data, d, dependent):
        ints = st.integers(-20, 20)
        normals = [[data.draw(ints) for _ in range(d)] for _ in range(d)]
        offsets = [data.draw(ints) for _ in range(d)]
        if dependent:
            # the last row is an integer combination of the others
            coeffs = [data.draw(st.integers(-3, 3)) for _ in range(d - 1)]
            normals[-1] = [sum(c * row[j] for c, row in zip(coeffs, normals)) for j in range(d)]
        if any(not any(row) for row in normals):
            return
        planes = [Hyperplane.from_coefficients(n, b)[0] for n, b in zip(normals, offsets)]
        expected = _fraction_solve(normals, offsets)
        got = intersect_hyperplanes(planes)
        assert (None if got is None else dehomogenize(got)) == expected
        if dependent:
            assert got is None
