import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from topobetti.constructions import build_folding_layer
from topobetti.relunet import (
    AffineLayer,
    ReluNetwork,
    compose,
    eval_network,
    eval_scalar,
    load_network,
    network_fingerprint,
    network_from_json,
    network_to_json,
    save_network,
)

rationals = st.fractions(
    min_value=Fraction(-10), max_value=Fraction(10), max_denominator=32
)


def _tent(m):
    """The m-fold tent map on one coordinate."""
    return build_folding_layer(m, 1)


class TestLayersAndNetworks:
    def test_architecture(self):
        net = _tent(2)
        assert net.architecture == (1, 2, 1)
        assert net.input_dim == 1 and net.output_dim == 1

    def test_layer_shape_validation(self):
        with pytest.raises(ValueError):
            AffineLayer(((Fraction(1), Fraction(2)), (Fraction(3),)), (Fraction(0),) * 2)
        with pytest.raises(ValueError, match="weights row count must equal bias length"):
            AffineLayer(((Fraction(1),),), (Fraction(0),) * 2)
        with pytest.raises(ValueError, match="empty layer"):
            AffineLayer((), ())
        with pytest.raises(ValueError, match="layer has no inputs"):
            AffineLayer(((),), (Fraction(0),))
        with pytest.raises(ValueError):
            ReluNetwork(
                (
                    AffineLayer(((Fraction(1),),), (Fraction(0),)),
                    AffineLayer(((Fraction(1), Fraction(1)),), (Fraction(0),)),
                )
            )

    @pytest.mark.parametrize(
        "weights, bias",
        [(((1.0, Fraction(1, 10)),), (0,)), (((1, 0.1),), (0,)), (((1, 2),), (0.5,))],
        ids=["weight-one", "weight-tenth", "bias"],
    )
    def test_float_entries_are_rejected(self, weights, bias):
        # 0.1 would otherwise be analysed as 3602879701896397/36028797018963968
        with pytest.raises(ValueError, match="int or Fraction, got"):
            AffineLayer(weights, bias)


class TestEvaluation:
    def test_two_fold_tent_values(self):
        net = _tent(2)
        assert eval_scalar(net, (Fraction(1, 2),)) == 1
        assert eval_scalar(net, (Fraction(0),)) == 0
        assert eval_scalar(net, (Fraction(1),)) == 0
        assert eval_scalar(net, (Fraction(1, 4),)) == Fraction(1, 2)

    def test_four_fold_tent_values(self):
        net = _tent(4)
        assert eval_scalar(net, (Fraction(3, 8),)) == Fraction(1, 2)
        assert eval_scalar(net, (Fraction(1, 8),)) == Fraction(1, 2)
        assert eval_scalar(net, (Fraction(1, 4),)) == 1
        assert eval_scalar(net, (Fraction(1, 2),)) == 0

    @given(rationals)
    def test_tent_is_piecewise_linear_hat(self, x):
        net = _tent(2)
        x = abs(x) % 1
        expected = 2 * x if x <= Fraction(1, 2) else 2 - 2 * x
        assert eval_scalar(net, (x,)) == expected

    @given(rationals, st.fractions(min_value=0, max_value=5, max_denominator=8))
    def test_positive_homogeneity_without_biases(self, x, scale):
        net = ReluNetwork(
            (
                AffineLayer(((Fraction(2),), (Fraction(-1),)), (Fraction(0),) * 2),
                AffineLayer(((Fraction(1), Fraction(3)),), (Fraction(0),)),
            )
        )
        assert eval_scalar(net, (scale * x,)) == scale * eval_scalar(net, (x,))

    def test_wrong_input_dimension_rejected(self):
        with pytest.raises(ValueError):
            eval_network(_tent(2), (Fraction(0), Fraction(0)))

    def test_eval_scalar_rejects_a_vector_output(self):
        with pytest.raises(ValueError, match="network output is not scalar"):
            eval_scalar(build_folding_layer(2, 2), (Fraction(0), Fraction(0)))

    @pytest.mark.parametrize("x", [(0.1, 0.2), ("1", "2")], ids=["float", "str"])
    def test_non_exact_input_is_rejected(self, x):
        # on x1 + x2 − 3/10, (0.1, 0.2) used to give 3/180143985094819840,
        # not 0, and ("1", "2") to give 27/10
        net = ReluNetwork((AffineLayer(((1, 1),), (Fraction(-3, 10),)),))
        with pytest.raises(ValueError, match="int or Fraction, got"):
            eval_scalar(net, x)


class TestCompose:
    def test_fuses_affine_boundary(self):
        outer, inner = _tent(2), _tent(2)
        net = compose(outer, inner)
        # the inner output and outer hidden layers fuse into one affine map
        assert net.architecture == (1, 2, 2, 1)

    @given(rationals)
    def test_composition_evaluates_pointwise(self, x):
        outer, inner = _tent(2), _tent(4)
        net = compose(outer, inner)
        assert eval_network(net, (x,)) == eval_network(outer, eval_network(inner, (x,)))

    @given(rationals)
    def test_composition_associative(self, x):
        a, b, c = _tent(2), _tent(4), _tent(2)
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert eval_network(left, (x,)) == eval_network(right, (x,))

    def test_dimension_mismatch_rejected(self):
        two_dim = build_folding_layer(2, 2)
        with pytest.raises(ValueError):
            compose(_tent(2), two_dim)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        net = compose(_tent(2), _tent(4))
        path = tmp_path / "net.json"
        save_network(net, str(path))
        assert load_network(str(path)) == net

    def test_json_uses_canonical_rationals(self):
        net = _tent(4)
        obj = network_to_json(net)
        text = json.dumps(obj)
        assert "2/4" not in text and "1/1" not in text
        assert network_from_json(obj) == net

    def test_non_canonical_rational_rejected(self):
        obj = network_to_json(_tent(2))
        obj["layers"][0]["weights"][0][0] = "2/4"
        with pytest.raises(ValueError):
            network_from_json(obj)

    def test_trailing_newline_rejected(self):
        obj = network_to_json(_tent(2))
        obj["layers"][0]["weights"][0][0] = "1/2\n"
        with pytest.raises(ValueError, match="non-canonical"):
            network_from_json(obj)

    def test_non_string_rational_rejected(self):
        obj = network_to_json(_tent(2))
        obj["layers"][0]["bias"][0] = 1
        with pytest.raises(ValueError, match="^malformed layer 0: rational must be a string, got 1$"):
            network_from_json(obj)

    @pytest.mark.parametrize(
        "weights, bias",
        [(["12"], ["3"]), ("12", ["3", "4"]), ([["1", "2"]], "3"), ([["1"]], {"1": 0})],
        ids=["string-row", "string-weights", "string-bias", "object-bias"],
    )
    def test_non_list_entries_rejected(self, weights, bias):
        # iterated, a string gives its characters and an object its keys,
        # which parse as rationals of a wrongly shaped layer
        obj = {"layers": [{"weights": weights, "bias": bias}]}
        with pytest.raises(ValueError, match="^malformed layer 0: (weights|bias) must be a list"):
            network_from_json(obj)

    def test_architecture_mismatch_rejected(self):
        obj = network_to_json(_tent(2))
        obj["architecture"] = [1, 3, 1]
        with pytest.raises(ValueError):
            network_from_json(obj)

    def test_fingerprint_distinguishes_and_repeats(self):
        a, b = _tent(2), _tent(4)
        assert network_fingerprint(a) == network_fingerprint(a)
        assert network_fingerprint(a) != network_fingerprint(b)
