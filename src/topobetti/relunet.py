"""Exact ReLU network data model.

A network is a list of affine layers with componentwise max(0, ·) between
consecutive layers and no activation after the last one.  All parameters are
rationals; evaluation, composition and serialization are exact.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Sequence

from .exactgeom import format_rational, homogenize, parse_rational, vdot


@dataclass(frozen=True)
class AffineLayer:
    """x ↦ weights·x + bias with exact rational entries."""

    weights: tuple  # out_dim rows of in_dim rationals
    bias: tuple  # out_dim rationals

    def __post_init__(self):
        if len(self.weights) != len(self.bias):
            raise ValueError("weights row count must equal bias length")
        if len(self.weights) == 0:
            raise ValueError("empty layer")
        widths = {len(r) for r in self.weights}
        if len(widths) != 1:
            raise ValueError("ragged weight matrix")
        if widths == {0}:
            raise ValueError("layer has no inputs")
        for v in itertools.chain(*self.weights, self.bias):
            if not isinstance(v, (int, Fraction)):
                raise ValueError(f"layer entries must be int or Fraction, got {v!r}")

    @property
    def out_dim(self) -> int:
        return len(self.weights)

    @property
    def in_dim(self) -> int:
        return len(self.weights[0])

    @cached_property
    def scaled(self) -> tuple:
        """The layer over one common denominator: (int weights, int bias, den).

        weights·x + bias == (int weights·x + int bias) / den, with den > 0.
        """
        den = math.lcm(*(v.denominator for v in itertools.chain(*self.weights, self.bias)))
        return (
            tuple(tuple(int(v * den) for v in row) for row in self.weights),
            tuple(int(v * den) for v in self.bias),
            den,
        )


@dataclass(frozen=True)
class ReluNetwork:
    layers: tuple

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.out_dim != b.in_dim:
                raise ValueError(
                    f"layer dimensions do not chain: {a.out_dim} -> {b.in_dim}"
                )

    @property
    def architecture(self) -> tuple:
        return (self.layers[0].in_dim,) + tuple(l.out_dim for l in self.layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim


@dataclass(frozen=True)
class NeuronId:
    """Neuron (layer, index), both 1-based; layer L+1 is the output layer."""

    layer: int
    index: int


def eval_network(net: ReluNetwork, x: Sequence) -> tuple:
    """Exact forward pass; returns the output vector (no final activation).

    The input is scaled to integers over one common denominator and every
    layer runs on integers (see AffineLayer.scaled); the output is converted
    to Fraction once at the end.
    """
    if len(x) != net.input_dim:
        raise ValueError("input dimension does not match the network")
    for c in x:
        if not isinstance(c, (int, Fraction)):
            raise ValueError(f"input coordinates must be int or Fraction, got {c!r}")
    *v, den = homogenize(x)
    last = len(net.layers) - 1
    for k, layer in enumerate(net.layers):
        weights, bias, layer_den = layer.scaled
        v = [sum(map(mul, row, v)) + b * den for row, b in zip(weights, bias)]
        den *= layer_den
        if k != last:
            v = [t if t > 0 else 0 for t in v]
    return tuple(Fraction(t, den) for t in v)


def eval_scalar(net: ReluNetwork, x: Sequence) -> Fraction:
    out = eval_network(net, x)
    if len(out) != 1:
        raise ValueError("network output is not scalar")
    return out[0]


def compose(outer: ReluNetwork, inner: ReluNetwork) -> ReluNetwork:
    """Network computing outer(inner(x)).

    Inner's final affine layer is fused with outer's first affine layer (matrix
    product plus bias propagation), so the composite exposes one flat list of
    neurons in evaluation order.
    """
    last = inner.layers[-1]
    first = outer.layers[0]
    if last.out_dim != first.in_dim:
        raise ValueError("inner output dimension does not match outer input")
    fused_w = tuple(
        tuple(vdot(frow, col) for col in zip(*last.weights))
        for frow in first.weights
    )
    fused_b = tuple(vdot(frow, last.bias) + fb for frow, fb in zip(first.weights, first.bias))
    fused = AffineLayer(fused_w, fused_b)
    return ReluNetwork(inner.layers[:-1] + (fused,) + outer.layers[1:])


def network_to_json(net: ReluNetwork) -> dict:
    return {
        "architecture": list(net.architecture),
        "layers": [
            {
                "weights": [[format_rational(v) for v in row] for row in l.weights],
                "bias": [format_rational(v) for v in l.bias],
            }
            for l in net.layers
        ],
    }


def network_from_json(obj: dict) -> ReluNetwork:
    if not isinstance(obj, dict) or not isinstance(obj.get("layers"), list):
        raise ValueError("malformed network file: layers must be a list")
    layers = []
    for i, layer in enumerate(obj["layers"]):
        try:
            # a string or an object would iterate as its characters or keys
            weights = layer["weights"]
            if not (isinstance(weights, list) and all(isinstance(row, list) for row in weights)):
                raise ValueError("weights must be a list of lists")
            weights = tuple(tuple(parse_rational(v) for v in row) for row in weights)
            bias = layer["bias"]
            if not isinstance(bias, list):
                raise ValueError("bias must be a list")
            bias = tuple(parse_rational(v) for v in bias)
            layers.append(AffineLayer(weights, bias))
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError(f"malformed layer {i}: {e}") from e
    net = ReluNetwork(tuple(layers))
    if "architecture" in obj and obj["architecture"] != list(net.architecture):
        raise ValueError(
            f"declared architecture {obj['architecture']} does not match layers "
            f"{list(net.architecture)}"
        )
    return net


def load_network(path: str) -> ReluNetwork:
    with open(path, "r", encoding="utf-8") as f:
        try:
            obj = json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"malformed network file {path}: {e}") from e
    return network_from_json(obj)


def network_fingerprint(net: ReluNetwork) -> str:
    """Content hash of the canonical JSON serialization."""
    blob = json.dumps(network_to_json(net), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
