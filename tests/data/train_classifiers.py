"""Train the ReLU classifiers that tests/test_generic.py analyzes.

The data are 4 000 points drawn uniformly from [0, 1]², labelled negative
on a disk and two rings and positive elsewhere, so the negative set has
β = (3, 2).  Each network is trained from seed 0 with Adam on the logistic
loss, in float32, and each weight is written as the exact rational
Fraction(float(x)).  The committed JSON files are the fixtures: a numpy that
trains differently changes no test.  Rewrite them with

    PYTHONPATH=src python tests/data/train_classifiers.py

which prints each network's training accuracy.  pytest does not collect
this script.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from topobetti.relunet import AffineLayer, ReluNetwork, network_to_json

HERE = Path(__file__).parent
HIDDEN = [(16, 16), (32, 32)]
POINTS = 4000
STEPS = 3000
RATE = 1e-2

# (centre, inner radius, outer radius): a disk has inner radius 0
SHAPES = [((0.2, 0.2), 0.0, 0.12), ((0.7, 0.3), 0.12, 0.22), ((0.32, 0.7), 0.12, 0.22)]


def dataset(rng) -> tuple:
    """POINTS points of [0, 1]² and their labels, -1 on the shapes and 1 off them."""
    x = rng.random((POINTS, 2), dtype=np.float32)
    negative = np.zeros(POINTS, dtype=bool)
    for centre, inner, outer in SHAPES:
        r = np.linalg.norm(x - np.asarray(centre, dtype=np.float32), axis=1)
        negative |= (inner <= r) & (r <= outer)
    return x, np.where(negative, -1.0, 1.0).astype(np.float32)


def train(widths, x, y, rng) -> tuple:
    """([(W, b), ...], training accuracy) of a 2-widths-1 network trained on
    (x, y), in float32."""
    sizes = [2, *widths, 1]
    params = []
    for n_in, n_out in zip(sizes, sizes[1:]):
        w = rng.normal(0.0, np.sqrt(2.0 / n_in), (n_out, n_in)).astype(np.float32)
        params += [w, np.zeros(n_out, dtype=np.float32)]
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    for step in range(1, STEPS + 1):
        # forward, keeping each layer's input
        inputs, h = [], x
        for i in range(0, len(params), 2):
            inputs.append(h)
            z = h @ params[i].T + params[i + 1]
            h = np.maximum(z, 0) if i + 2 < len(params) else z[:, 0]
        # d/df of mean log(1 + exp(-y f))
        grad_out = (-y * np.exp(-np.logaddexp(0, y * h)) / len(y))[:, None].astype(np.float32)
        grads = [None] * len(params)
        g = grad_out
        for i in range(len(params) - 2, -1, -2):
            grads[i] = g.T @ inputs[i // 2]
            grads[i + 1] = g.sum(axis=0)
            if i:
                g = (g @ params[i]) * (inputs[i // 2] > 0)
        for p, dp, (m, v) in zip(params, grads, moments):
            m *= beta1
            m += (1 - beta1) * dp
            v *= beta2
            v += (1 - beta2) * dp * dp
            m_hat = m / (1 - beta1**step)
            v_hat = v / (1 - beta2**step)
            p -= (RATE * m_hat / (np.sqrt(v_hat) + eps)).astype(np.float32)
    accuracy = float(np.mean(np.sign(h) == y))
    return [(params[i], params[i + 1]) for i in range(0, len(params), 2)], accuracy


def exact(layers) -> ReluNetwork:
    """The network whose entries are the float32 weights, each taken exactly."""

    def frac(v):
        return Fraction(float(v))

    return ReluNetwork(
        tuple(
            AffineLayer(tuple(tuple(map(frac, row)) for row in w), tuple(map(frac, b)))
            for w, b in layers
        )
    )


def main():
    for widths in HIDDEN:
        rng = np.random.default_rng(0)
        x, y = dataset(rng)
        layers, accuracy = train(widths, x, y, rng)
        net = exact(layers)
        name = "trained-" + "-".join(map(str, net.architecture)) + ".json"
        with open(HERE / name, "w", encoding="utf-8") as f:
            json.dump(network_to_json(net), f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"{name}: training accuracy {accuracy:.3f}")


if __name__ == "__main__":
    main()
