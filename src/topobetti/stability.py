"""Combinatorial / topological stability checks and perturbation harness.

The arrangement build (arrangement._Builder.run) records a stability event,
keyed by neuron, on each region where a hidden neuron's pullback hyperplane
splits the region through one of its vertices ("vertex-on-hyperplane"), and
on each region where any neuron's pullback is identically zero
("degenerate-pullback").  The output neuron records "vertex-on-hyperplane"
wherever its zero-set passes through a vertex of a final region, whether or
not it splits it.  StabilityReport stores the events and derives from them
that a network is combinatorially stable over a box when no hidden neuron
records an event, and topologically stable when no neuron does.
Stable networks keep the decision-region topology under small weight
perturbations, which the perturbation harness confirms empirically by
recomputing exact Betti vectors for seeded rational perturbations of all
parameters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import arrangement, homology
from .arrangement import _Builder, _gc_paused
from .exactgeom import BoxDomain, format_rational
from .relunet import AffineLayer, ReluNetwork

DELTA_HALVINGS = 8  # times perturbation_test may halve delta before it gives up


@dataclass(frozen=True)
class StabilityReport:
    # stored: the events and the test's setup; derived: the three verdicts below
    output_layer: int  # len(net.layers), the output neuron's layer; not in the JSON
    violations: tuple  # (NeuronId, region-id, reason)
    certified_delta: Optional[Fraction] = None
    trials: int = 0
    seed: int = 0

    @property
    def combinatorially_stable(self) -> bool:
        """No hidden neuron recorded an event: every event is the output layer's."""
        return all(nid.layer == self.output_layer for nid, _, _ in self.violations)

    @property
    def topologically_stable(self) -> bool:
        return not self.violations

    @property
    def applicable(self) -> bool:
        """False when trials were asked of a network that perturbation_test refused."""
        return self.topologically_stable or not self.trials

    def to_json(self) -> dict:
        return {
            "combinatorially_stable": self.combinatorially_stable,
            "topologically_stable": self.topologically_stable,
            "violations": [
                {"layer": nid.layer, "index": nid.index, "region": rid, "reason": reason}
                for nid, rid, reason in self.violations
            ],
            "certified_delta": (
                None if self.certified_delta is None else format_rational(self.certified_delta)
            ),
            "trials": self.trials,
            "seed": self.seed,
            "applicable": self.applicable,
        }


def check_stability(net: ReluNetwork, box: BoxDomain) -> StabilityReport:
    """Split the box into the network's regions and report the build's events.

    _Builder.run records the events the module docstring lists; a hidden
    neuron's hyperplane that only touches a region's boundary records none,
    since it splits nothing.  The face lattice is not assembled.  The
    collector is paused around the build, as signed_complex pauses it.
    """
    with _gc_paused():
        b = _Builder(net, box)
        b.run()
    return StabilityReport(len(net.layers), tuple(b.violations))


def _perturbed(net: ReluNetwork, delta: Fraction, rng: random.Random) -> ReluNetwork:
    # uniform rationals in [−delta, +delta] with resolution delta/10^6
    res = 10**6
    layers = []
    for layer in net.layers:
        weights = tuple(
            tuple(v + Fraction(rng.randint(-res, res), res) * delta for v in row)
            for row in layer.weights
        )
        bias = tuple(v + Fraction(rng.randint(-res, res), res) * delta for v in layer.bias)
        layers.append(AffineLayer(weights, bias))
    return ReluNetwork(tuple(layers))


def perturbation_test(
    net: ReluNetwork,
    box: BoxDomain,
    delta: Fraction,
    trials: int,
    seed: int,
) -> StabilityReport:
    """Check that seeded weight perturbations leave the Betti vector unchanged.

    Each trial perturbs every weight and bias by an independent uniform
    rational in [−delta, +delta] and recomputes the exact Betti vector.  If
    any trial disagrees with the baseline, delta is halved (up to
    DELTA_HALVINGS times) and all trials rerun; the report carries the largest
    delta at which every trial agreed, or no certificate if none was found.
    The result is evidence at the tested scale, not a proof.  One build of
    the base network gives both its stability events and the baseline; an
    unstable network gets no homology and no trials.  Each analysis is
    homology.betti_numbers(arrangement.sublevel_complex(...)), both read off
    their modules at each call, so a wrapper set there (a trace) sees each
    one; the collector stays paused throughout.
    """
    # a float delta would enter the exact certificate, and a bool is an int
    if type(trials) is not int or type(seed) is not int or type(delta) not in (int, Fraction):
        raise ValueError(
            f"trials {trials!r} and seed {seed!r} must each be an int, "
            f"delta {delta!r} an int or Fraction"
        )
    if trials <= 0:
        raise ValueError("trials must be positive")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    with _gc_paused():
        base = arrangement.sublevel_complex(net, box)
        if base.violations:  # not topologically stable
            return StabilityReport(len(net.layers), base.violations, trials=trials, seed=seed)
        baseline = homology.betti_numbers(base).values
        del base  # not held through the trials

        def all_agree(cur: Fraction) -> bool:
            for t in range(trials):
                rng = random.Random(f"{seed}:{t}")
                sub = arrangement.sublevel_complex(_perturbed(net, cur, rng), box)
                if homology.betti_numbers(sub).values != baseline:
                    return False
            return True

        certified = None
        cur = Fraction(delta)
        for _ in range(DELTA_HALVINGS + 1):
            if all_agree(cur):
                certified = cur
                break
            cur = cur / 2
    return StabilityReport(len(net.layers), (), certified, trials, seed)
