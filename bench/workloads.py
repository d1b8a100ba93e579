"""The benchmark's workloads: their instances, set-up, operation and checks.

Each workload runs one user-level operation on a fixed list of instances.
`prepare` builds an instance's inputs (it is timed as set-up), `op` is the
timed operation, and `check` returns a description of every wrong answer.
The seed decides the order of the instances (see run.py) and the oracle's
sample points; the program receives only the generated inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction

from topobetti import arrangement, constructions, homology, relunet, stability, verify
from topobetti.exactgeom import BoxDomain

# (name, d, m_vec, w_vec, expected Betti vector of the closed sublevel set);
# the same table as tests/conftest.py REFERENCE_INSTANCES.
REFERENCE_INSTANCES = (
    ("d2-M4-w3", 2, (4,), (3,), (12, 4)),
    ("d2-M8-w4", 2, (2, 4), (4,), (40, 24)),
    ("d3-M2-w11", 3, (2,), (1, 1), (4, 0, 0)),
    ("d3-M4-w11", 3, (2, 2), (1, 1), (18, 2, 4)),
)
SPECS = {name: (d, m_vec, w_vec) for name, d, m_vec, w_vec, _ in REFERENCE_INSTANCES}

DELTA = Fraction(1, 10**6)  # perturbation scale of certify and homology
# The perturbations do not follow the benchmark seed: how many cells a
# perturbed complex has depends on them (675-909 for d2-M4-w3 and 951-1723
# for d3-M2-w11 over twelve seeds), so a seeded perturbation would change the
# work from run to run.
PERTURBATION_SEED = 7
CERTIFY_TRIALS = 1
ORACLE_SAMPLE = 128  # grid points re-evaluated with eval_scalar per operation
PERTURBED = "-perturbed"  # suffix of the fixed perturbation of an instance


def gate(expected) -> list:
    """Compare the expected-Betti table with the closed form; one entry per mismatch."""
    out = []
    for name, (d, m_vec, w_vec) in SPECS.items():
        fold = constructions.FoldingSpec(d, m_vec)
        got = constructions.predict_betti(fold.M, w_vec, d).values
        if got != expected[name]:
            out.append(f"{name}: table says {expected[name]}, predict_betti says {got}")
    return out


def perturb(net, delta: Fraction, rng: random.Random):
    """Add an independent uniform rational in [−delta, delta] to every parameter."""
    res = 10**6

    def jitter(v):
        return v + Fraction(rng.randint(-res, res), res) * delta

    return relunet.ReluNetwork(
        tuple(
            relunet.AffineLayer(
                tuple(tuple(jitter(v) for v in row) for row in layer.weights),
                tuple(jitter(v) for v in layer.bias),
            )
            for layer in net.layers
        )
    )


class Inputs:
    """What `prepare` builds for one instance."""

    def __init__(self, name, expected):
        base = name[: -len(PERTURBED)] if name.endswith(PERTURBED) else name
        d, m_vec, w_vec = SPECS[base]
        self.name = name
        self.fold = constructions.FoldingSpec(d, m_vec)
        self.cut = constructions.CuttingSpec(d, w_vec)
        self.net = constructions.build_topo_network(self.fold, self.cut)
        if name != base:
            self.net = perturb(self.net, DELTA, random.Random(f"{PERTURBATION_SEED}:{name}"))
        self.box = BoxDomain.unit_cube(d)
        self.expected = expected[base]


class Analyze:
    """analyze_network with the closed-form prediction, checked by reconcile."""

    instances = ("d2-M4-w3", "d2-M8-w4", "d3-M2-w11", "d3-M4-w11")

    def prepare(self, name, expected, seed):
        inp = Inputs(name, expected)
        inp.predicted = constructions.predict_betti(inp.fold.M, inp.cut.w_vec, inp.fold.d)
        return inp

    def op(self, inp):
        return homology.analyze_network(inp.net, predicted=inp.predicted)

    def check(self, inp, report):
        out = []
        if report.betti.values != inp.expected:
            out.append(f"{inp.name}: betti {report.betti.values} != {inp.expected}")
        if not verify.reconcile(report).all_agree:
            out.append(f"{inp.name}: reconcile does not agree")
        return out


class Oracle:
    """Grid oracle at the default resolution, plus a seeded exact re-evaluation."""

    instances = Analyze.instances

    def prepare(self, name, expected, seed):
        inp = Inputs(name, expected)
        n = verify.default_resolution(inp.fold.M, inp.cut.w_vec)
        rng = random.Random(f"{seed}:{name}")
        inp.resolution = n
        inp.sample = [
            tuple(rng.randint(0, n) for _ in range(inp.fold.d)) for _ in range(ORACLE_SAMPLE)
        ]
        inp.points = [
            tuple(lo + (up - lo) * Fraction(i, n) for lo, up, i in zip(inp.box.lower, inp.box.upper, idx))
            for idx in inp.sample
        ]
        return inp

    def op(self, inp):
        grid = verify.grid_sign_sample(inp.net, inp.box, inp.resolution)
        beta0 = verify.grid_beta0(grid)
        values = [relunet.eval_scalar(inp.net, x) for x in inp.points]
        return grid, beta0, values

    def check(self, inp, result):
        grid, beta0, values = result
        out = []
        if beta0 != inp.expected[0]:
            out.append(f"{inp.name}: oracle beta0 {beta0} != {inp.expected[0]}")
        for idx, v in zip(inp.sample, values):
            if int(grid.signs[idx]) != (v > 0) - (v < 0):
                out.append(f"{inp.name}: oracle sign at {idx} disagrees with eval_scalar")
        return out


class Certify:
    """perturbation_test at delta = 1/10**6."""

    instances = ("d2-M4-w3", "d3-M2-w11")

    def prepare(self, name, expected, seed):
        return Inputs(name, expected)

    def op(self, inp):
        return stability.perturbation_test(
            inp.net, inp.box, DELTA, trials=CERTIFY_TRIALS, seed=PERTURBATION_SEED
        )

    def check(self, inp, report):
        out = []
        if not report.applicable:
            out.append(f"{inp.name}: perturbation test not applicable")
        if report.certified_delta != DELTA:
            out.append(f"{inp.name}: certified delta {report.certified_delta} != {DELTA}")
        return out


class Homology:
    """Betti numbers of sublevel complexes that set-up builds once."""

    instances = ("d3-M2-w11", "d3-M2-w11" + PERTURBED, "d3-M4-w11")

    def prepare(self, name, expected, seed):
        inp = Inputs(name, expected)
        inp.complex = arrangement.signed_complex(inp.net, inp.box)
        return inp

    def op(self, inp):
        return homology.betti_numbers(arrangement.sublevel_subcomplex(inp.complex))

    def check(self, inp, betti):
        if betti.values != inp.expected:
            return [f"{inp.name}: betti {betti.values} != {inp.expected}"]
        return []


WORKLOADS = {"analyze": Analyze(), "oracle": Oracle(), "certify": Certify(), "homology": Homology()}


def _complex_counts(sc):
    counts = {"arrangement.cells": len(sc.cells), "arrangement.hyperplanes": len(sc.constraints)}
    for k in range(4):
        counts[f"arrangement.cells.dim{k}"] = 0
    for c in sc.cells.values():
        counts[f"arrangement.cells.dim{c.dim}"] += 1
    return counts


def trace_targets(tracer):
    """The module boundaries the traced run wraps, with what each one counts."""

    def sublevel_counts(sub):
        tracer.keep(sub)  # its order complex is counted after the unit
        return {"arrangement.sublevel_cells": len(sub.cells)}

    def analysis_counts(_report):
        return {"stability.analyses": 1} if tracer.inside("stability.perturbation") else {}

    return (
        (constructions, "build_topo_network", "constructions.build", None),
        (arrangement, "signed_complex", "arrangement.signed_complex", _complex_counts),
        (homology, "signed_complex", "arrangement.signed_complex", _complex_counts),
        (arrangement, "sublevel_subcomplex", "arrangement.sublevel", sublevel_counts),
        (homology, "sublevel_subcomplex", "arrangement.sublevel", sublevel_counts),
        (homology, "linear_region_count", "arrangement.region_count",
         lambda n: {"arrangement.regions": n}),
        (homology, "betti_numbers", "homology.betti",
         lambda b: {"homology.components": b.values[0]}),
        (homology, "analyze_network", "homology.analyze", analysis_counts),
        (verify, "grid_sign_sample", "verify.grid_sample",
         lambda g: {"verify.grid_points": int(g.signs.size)}),
        (verify, "grid_beta0", "verify.grid_beta0", None),
        (relunet, "eval_scalar", "relunet.eval", lambda _v: {"relunet.evals": 1}),
        (stability, "perturbation_test", "stability.perturbation", None),
        (stability, "check_stability", "stability.check",
         lambda r: {"stability.violations": len(r.violations)}),
    )


def order_chains(complexes) -> int:
    """Simplices of the order complexes of the given complexes.

    A chain of faces never leaves a connected component, so this equals the
    total that betti_numbers' per-component order complexes hold.
    """
    return sum(len(s) for pc in complexes for s in homology.order_complex(pc).simplices)
