"""The whole pipeline on generic networks: helpers.generic_network's seeds.

The constructed family is degenerate: its mirrored copies cut along shared
hyperplanes and end with shared output maps.  A random head after a fold,
perturbed, has regions that share an edge yet differ in their maps, where a
new vertex must be the same point for every region that cuts the edge.
Each complex is checked against its box (oracles.validate_complex), for
distinct points, for its Euler characteristic against the Betti vector's,
for its Betti vector against oracles.nerve_betti, which reads only the
build, and against the complement bound that verify.reconcile checks
(β_k at most the positive (k + 1)-cells, plus 1 for β₀).

The same checks run on two trained classifiers, 2-16-16-1 and 2-32-32-1,
whose float32 weights tests/data/train_classifiers.py wrote as exact
rationals: their coordinates run to about 150 bits.
"""

from collections import Counter
from pathlib import Path

import pytest

from helpers import build_and_assemble, generic_network
from oracles import nerve_betti, validate_complex
from topobetti.arrangement import sublevel_subcomplex
from topobetti.constructions import euler_characteristic
from topobetti.exactgeom import BoxDomain
from topobetti.homology import analyze_network, betti_numbers
from topobetti.relunet import load_network
from topobetti.verify import reconcile

# d = 2 folds 4-fold, so a corner the head cuts off lands inside the box
# and can enclose a hole; d = 3 folds 2-fold, which keeps each build small
_CASES = [(2, 4, seed) for seed in range(24)] + [(3, 2, seed) for seed in range(20)]


# each trained fixture's Betti vector; the data's negative set has β = (3, 2)
_TRAINED = {"trained-2-16-16-1": (3, 0), "trained-2-32-32-1": (3, 2)}


def _check_pipeline(net) -> tuple:
    """net's Betti vector on the unit cube, once its complex passes the checks."""
    box = BoxDomain.unit_cube(net.input_dim)
    b, sc = build_and_assemble(net, box)
    assert validate_complex(sc, box) == []
    assert len(set(sc.points)) == len(sc.points)
    sub = sublevel_subcomplex(sc)
    betti = betti_numbers(sub)
    assert sub.euler_cells() == euler_characteristic(betti)
    assert nerve_betti(b) == betti.values
    # the complement bound (see verify.reconcile): β_k ≤ the positive
    # (k + 1)-cells, plus 1 for β₀, which is 1 where no cell is positive
    positive = Counter(c.dim for c in sc.cells.values() if c.sign_label == "positive")
    for k, beta in enumerate(betti.values):
        assert beta <= positive[k + 1] + (k == 0), k
    assert reconcile(analyze_network(net)).all_agree
    return betti.values


@pytest.mark.parametrize("d, m, seed", _CASES, ids=[f"d{d}-m{m}-{s}" for d, m, s in _CASES])
def test_generic_network_pipeline(d, m, seed):
    _check_pipeline(generic_network(seed, d, m))


@pytest.mark.parametrize("name", list(_TRAINED))
def test_trained_classifier_pipeline(name):
    net = load_network(str(Path(__file__).parent / "data" / f"{name}.json"))
    assert _check_pipeline(net) == _TRAINED[name]
