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
"""

from collections import Counter

import pytest

from helpers import build_and_assemble, generic_network
from oracles import nerve_betti, validate_complex
from topobetti.arrangement import sublevel_subcomplex
from topobetti.constructions import euler_characteristic
from topobetti.exactgeom import BoxDomain
from topobetti.homology import betti_numbers

# d = 2 folds 4-fold, so a corner the head cuts off lands inside the box
# and can enclose a hole; d = 3 folds 2-fold, which keeps each build small
_CASES = [(2, 4, seed) for seed in range(24)] + [(3, 2, seed) for seed in range(20)]


@pytest.mark.parametrize("d, m, seed", _CASES, ids=[f"d{d}-m{m}-{s}" for d, m, s in _CASES])
def test_generic_network_pipeline(d, m, seed):
    box = BoxDomain.unit_cube(d)
    b, sc = build_and_assemble(generic_network(seed, d, m), box)
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
