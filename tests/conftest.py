from collections import Counter
from dataclasses import dataclass

import pytest

from helpers import build_and_assemble, complex_digest
from oracles import region_tables
from topobetti import arrangement
from topobetti.arrangement import linear_region_count, sublevel_subcomplex
from topobetti.constructions import BettiVector, CuttingSpec, FoldingSpec, build_topo_network
from topobetti.exactgeom import BoxDomain
from topobetti.homology import betti_numbers


# The four reference classifier instances used across the suite:
# (name, d, m_vec, w_vec, expected Betti vector of the closed sublevel set).
REFERENCE_INSTANCES = (
    ("d2-M4-w3", 2, (4,), (3,), (12, 4)),
    ("d2-M8-w4", 2, (2, 4), (4,), (40, 24)),
    ("d3-M2-w11", 3, (2,), (1, 1), (4, 0, 0)),
    ("d3-M4-w11", 3, (2, 2), (1, 1), (18, 2, 4)),
)

# Larger constructions in the same format.  They stay out of
# REFERENCE_INSTANCES: bench/workloads.py keeps a copy of that table and gates
# every benchmark run on it.
LARGE_INSTANCES = (
    ("d4-M2-w111", 4, (2,), (1, 1, 1), (6, 0, 0, 0)),
    ("d4-M4-w111", 4, (2, 2), (1, 1, 1), (42, 2, 4, 8)),
    ("d2-M16-w6", 2, (4, 4), (6,), (216, 168)),
    # five and six folding layers: the deep side of the depth-separation test
    ("d2-M32-w4", 2, (2,) * 5, (4,), (544, 480)),
    ("d2-M64-w4", 2, (2,) * 6, (4,), (2112, 1984)),
)


@pytest.fixture(scope="session")
def reference_networks():
    nets = {}
    for name, d, m_vec, w_vec, betti in REFERENCE_INSTANCES:
        fold = FoldingSpec(d, m_vec)
        cut = CuttingSpec(d, w_vec)
        nets[name] = (build_topo_network(fold, cut), fold, cut, betti)
    return nets


@dataclass(frozen=True)
class LargeComplexFacts:
    """What the tests assert of one large signed complex on the unit cube."""

    architecture: tuple
    digest: str  # helpers.complex_digest of the signed complex
    betti: BettiVector  # of the sublevel complex
    euler_cells: int  # alternating cell count of the sublevel complex
    regions: int  # linear_region_count of the signed complex
    positive_cells: Counter  # dim -> cells of that dim labelled positive
    restrictions: int  # arrangement._restrict_functional calls of the build


def _large_complex_facts(d, m_vec, w_vec) -> LargeComplexFacts:
    net = build_topo_network(FoldingSpec(d, m_vec), CuttingSpec(d, w_vec))
    calls = []
    restrict = arrangement._restrict_functional
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arrangement, "_restrict_functional", lambda *a: calls.append(1) or restrict(*a))
        b, sc = build_and_assemble(net, BoxDomain.unit_cube(d))
    tables, faults = region_tables(b)
    assert faults == []
    # the builder's points, regions and tight sets go before the digest and
    # the homology run, so they are not held through them
    del b
    sub = sublevel_subcomplex(sc)
    return LargeComplexFacts(
        architecture=net.architecture,
        digest=complex_digest(sc, tables),
        betti=betti_numbers(sub),
        euler_cells=sub.euler_cells(),
        regions=linear_region_count(sc),
        positive_cells=Counter(c.dim for c in sc.cells.values() if c.sign_label == "positive"),
        restrictions=len(calls),
    )


@pytest.fixture(scope="session")
def large_complexes():
    """name -> LargeComplexFacts for each LARGE_INSTANCES entry.

    Each complex is built once and dropped as soon as its facts are read:
    d2-M64-w4's 165 249 cells take several seconds and a few hundred MB, so
    keeping the complexes would hold all of them for the whole session.
    """
    return {
        name: _large_complex_facts(d, m_vec, w_vec)
        for name, d, m_vec, w_vec, _ in LARGE_INSTANCES
    }
