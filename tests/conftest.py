import gc
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from topobetti.arrangement import signed_complex
from topobetti.constructions import CuttingSpec, FoldingSpec, build_topo_network
from topobetti.exactgeom import BoxDomain


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


@pytest.fixture(scope="session")
def large_complexes():
    """name -> (network, signed complex on the unit cube) for each LARGE_INSTANCES entry.

    Each complex is built once and shared by every test that reads it;
    d2-M64-w4's 165 249 cells take several seconds and a few hundred MB.
    """
    out = {}
    for name, d, m_vec, w_vec, _ in LARGE_INSTANCES:
        net = build_topo_network(FoldingSpec(d, m_vec), CuttingSpec(d, w_vec))
        out[name] = (net, signed_complex(net, BoxDomain.unit_cube(d)))
    # they stay alive until the session ends: move them out of the cyclic
    # collector's reach, or every later collection walks their objects again
    gc.freeze()
    return out
