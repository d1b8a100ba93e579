"""The names the benchmark reads off the package still exist and still work.

bench/run.py's traced run wraps module attributes by name (getattr, then
setattr), and its workloads and counters read a complex's `constraints` and
an order complex's `simplices`.  A rename inside the package alone would
break the benchmark, whose own tests are not part of this suite, so this
file imports bench/workloads.py and exercises what it uses.
"""

import importlib.util
from pathlib import Path

import pytest

from topobetti import arrangement, homology
from topobetti.constructions import CuttingSpec, FoldingSpec, build_topo_network
from topobetti.exactgeom import BoxDomain

_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_exists(workloads):
    # the tracer is only read when a wrapped call returns
    for module, name, _span, _count in workloads.trace_targets(None):
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_the_counters_read_what_the_complex_holds(workloads):
    net = build_topo_network(FoldingSpec(2, (2,)), CuttingSpec(2, (1,)))
    sc = arrangement.signed_complex(net, BoxDomain.unit_cube(2))
    counts = workloads._complex_counts(sc)
    assert counts["arrangement.cells"] == len(sc.cells)
    assert counts["arrangement.hyperplanes"] == len(sc.constraints) > 0
    sub = arrangement.sublevel_subcomplex(sc)
    simplices = homology.order_complex(sub).simplices
    assert workloads.order_chains([sub]) == sum(map(len, simplices)) > 0


def test_each_workload_runs_on_its_first_instance(workloads):
    expected = {name: betti for name, *_, betti in workloads.REFERENCE_INSTANCES}
    assert workloads.gate(expected) == []
    for name, workload in workloads.WORKLOADS.items():
        instance = workload.instances[0]
        inp = workload.prepare(instance, expected, 1)
        assert workload.check(inp, workload.op(inp)) == [], name
