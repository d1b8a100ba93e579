"""The cyclic garbage collector around the exact pipeline.

signed_complex, check_stability, betti_numbers and analyze_network pause the
collector, since the build and the homology make no reference cycles.  These
tests check both halves of that: nothing they leave behind needs the
collector, and the collector's previous state comes back however they exit.  validate_complex
does not pause the collector, but makes no reference cycles either.
"""

import gc
from fractions import Fraction

import pytest

from conftest import REFERENCE_INSTANCES
from topobetti import homology
from oracles import validate_complex
from topobetti.arrangement import ComplexSizeError, _Builder, signed_complex
from topobetti.exactgeom import BoxDomain
from topobetti.homology import analyze_network
from topobetti.stability import check_stability, perturbation_test


@pytest.fixture
def collector_off():
    """Run the test with the collector disabled, then restore its state."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    yield
    if enabled:
        gc.enable()


@pytest.mark.parametrize("name", [i[0] for i in REFERENCE_INSTANCES])
def test_analysis_leaves_no_cycles(name, reference_networks, collector_off):
    net, fold, _, _ = reference_networks[name]
    analyze_network(net)
    assert gc.collect() == 0
    perturbation_test(net, BoxDomain.unit_cube(fold.d), Fraction(1, 10**6), trials=1, seed=0)
    assert gc.collect() == 0
    check_stability(net, BoxDomain.unit_cube(fold.d))
    assert gc.collect() == 0


@pytest.mark.parametrize("name", [i[0] for i in REFERENCE_INSTANCES])
def test_validation_leaves_no_cycles(name, reference_networks, collector_off):
    net, fold, _, _ = reference_networks[name]
    box = BoxDomain.unit_cube(fold.d)
    sc = signed_complex(net, box)
    assert validate_complex(sc, box) == []
    assert gc.collect() == 0


def test_stability_check_pauses_the_collector(reference_networks, monkeypatch):
    seen = []
    real = _Builder.run

    def recording(self):
        seen.append(gc.isenabled())
        return real(self)

    monkeypatch.setattr(_Builder, "run", recording)
    net, fold, _, _ = reference_networks["d2-M4-w3"]
    assert gc.isenabled()
    check_stability(net, BoxDomain.unit_cube(fold.d))
    assert seen == [False]
    assert gc.isenabled()


def test_collector_is_restored_after_a_size_error(reference_networks, monkeypatch):
    monkeypatch.setenv("TOPOBETTI_MAX_CELLS", "4")
    assert gc.isenabled()
    with pytest.raises(ComplexSizeError):
        analyze_network(reference_networks["d2-M4-w3"][0])
    assert gc.isenabled()


def test_collector_stays_paused_between_nested_calls(reference_networks, monkeypatch):
    # analyze_network pauses around signed_complex, which pauses again; the
    # inner pause must not restart the collector on its way out
    seen = []
    real = homology.sublevel_subcomplex

    def recording(sc):
        seen.append(gc.isenabled())
        return real(sc)

    monkeypatch.setattr(homology, "sublevel_subcomplex", recording)
    net, fold, _, _ = reference_networks["d2-M4-w3"]
    assert gc.isenabled()
    perturbation_test(net, BoxDomain.unit_cube(fold.d), Fraction(1, 10**6), trials=2, seed=0)
    assert seen == [False] * 3  # the base analysis and two trials
    assert gc.isenabled()


def test_collector_disabled_by_the_caller_stays_disabled(reference_networks, collector_off):
    analyze_network(reference_networks["d2-M4-w3"][0])
    assert not gc.isenabled()
