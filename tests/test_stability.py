from fractions import Fraction

import pytest

from topobetti import arrangement, stability
from topobetti.constructions import CuttingSpec, FoldingSpec, build_topo_network
from topobetti.exactgeom import BoxDomain
from topobetti.relunet import AffineLayer, ReluNetwork
from topobetti.stability import check_stability, perturbation_test


def _linear(coeffs, bias=0):
    d = len(coeffs)
    zero = Fraction(0)
    return ReluNetwork(
        (
            AffineLayer(
                (tuple(Fraction(c) for c in coeffs), (zero,) * d),
                (zero, Fraction(1)),
            ),
            AffineLayer(((Fraction(1), zero),), (Fraction(bias),)),
        )
    )


class TestCheckStability:
    def test_output_through_vertices_is_topologically_unstable(self):
        # F(x) = x₁ on the unit square: the zero-set is the x₁ = 0 edge,
        # which contains two box corners
        report = check_stability(_linear((1, 0)), BoxDomain.unit_cube(2))
        assert report.combinatorially_stable
        assert not report.topologically_stable
        assert report.violations
        assert all(reason == "vertex-on-hyperplane" for _, _, reason in report.violations)

    def test_shifted_output_is_stable(self):
        report = check_stability(_linear((1, 0), bias=Fraction(-1, 3)), BoxDomain.unit_cube(2))
        assert report.combinatorially_stable
        assert report.topologically_stable
        assert report.violations == ()

    def test_constant_network_is_stable(self):
        zero = Fraction(0)
        net = ReluNetwork(
            (
                AffineLayer(((zero, zero),), (Fraction(1),)),
                AffineLayer(((zero,),), (Fraction(1),)),
            )
        )
        report = check_stability(net, BoxDomain.unit_cube(2))
        assert report.topologically_stable

    def test_offset_instance_is_stable(self):
        net = build_topo_network(FoldingSpec(2, (2,)), CuttingSpec(2, (1,)))
        report = check_stability(net, BoxDomain.unit_cube(2))
        assert report.combinatorially_stable
        assert report.topologically_stable
        assert report.violations == ()

    def test_instance_without_offset_is_unstable(self):
        # without the closure offset the network is identically zero on
        # full-dimensional regions, so its zero-set contains vertices
        net = build_topo_network(
            FoldingSpec(2, (2,)), CuttingSpec(2, (1,)), with_offset=False
        )
        report = check_stability(net, BoxDomain.unit_cube(2))
        assert not report.topologically_stable

    def test_vector_output_rejected(self):
        from topobetti.constructions import build_folding_network

        net = build_folding_network(FoldingSpec(2, (2,)))
        with pytest.raises(ValueError):
            check_stability(net, BoxDomain.unit_cube(2))

    @pytest.mark.parametrize(
        "net",
        [
            build_topo_network(FoldingSpec(2, (2,)), CuttingSpec(2, (1,))),
            _linear((1, 0)),
            build_topo_network(FoldingSpec(2, (2,)), CuttingSpec(2, (1,)), with_offset=False),
        ],
        ids=["offset", "output-through-corners", "no-offset"],
    )
    def test_violations_match_the_analysis_build(self, net):
        # signed_complex is the build analyze_network runs
        box = BoxDomain.unit_cube(2)
        built = arrangement.signed_complex(net, box)
        assert check_stability(net, box).violations == built.violations

    def test_report_serializes(self):
        report = check_stability(_linear((1, 0)), BoxDomain.unit_cube(2))
        data = report.to_json()
        assert data["topologically_stable"] is False
        assert data["violations"]


def _notch(eps):
    """F(x, y) = ε − relu(x − ½) − relu(½ − x): nonpositive on two strips, β = (2, 0)."""
    half = Fraction(1, 2)
    return ReluNetwork(
        (
            AffineLayer(((Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0))), (-half, half)),
            AffineLayer(((Fraction(-1), Fraction(-1)),), (eps,)),
        )
    )


class TestPerturbationTest:
    def test_halves_delta_until_every_trial_agrees(self):
        # the positive band between the strips is 1/50 wide: some trial
        # changes the Betti vector at every delta from 1/4 to 1/128, and all
        # four agree at 1/256, six halvings down
        net, box = _notch(Fraction(1, 100)), BoxDomain.unit_cube(2)
        assert check_stability(net, box).topologically_stable
        report = perturbation_test(net, box, Fraction(1, 4), trials=4, seed=0)
        assert report.applicable
        assert report.certified_delta == Fraction(1, 256)

    def test_no_certificate_after_the_last_halving(self):
        # a band 2·10⁻⁶ wide: some trial changes the Betti vector at every
        # delta from 1/4 to the last, 1/4 / 2⁸ = 1/1024
        net, box = _notch(Fraction(1, 10**6)), BoxDomain.unit_cube(2)
        report = perturbation_test(net, box, Fraction(1, 4), trials=4, seed=0)
        assert report.applicable and report.topologically_stable
        assert report.certified_delta is None
        assert stability.DELTA_HALVINGS == 8

    def test_certifies_small_delta(self):
        net = build_topo_network(FoldingSpec(2, (2,)), CuttingSpec(2, (1,)))
        report = perturbation_test(
            net, BoxDomain.unit_cube(2), Fraction(1, 10**6), trials=4, seed=7
        )
        assert report.applicable
        assert report.certified_delta == Fraction(1, 10**6)
        assert report.trials == 4 and report.seed == 7

    def test_seeded_runs_are_reproducible(self):
        net = build_topo_network(FoldingSpec(2, (2,)), CuttingSpec(2, (1,)))
        box = BoxDomain.unit_cube(2)
        a = perturbation_test(net, box, Fraction(1, 10**6), trials=2, seed=3)
        b = perturbation_test(net, box, Fraction(1, 10**6), trials=2, seed=3)
        assert a == b

    def test_not_applicable_when_unstable(self):
        net, box = _linear((1, 0)), BoxDomain.unit_cube(2)
        report = perturbation_test(net, box, Fraction(1, 10**6), trials=2, seed=0)
        assert not report.applicable
        assert report.certified_delta is None
        check = check_stability(net, box)
        assert report.violations == check.violations
        assert not report.topologically_stable and report.combinatorially_stable

    def test_stable_network_builds_base_once(self, monkeypatch):
        # one build for the base network (stability and baseline) and one per
        # trial; a separate stability build would make it three
        builds = []
        real = arrangement._Builder

        def counting(*args):
            builds.append(args)
            return real(*args)

        monkeypatch.setattr(arrangement, "_Builder", counting)
        monkeypatch.setattr(stability, "_Builder", counting)
        net = build_topo_network(FoldingSpec(2, (2,)), CuttingSpec(2, (1,)))
        report = perturbation_test(
            net, BoxDomain.unit_cube(2), Fraction(1, 10**6), trials=1, seed=7
        )
        assert report.certified_delta == Fraction(1, 10**6)
        assert len(builds) == 2

    def test_argument_validation(self):
        net = build_topo_network(FoldingSpec(2, (2,)), CuttingSpec(2, (1,)))
        box = BoxDomain.unit_cube(2)
        with pytest.raises(ValueError):
            perturbation_test(net, box, Fraction(1, 100), trials=0, seed=0)
        with pytest.raises(ValueError):
            perturbation_test(net, box, Fraction(-1), trials=1, seed=0)

    @pytest.mark.parametrize(
        "delta, trials, seed",
        [
            # a float delta certified 4722366482869645/4722366482869645213696
            pytest.param(1e-6, 1, 7, id="1e-06-1"),
            # a string raised TypeError, and so did a float trial count
            pytest.param("1/10", 1, 7, id="1/10-1"),
            pytest.param(Fraction(1, 10), 1.5, 7, id="delta2-1.5"),
            # bools are ints
            pytest.param(True, 1, 7, id="True-1"),
            pytest.param(Fraction(1, 10), True, 7, id="delta4-True"),
            # a float seed was reported as given, and True seeded the trials
            # "True:0", … where 1 seeds "1:0", …
            pytest.param(Fraction(1, 10), 1, 1.5, id="seed-1.5"),
            pytest.param(Fraction(1, 10), 1, True, id="seed-True"),
            pytest.param(Fraction(1, 10), 1, "1", id="seed-str"),
        ],
    )
    def test_inexact_arguments_are_rejected_before_any_build(
        self, delta, trials, seed, monkeypatch
    ):
        builds = []
        monkeypatch.setattr(arrangement._Builder, "run", lambda self: builds.append(self))
        net = build_topo_network(FoldingSpec(2, (2,)), CuttingSpec(2, (1,)))
        with pytest.raises(ValueError, match="must each be an int"):
            perturbation_test(net, BoxDomain.unit_cube(2), delta, trials, seed)
        assert builds == []

    def test_an_int_delta_is_exact(self):
        net = build_topo_network(FoldingSpec(2, (2,)), CuttingSpec(2, (1,)))
        report = perturbation_test(net, BoxDomain.unit_cube(2), 0, trials=1, seed=7)
        assert report.certified_delta == 0 and type(report.certified_delta) is Fraction
