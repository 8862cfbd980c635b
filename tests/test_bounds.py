import math

import numpy as np
import pytest

import repliq.bounds as bounds_module
from repliq.analytic import (
    iter_partitions,
    throughput_fullrep,
    throughput_norep,
    throughput_upfront,
)
from repliq.bounds import (
    BoundReport,
    StartTimeVector,
    ThresholdPair,
    adarep_pause_throughput,
    one_sided_pause_throughput,
    homogeneous_bound,
    homogeneous_cost,
    optimize_pause_bound,
)
from repliq.distributions import (
    Deterministic,
    Exponential,
    FiniteSupport,
    HyperExp,
    Pareto,
    Shifted,
)
from repliq.errors import DegenerateTruncationError

INF = float("inf")

EXAMPLE = (Deterministic(2.0), FiniteSupport(((1.0, 0.9), (20.0, 0.1))))

# independently derived (direct arithmetic on the atoms, cross-checked below
# against a renewal Monte-Carlo of the pause-and-replicate system)
V1_EXAMPLE_THRESHOLD_ONE = 1.25
# brute-force minimum of the start-time cost for two iid copies of the
# example finite-support law: cost 1.56 at t2 = 1
B2_EXAMPLE_HOMOGENEOUS = 50.0 / 39.0


def pause_and_replicate_renewal_mc(d1, d2, delta, t21, n_cycles, seed):
    """Renewal simulation of the pause-and-replicate system at thresholds
    (infinity, t21): server 2 never pauses; once one of its jobs has run
    t21, server 1 pauses its own job to host a replica until either copy
    finishes (plus the cancellation window).  Server 1's paused work
    resumes afterwards, so its completions are its available time divided
    into full service draws.  Independent of any closed-form expression.
    """
    rng = np.random.default_rng(seed)
    x2 = d2.sample_array(rng, n_cycles)
    rep = x2 > t21
    x1_fresh = d1.sample_array(rng, n_cycles)
    tail_part = np.minimum(x1_fresh, x2 - t21) + delta
    span = np.where(rep, t21 + tail_part, x2)
    paused = np.where(rep, tail_part, 0.0)
    horizon = span.sum()
    available = horizon - paused.sum()
    draws = d1.sample_array(rng, int(available / d1.mean() * 1.5) + 100)
    n1 = int(np.searchsorted(np.cumsum(draws), available))
    return (n1 + n_cycles) / horizon


class TestPauseThroughput:
    def test_zero_threshold_is_full_replication(self):
        v = adarep_pause_throughput(*EXAMPLE, 0.0, (0.0, 5.0))
        assert v == pytest.approx(0.90909, abs=1e-4)
        v = adarep_pause_throughput(*EXAMPLE, 0.0, (3.0, 0.0))
        assert v == pytest.approx(0.90909, abs=1e-4)

    def test_infinite_thresholds_are_no_replication(self):
        v = adarep_pause_throughput(*EXAMPLE, 0.0, (INF, INF))
        assert v == pytest.approx(0.84483, abs=1e-4)

    def test_example_threshold_one(self):
        v = adarep_pause_throughput(*EXAMPLE, 0.0, ThresholdPair(INF, 1.0))
        assert v == pytest.approx(V1_EXAMPLE_THRESHOLD_ONE, rel=1e-12)

    def test_against_renewal_monte_carlo(self):
        mc = pause_and_replicate_renewal_mc(*EXAMPLE, 0.0, 1.0, 10**6, seed=1234)
        assert abs(mc - V1_EXAMPLE_THRESHOLD_ONE) / V1_EXAMPLE_THRESHOLD_ONE < 0.003

    def test_monte_carlo_cross_check_continuous(self):
        d1, d2 = Exponential(1.0), Shifted(0.5, Exponential(1.0))
        t21 = 0.8
        closed = adarep_pause_throughput(d1, d2, 0.0, (INF, t21))
        mc = pause_and_replicate_renewal_mc(d1, d2, 0.0, t21, 10**6, seed=77)
        assert abs(mc - closed) / closed < 0.005

    def test_monte_carlo_cross_check_with_delay(self):
        d1, d2 = EXAMPLE
        closed = adarep_pause_throughput(d1, d2, 0.3, (INF, 1.0))
        mc = pause_and_replicate_renewal_mc(d1, d2, 0.3, 1.0, 10**6, seed=5)
        assert abs(mc - closed) / closed < 0.005

    def test_degenerate_truncation(self):
        # zero-mean laws are refused at construction, but a law with a zero
        # atom still truncates to 0 where 0.4 * threshold underflows
        zero_atom = FiniteSupport(((0.0, 0.6), (1.0, 0.4)))
        tiny = 5e-324
        assert zero_atom.truncated_mean(tiny) == 0.0
        with pytest.raises(DegenerateTruncationError):
            adarep_pause_throughput(zero_atom, zero_atom, 0.0, (tiny, tiny))

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            ThresholdPair(-1.0, 0.0)


class TestOneSidedBound:
    @pytest.mark.parametrize("t21", [0.25, 0.5, 1.0, 2.0, 19.0, INF])
    def test_matches_general_formula(self, t21):
        d1, d2 = EXAMPLE
        a = one_sided_pause_throughput(d1, d2, 0.0, t21)
        b = adarep_pause_throughput(d1, d2, 0.0, (INF, t21))
        assert a == pytest.approx(b, abs=1e-9)

    @pytest.mark.parametrize("t21", [0.3, 1.0, 4.0])
    def test_matches_with_delay_and_continuous_laws(self, t21):
        d1, d2 = Exponential(1.0), Shifted(0.5, Exponential(1.0))
        a = one_sided_pause_throughput(d1, d2, 0.2, t21)
        b = adarep_pause_throughput(d1, d2, 0.2, (INF, t21))
        assert a == pytest.approx(b, abs=1e-9)

    def test_limits(self):
        d1, d2 = EXAMPLE
        assert one_sided_pause_throughput(d1, d2, 0.0, INF) == pytest.approx(0.84483, abs=1e-4)
        assert one_sided_pause_throughput(d1, d2, 0.0, 0.0) == pytest.approx(0.90909, abs=1e-4)
        assert one_sided_pause_throughput(d1, d2, 0.0, 1.0) == pytest.approx(1.25, rel=1e-12)


class TestOptimizePauseBound:
    def test_example_recovers_threshold_one(self):
        rep = optimize_pause_bound(*EXAMPLE, 0.0)
        assert rep.optimizer[1] == pytest.approx(1.0)
        assert rep.value == pytest.approx(1.25, rel=1e-9)

    def test_exponential_plus_shifted_prefers_no_replication(self):
        for c in (0.5, 1.0, 2.0):
            rep = optimize_pause_bound(Exponential(1.0), Shifted(c, Exponential(1.0)), 0.0)
            assert rep.optimizer == (INF, INF)
            assert rep.value == pytest.approx(1.0 + 1.0 / (c + 1.0), rel=1e-9)

    def test_two_deterministic(self):
        rep = optimize_pause_bound(Deterministic(2.0), Deterministic(2.0), 0.0)
        assert rep.optimizer == (INF, INF) or rep.value == pytest.approx(1.0, rel=1e-9)
        assert rep.value == pytest.approx(1.0, rel=1e-9)
        # grid sweep confirms nothing beats the no-replication corner
        for t12 in (0.5, 1.0, 1.5, INF):
            for t21 in (0.5, 1.0, 1.5, INF):
                v = adarep_pause_throughput(
                    Deterministic(2.0), Deterministic(2.0), 0.0, (t12, t21)
                )
                assert v <= rep.value + 1e-12

    def test_bound_dominates_grid(self):
        d1, d2 = EXAMPLE
        rep = optimize_pause_bound(d1, d2, 0.1)
        for t12 in (0.5, 1.0, 2.0, 10.0, INF):
            for t21 in (0.5, 1.0, 2.0, 10.0, INF):
                assert adarep_pause_throughput(d1, d2, 0.1, (t12, t21)) <= rep.value + 1e-12


class TestHomogeneousCost:
    def test_two_exponential_closed_form(self):
        d = Exponential(1.0)
        for t2 in (0.0, 0.5, 1.0, 2.0, 5.0):
            mean, err = homogeneous_cost(d, 0.5, (t2,))
            assert err == 0.0
            assert mean == pytest.approx(1.0 + math.exp(-t2), rel=1e-9)
        mean, _ = homogeneous_cost(d, 0.5, (INF,))
        assert mean == pytest.approx(1.0, rel=1e-12)

    def test_zero_start_is_full_replication_cost(self):
        mean, _ = homogeneous_cost(Exponential(1.0), 0.5, (0.0,))
        assert mean == pytest.approx(2.0, rel=1e-9)

    def test_deterministic_late_replicas_cost_nothing(self):
        for t in ((3.0,), (3.0, 5.0), (INF, INF)):
            mean, _ = homogeneous_cost(Deterministic(3.0), 0.0, t)
            assert mean == pytest.approx(3.0, rel=1e-12)

    def test_single_server_is_plain_mean(self):
        for d in (Exponential(0.7), EXAMPLE[1], Pareto(0.5, 2.0)):
            mean, _ = homogeneous_cost(d, 0.9, ())
            assert mean == pytest.approx(d.mean(), rel=1e-9)

    def test_exact_enumeration_matches_monte_carlo(self):
        d = EXAMPLE[1]
        for t2 in (0.0, 1.0, 2.5):
            exact, _ = homogeneous_cost(d, 0.25, (t2,))
            mc, err = homogeneous_cost(
                d, 0.25, (t2,), estimator="monte-carlo", n_paths=200_000, seed=3
            )
            assert abs(mc - exact) <= 3 * err

    def test_quadrature_matches_monte_carlo(self):
        d = Shifted(0.3, Exponential(0.8))
        exact, _ = homogeneous_cost(d, 0.2, (0.5, 2.0))
        mc, err = homogeneous_cost(
            d, 0.2, (0.5, 2.0), estimator="monte-carlo", n_paths=400_000, seed=9
        )
        assert abs(mc - exact) <= 3 * err

    def test_finisher_window_switch(self):
        d = Exponential(1.0)
        with_extra, _ = homogeneous_cost(d, 0.5, (0.0,))
        without, _ = homogeneous_cost(d, 0.5, (0.0,), extra_finisher_term=False)
        assert with_extra == pytest.approx(without + 0.5, rel=1e-9)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            homogeneous_cost(Exponential(1.0), 0.0, (2.0, 1.0))
        with pytest.raises(ValueError):
            StartTimeVector((2.0, 1.0))

    @pytest.mark.parametrize("n_paths", [-1, 0, 1])
    def test_monte_carlo_needs_two_paths(self, n_paths):
        # one path has no sample variance, zero paths no mean
        with pytest.raises(ValueError, match="n_paths >= 2"):
            homogeneous_cost(Exponential(1.0), 0.1, (0.5,), "monte-carlo", n_paths=n_paths)
        mean, err = homogeneous_cost(Exponential(1.0), 0.1, (0.5,), "monte-carlo", n_paths=2)
        assert math.isfinite(mean) and math.isfinite(err)
        # the exact estimator draws no paths
        assert homogeneous_cost(Exponential(1.0), 0.1, (0.5,), n_paths=n_paths)[1] == 0.0


class TestHomogeneousBound:
    def test_two_exponentials_with_delay(self):
        rep = homogeneous_bound(Exponential(1.0), 0.5, 2)
        assert rep.value == pytest.approx(2.0, abs=1e-3)
        assert rep.optimizer == (INF,)

    def test_deterministic_exact(self):
        for k, c in ((2, 3.0), (4, 0.5), (6, 2.0)):
            rep = homogeneous_bound(Deterministic(c), 0.0, k)
            assert rep.value == k / c
        rep = homogeneous_bound(Deterministic(2.0), 0.4, 3)
        assert rep.value == pytest.approx(1.5, rel=1e-12)

    def test_example_pair_brute_forced_value(self):
        rep = homogeneous_bound(EXAMPLE[1], 0.0, 2)
        assert rep.value == pytest.approx(B2_EXAMPLE_HOMOGENEOUS, rel=1e-9)
        assert rep.optimizer == (1.0,)

    def test_optimizer_holds_plain_floats(self):
        # continuous laws fill the grids with numpy quantiles and geomspace
        d = Pareto(1.0, 1.5)
        for rep in (homogeneous_bound(d, 0.0, 2), optimize_pause_bound(d, Exponential(1.0))):
            assert rep.optimizer and all(type(x) is float for x in rep.optimizer), rep.optimizer

    def test_single_server(self):
        rep = homogeneous_bound(Exponential(2.0), 0.7, 1)
        assert rep.value == pytest.approx(2.0, rel=1e-9)

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("n_paths", [0, 1])
    def test_monte_carlo_needs_two_paths(self, k, n_paths):
        with pytest.raises(ValueError, match="n_paths >= 2"):
            homogeneous_bound(Exponential(1.0), 0.1, k, "monte-carlo", n_paths=n_paths)

    def test_monte_carlo_agrees_with_exact(self):
        d = EXAMPLE[1]
        exact = homogeneous_bound(d, 0.0, 2)
        mc = homogeneous_bound(d, 0.0, 2, estimator="monte-carlo", n_paths=300_000, seed=11)
        assert abs(mc.value - exact.value) <= 4 * max(mc.stderr, 1e-9)
        assert isinstance(mc, BoundReport) and mc.stderr > 0

    @pytest.mark.parametrize(
        "d,delta",
        [
            (FiniteSupport(((1.0, 0.9), (20.0, 0.1))), 0.0),
            (FiniteSupport(((0.5, 0.5), (4.0, 0.5))), 0.1),
            (Exponential(1.3), 0.5),
            (Shifted(0.2, Exponential(1.0)), 0.0),
        ],
    )
    def test_dominates_every_upfront_policy(self, d, delta):
        k = 3
        rep = homogeneous_bound(d, delta, k)
        ds = [d] * k
        assert rep.value >= throughput_norep(ds).value - 1e-9
        assert rep.value >= throughput_fullrep(ds, delta).value - 1e-9
        for part in iter_partitions(k):
            assert rep.value >= throughput_upfront(part, ds, delta).value - 1e-9


class TestHomogeneousBoundPins:
    """hyperexp(0.6,0.2,0.4) on six servers with delta 0.1 (the homog_wide
    benchmark law); values recorded with per-segment quadrature and no memo."""

    D = HyperExp(0.6, 0.2, 0.4)

    def test_exact(self):
        rep = homogeneous_bound(self.D, 0.1, 6)
        assert rep.optimizer == (
            1.4532128032715896,
            1.992881871092221,
            2.7156527111834863,
            3.1882471000119845,
            3.7790345632989704,
        )
        assert rep.value == pytest.approx(2.2578475739689075, rel=1e-13)

    def test_monte_carlo(self):
        rep = homogeneous_bound(self.D, 0.1, 6, estimator="monte-carlo", n_paths=5000, seed=123)
        assert rep.value == 2.2283750984069166
        assert rep.stderr == 0.031063317818026192
        assert rep.optimizer == (
            1.025937330314464,
            1.025937330314464,
            1.992881871092221,
            2.7156527111834863,
            2.7156527111834863,
        )

    @pytest.mark.parametrize("estimator", ["exact", "monte-carlo"])
    def test_each_start_vector_costed_once(self, monkeypatch, estimator):
        seen = []
        original = bounds_module.homogeneous_cost

        def counting(d, delta, starts, *args, **kwargs):
            seen.append(tuple(starts))
            return original(d, delta, starts, *args, **kwargs)

        monkeypatch.setattr(bounds_module, "homogeneous_cost", counting)
        homogeneous_bound(self.D, 0.1, 6, estimator=estimator, n_paths=5000, seed=123)
        assert seen and len(seen) == len(set(seen))
