import itertools
import math
import random

import numpy as np
import pytest

import repliq.bounds as bounds_module
from repliq.analytic import (
    best_homogeneous_r,
    iter_partitions,
    throughput_fullrep,
    throughput_norep,
    throughput_upfront,
)
from repliq.bounds import (
    BoundReport,
    StartTimeVector,
    adarep_pause_throughput,
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
    _lattice_step,
    _ticks,
    _time_of,
    min_expectation,
)
from repliq.engine import SystemConfig, run_saturated
from repliq.errors import DegenerateTruncationError
from repliq.mdp import as_tabular_policy, build_mdp, solve_average_cost

INF = float("inf")

EXAMPLE = (Deterministic(2.0), FiniteSupport(((1.0, 0.9), (20.0, 0.1))))

# independently derived (direct arithmetic on the atoms, cross-checked below
# against a renewal Monte-Carlo of the pause-and-replicate system)
V1_EXAMPLE_THRESHOLD_ONE = 1.25
# brute-force minimum of the start-time cost for two iid copies of the
# example finite-support law: cost 1.56 at t2 = 1
B2_EXAMPLE_HOMOGENEOUS = 50.0 / 39.0


def one_sided_pause_throughput(d1, d2, delta, t21):
    """The pause-and-replicate rate at thresholds (infinity, t21) derived
    one-sidedly: server 2's jobs take the truncated part plus, when they
    overflow t21, the replicated completion and the cancellation window;
    server 1 runs at its plain rate for the fraction of time it is not
    paused.  An oracle for the two-threshold expression."""
    m2 = d2.truncated_mean(t21)
    p = d2.tail(t21)
    effective = m2
    if p > 0.0:
        effective += p * (delta + min_expectation([d1, d2.residual(t21)]))
    return (m2 / effective) / d1.mean() + 1.0 / effective


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
        v = adarep_pause_throughput(*EXAMPLE, 0.0, (INF, 1.0))
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
        # positive truncated means whose product underflows to 0
        tiny_atom = FiniteSupport(((1e-300, 1.0),))
        with pytest.raises(DegenerateTruncationError):
            adarep_pause_throughput(tiny_atom, tiny_atom, 0.1, (INF, INF))

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            adarep_pause_throughput(*EXAMPLE, 0.0, (-1.0, 0.0))


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
        for t21, want, tol in ((INF, 0.84483, 1e-4), (0.0, 0.90909, 1e-4), (1.0, 1.25, 1e-12)):
            assert one_sided_pause_throughput(d1, d2, 0.0, t21) == pytest.approx(want, abs=tol)
            assert adarep_pause_throughput(d1, d2, 0.0, (INF, t21)) == pytest.approx(want, abs=tol)


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


def enumerated_cost(d, delta, starts):
    """The exact start-time cost of an atomic law by enumerating every
    outcome of the launched copies: the job ends at the least end time S,
    each copy burns (S - start)^+, and delta is charged for each replica
    started before S and once more when any is.  As in the simulator, on a
    lattice that is no binary fraction a copy started on it ends at the
    float nearest its multiple of the step.  An oracle for the
    tail-integral cost, exponential in the number of copies."""
    all_starts = (0.0,) + tuple(starts)
    active = [t for t in all_starts if t < INF]
    step = _lattice_step((d,))
    ends = []
    for t in active:
        row = [(v + t, p) for v, p in d._atoms()]
        if step is not None and float(step) != step:
            n = _ticks(t, float(step))
            if _time_of(n, step) == t:
                row = [(_time_of(n + _ticks(v, float(step)), step), p) for v, p in d._atoms()]
        ends.append(row)
    total = 0.0
    for combo in itertools.product(*ends):
        s = min(end for end, _ in combo)
        cost = sum(max(s - t, 0.0) for t in active)
        if len(all_starts) > 1:
            cost += delta * (sum(t < s for t in all_starts[1:]) + (all_starts[1] < s))
        total += math.prod(p for _, p in combo) * cost
    return total


def atomic_oracle_cases():
    """(law, delta, starts) from a fixed seed: 2-3 atoms on the lattices of
    step 1, 1/2 and 1/10, 2 to 6 copies, delta in {0, 0.1, 1}, and starts
    drawn from lattice points (some where an earlier copy may end), floats
    off the lattice and infinity."""
    rng = random.Random(2019)
    cases = []
    for den in (1, 2, 10):
        for _ in range(25):
            ticks = rng.sample(range(1, 16), rng.randint(2, 3))
            weights = [rng.randint(1, 9) for _ in ticks]
            d = FiniteSupport(tuple((n / den, w / sum(weights)) for n, w in zip(ticks, weights)))
            for _ in range(4):
                on = [0]  # ticks of the copies started on the lattice
                starts = []
                for _ in range(rng.randint(1, 5)):
                    kind = rng.random()
                    if kind < 0.6:
                        if kind < 0.3:
                            on.append(rng.randint(0, max(ticks) + 2))
                        else:  # where a replica may end before the first copy
                            base = rng.choice(on[1:] or on)
                            on.append(base + rng.choice([n for n in ticks if base + n < max(ticks)] or ticks))
                        starts.append(on[-1] / den)
                    elif kind < 0.85:
                        starts.append(rng.uniform(0.0, (max(ticks) + 2) / den))
                    else:
                        starts.append(INF)
                cases.append((d, rng.choice((0.0, 0.1, 1.0)), tuple(sorted(starts))))
    return cases


class TestAtomicCostOracle:
    """The exact cost of atomic laws is an integral of tail products, as
    for every other law; outcome enumeration is its reference."""

    def test_matches_enumeration(self):
        for d, delta, starts in atomic_oracle_cases():
            got, err = homogeneous_cost(d, delta, starts)
            want = enumerated_cost(d, delta, starts)
            assert err == 0.0
            assert abs(got - want) <= 1e-13 * want, (d, delta, starts)

    def test_a_replica_due_where_a_copy_ends(self):
        # 0.2 + 0.1 is 0.30000000000000004: unsnapped, the copy started at
        # 0.2 would end after the replica due at 0.3 and charge delta for it
        d = FiniteSupport(((0.1, 0.5), (1.0, 0.5)))
        want = enumerated_cost(d, 0.1, (0.2, 0.3))
        assert want == pytest.approx(0.675, rel=1e-13)
        assert homogeneous_cost(d, 0.1, (0.2, 0.3))[0] == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize(
        "d,start",
        [
            # 2^60 + 1 and 2^60 + 2 round to 2^60
            (FiniteSupport(((1.0, 0.5), (2.0, 0.5))), 2.0**60),
            # masses that sum to 1 + 1e-13 merge into one of at most 1
            (FiniteSupport(((1.0, 0.5), (2.0, 0.5 + 1e-13))), 2.0**60),
            # the lattice points 10^18 + 0.1 and 10^18 + 0.2 round to 10^18
            (FiniteSupport(((0.1, 0.5), (0.2, 0.5))), 1e18),
        ],
    )
    def test_ends_that_round_to_one_float_merge(self, d, start):
        for delta in (0.0, 1.0):
            got, _ = homogeneous_cost(d, delta, (0.5, start))
            assert got == pytest.approx(enumerated_cost(d, delta, (0.5, start)), rel=1e-13)

    LAW_K7 = FiniteSupport(
        ((1.0, 0.9), (2.0, 0.02), (3.0, 0.02), (4.0, 0.02), (5.0, 0.01), (6.0, 0.01), (7.0, 0.01), (40.0, 0.01))
    )

    def test_seven_copies_of_eight_atoms(self):
        # 8^7 outcomes: more than the 2,000,000 the enumeration allowed
        starts = (1.0, 2.0, 3.0, 4.0, 5.0, 8.0)
        exact, _ = homogeneous_cost(self.LAW_K7, 0.0, starts)
        mc, err = homogeneous_cost(
            self.LAW_K7, 0.0, starts, estimator="monte-carlo", n_paths=400_000, seed=7
        )
        assert abs(mc - exact) <= 4 * err
        assert homogeneous_bound(self.LAW_K7, 0.0, 7).value >= best_homogeneous_r(self.LAW_K7, 0.0, 7).bound


def path_major_cost(draws, all_starts, delta):
    """The Monte-Carlo cost on an (n_paths, K) draw matrix, reduced across
    each path with numpy: the reference the row-per-copy cost must
    reproduce bit for bit."""
    starts = np.asarray(all_starts)
    finite = starts < INF
    shifted = draws[:, finite] + starts[finite]
    s = shifted.min(axis=1)
    cost = np.maximum(s[:, None] - starts[finite][None, :], 0.0).sum(axis=1)
    if delta > 0.0 and len(all_starts) > 1:
        launched = (starts[None, 1:] < s[:, None]).sum(axis=1)
        cost = cost + delta * (launched + (starts[1] < s).astype(float))
    n = len(cost)
    return float(cost.mean()), float(cost.std(ddof=1) / math.sqrt(n))


class TestMonteCarloCostBits:
    """The common draws are held one row per copy; every cost must keep the
    bits of the path-major reductions, whose summation order changes at 8
    and at 128 terms."""

    LAWS = (HyperExp(0.6, 0.2, 0.4), FiniteSupport(((1.0, 0.9), (20.0, 0.1))), Pareto(1.0, 1.5))
    GRID = (0.0, 0.5, 1.0, 1.7, 2.3, 5.0, 20.0, INF)

    @staticmethod
    def reference(d, delta, starts, n_paths, seed):
        all_starts = (0.0,) + tuple(starts)
        draws = d.sample_array(np.random.default_rng(seed), n_paths * len(all_starts))
        return path_major_cost(draws.reshape(n_paths, -1), all_starts, delta)

    @pytest.mark.parametrize("k", [*range(1, 11), 130])
    def test_equals_path_major_reductions(self, k):
        rng = np.random.default_rng(1000 + k)
        n_paths = 2000 if k < 130 else 500
        for trial in range(6):
            d = self.LAWS[trial % 3]
            starts = tuple(sorted(float(t) for t in rng.choice(self.GRID, k - 1)))
            for delta in (0.0, 0.1):
                got = homogeneous_cost(d, delta, starts, "monte-carlo", n_paths, seed=trial)
                want = self.reference(d, delta, starts, n_paths, trial)
                assert got == want, (d, starts, delta)

    def test_every_copy_launched_past_eight_and_past_128(self):
        # Pareto(1, 1.5) draws are >= 1, so every copy started before 1 is
        # launched and adds a nonzero overshoot to the sum
        d = self.LAWS[2]
        for k in (8, 9, 17, 130):
            starts = tuple(0.007 * j for j in range(1, k))
            got = homogeneous_cost(d, 0.1, starts, "monte-carlo", 500, seed=k)
            assert got == self.reference(d, 0.1, starts, 500, k), k

    @pytest.mark.parametrize("n", [*range(1, 30), 127, 128, 129, 130, 200, 257])
    def test_row_sum_is_numpy_row_order(self, n):
        # per path, not only in the mean: a mean over paths can hide 1-ulp
        # differences of single paths
        rng = np.random.default_rng(n)
        x = rng.random((2000, n)) * 10.0 ** rng.integers(-6, 6, (2000, n))
        got = bounds_module._row_sum([x[:, j].copy() for j in range(n)])
        assert np.array_equal(got, x.sum(axis=1))

    def test_pinned_values(self):
        # recorded with the path-major reductions
        d = HyperExp(0.6, 0.2, 0.4)
        assert homogeneous_cost(
            d, 0.1, (0.5, 1.0, 1.0, 2.0, INF), "monte-carlo", n_paths=5000, seed=7
        ) == (2.699267530711383, 0.037744158518671675)
        assert homogeneous_cost(
            d, 0.1, (0.0, 0.5, 1.0, 1.0, 1.5, 2.0, 2.0, 3.0, INF), "monte-carlo", n_paths=5000, seed=7
        ) == (2.76481585873659, 0.03665321963473741)


class TestBoundInputs:
    D = HyperExp(0.6, 0.2, 0.4)

    @pytest.mark.parametrize("delta", [-1.0, math.nan, INF])
    def test_homogeneous_cost_rejects_delta(self, delta):
        for estimator in ("exact", "monte-carlo"):
            with pytest.raises(ValueError, match="cancellation delay"):
                homogeneous_cost(self.D, delta, (1.0,), estimator, n_paths=10)

    @pytest.mark.parametrize("delta", [-1.0, math.nan, INF])
    def test_homogeneous_bound_rejects_delta(self, delta):
        with pytest.raises(ValueError, match="cancellation delay"):
            homogeneous_bound(self.D, delta, 2)

    @pytest.mark.parametrize("delta", [-1.0, math.nan, INF])
    def test_pause_bounds_reject_delta(self, delta):
        with pytest.raises(ValueError, match="cancellation delay"):
            optimize_pause_bound(self.D, self.D, delta)
        with pytest.raises(ValueError, match="cancellation delay"):
            adarep_pause_throughput(self.D, self.D, delta, (1.0, 1.0))

    def test_nan_start_time(self):
        with pytest.raises(ValueError, match="start times"):
            StartTimeVector((math.nan,))
        for estimator in ("exact", "monte-carlo"):
            with pytest.raises(ValueError, match="start times"):
                homogeneous_cost(self.D, 0.1, (1.0, math.nan), estimator, n_paths=10)

    def test_nan_threshold(self):
        with pytest.raises(ValueError, match="thresholds"):
            adarep_pause_throughput(self.D, self.D, 0.1, (math.nan, 1.0))
        with pytest.raises(ValueError, match="thresholds"):
            adarep_pause_throughput(self.D, self.D, 0.1, (INF, math.nan))

    @pytest.mark.parametrize("k", [2.5, 2.0, 0, -1, "2"])
    def test_k_must_be_a_positive_integer(self, k):
        with pytest.raises(ValueError, match="integer k >= 1"):
            homogeneous_bound(self.D, 0.1, k)

    def test_huge_atoms_have_an_exact_bound(self):
        # an exact cost has no stderr to scale, and its mean squared overflows
        rep = homogeneous_bound(FiniteSupport(((1e300, 1.0),)), 0.0, 3)
        assert rep.value == pytest.approx(3e-300, rel=1e-15) and rep.stderr == 0.0

    def test_numpy_integer_k(self):
        # the report holds plain floats, as for a Python int
        rep = homogeneous_bound(self.D, 0.1, np.int64(2))
        assert rep == homogeneous_bound(self.D, 0.1, 2) and type(rep.value) is float


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
    benchmark law), recorded with the shared start-time search.  The values
    the earlier grid-and-descent optimizer found are kept as floors: a bound
    found by a better search may only rise."""

    D = HyperExp(0.6, 0.2, 0.4)
    GRID_DESCENT_EXACT = 2.2578475739689075
    GRID_DESCENT_MONTE_CARLO = 2.2283750984069166

    def test_exact(self):
        rep = homogeneous_bound(self.D, 0.1, 6)
        assert rep.optimizer == (
            1.4752582642136465,
            1.9006838296070614,
            2.6086741763829613,
            3.277310253803528,
            3.914456770897774,
        )
        assert rep.value == pytest.approx(2.2581058275278525, rel=1e-13)
        assert rep.value >= self.GRID_DESCENT_EXACT

    def test_monte_carlo(self):
        rep = homogeneous_bound(self.D, 0.1, 6, estimator="monte-carlo", n_paths=5000, seed=123)
        assert rep.value == 2.23104514677095
        assert rep.stderr == 0.03129694060228212
        assert rep.optimizer == (
            1.0611564168488834,
            1.1609229506290026,
            2.2889878508766826,
            3.0235727548624207,
            3.0235727548624207,
        )
        assert rep.value >= self.GRID_DESCENT_MONTE_CARLO

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


LAW_A = FiniteSupport(((1.0, 0.9), (10.0, 0.1)))
LAW_B = FiniteSupport(((1.0, 0.8), (8.0, 0.2)))


class TestBoundAboveTheOptimum:
    """No policy beats a capacity bound: on identical atomic servers the
    replay of the exact optimal policy, the optimum and the bound are
    ordered (rows where a grid of atoms and midpoints put the bound below
    the optimum)."""

    @pytest.mark.parametrize(
        "d,delta,k", [(LAW_A, 1.0, 3), (LAW_B, 0.0, 4), (LAW_B, 1.0, 4), (LAW_B, 1.0, 5)]
    )
    def test_replay_optimum_bound(self, d, delta, k):
        kernel = build_mdp((d,) * k, delta)
        solution = solve_average_cost(kernel)
        assert solution.throughput <= homogeneous_bound(d, delta, k).value
        policy = as_tabular_policy(kernel, solution)
        res = run_saturated(SystemConfig((d,) * k, delta), policy, 20_000, seed=k)
        assert abs(res.throughput - solution.throughput) <= 3 * res.throughput_stderr

    def test_six_servers(self):
        for delta, optimum in ((0.0, 3.7638481044507763), (1.0, 2.909216389026674)):
            solution = solve_average_cost(build_mdp((LAW_B,) * 6, delta))
            assert solution.throughput == optimum
            assert solution.throughput <= homogeneous_bound(LAW_B, delta, 6).value

    def test_no_start_vector_on_a_half_grid_costs_less(self):
        rep = homogeneous_bound(LAW_A, 1.0, 3)
        grid = [0.5 * i for i in range(21)] + [INF]
        least = min(
            homogeneous_cost(LAW_A, 1.0, (a, b))[0]
            for a in grid
            for b in grid
            if a <= b
        )
        assert least >= 3 / rep.value * (1 - 1e-12)


class TestStartTimesOnTheLattice:
    """Atomic laws on the 0.1 lattice: a minimiser of the start-time cost
    lies on the lattice, and the search ends there."""

    FINE = FiniteSupport(((0.1, 0.99), (1000.0, 0.01)))  # 10,000 steps: quantile rule
    COARSE = FiniteSupport(((0.1, 0.99), (10.0, 0.01)))  # 100 steps: lattice rule

    @staticmethod
    def on_lattice(vec):
        return all(t == INF or t == round(t * 10) / 10 for t in vec)

    def test_refined_starts_snap_to_the_lattice(self):
        # golden section alone stopped at (0.1, 0.2002, 0.4548), 38.43161501781608
        rep = homogeneous_bound(self.FINE, 0.1, 4)
        assert rep.value >= 38.43168738743118  # the lattice vector (0.1, 0.2, 0.4)
        assert self.on_lattice(rep.optimizer)
        assert rep.value == 4 / homogeneous_cost(self.FINE, 0.1, rep.optimizer)[0]

    def test_lattice_rule_finds_the_start_where_a_copy_ends(self):
        # with 0.2 + 0.1 taken as later than 0.3, the search stopped at
        # (0.1, 0.2, 0.4), 38.446315199423914
        rep = homogeneous_bound(self.COARSE, 0.1, 4)
        assert self.on_lattice(rep.optimizer)
        assert rep.value > 4 / homogeneous_cost(self.COARSE, 0.1, (0.1, 0.2, 0.4))[0]

    @pytest.mark.parametrize("d", [FINE, COARSE])
    def test_a_start_where_a_copy_ends_launches_nothing(self, d):
        # 0.2 + 0.1 is 0.30000000000000004 in floats: a copy due at 0.3 must
        # see the second copy's 0.1 atom end there, not after it
        at, after = (0.1, 0.2, 0.3), (0.1, 0.2, 0.1 + 0.2)
        assert homogeneous_cost(d, 0.1, at) == homogeneous_cost(d, 0.1, after)

    @pytest.mark.parametrize(
        "laws,cands",
        [
            (
                (FiniteSupport(((0.001, 0.5), (1.0, 0.5))),),
                [0.0, 0.001, 0.003270242804522918, 0.01069448800053393, 0.034973572431802796,
                 0.11437207359356424, 0.3740244507077191, 1.0, 1.2231507686425565, 4.0, INF],
            ),
            (
                (Deterministic(0.003), FiniteSupport(((1.0, 0.9), (20.0, 0.1)))),
                [0.0, 0.003, 0.012864784100515489, 0.05516755665095871, 0.2365729018891804, 1.0,
                 1.0144864356122458, 4.350382989017682, 18.65557930275592, 20.0, 80.0, INF],
            ),
            (
                (
                    FiniteSupport(((0.01, 0.3), (2.5, 0.7))),
                    Shifted(0.5, FiniteSupport(((0.25, 0.5), (3.0, 0.5)))),
                ),
                [0.0, 0.01, 0.028147955919589164, 0.07923074224511346, 0.22301834401917855, 0.5,
                 0.627751051671161, 0.75, 1.7669908930915579, 2.5, 3.5, 4.973718176905668, 14.0,
                 INF],
            ),
        ],
    )
    def test_candidates_past_the_lattice_guard(self, laws, cands):
        # more than _LATTICE_GUARD steps: quantiles and every atom, refined on the lattice
        assert bounds_module._candidates(laws) == (cands, _lattice_step(laws))

    def test_benchmark_bounds_do_not_move(self):
        # homog_wide's law has no lattice; mdp_exact's pause bounds take the
        # lattice rule, whose candidates are never refined
        rep = homogeneous_bound(HyperExp(0.6, 0.2, 0.4), 0.1, 6)
        assert rep.value == 2.2581058275278525
        assert optimize_pause_bound(*EXAMPLE, 0.0).value == 1.25
        lattice = (Deterministic(0.3), FiniteSupport(((0.1, 0.7), (1.7, 0.3))))
        pause = optimize_pause_bound(*lattice, 0.1)
        assert (pause.value, pause.optimizer) == (6.060606060606061, (INF, 0.1))


@pytest.mark.parametrize("delta", [0.0, 0.1])
@pytest.mark.parametrize(
    "d",
    [
        FiniteSupport(((1.0, 0.9), (20.0, 0.1))),
        Exponential(1.0),
        Shifted(0.2, Exponential(1.0)),
        HyperExp(0.6, 0.2, 0.4),
        Pareto(1.0, 1.5),
    ],
)
def test_two_server_bounds_agree(d, delta):
    # for two identical servers the pause bound at (t, t) is 2 over the
    # start-time cost at t, and both searches find the same optimum
    pause = optimize_pause_bound(d, d, delta).value
    assert pause == pytest.approx(homogeneous_bound(d, delta, 2).value, rel=1e-9)
