import itertools
import math

import numpy as np
import pytest

from repliq.analytic import (
    HomogeneousReplication,
    Partition,
    bell_number,
    best_homogeneous_r,
    best_partition,
    iter_partitions,
    throughput_fullrep,
    throughput_norep,
    throughput_upfront,
)
from repliq.distributions import (
    Deterministic,
    Exponential,
    FiniteSupport,
    HyperExp,
    Pareto,
    Shifted,
)
from repliq.engine import SystemConfig
from repliq.errors import InfiniteMeanError, InvalidPartitionError, TooManyServersError
from repliq.mdp import build_mdp

EXAMPLE = (Deterministic(2.0), FiniteSupport(((1.0, 0.9), (20.0, 0.1))))


class TestNoRep:
    def test_example_pair(self):
        rep = throughput_norep(EXAMPLE)
        assert rep.value == pytest.approx(0.84483, abs=1e-4)
        assert rep.value == pytest.approx(0.5 + 1.0 / 2.9, rel=1e-12)

    def test_three_iid_exponentials(self):
        mu = 0.7
        rep = throughput_norep([Exponential(mu)] * 3)
        assert rep.value == pytest.approx(3 * mu, rel=1e-12)

    def test_mixed_composition(self):
        rep = throughput_norep([Shifted(0.5, Exponential(1.0)), Pareto(0.5, 2.0)])
        assert rep.value == pytest.approx(1.0 / 1.5 + 1.0, rel=1e-12)

    def test_components_sum(self):
        rep = throughput_norep(EXAMPLE)
        assert rep.value == pytest.approx(math.fsum(rep.components), rel=1e-12)

    def test_infinite_mean_propagates(self):
        with pytest.raises(InfiniteMeanError):
            throughput_norep([Pareto(0.5, 0.9)])


class TestFullRep:
    def test_example_pair(self):
        rep = throughput_fullrep(EXAMPLE, 0.0)
        assert rep.value == pytest.approx(0.90909, abs=1e-4)

    def test_two_exponentials(self):
        mu = 1.3
        rep = throughput_fullrep([Exponential(mu)] * 2, 0.0)
        assert rep.value == pytest.approx(2 * mu, rel=1e-12)

    def test_deterministic_with_delay(self):
        rep = throughput_fullrep([Deterministic(3.0)] * 4, 0.5)
        assert rep.value == pytest.approx(1.0 / 3.5, rel=1e-12)


class TestUpfront:
    def test_singletons_reduce_to_norep(self):
        part = Partition((frozenset({0}), frozenset({1})))
        rep = throughput_upfront(part, EXAMPLE, 0.0)
        assert rep.value == throughput_norep(EXAMPLE).value

    def test_singletons_pay_no_cancellation_window(self):
        # a lone copy never triggers cancellation, for any delta
        part = Partition((frozenset({0}), frozenset({1})))
        rep = throughput_upfront(part, EXAMPLE, 0.7)
        assert rep.value == throughput_norep(EXAMPLE).value
        mixed = Partition((frozenset({0, 1}), frozenset({2})))
        ds = [Exponential(1.0), Exponential(1.0), Deterministic(1.0)]
        rep = throughput_upfront(mixed, ds, 0.5)
        assert rep.components == pytest.approx((1.0 / (0.5 + 0.5), 1.0))

    def test_single_group_reduces_to_fullrep(self):
        part = Partition((frozenset({0, 1}),))
        rep = throughput_upfront(part, EXAMPLE, 0.0)
        assert rep.value == throughput_fullrep(EXAMPLE, 0.0).value

    def test_four_exponentials_in_pairs(self):
        part = Partition((frozenset({0, 1}), frozenset({2, 3})))
        rep = throughput_upfront(part, [Exponential(1.0)] * 4, 0.0)
        assert rep.value == pytest.approx(4.0, rel=1e-12)
        assert rep.components == pytest.approx((2.0, 2.0))

    def test_partition_validation(self):
        with pytest.raises(InvalidPartitionError):
            Partition((frozenset({0}), frozenset({0, 1})))
        with pytest.raises(InvalidPartitionError):
            Partition((frozenset({0}), frozenset({2})))
        with pytest.raises(InvalidPartitionError):
            Partition((frozenset(), frozenset({0})))
        with pytest.raises(InvalidPartitionError):
            throughput_upfront(Partition((frozenset({0}),)), EXAMPLE, 0.0)


class TestBellNumbers:
    def test_known_values(self):
        assert bell_number(0) == 1
        assert bell_number(3) == 5
        assert bell_number(4) == 15
        assert bell_number(12) == 4213597

    @pytest.mark.parametrize("k", range(1, 9))
    def test_enumeration_count_matches(self, k):
        assert sum(1 for _ in iter_partitions(k)) == bell_number(k)

    def test_partitions_are_distinct(self):
        seen = {tuple(sorted(tuple(sorted(g)) for g in p.groups)) for p in iter_partitions(5)}
        assert len(seen) == bell_number(5)

    @pytest.mark.parametrize("k", range(8))
    def test_enumeration_order_is_restricted_growth_strings(self, k):
        # best_partition keeps the first of tied partitions, so the order
        # matters: server i's group label is at most one above every label
        # before it, and the strings come in lexicographic order
        # (itertools.product's order, over labels 0..i at position i)
        strings = [
            s
            for s in itertools.product(*(range(i + 1) for i in range(k)))
            if all(s[i] <= max(s[:i], default=-1) + 1 for i in range(k))
        ]
        expected = [
            tuple(frozenset(i for i in range(k) if s[i] == label) for label in range(max(s, default=-1) + 1))
            for s in strings
        ]
        assert [p.groups for p in iter_partitions(k)] == expected


class TestBestPartition:
    def test_example_pair_prefers_full_group(self):
        part, rep = best_partition(EXAMPLE, 0.0)
        assert part.groups == (frozenset({0, 1}),)
        assert rep.value == pytest.approx(0.90909, abs=1e-4)

    def test_two_deterministic_prefers_singletons(self):
        part, rep = best_partition([Deterministic(1.0)] * 2, 0.0)
        assert sorted(len(g) for g in part.groups) == [1, 1]
        assert rep.value == pytest.approx(2.0, rel=1e-12)

    def test_argmax_over_all_partitions(self):
        rng = np.random.default_rng(2)
        for k in (5, 5, 6):
            ds = [
                FiniteSupport(((1.0, p), (8.0, 1.0 - p)))
                for p in rng.uniform(0.2, 0.9, size=k)
            ]
            _, rep = best_partition(ds, 0.1)
            for part in iter_partitions(k):
                assert rep.value >= throughput_upfront(part, ds, 0.1).value - 1e-12

    def test_exponential_tie_prefers_fewer_groups(self):
        part, _ = best_partition([Exponential(1.0)] * 3, 0.0)
        assert part.groups == (frozenset({0, 1, 2}),)

    def test_guard(self):
        with pytest.raises(TooManyServersError):
            best_partition([Exponential(1.0)] * 13, 0.0)


class TestBestHomogeneousR:
    def test_shifted_exponential_prefers_no_replication(self):
        rep = best_homogeneous_r(Shifted(0.1, Exponential(1.0)), 0.0, 10)
        assert rep.r_star == 1

    def test_hyperexp_prefers_full_replication(self):
        rep = best_homogeneous_r(HyperExp(0.6, 0.2, 0.4), 0.0, 10)
        assert rep.r_star == 10

    def test_exponential_tie_goes_to_smallest_r(self):
        mu = 2.0
        rep = best_homogeneous_r(Exponential(mu), 0.0, 10)
        assert rep.r_star == 1
        assert rep.bound == pytest.approx(10 * mu, rel=1e-9)
        assert rep.achievable_exactly

    def test_divisibility_flag(self):
        rep = best_homogeneous_r(HyperExp(0.6, 0.2, 0.4), 0.0, 7)
        assert rep.r_star == 7 and rep.achievable_exactly
        rep = best_homogeneous_r(Shifted(0.1, Exponential(1.0)), 0.0, 10)
        assert rep.achievable_exactly  # r*=1 divides everything

    def test_log_concave_vs_log_convex_grid(self):
        rng = np.random.default_rng(8)
        for _ in range(6):
            shift = rng.uniform(0.05, 1.0)
            mu = rng.uniform(0.4, 2.0)
            assert best_homogeneous_r(Shifted(shift, Exponential(mu)), 0.0, 8).r_star == 1, (
                f"log-concave case failed at shift={shift}, mu={mu}"
            )
        for _ in range(6):
            r1 = rng.uniform(0.5, 1.5)
            r2 = rng.uniform(0.05, 0.3)
            p2 = rng.uniform(0.2, 0.8)
            assert best_homogeneous_r(HyperExp(r1, r2, p2), 0.0, 8).r_star == 8, (
                f"log-convex case failed at rates=({r1},{r2}), p2={p2}"
            )

    def test_pareto_intermediate_possible(self):
        rep = best_homogeneous_r(Pareto(0.5, 1.2), 0.0, 10)
        assert 1 <= rep.r_star <= 10
        assert isinstance(rep, HomogeneousReplication)

    @pytest.mark.parametrize("k", [2.5, 2.0, 0, -1, "2"])
    def test_k_must_be_a_positive_integer(self, k):
        with pytest.raises(ValueError, match="integer k >= 1"):
            best_homogeneous_r(Exponential(1.0), 0.1, k)


@pytest.mark.parametrize("delta", [-5.0, math.nan, math.inf])
def test_every_entry_point_rejects_a_bad_delay(delta):
    # one rule for the cancellation delay: finite and >= 0
    entry_points = [
        lambda: SystemConfig(EXAMPLE, delta),
        lambda: throughput_fullrep(EXAMPLE, delta),
        lambda: throughput_upfront(Partition((frozenset({0, 1}),)), EXAMPLE, delta),
        lambda: best_partition(EXAMPLE, delta),
        lambda: best_homogeneous_r(EXAMPLE[1], delta, 3),
        lambda: build_mdp(EXAMPLE, delta),
    ]
    for call in entry_points:
        with pytest.raises(ValueError, match="cancellation delay must be finite and >= 0"):
            call()
