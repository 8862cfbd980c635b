import hashlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from repliq import policies
from repliq.bounds import optimize_pause_bound
from repliq.distributions import Deterministic, Exponential, FiniteSupport, _lattice_step
from repliq.engine import SystemConfig, run_saturated
from repliq.errors import (
    MultichainError,
    NoConvergenceError,
    NonLatticeDeltaError,
    PolicyError,
    StateExplosionError,
)
from repliq.mdp import (
    MdpKernel,
    as_tabular_policy,
    build_mdp,
    policy_rows,
    solve_average_cost,
    _flatten,
    _plan_label,
    _rvi_per_step,
    _solve_with_departure_gaps,
    _verify_unichain,
)
from repliq.policies import canonical_state, law_classes

INF = float("inf")

EXAMPLE_DISTS = (Deterministic(2.0), FiniteSupport(((1.0, 0.9), (20.0, 0.1))))
LATTICE_DISTS = (Deterministic(0.3), FiniteSupport(((0.1, 0.7), (1.7, 0.3))))
THREE_TWO_ATOM = (FiniteSupport(((1.0, 0.9), (4.0, 0.1))),) * 3
LAW_A = FiniteSupport(((1.0, 0.9), (10.0, 0.1)))
LAW_B = FiniteSupport(((1.0, 0.8), (8.0, 0.2)))
ADAREP_RENEWAL_RATE = 2.9 / 2.38  # three renewal interval types, two servers


@pytest.fixture(scope="module")
def example_kernel():
    return build_mdp(EXAMPLE_DISTS, 0.0)


@pytest.fixture(scope="module")
def example_solution(example_kernel):
    return solve_average_cost(example_kernel)


class TestKernel:
    def test_probabilities_sum_to_one(self, example_kernel):
        for acts in example_kernel.actions:
            for _, trans in acts:
                assert math.fsum(p for _, p, _, _ in trans) == pytest.approx(1.0, abs=1e-12)

    def test_pending_states_only_null(self, example_kernel):
        for state, acts in zip(example_kernel.states, example_kernel.actions):
            if state[3] > 0:
                assert [label for label, _ in acts] == ["null"]

    def test_some_server_always_fresh(self, example_kernel):
        for state in example_kernel.states:
            assert min(state[1]) == 0.0

    def test_contains_single_job_states(self, example_kernel):
        match = [
            s
            for s in example_kernel.states
            if s[0] == ((1,),) and s[1][1] > 0 and s[3] == 0
        ]
        assert match, "expected states with an aged job on the finite-support server"

    def test_all_idle_replicate_action_self_loop(self, example_kernel):
        acts = dict(example_kernel.actions[0])
        assert set(acts) == {"new[1]+new[2]", "new[1,2]"}
        trans = acts["new[1,2]"]
        assert len(trans) == 1
        idx, p, cost, departs = trans[0]
        assert idx == 0 and p == 1.0 and departs == 1
        assert cost == pytest.approx(2 * 1.1, abs=1e-12)

    def test_single_server_trivial(self):
        kernel = build_mdp((FiniteSupport(((2.0, 0.6), (5.0, 0.4))),), 0.0)
        solution = solve_average_cost(kernel)
        assert solution.throughput == pytest.approx(1.0 / 3.2, rel=1e-9)

    def test_rejects_continuous(self):
        with pytest.raises(ValueError):
            build_mdp((Exponential(1.0), Exponential(1.0)), 0.0)

    def test_rejects_a_zero_atom(self):
        # a copy that outlived the zero atom had elapsed 0, as a fresh copy
        # has, so it was re-drawn for free: two such servers "solved" to
        # 3.0000000007, above their bound of 2.0 and their replay of 2.0
        law = FiniteSupport(((0.0, 0.5), (2.0, 0.5)))
        with pytest.raises(ValueError, match=r"positive atoms, got finite\(\[\(0,0.5\)"):
            build_mdp((law,) * 2, 0.0)

    def test_state_cap(self):
        with pytest.raises(StateExplosionError):
            build_mdp(EXAMPLE_DISTS, 0.0, state_cap=5)

    def test_delta_off_lattice(self):
        with pytest.raises(NonLatticeDeltaError):
            build_mdp(EXAMPLE_DISTS, 1 / 3)
        build_mdp(EXAMPLE_DISTS, 1.0)  # on the lattice

    def test_delta_finer_than_the_atoms(self):
        # the ticks are the gcd of the atoms and the delay together
        kernel = build_mdp(EXAMPLE_DISTS, 0.3)
        assert kernel.n_states == 22 and kernel.step == Fraction(1, 10)
        rate = solve_average_cost(kernel).throughput
        assert rate <= optimize_pause_bound(*EXAMPLE_DISTS, 0.3).value

    def test_atoms_off_the_grid(self):
        # no lattice step to count ticks of, whatever the delay
        with pytest.raises(NonLatticeDeltaError):
            build_mdp((Deterministic(1 / 3), Deterministic(1.0)), 0.0)


class TestSolver:
    def test_example_gain_sandwich(self, example_solution):
        # a feasible threshold policy achieves the renewal rate, and the
        # pause-and-replicate relaxation caps anything feasible
        rate = example_solution.throughput
        assert rate >= ADAREP_RENEWAL_RATE - 1e-9
        bound = optimize_pause_bound(*EXAMPLE_DISTS, 0.0).value
        assert rate <= bound + 1e-9

    def test_two_deterministic_prefer_no_replication(self):
        kernel = build_mdp((Deterministic(1.0), Deterministic(1.0)), 0.0)
        solution = solve_average_cost(kernel)
        assert solution.throughput == pytest.approx(2.0, rel=1e-9)
        label, _ = kernel.actions[0][solution.choices[0]]
        assert label == "new[1]+new[2]"

    def test_rvi_handles_windows_aligned_with_departures(self):
        # deterministic pair: every cancel window ends exactly at a release
        kernel = build_mdp((Deterministic(1.0), Deterministic(1.0)), 1.0)
        solution = solve_average_cost(kernel)
        assert solution.method == "rvi"
        assert solution.throughput == pytest.approx(2.0, rel=1e-9)

    def test_straddling_cancel_windows_use_departure_charge_root(self):
        # a single-copy job can finish strictly inside another job's window,
        # creating zero-departure epochs that need the ratio solver
        ds = (Deterministic(1.0), Deterministic(1.0), Deterministic(1.25))
        kernel = build_mdp(ds, 0.5)
        has_zero_departure = any(
            d == 0
            for acts in kernel.actions
            for _, trans in acts
            for _, _, _, d in trans
        )
        assert has_zero_departure
        solution = solve_average_cost(kernel)
        assert solution.method == "bisection-rvi"
        assert solution.throughput == pytest.approx(2.8, rel=1e-6)

    def test_exhaustive_threshold_dominance(self, example_kernel, example_solution):
        # every stationary threshold rule (replicate the finite-support
        # server's job once it has run at least tau) is weakly worse
        for tau in [1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 19.0, INF]:
            gain = _threshold_policy_gain(example_kernel, tau)
            assert gain >= example_solution.gain - 1e-9
        # the tau=1 rule is exactly the renewal-analysis policy
        assert 2.0 / _threshold_policy_gain(example_kernel, 1.0) == pytest.approx(
            ADAREP_RENEWAL_RATE, rel=1e-9
        )

    def test_norep_and_fullrep_dominated(self, example_kernel, example_solution):
        norep = _fixed_label_gain(example_kernel, prefer="new")
        fullrep = _fixed_label_gain(example_kernel, prefer="group")
        assert 2.0 / norep == pytest.approx(0.8448275862, rel=1e-9)
        assert 2.0 / fullrep == pytest.approx(0.9090909091, rel=1e-9)
        assert example_solution.gain <= min(norep, fullrep) + 1e-9


def _evaluate_gain(kernel, choices):
    """Average cost per departure of a fixed policy, from the dense
    (n+1)x(n+1) evaluation equations h + g*d = c + P h with h[0] = 0."""
    n = kernel.n_states
    a = np.zeros((n + 1, n + 1))
    b = np.zeros(n + 1)
    for s in range(n):
        _, trans = kernel.actions[s][choices[s]]
        a[s, s] += 1.0
        for j, p, c, d in trans:
            a[s, j] -= p
            a[s, n] += p * d
            b[s] += p * c
    a[n, 0] = 1.0
    sol, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < n + 1:
        raise MultichainError("policy evaluation system is singular")
    return sol[n]


def _action_index(kernel, s, label):
    for i, (lab, _) in enumerate(kernel.actions[s]):
        if lab == label:
            return i
    raise AssertionError(f"no action {label!r} in state {kernel.states[s]}")


def _threshold_policy_gain(kernel, tau):
    choices = []
    for s, state in enumerate(kernel.states):
        jobs, elapsed, _, pending = state
        labels = [lab for lab, _ in kernel.actions[s]]
        if pending > 0:
            choices.append(_action_index(kernel, s, "null"))
        elif not jobs:
            choices.append(_action_index(kernel, s, "new[1]+new[2]"))
        else:
            (job,) = jobs
            origin = job[0]
            idle = 0 if 1 in job else 1
            if origin == 1 and elapsed[1] >= tau and f"rep[{idle + 1}]->[2]" in labels:
                choices.append(_action_index(kernel, s, f"rep[{idle + 1}]->[2]"))
            else:
                choices.append(_action_index(kernel, s, f"new[{idle + 1}]"))
    return _evaluate_gain(kernel, choices)


def _fixed_label_gain(kernel, prefer):
    choices = []
    for s, state in enumerate(kernel.states):
        jobs, _, _, pending = state
        labels = [lab for lab, _ in kernel.actions[s]]
        if pending > 0:
            choices.append(_action_index(kernel, s, "null"))
        elif prefer == "group" and "new[1,2]" in labels:
            choices.append(_action_index(kernel, s, "new[1,2]"))
        else:
            new_labels = [lab for lab in labels if lab.startswith("new[") and "," not in lab]
            if prefer == "group" and not new_labels:
                choices.append(0)
            else:
                choices.append(_action_index(kernel, s, sorted(new_labels)[0]))
    return _evaluate_gain(kernel, choices)


class TestCrossValidation:
    def test_simulating_extracted_policy_reproduces_gain(
        self, example_kernel, example_solution
    ):
        policy = as_tabular_policy(example_kernel, example_solution)
        config = SystemConfig(EXAMPLE_DISTS, 0.0)
        res = run_saturated(config, policy, 200_000, seed=17)
        assert abs(res.throughput - example_solution.throughput) <= 3 * res.throughput_stderr

    def test_replay_with_cancellation_window(self):
        # adaptive replication still wins with a costly window, and the
        # event-driven replay of the solved policy matches the gain
        d = FiniteSupport(((1.0, 0.8), (10.0, 0.2)))
        kernel = build_mdp((d, d), 1.0)
        solution = solve_average_cost(kernel)
        from repliq.analytic import throughput_fullrep, throughput_norep

        assert solution.throughput > throughput_norep((d, d)).value
        assert solution.throughput > throughput_fullrep((d, d), 1.0).value
        policy = as_tabular_policy(kernel, solution)
        res = run_saturated(SystemConfig((d, d), 1.0), policy, 100_000, seed=3)
        assert abs(res.throughput - solution.throughput) <= 3 * res.throughput_stderr

    def test_three_server_replay(self):
        # jobs replicated on three servers: the engine keeps a job's servers
        # in launch order, the table names them sorted
        ds = (FiniteSupport(((1.0, 0.9), (10.0, 0.1))),) * 3
        kernel = build_mdp(ds, 1.0)
        solution = solve_average_cost(kernel)
        policy = as_tabular_policy(kernel, solution)
        res = run_saturated(SystemConfig(ds, 1.0), policy, 20_000, seed=3)
        assert abs(res.throughput - solution.throughput) <= 4 * res.throughput_stderr

    def test_replay_with_a_delay_finer_than_the_atoms(self):
        # atoms 3, 6 and 12 with delta 1 run on ticks of 1; no policy beats
        # no replication, the optimum meets the pause bound
        ds = (FiniteSupport(((3.0, 0.4), (12.0, 0.6))), Deterministic(6.0))
        kernel = build_mdp(ds, 1.0)
        solution = solve_average_cost(kernel)
        assert kernel.n_states == 6
        assert solution.throughput == pytest.approx(optimize_pause_bound(*ds, 1.0).value, rel=1e-9)
        policy = as_tabular_policy(kernel, solution)
        res = run_saturated(SystemConfig(ds, 1.0), policy, 20_000, seed=3)
        assert abs(res.throughput - solution.throughput) <= 3 * res.throughput_stderr

    def test_replay_on_a_decimal_lattice(self):
        # in floats 0.1 + 0.1 + 0.1 != 0.3: the replay must see server 2's
        # third 0.1 release and server 1's 0.3 departure at one epoch, as
        # the decision process does
        kernel = build_mdp(LATTICE_DISTS, 0.1)
        solution = solve_average_cost(kernel)
        policy = as_tabular_policy(kernel, solution)
        res = run_saturated(SystemConfig(LATTICE_DISTS, 0.1), policy, 20_000, seed=5)
        assert abs(res.throughput - solution.throughput) <= 4 * res.throughput_stderr

    def test_replays_match_the_optimum_on_random_lattices(self):
        # K=2 atomic mixes on the 1, 0.5 and 0.1 lattices, delta 0 and one step
        rng = random.Random(2024)
        for i in range(10):
            per_unit = (1, 2, 10)[i % 3]
            ds = None
            while ds is None or _lattice_step(ds) != Fraction(1, per_unit):
                ds = (_lattice_law(rng, per_unit), _lattice_law(rng, per_unit))
            for delta in (0.0, 1 / per_unit):
                kernel = build_mdp(ds, delta)
                solution = solve_average_cost(kernel)
                policy = as_tabular_policy(kernel, solution)
                res = run_saturated(SystemConfig(ds, delta), policy, 10_000, seed=i)
                gap = abs(res.throughput - solution.throughput)
                assert gap <= 4 * res.throughput_stderr, (ds, delta)

    def test_replay_of_non_adjacent_equal_laws(self):
        # servers 1 and 3 share a law: the table is keyed by canonical states
        # and its plans are mapped back to the observed labels
        ds = (LAW_A, Deterministic(2.0), LAW_A)
        kernel = build_mdp(ds, 0.0)
        assert kernel.classes == (0, 1, 0)
        solution = solve_average_cost(kernel)
        policy = as_tabular_policy(kernel, solution)
        res = run_saturated(SystemConfig(ds, 0.0), policy, 20_000, seed=5)
        assert abs(res.throughput - solution.throughput) <= 4 * res.throughput_stderr

    def test_heterogeneous_table_never_canonicalises(
        self, example_kernel, example_solution, monkeypatch
    ):
        def fail(key, classes):
            raise AssertionError("canonicaliser called for distinct laws")

        monkeypatch.setattr(policies, "canonical_state", fail)
        policy = as_tabular_policy(example_kernel, example_solution)
        assert example_kernel.classes is None and policy.classes is None
        res = run_saturated(SystemConfig(EXAMPLE_DISTS, 0.0), policy, 5_000, seed=17)
        assert res.throughput > 0

    def test_replay_needs_a_lattice(self, example_kernel, example_solution):
        policy = as_tabular_policy(example_kernel, example_solution)
        config = SystemConfig((Deterministic(2.0), Exponential(1.0)), 0.0)
        with pytest.raises(PolicyError, match="no time lattice"):
            run_saturated(config, policy, 100, seed=1)

    def test_policy_rows_cover_all_states(self, example_kernel, example_solution):
        rows = policy_rows(example_kernel, example_solution)
        assert len(rows) == example_kernel.n_states
        assert all("jobs=" in state and action for state, action in rows)


def _plan_from_label(label):
    """Read a plan back from the label the kernel writes for it."""
    plan = []
    for part in label.split("+"):
        if part.startswith("new["):
            plan.append((tuple(int(x) - 1 for x in part[4:-1].split(",")), "new"))
        else:
            left, right = part.split("->")
            group = tuple(int(x) - 1 for x in left[4:-1].split(","))
            plan.append((group, tuple(int(x) - 1 for x in right[1:-1].split(","))))
    return tuple(plan)


class TestPlans:
    @pytest.mark.parametrize(
        "ds,delta",
        [(EXAMPLE_DISTS, 0.0), (THREE_TWO_ATOM, 1.0), (LATTICE_DISTS, 0.1)],
        ids=["example", "k3", "lattice"],
    )
    def test_plans_match_their_labels(self, ds, delta):
        kernel = build_mdp(ds, delta)
        for label, plan in kernel.plans.items():
            assert plan == (None if label in ("null", "advance") else _plan_from_label(label))
        solution = solve_average_cost(kernel)
        table = []
        for state, acts, choice in zip(kernel.states, kernel.actions, solution.choices):
            label, _ = acts[choice]
            if state[3] == 0 and label != "advance":
                table.append((state[:3], _plan_from_label(label)))
        assert as_tabular_policy(kernel, solution).table == tuple(table)


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
        yield [[first]] + sub


def _refill_plans(assignable, jobs):
    """Every refill plan, relabelled copies included: the enumeration the
    kernel used before it kept one plan per canonical occupancy."""
    plans = []
    for parts in _set_partitions(list(assignable)):
        def extend(i, used, acc):
            if i == len(parts):
                plans.append(tuple(acc))
                return
            extend(i + 1, used, acc + [(tuple(parts[i]), "new")])
            for job in jobs:
                if job in used:
                    continue
                extend(i + 1, used | {job}, acc + [(tuple(parts[i]), job)])

        extend(0, frozenset(), [])
    return plans


def _occupancy(state, plan):
    jobs, elapsed, cancel, _ = state
    new_jobs = list(jobs)
    new_elapsed = list(elapsed)
    for group, target in plan:
        if target == "new":
            new_jobs.append(tuple(sorted(group)))
        else:
            new_jobs[new_jobs.index(target)] = tuple(sorted(target + tuple(group)))
        for s in group:
            new_elapsed[s] = 0.0
    return tuple(sorted(new_jobs)), tuple(new_elapsed), cancel


class TestDistinctMoves:
    @pytest.mark.parametrize(
        "ds, delta",
        [
            ((LAW_A,) * 3, 1.0),
            ((LAW_B,) * 4, 0.0),
            ((LAW_B,) * 4, 1.0),
            ((LAW_A, Deterministic(2.0), LAW_A), 1.0),
        ],
        ids=["k3-d1", "k4-d0", "k4-d1", "ADA-d1"],
    )
    def test_one_action_per_canonical_occupancy(self, ds, delta):
        # every plan's canonical occupancy appears once, carried by the
        # least label among the plans that lead to it
        kernel = build_mdp(ds, delta)
        n_decisions = 0
        for state, acts in zip(kernel.states, kernel.actions):
            jobs, _, cancel, pending = state
            busy = {s for job in jobs for s in job}
            assignable = [s for s in range(kernel.k) if s not in busy and cancel[s] == 0.0]
            if pending or not assignable:
                continue
            least = {}
            for plan in _refill_plans(assignable, jobs):
                plan = tuple(sorted(plan))
                canon, _ = canonical_state(_occupancy(state, plan), kernel.classes)
                least[canon] = min(least.get(canon, _plan_label(plan)), _plan_label(plan))
            kept = [
                (canonical_state(_occupancy(state, kernel.plans[label]), kernel.classes)[0], label)
                for label, _ in acts
            ]
            assert len(dict(kept)) == len(kept)
            assert dict(kept) == least
            n_decisions += 1
        assert n_decisions > 0


def _lattice_law(rng, per_unit):
    """A law on steps of 1/per_unit: half the time a straggler (one to three
    steps mostly, eight to twelve at times), else one to three atoms among
    1..12 steps with random weights."""
    if rng.random() < 0.5:
        slow = rng.choice([0.1, 0.2, 0.3])
        atoms = ((rng.randint(1, 3), 1.0 - slow), (rng.randint(8, 12), slow))
    else:
        values = sorted(rng.sample(range(1, 13), rng.randint(1, 3)))
        weights = [rng.randint(1, 9) for _ in values]
        atoms = tuple((v, w / sum(weights)) for v, w in zip(values, weights))
    if len(atoms) == 1:
        return Deterministic(atoms[0][0] / per_unit)
    return FiniteSupport(tuple((v / per_unit, p) for v, p in atoms))


# Kernels and solutions recorded from the per-state loop solver; the array
# solver must reproduce them to the last bit.
PINNED = {
    "example": dict(
        ds=EXAMPLE_DISTS,
        delta=0.0,
        states=22,
        transitions=45,
        states_sha="8e33f16cf9190f86485bfbffde4dce9d702939fbbcc4dcc6b39fc7673b64c2e7",
        actions_sha="33d9268e0aff57768357572a8e2685bcc3a09073e094d30673f1c64c7d3aa16f",
        method="rvi",
        iterations=40,
        throughput=1.2184873951577366,
        gain=1.641379310075747,
        choices=[1, 0, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0],
    ),
    "lattice": dict(
        ds=LATTICE_DISTS,
        delta=0.1,
        states=20,
        transitions=42,
        # states hold ticks of 0.1 (see test_lattice_states_read_as_times)
        states_sha="7ce8ca22bace272821cdce423b9763a39c1a633db3b87512dd74cfd9d20af988",
        actions_sha="69593e3a274baa764a72736785d1fb5e3d0b85eb567f161b8c979d0f891b4811",
        method="rvi",
        iterations=47,
        throughput=5.668088136520742,
        gain=0.3528526642190969,
        choices=[1, 0, 1, 0, 1, 1, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    ),
    # identical servers: the kernel holds one canonical state per orbit
    # (81 states before lumping) and one action per canonical occupancy (108
    # transitions with every relabelled plan); the solution pins are the
    # unlumped kernel's; the exact gain is 1.3
    "three_two_atom": dict(
        ds=THREE_TWO_ATOM,
        delta=1.0,
        states=23,
        transitions=87,
        states_sha="533d6b8fc7039027c4a784055822e388bced5d4160db19d13c3259b8a78a8278",
        actions_sha="e0376871ee66db63ab4a72f737886ca1fda4e106c69bf4cc986581c7646d56a6",
        method="bisection-rvi",
        iterations=183,
        throughput=2.3076923076732454,
        gain=1.3000000000107383,
        choices=[2, 0, 1, 1] + [0] * 9 + [1, 0, 1] + [0] * 7,
        # the moves chosen with every relabelled plan in the kernel
        labels=["new[1]+new[2]+new[3]", "null", "new[2]+new[3]", "rep[3]->[1,2]", "null", "null"]
        + ["new[3]", "new[3]", "null", "new[3]", "null", "new[3]", "new[3]", "new[2]+new[3]"]
        + ["new[3]", "new[2]+new[3]", "new[3]", "null"] + ["new[3]"] * 5,
    ),
}


@pytest.fixture(scope="module", params=sorted(PINNED))
def pinned(request):
    pin = PINNED[request.param]
    kernel = build_mdp(pin["ds"], pin["delta"])
    return pin, kernel, solve_average_cost(kernel)


def _sha(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


class TestPinned:
    def test_kernel_unchanged(self, pinned):
        pin, kernel, _ = pinned
        assert kernel.n_states == pin["states"]
        assert sum(len(trans) for acts in kernel.actions for _, trans in acts) == pin["transitions"]
        assert _sha(kernel.states) == pin["states_sha"]
        assert _sha(kernel.actions) == pin["actions_sha"]

    def test_lattice_states_read_as_times(self):
        # the lattice kernel's states count ticks of 0.1; read as times they
        # are the states of the kernel built on 9-digit rounded times
        kernel = build_mdp(LATTICE_DISTS, 0.1)
        assert kernel.step == Fraction(1, 10)
        as_times = [
            (jobs, tuple(t / 10 for t in elapsed), tuple(c / 10 for c in cancel), pending)
            for jobs, elapsed, cancel, pending in kernel.states
        ]
        assert _sha(as_times) == "a4a02920d1ec26a318a4b37b2ad901afdd03f09ebfae7cd4e71e2e392cf3b554"

    def test_solution_bit_identical(self, pinned):
        pin, kernel, solution = pinned
        assert solution.method == pin["method"]
        assert solution.iterations == pin["iterations"]
        assert solution.throughput == pin["throughput"]
        assert solution.gain == pin["gain"]
        assert solution.choices == pin["choices"]
        if "labels" in pin:
            chosen = [acts[c][0] for acts, c in zip(kernel.actions, solution.choices)]
            assert chosen == pin["labels"]

    def test_diagnostics(self, pinned):
        pin, _, solution = pinned
        if pin["method"] == "rvi":
            assert 0.0 <= solution.span < 1e-9
            assert solution.bisection_rounds == 0
        else:
            assert 0.0 <= solution.span < 1e-10
            assert solution.bisection_rounds == 1

    def test_one_object_per_distinct_value(self, pinned):
        _, kernel, _ = pinned
        labels = [label for acts in kernel.actions for label, _ in acts]
        trans = [t for acts in kernel.actions for _, ts in acts for t in ts]
        floats = [x for _, elapsed, cancel, _ in kernel.states for x in elapsed + cancel]
        floats += [x for _, p, c, _ in trans for x in (p, c)]
        for values in (labels, trans, floats):
            assert len({id(v) for v in values}) == len(set(values))


def _loop_rvi(kernel, departure_charge, tol, max_iters, damping=0.5):
    """The per-state Python loop the array solver replaced, as a reference."""
    n = kernel.n_states
    h = np.zeros(n)
    choices = [0] * n
    for it in range(1, max_iters + 1):
        w = np.empty(n)
        for s in range(n):
            best = INF
            best_a = 0
            for a, (_, trans) in enumerate(kernel.actions[s]):
                val = 0.0
                for j, p, c, d in trans:
                    val += p * (c - departure_charge * d + h[j])
                if val < best - 1e-15:
                    best, best_a = val, a
            w[s] = best
            choices[s] = best_a
        diff = w - h
        span = diff.max() - diff.min()
        if span < tol:
            return float(0.5 * (diff.max() + diff.min())), list(choices), it, float(span)
        h = damping * (w - w[0]) + (1.0 - damping) * h
    raise AssertionError("reference loop did not converge")


class TestArraySolver:
    @pytest.mark.parametrize("charge", [0.0, 0.75, 1.3, 2.0])
    def test_matches_loop_to_the_last_bit(self, pinned, charge):
        _, kernel, _ = pinned
        flat = _flatten(kernel)
        assert _rvi_per_step(flat, charge, 1e-10, 10_000) == _loop_rvi(kernel, charge, 1e-10, 10_000)

    def test_near_tie_keeps_first_action(self):
        # the second action is cheaper by one ulp, inside the 1e-15 margin
        cheaper = math.nextafter(1.0, 0.0)
        kernel = MdpKernel(
            states=["s"],
            actions=[[("a", ((0, 1.0, 1.0, 1),)), ("b", ((0, 1.0, cheaper, 1),))]],
            k=1,
        )
        solution = solve_average_cost(kernel)
        assert solution.choices == [0] and solution.gain == 1.0
        assert _rvi_per_step(_flatten(kernel), 0.0, 1e-9, 100) == _loop_rvi(kernel, 0.0, 1e-9, 100)

    def test_rvi_iteration_cap(self, example_kernel):
        with pytest.raises(NoConvergenceError):
            solve_average_cost(example_kernel, max_iters=1)

    def test_bisection_iteration_cap(self):
        kernel = build_mdp(THREE_TWO_ATOM, 1.0)
        with pytest.raises(NoConvergenceError):
            solve_average_cost(kernel, max_iters=1)

    def test_two_closed_classes_rejected(self):
        # state 0 falls into one of two absorbing states
        split = (("go", ((1, 0.5, 1.0, 1), (2, 0.5, 1.0, 1))),)
        stay = [(("stay", ((s, 1.0, 1.0, 1),)),) for s in (1, 2)]
        kernel = MdpKernel(
            states=["start", "left", "right"],
            actions=[split, *stay],
            k=1,
        )
        with pytest.raises(MultichainError):
            _verify_unichain(kernel, [0, 0, 0])


def _bisection_reference(flat, tol=1e-9, max_iters=200_000):
    """The departure-charge bisection that false position replaced, every
    value iteration started from h = 0, as a reference: (gain, choices)."""
    inner_tol = min(tol, 1e-10)
    lo, hi = 0.0, 1.0
    value, choices, _, _ = _rvi_per_step(flat, hi, inner_tol, max_iters)
    while value > 0.0:
        lo, hi = hi, hi * 2.0
        value, choices, _, _ = _rvi_per_step(flat, hi, inner_tol, max_iters)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        value, choices, _, _ = _rvi_per_step(flat, mid, inner_tol, max_iters)
        if abs(value) < tol or (hi - lo) < tol * max(1.0, mid):
            return mid, choices
        if value > 0.0:
            lo = mid
        else:
            hi = mid
    raise AssertionError("reference bisection did not close")


def _random_delay_kernels():
    """Ten K=2 mixes on the 1, 0.5 and 0.1 lattices, each with a delay of one
    or two lattice steps."""
    rng = random.Random(1971)
    cases = []
    for i in range(10):
        per_unit = (1, 2, 10)[i % 3]
        ds = (_lattice_law(rng, per_unit), _lattice_law(rng, per_unit))
        cases.append(pytest.param(ds, rng.randint(1, 2) / per_unit, id=f"random{i}"))
    return cases


ORACLE_KERNELS = [
    *[
        pytest.param(pin["ds"], pin["delta"], id=name)
        for name, pin in sorted(PINNED.items())
        if pin["delta"] > 0
    ],
    pytest.param((Deterministic(1.0), Deterministic(1.0), Deterministic(1.25)), 0.5, id="straddling"),
    *[pytest.param((LAW_B,) * k, 1.0, id=f"k{k}") for k in (3, 4, 5)],
    *_random_delay_kernels(),
]


class TestFalsePosition:
    @pytest.mark.parametrize("ds, delta", ORACLE_KERNELS)
    def test_matches_bisection(self, ds, delta):
        kernel = build_mdp(ds, delta)
        flat = _flatten(kernel)
        gain, choices = _bisection_reference(flat)
        solution = _solve_with_departure_gaps(kernel.k, flat, 1e-9, 200_000)
        assert solution.choices == choices
        # the bisection's own tolerance, absolute below a gain of 1, where
        # four of these kernels lie; there it strayed up to 2.2e-9 relative
        # from the exact gain (found by solving each policy's chain)
        assert abs(solution.gain - gain) <= 1e-9 * max(1.0, gain)

    def test_closer_to_the_exact_gain_than_bisection(self):
        # bisection stopped 7.45e-10 from the exact gain 1.3
        solution = solve_average_cost(build_mdp(THREE_TWO_ATOM, 1.0))
        assert abs(solution.gain - 1.3) <= 7.45e-10


def closed_classes_reachable(adj, start):
    """(closed classes reachable from start, steps from start to the nearest
    recurrent state), by brute force: a state is recurrent iff every state
    it reaches reaches it back, and its closed class is what it reaches."""
    n = len(adj)
    reach = [[i == j or j in adj[i] for j in range(n)] for i in range(n)]
    for m in range(n):  # Warshall's transitive closure
        for i in range(n):
            if reach[i][m]:
                reach[i] = [a or b for a, b in zip(reach[i], reach[m])]
    recurrent = [i for i in range(n) if all(reach[j][i] for j in range(n) if reach[i][j])]
    classes = {
        frozenset(j for j in range(n) if reach[i][j]) for i in recurrent if reach[start][i]
    }
    steps, frontier, seen = 0, {start}, {start}
    while not frontier & set(recurrent):
        frontier = {j for i in frontier for j in adj[i]} - seen
        seen |= frontier
        steps += 1
    return len(classes), steps


class TestUnichainOracle:
    def test_rejects_exactly_the_multichain_kernels(self):
        rng = random.Random(16)
        seen = {"unichain": 0, "multichain": 0, "far_unichain": 0, "far_multichain": 0}
        for case in range(4000):
            n = rng.randint(1, 9)
            # in odd cases the first states lead only forward: the start is
            # transient and the closed classes lie several steps away.  The
            # other states fall into blocks whose edges mostly stay inside.
            forward = rng.randint(0, n - 1) if case % 2 else 0
            n_cuts = min(rng.randint(1, 3), n - forward - 1)
            cuts = sorted(rng.sample(range(forward + 1, n), n_cuts))
            blocks = [range(a, b) for a, b in zip([forward, *cuts], [*cuts, n])]
            actions, choices, adj = [], [], []
            for s in range(n):
                acts = []
                for a in range(rng.randint(1, 2)):
                    targets = []
                    for _ in range(rng.choice((1, 2) if s < forward else (1, 1, 2, 3))):
                        if s < forward:
                            pool = range(s + 1, min(s + 3, n))
                        elif rng.random() < 0.95:
                            pool = next(b for b in blocks if s in b)
                        else:
                            pool = range(forward, n)
                        targets.append(rng.choice(pool))
                    # a zero-probability transition is no edge
                    probs = [1.0] + [rng.choice([0.0, 0.5, 2.0]) for _ in targets[1:]]
                    total = sum(probs)
                    trans = tuple((t, p / total, 1.0, 1) for t, p in zip(targets, probs))
                    acts.append((f"a{a}", trans))
                choice = rng.randrange(len(acts))
                actions.append(acts)
                choices.append(choice)
                adj.append({t for t, p, _, _ in acts[choice][1] if p > 0})
            kernel = MdpKernel(states=list(range(n)), actions=actions, k=1)
            count, steps = closed_classes_reachable(adj, 0)
            assert count >= 1
            if count == 1:
                _verify_unichain(kernel, choices)
            else:
                with pytest.raises(MultichainError):
                    _verify_unichain(kernel, choices)
            kind = "unichain" if count == 1 else "multichain"
            seen[kind] += 1
            seen["far_" + kind] += steps >= 3
        assert min(seen.values()) >= 40, seen


def _relabel(key, perm):
    """The key with server s renamed perm[s]."""
    jobs, elapsed, cancel = key
    new_elapsed = [0.0] * len(perm)
    new_cancel = [0.0] * len(perm)
    for s, t in enumerate(perm):
        new_elapsed[t] = elapsed[s]
        new_cancel[t] = cancel[s]
    new_jobs = tuple(sorted(tuple(sorted(perm[s] for s in job)) for job in jobs))
    return new_jobs, tuple(new_elapsed), tuple(new_cancel)


def _law_respecting(classes):
    k = len(classes)
    for perm in itertools.permutations(range(k)):
        if all(classes[perm[s]] == classes[s] for s in range(k)):
            yield perm


class TestLumping:
    # Throughputs K/g of the unlumped kernels, recorded before states were
    # lumped; the lumped kernels must reach the same optimum.  The delta = 1
    # rows come from the unlumped kernels solved by false position on the
    # departure charge.
    @pytest.mark.parametrize(
        "ds, delta, states, throughput",
        [
            ((LAW_A,) * 3, 1.0, 113, 1.9881907332527269),
            ((LAW_B,) * 4, 0.0, 501, 2.3889445294466234),
            ((LAW_B,) * 4, 1.0, 520, 1.8805858323414975),
            ((LAW_A, LAW_A, Deterministic(2.0)), 0.0, 131, 2.0606000622462695),
            ((LAW_A, LAW_A, Deterministic(2.0)), 1.0, 135, 1.8374288442829387),
            # only servers 1 and 3 are lumped; the optimum is that of (A, A, det(2))
            ((LAW_A, Deterministic(2.0), LAW_A), 0.0, 131, 2.0606000622462695),
        ],
        ids=["k3-d1", "k4-d0", "k4-d1", "AAD-d0", "AAD-d1", "ADA-d0"],
    )
    def test_same_optimum_as_unlumped(self, ds, delta, states, throughput):
        kernel = build_mdp(ds, delta)
        assert kernel.n_states == states
        solution = solve_average_cost(kernel)
        assert solution.throughput == pytest.approx(throughput, rel=1e-12, abs=0.0)

    def test_five_identical_servers(self):
        # 217,460 states without lumping
        kernel = build_mdp((LAW_B,) * 5, 0.0)
        assert kernel.n_states <= 3200
        solution = solve_average_cost(kernel)
        assert solution.throughput == pytest.approx(3.077670, abs=1e-6)

    def test_states_are_canonical(self):
        kernel = build_mdp((LAW_A, Deterministic(2.0), LAW_A), 1.0)
        for state in kernel.states:
            key = state[:3]
            assert canonical_state(key, kernel.classes)[0] == key

    @pytest.mark.parametrize(
        "ds, delta",
        [((LAW_B,) * 4, 1.0), ((LAW_A, Deterministic(2.0), LAW_A), 1.0), ((LAW_A,) * 3, 1.0)],
        ids=["k4", "ADA", "k3"],
    )
    def test_orbit_has_one_canonical_key(self, ds, delta):
        classes = law_classes(ds)
        perms = list(_law_respecting(classes))
        kernel = build_mdp(ds, delta)
        for state in kernel.states:
            key = state[:3]
            canon, _ = canonical_state(key, classes)
            for perm in perms:
                moved = _relabel(key, perm)
                got, back = canonical_state(moved, classes)
                assert got == canon
                # perm maps the observed labels onto the canonical ones
                assert _relabel(moved, back) == canon
                assert all(classes[back[s]] == classes[s] for s in range(len(classes)))

    def test_permutation_across_laws_changes_the_key(self):
        classes = law_classes((LAW_A, Deterministic(2.0), LAW_A))
        key = (((0,),), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        swapped = _relabel(key, (1, 0, 2))  # server 1 (law A) <-> server 2 (det)
        assert canonical_state(key, classes)[0] != canonical_state(swapped, classes)[0]
        assert canonical_state(key, classes)[0] == canonical_state(_relabel(key, (2, 1, 0)), classes)[0]

    def test_law_classes(self):
        assert law_classes(EXAMPLE_DISTS) is None
        assert law_classes(LATTICE_DISTS) is None
        assert law_classes((LAW_A, Deterministic(2.0), LAW_A)) == (0, 1, 0)
        assert law_classes((LAW_B,) * 4) == (0, 0, 0, 0)
        assert build_mdp(EXAMPLE_DISTS, 0.0).classes is None
