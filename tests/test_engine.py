import math
import multiprocessing
import os
import pathlib
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

from repliq.analytic import (
    Partition,
    throughput_fullrep,
    throughput_norep,
    throughput_upfront,
)
from repliq.distributions import (
    Deterministic,
    Exponential,
    FiniteSupport,
    HyperExp,
    Shifted,
)
from repliq import engine
from repliq.engine import (
    SystemConfig,
    event_trace,
    run_poisson,
    run_saturated,
)
from repliq.errors import PolicyError
from repliq.mdp import as_tabular_policy, build_mdp, solve_average_cost
from repliq.policies import (
    AdaRep,
    Decision,
    FullRep,
    JobView,
    MaxRate,
    NoRep,
    Observation,
    Policy,
    UpfrontRep,
    WAIT,
)

INF = float("inf")

EXAMPLE = SystemConfig(
    servers=(Deterministic(2.0), FiniteSupport(((1.0, 0.9), (20.0, 0.1)))),
    delta=0.0,
)
ADAREP_EXAMPLE = AdaRep(thresholds={(0, 1): INF, (1, 0): 1.0})
LATTICE = (Deterministic(0.3), FiniteSupport(((0.1, 0.7), (1.7, 0.3))))


class TestSaturatedThroughput:
    def test_example_norep(self):
        res = run_saturated(EXAMPLE, NoRep(), 200_000, seed=2)
        assert abs(res.throughput - 0.8448) <= 3 * res.throughput_stderr
        assert res.max_idle_gap == 0.0

    def test_example_fullrep(self):
        res = run_saturated(EXAMPLE, FullRep(), 200_000, seed=2)
        assert abs(res.throughput - 0.909) <= 3 * res.throughput_stderr

    def test_example_adarep_renewal_value(self):
        res = run_saturated(EXAMPLE, ADAREP_EXAMPLE, 200_000, seed=2)
        assert abs(res.throughput - 1.2185) <= 3 * res.throughput_stderr
        assert res.throughput == pytest.approx(1.2185, rel=0.005)

    def test_run_result_provenance(self):
        res = run_saturated(EXAMPLE, NoRep(), 1000, seed=5)
        assert res.seed == 5
        assert res.mode == "saturated" and res.n_jobs == 1000


class TestWorkConservation:
    # throughput times mean computing time equals the server count for any
    # work-conserving policy on a saturated queue

    CONFIGS = [
        (EXAMPLE, NoRep()),
        (EXAMPLE, ADAREP_EXAMPLE),
        (SystemConfig((Exponential(1.0), Exponential(0.5)), 0.5), FullRep()),
        (
            SystemConfig((HyperExp(0.5, 0.1, 0.4),) * 3, 0.1),
            UpfrontRep(Partition((frozenset({0, 1}), frozenset({2})))),
        ),
        (SystemConfig((Shifted(0.5, Exponential(1.0)),) * 2, 0.0), MaxRate()),
    ]

    @pytest.mark.parametrize("config,policy", CONFIGS)
    def test_product_is_server_count(self, config, policy):
        res = run_saturated(config, policy, 40_000, seed=11)
        product, err = res.work_conservation(config.k)
        assert abs(product - config.k) <= max(3 * err, 1e-6)
        assert res.max_idle_gap == 0.0, "no server may idle while the queue is full"


class TestAgainstClosedForms:
    def test_norep_matrix(self):
        rng = np.random.default_rng(0)
        pool = [
            Deterministic(1.5),
            Exponential(0.8),
            Shifted(0.3, Exponential(1.2)),
            FiniteSupport(((0.5, 0.5), (4.0, 0.5))),
        ]
        for trial in range(4):
            ds = tuple(pool[i] for i in rng.integers(0, len(pool), size=2))
            config = SystemConfig(ds, 0.0)
            res = run_saturated(config, NoRep(), 30_000, seed=trial)
            expected = throughput_norep(ds).value
            assert abs(res.throughput - expected) <= 3 * res.throughput_stderr

    def test_fullrep_with_delay(self):
        ds = (Exponential(1.0), FiniteSupport(((0.5, 0.5), (4.0, 0.5))))
        for delta in (0.0, 0.1, 0.5):
            config = SystemConfig(ds, delta)
            res = run_saturated(config, FullRep(), 30_000, seed=7)
            expected = throughput_fullrep(ds, delta).value
            assert abs(res.throughput - expected) <= 3 * res.throughput_stderr

    def test_upfront_groups(self):
        ds = (Exponential(1.0), Exponential(0.5), Deterministic(1.0))
        part = Partition((frozenset({0, 1}), frozenset({2})))
        for delta in (0.0, 0.5):
            config = SystemConfig(ds, delta)
            res = run_saturated(config, UpfrontRep(part), 30_000, seed=3)
            expected = throughput_upfront(part, ds, delta).value
            assert abs(res.throughput - expected) <= 3 * res.throughput_stderr

    def test_maxrate_tracks_no_replication_for_shifted_exponential_pair(self):
        # exponential server plus a late-start exponential: replication only
        # wastes work, and the greedy rate rule should stay near the better
        # static extreme for every start delay
        for c in (0.0, 0.5, 1.0, 2.0):
            ds = (Exponential(1.0), Shifted(c, Exponential(1.0)))
            config = SystemConfig(ds, 0.0)
            res = run_saturated(config, MaxRate(), 20_000, seed=int(c * 10))
            fullrep = throughput_fullrep(ds, 0.0).value
            assert res.throughput >= fullrep - 3 * res.throughput_stderr, (
                f"c={c}: maxrate {res.throughput} under fullrep {fullrep}"
            )


class TestEventTrace:
    def test_deterministic_norep_departures(self):
        config = SystemConfig((Deterministic(2.0), Deterministic(2.0)), 0.0)
        rows = event_trace(config, NoRep(), horizon=9.0, seed=1)
        departures = [t for t, ev, *_ in rows if ev == "depart"]
        assert departures == [2.0, 2.0, 4.0, 4.0, 6.0, 6.0, 8.0, 8.0]

    @pytest.mark.parametrize("horizon", [INF, math.nan, -1.0])
    def test_horizon_must_be_finite_and_non_negative(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            event_trace(EXAMPLE, NoRep(), horizon=horizon, seed=1)

    @pytest.mark.parametrize("lam", [-1.0, math.nan, INF])
    def test_lam_must_be_finite_and_non_negative(self, lam):
        # -1 and nan traced a saturated run; inf pushed arrivals at t = 0
        # forever and never returned
        config = SystemConfig((Deterministic(1.0), Deterministic(2.0)), 0.0)
        with pytest.raises(ValueError, match="lam"):
            event_trace(config, NoRep(), horizon=5.0, seed=1, lam=lam)

    def test_same_seed_identical_logs(self):
        a = event_trace(EXAMPLE, ADAREP_EXAMPLE, horizon=200.0, seed=9)
        b = event_trace(EXAMPLE, ADAREP_EXAMPLE, horizon=200.0, seed=9)
        assert a == b
        c = event_trace(EXAMPLE, ADAREP_EXAMPLE, horizon=200.0, seed=10)
        assert a != c

    def test_replica_launch_after_threshold(self):
        rows = event_trace(EXAMPLE, ADAREP_EXAMPLE, horizon=500.0, seed=4)
        started = {}
        saw_rescue = False
        for t, ev, job, server, detail in rows:
            if ev == "start" and detail == 1:
                started[job] = (t, server)
            elif ev == "start" and detail == 2:
                t0, origin = started[job]
                assert origin == 1, "only jobs of the finite-support server replicate"
                assert t - t0 >= 1.0
                saw_rescue = True
        assert saw_rescue

    def test_adarep_infinite_thresholds_equals_norep(self):
        quiet = AdaRep(thresholds={(0, 1): INF, (1, 0): INF})
        a = event_trace(EXAMPLE, quiet, horizon=300.0, seed=21)
        b = event_trace(EXAMPLE, NoRep(), horizon=300.0, seed=21)
        assert a == b

    def test_adarep_zero_thresholds_equals_fullrep(self):
        eager = AdaRep(thresholds={(0, 1): 0.0, (1, 0): 0.0})
        a = event_trace(EXAMPLE, eager, horizon=300.0, seed=22)
        b = event_trace(EXAMPLE, FullRep(), horizon=300.0, seed=22)
        assert a == b

    @pytest.mark.parametrize(
        "config,policy,lam",
        [(SystemConfig(LATTICE, 0.1), FullRep(), 0.0), (EXAMPLE, NoRep(), 0.4)],
        ids=["saturated-lattice", "poisson"],
    )
    def test_horizon_on_an_event_time_ends_the_trace_there(self, config, policy, lam):
        # the run stops before it pops an event past the horizon, so every
        # row is at or before it and none at it is lost
        full = event_trace(config, policy, horizon=60.0, seed=3, lam=lam)
        times = sorted({row[0] for row in full})
        assert len(times) > 50
        for t in times[5::9]:
            rows = event_trace(config, policy, horizon=t, seed=3, lam=lam)
            assert rows == [row for row in full if row[0] <= t] and rows[-1][0] == t

    def test_poisson_trace_has_arrivals(self):
        rows = event_trace(EXAMPLE, NoRep(), horizon=100.0, seed=2, lam=0.4)
        kinds = {ev for _, ev, *_ in rows}
        assert "arrive" in kinds and "depart" in kinds
        arrivals = [t for t, ev, *_ in rows if ev == "arrive"]
        assert arrivals == sorted(arrivals)

    def test_lattice_ties_share_one_timestamp(self):
        # det(0.3) against a server that draws 0.1 three times: in floats
        # 0.1 + 0.1 + 0.1 != 0.3, so both departures are snapped to the
        # lattice to fall at one time, as in the decision process
        config = SystemConfig(LATTICE, 0.1)
        for seed in range(40):
            rows = event_trace(config, NoRep(), horizon=0.35, seed=seed)
            fast = [t for t, ev, _, server, _ in rows if ev == "depart" and server == 1]
            if len(fast) == 3:
                (slow,) = [t for t, ev, _, server, _ in rows if ev == "depart" and server == 0]
                assert fast[2] == slow == 0.3
                return
        raise AssertionError("no seed drew 0.1 three times in a row")

    @pytest.mark.parametrize(
        "servers, delta, lam, snaps",
        [
            (EXAMPLE.servers, 1.0, 0.0, False),  # integer lattice
            ((Deterministic(0.5), FiniteSupport(((0.25, 0.5), (1.5, 0.5)))), 0.25, 0.0, False),
            ((HyperExp(0.6, 0.2, 0.4), Deterministic(0.3)), 0.1, 0.0, False),  # not atomic
            (LATTICE, 0.1, 0.0, True),
            (EXAMPLE.servers, 0.1, 0.0, True),  # the delay sets the lattice
            (LATTICE, 0.1, 1.0, False),  # Poisson arrivals
        ],
        ids=["integer", "dyadic", "non-atomic", "decimal", "decimal-delay", "decimal-poisson"],
    )
    def test_only_saturated_runs_on_non_binary_lattices_snap(self, servers, delta, lam, snaps):
        sim = engine._Sim(SystemConfig(servers, delta), NoRep(), 0, lam)
        assert (sim.snap is not None) == snaps

def _durations(rows, server):
    """Service times of the jobs that server completed, in start order."""
    started = {}
    out = []
    for t, ev, job, srv, _ in rows:
        if ev == "start" and srv == server:
            started[job] = t
        elif ev == "depart" and job in started:
            out.append(t - started.pop(job))
    return out


class _OnlyServerZero(Policy):
    name = "only0"

    def decide(self, obs):
        if obs.server == 0 and obs.can_new:
            return Decision("plan", (((0,), "new"),))
        return WAIT


class _CopyOnNew(Policy):
    # NoRep's answer through the default reads_jobs = True
    name = "copy-on-new"

    def decide(self, obs):
        return Decision("plan", (((obs.server,), "new"),)) if obs.can_new else WAIT


class _Collector(Policy):
    """Threshold replication, one extra copy after 1 time unit, that keeps
    every observation it is offered."""

    name = "collector"

    def __init__(self):
        self.seen = []
        self.inner = AdaRep(homogeneous=(1.0, INF))

    def decide(self, obs):
        self.seen.append(obs)
        return self.inner.decide(obs)


class TestObservations:
    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_engine_hands_out_named_tuples(self, delta):
        # the engine fills the named tuples without their __new__: they must
        # still be the classes, with their fields in order
        policy = _Collector()
        servers = EXAMPLE.servers + EXAMPLE.servers[1:]  # three: a two-copy job leaves one idle
        run_saturated(SystemConfig(servers, delta), policy, 500, seed=3)
        with_jobs = [o for o in policy.seen if o.jobs]
        assert with_jobs and all(type(o) is Observation for o in policy.seen)
        assert all(type(jv) is JobView for o in with_jobs for jv in o.jobs)
        for o in with_jobs:
            assert o.server in o.idle_servers
            for jv in o.jobs:
                assert o.server not in jv.servers and min(jv.elapsed) >= 0
                assert len(jv.elapsed) == len(jv.servers) and jv.elapsed[0] == jv.elapsed_original
        assert any(len(jv.servers) == 2 for o in with_jobs for jv in o.jobs)
        if delta:
            assert any(o.cancelling for o in policy.seen)
            assert all(type(o.cancelling) is tuple for o in policy.seen)


class TestDepartureEvents:
    """Every policy gets one DEPART per launch: the copies started together
    on one group push one event at their earliest end.  _Sim.seq counts
    every push."""

    CONFIG = SystemConfig((HyperExp(0.6, 0.2, 0.4),) * 6, 0.1)  # homog_k6's laws

    def _run(self, policy, n_jobs=2000):
        trace = []
        sim = engine._Sim(self.CONFIG, policy, 13, trace=trace)
        sim.run(n_jobs)
        copies = sum(1 for row in trace if row[1] == "start")
        cancel_ends = sum(1 for row in trace if row[1] == "depart" and row[4] >= 2)
        return sim, copies, cancel_ends

    def test_fullrep_pushes_one_departure_per_job(self):
        sim, copies, cancel_ends = self._run(FullRep())
        assert copies == 6 * sim.started
        assert sim.seq == sim.started + cancel_ends <= 2 * sim.started

    def test_policy_that_reads_jobs_pushes_one_departure_per_job(self):
        class Asked(FullRep):
            reads_jobs = True

        sim, copies, cancel_ends = self._run(Asked())
        assert copies == 6 * sim.started
        assert sim.seq == sim.started + cancel_ends

    @pytest.mark.parametrize("pairs", [1, 2], ids=["mdp_lattice", "doubled"])
    def test_lattice_tabular_replay_pushes_one_departure_per_launch(self, pairs):
        # the solved policy of experiments/mdp_lattice.cfg, and of its laws
        # taken twice, whose refill plans start some jobs on two servers
        kernel = build_mdp(LATTICE * pairs, 0.1)
        policy = as_tabular_policy(kernel, solve_average_cost(kernel))
        trace = []
        sim = engine._Sim(SystemConfig(LATTICE * pairs, 0.1), policy, 5, trace=trace)
        sim.run(2000)
        starts = [(t, job) for t, ev, job, _, _ in trace if ev == "start"]
        launches = len(set(starts))
        cancel_ends = sum(1 for row in trace if row[1] == "depart" and row[4] >= 2)
        assert sim.seq == launches + cancel_ends
        assert (launches < len(starts)) == (pairs == 2)

    def test_upfront_pushes_one_departure_per_job(self):
        groups = Partition((frozenset({0, 1, 2}), frozenset({3, 4, 5})))
        sim, copies, cancel_ends = self._run(UpfrontRep(groups))
        assert copies == 3 * sim.started
        assert sim.seq == sim.started + cancel_ends <= 2 * sim.started

    def test_adarep_pushes_one_departure_per_copy(self):  # its launches are one copy each
        sim, copies, cancel_ends = self._run(AdaRep(homogeneous=(0.5, 1, 1.5, 2, 3)))
        assert copies > sim.started and cancel_ends > 0
        assert sim.seq == copies + cancel_ends


class TestDecisionTable:
    """Every policy is asked at each offer of each distinct time-free scan
    of a run and at every other offer.  A scan is time-free when every
    offer in it finds every job in flight started at this instant and no
    server cancelling: every scan of a policy that reads no job views, and
    a scan that begins with every server idle.  Its key is the status of
    every server and the queued jobs, at most one per idle server, as the
    scan begins.  The throughputs and the response time were recorded
    while a policy that reads jobs was asked at every offer."""

    CONFIG = SystemConfig((HyperExp(0.6, 0.2, 0.4),) * 6, 0.1)  # homog_k6's laws
    HALVES = Partition((frozenset({0, 1, 2}), frozenset({3, 4, 5})))

    def _asked(self, base, *args, config=CONFIG, seed=7, lam=0.0, n_jobs=15000):
        """The keys of the time-free offers and of the other offers of every
        decide call of a run, and the observations of the other offers.  A
        time-free offer's key adds its scan's key to the offer's."""

        class Counted(base):
            def decide(self, obs):
                running = tuple(jv.servers for jv in obs.jobs)
                key = (obs.server, tuple(sim.status), obs.can_new, running)
                elapsed = [e for jv in obs.jobs for e in jv.elapsed]
                if obs.cancelling or any(elapsed):
                    other.append(key)
                    seen.append(obs)
                else:
                    free.append((scan, key))
                return super().decide(obs)

        def counted_scan(now):
            nonlocal scan
            queued = len(sim.arrivals) - sim.started if lam else config.k
            scan = (tuple(sim.status), min(queued, sim.status.count(engine._IDLE)))
            engine._Sim._scan(sim, now)

        free, other, seen, scan = [], [], [], None
        sim = engine._Sim(config, Counted(*args), seed, lam)
        sim._scan = counted_scan
        sim.run(n_jobs)
        return free, other, seen

    @pytest.mark.parametrize(
        "base,args,calls,throughput",
        [
            (NoRep, (), 12, 2.046409310646111),
            (FullRep, (), 1, 2.0511606043245862),
            (UpfrontRep, (HALVES,), 6, 2.1765007221384494),
        ],
        ids=["norep", "fullrep", "upfront"],
    )
    def test_static_policy_is_asked_once_per_offer(self, base, args, calls, throughput):
        free, other, _ = self._asked(base, *args)
        assert len(free) == len(set(free)) == calls and not other
        assert run_saturated(self.CONFIG, base(*args), 15000, 7).throughput == throughput

        class Asked(base):  # its offers are time-free only in a scan that began all idle
            reads_jobs = True

        assert run_saturated(self.CONFIG, Asked(*args), 15000, 7).throughput == throughput

    def test_full_table_starts_afresh(self, monkeypatch):
        monkeypatch.setattr(engine, "_TABLE_SIZE", 2)
        free, _, _ = self._asked(UpfrontRep, self.HALVES)
        assert len(free) > len(set(free)) == 6  # two scans kept of six
        got = run_saturated(self.CONFIG, UpfrontRep(self.HALVES), 15000, 7).throughput
        assert got == 2.1765007221384494

    @pytest.mark.parametrize(
        "base,args,calls,throughput",
        [
            (_CopyOnNew, (), (6, 14999), 2.046409310646111),
            (AdaRep, ((), (0.5, 1, 1.5, 2, 3)), (6, 31417), 2.2479924961447297),
            (MaxRate, (), (6, 49379), 2.1774202288674562),
        ],
        ids=["user", "adarep-hom", "maxrate"],
    )
    def test_policy_that_reads_jobs_is_asked_once_per_time_free_offer(
        self, base, args, calls, throughput
    ):
        free, other, _ = self._asked(base, *args)
        assert (len(free), len(other)) == calls and len(set(free)) == len(free)
        assert run_saturated(self.CONFIG, base(*args), 15000, 7).throughput == throughput

    def test_poisson_maxrate_on_the_worked_example(self):
        # every offer finds each job just started, and every scan begins
        # with one or two jobs queued: 4 calls in place of 4000
        free, other, _ = self._asked(MaxRate, config=EXAMPLE, seed=[7, 0], lam=0.5, n_jobs=2000)
        assert len(free) == len(set(free)) == 4 and not other
        assert engine._poisson_run(EXAMPLE, MaxRate(), 0.5, 2000, 7, 0)[0] == 1.76343092071912

    def test_cancelling_server_makes_an_offer_not_time_free(self):
        # a server offered while the others cancel sees no job, but the
        # remaining windows differ from offer to offer, so each one is asked
        config = SystemConfig(EXAMPLE.servers + EXAMPLE.servers[1:], 0.5)
        free, other, seen = self._asked(AdaRep, (), (1.0, INF), config=config, n_jobs=5000)
        assert len(free) == len(set(free)) == 3 and len(other) == 5114
        no_jobs = [key for key, obs in zip(other, seen) if not obs.jobs]
        assert all(obs.cancelling for obs in seen if not obs.jobs)
        assert len(no_jobs) == 604 and len(set(no_jobs)) == 3
        got = run_saturated(config, AdaRep((), (1.0, INF)), 5000, 7).throughput
        assert got == 1.4560964847771731


class TestRandomStreams:
    def test_server_streams_follow_spawned_seed_sequence(self):
        config = SystemConfig(
            (Exponential(1.0), FiniteSupport(((1.0, 0.9), (20.0, 0.1))), Exponential(0.5)), 0.0
        )
        rows = event_trace(config, NoRep(), horizon=400.0, seed=3)
        children = np.random.SeedSequence(3).spawn(config.k + 1)
        for s, d in enumerate(config.servers):
            got = _durations(rows, s)
            assert len(got) > 50
            want = d.sample_array(np.random.default_rng(children[s]), len(got))
            assert got == pytest.approx(want.tolist(), rel=1e-9, abs=1e-9)

    def test_poisson_run_i_is_seeded_seed_i(self):
        lam, n_jobs = 0.5, 60
        res = run_poisson(EXAMPLE, NoRep(), lam, n_jobs=n_jobs, n_runs=2, seed=7)
        run_means = []
        for i in range(2):
            rows = event_trace(EXAMPLE, NoRep(), horizon=2000.0, seed=[7, i], lam=lam)
            arrivals = [t for t, ev, *_ in rows if ev == "arrive"]
            gaps = np.random.default_rng(
                np.random.SeedSequence([7, i]).spawn(EXAMPLE.k + 1)[-1]
            ).exponential(1.0 / lam, len(arrivals))
            assert np.diff([0.0] + arrivals) == pytest.approx(gaps, rel=1e-9, abs=1e-9)
            # FIFO without replication: later arrivals never delay the first n_jobs
            resp = [t - arrivals[job] for t, ev, job, *_ in rows if ev == "depart" and job < n_jobs]
            assert len(resp) == n_jobs
            run_means.append(math.fsum(resp) / n_jobs)
        assert res.mean_response == pytest.approx(float(np.mean(run_means)), rel=1e-12)

    def test_common_random_numbers_across_policies(self):
        config = SystemConfig((Exponential(1.0), Exponential(1.0)), 0.0)
        alone = _durations(event_trace(config, _OnlyServerZero(), horizon=30.0, seed=5), 0)
        shared = _durations(event_trace(config, NoRep(), horizon=30.0, seed=5), 0)
        assert len(alone) > 10 and len(shared) > 10
        n = min(len(alone), len(shared))
        assert alone[:n] == shared[:n]


class TestCancellationWindows:
    def test_siblings_blocked_for_exactly_delta(self):
        config = SystemConfig((Exponential(1.0), Exponential(1.0)), delta=0.5)
        rows = event_trace(config, FullRep(), horizon=50.0, seed=13)
        departs = [(t, job) for t, ev, job, _, _ in rows if ev == "depart"]
        cancel_ends = [(t, job, srv) for t, ev, job, srv, _ in rows if ev == "cancel_end"]
        assert departs and cancel_ends
        for t, job in departs:
            ends = [(te, srv) for te, j, srv in cancel_ends if j == job]
            assert len(ends) == 2, "both involved servers pay the window"
            assert all(te == pytest.approx(t + 0.5) for te, _ in ends)

    def test_single_copy_jobs_never_pay(self):
        config = SystemConfig((Exponential(1.0), Exponential(1.0)), delta=0.5)
        rows = event_trace(config, NoRep(), horizon=50.0, seed=13)
        assert not [r for r in rows if r[1] == "cancel_end"]

    def test_computing_time_includes_windows(self):
        config = SystemConfig((Deterministic(1.0), Deterministic(1.0)), delta=0.25)
        res = run_saturated(config, FullRep(), 5000, seed=1)
        assert res.mean_computing == pytest.approx(2 * (1.0 + 0.25), rel=1e-9)
        assert res.throughput == pytest.approx(1.0 / 1.25, rel=1e-6)


class TestPoisson:
    def test_low_traffic_norep_response_is_first_server_mean(self):
        res = run_poisson(EXAMPLE, NoRep(), lam=0.01, n_jobs=400, n_runs=30, seed=6)
        assert res.mean_response == pytest.approx(2.0, rel=0.05)

    def test_low_traffic_fullrep_response_is_min_service(self):
        res = run_poisson(EXAMPLE, FullRep(), lam=0.05, n_jobs=500, n_runs=40, seed=6)
        assert res.mean_response == pytest.approx(1.1, rel=0.05)

    def test_overloaded_norep_flags_unstable(self):
        res = run_poisson(EXAMPLE, NoRep(), lam=1.0, n_jobs=1000, n_runs=20, seed=6)
        assert res.unstable

    def test_supercritical_adarep_is_stable(self):
        res = run_poisson(EXAMPLE, ADAREP_EXAMPLE, lam=1.0, n_jobs=1000, n_runs=20, seed=6)
        assert not res.unstable
        assert res.mean_response < 10.0

    def test_subcritical_no_flag(self):
        res = run_poisson(EXAMPLE, NoRep(), lam=0.3, n_jobs=1000, n_runs=10, seed=6)
        assert not res.unstable

    def test_determinism_across_calls(self):
        a = run_poisson(EXAMPLE, FullRep(), lam=0.5, n_jobs=300, n_runs=5, seed=8)
        b = run_poisson(EXAMPLE, FullRep(), lam=0.5, n_jobs=300, n_runs=5, seed=8)
        assert a == b

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
    def test_rate_must_be_positive(self, lam):
        with pytest.raises(ValueError, match="need lam > 0 and finite"):
            run_poisson(EXAMPLE, NoRep(), lam, n_jobs=50, n_runs=2, seed=0)

    @pytest.mark.parametrize("n_jobs", [0, -5])
    def test_needs_at_least_one_job(self, n_jobs):
        with pytest.raises(ValueError, match="need n_jobs >= 1"):
            run_poisson(EXAMPLE, NoRep(), 0.5, n_jobs=n_jobs, n_runs=2, seed=0)


class _BrokenReplicator(Policy):
    name = "broken"

    def decide(self, obs):
        if obs.jobs:
            return Decision("plan", (((obs.server,), 999),))
        return Decision("plan", (((obs.server,), "new"),))


class _BusyGrabber(Policy):
    # replicates the lowest job onto the offered server and onto a server
    # already running another one
    name = "grabber"

    def decide(self, obs):
        others = [jv for jv in obs.jobs if len(jv.servers) == 1]
        if len(others) >= 2:
            group = (obs.server, others[1].servers[0])
            return Decision("plan", ((group, others[0].job_id),))
        return Decision("plan", (((obs.server,), "new"),))


class _EmptyPlanner(Policy):
    # acts without placing the offered server; gives up after 1000 offers so
    # that an engine which keeps offering the same server fails instead of hanging
    name = "empty"

    def __init__(self):
        self.calls = 0

    def decide(self, obs):
        self.calls += 1
        if self.calls > 1000:
            raise RuntimeError("the engine kept offering an unplaced server")
        return Decision("plan")


class _FixedPlan(Policy):
    # the same plan at every offer
    name = "fixed"

    def __init__(self, plan):
        self.plan = plan

    def decide(self, obs):
        return Decision("plan", self.plan)


class TestPolicyErrors:
    @pytest.mark.parametrize(
        "plan,message",
        [
            ((((0, -1), "new"),), "server -1 of the plan group (-1, 0)"),
            ((((0, 2), "new"),), "server 2 of the plan group (0, 2)"),
            ((((0,), "new"), ((), "new")), "empty server group"),
            ((((0.0,), "new"),), "server 0.0 of the plan group (0.0,)"),
            ((((0, "a"), "new"),), "plan group (0, 'a') is no set of server indices"),
        ],
        ids=["negative", "past-k", "empty", "float", "unsortable"],
    )
    def test_plan_group_names_idle_servers(self, plan, message):
        config = SystemConfig((Exponential(1.0),) * 2, 0.0)
        with pytest.raises(PolicyError, match=re.escape(message)):
            run_saturated(config, _FixedPlan(plan), 100, seed=0)

    @pytest.mark.parametrize(
        "answer,message",
        [
            (None, "decide answered None, which is no Decision"),
            (("plan", (((0,), "new"),)), "which is no Decision"),
            (Decision("plan", (((0,), "new", 3),)), "item ((0,), 'new', 3) is no (group, target) pair"),
            (Decision("plan", ((0,),)), "item (0,) is no (group, target) pair"),
            (Decision("plan", 0), "plan 0 is no sequence"),
            (Decision("plan", (((0,), [1]),)), "target job [1] has no active copies"),
        ],
        ids=["none", "plain-tuple", "triple", "single", "not-a-sequence", "unhashable-target"],
    )
    def test_malformed_answer(self, answer, message):
        class Answers(Policy):
            def decide(self, obs):
                return answer

        with pytest.raises(PolicyError, match=re.escape(message)):
            run_saturated(EXAMPLE, Answers(), 100, seed=0)

    def test_replicating_missing_job(self):
        with pytest.raises(PolicyError):
            run_saturated(EXAMPLE, _BrokenReplicator(), 100, seed=0)

    def test_policy_that_reads_no_jobs_but_names_one(self):
        # a job started before a scan has no position in it, so a scan that
        # names one is not kept: the policy is asked again, and job 1 is
        # missed once it has departed
        class Names(Policy):
            reads_jobs = False

            def decide(self, obs):
                if obs.server == 0 and obs.idle_servers == (0,):
                    return Decision("plan", (((0,), 1),))
                return Decision("plan", (((obs.server,), "new"),))

        config = SystemConfig((Exponential(1.0), Deterministic(7.0), Exponential(1.0)), 0.0)
        with pytest.raises(PolicyError, match="target job 1 has no active copies"):
            run_saturated(config, Names(), 300, seed=0)

    def test_replicating_onto_busy_server(self):
        config = SystemConfig((Exponential(1.0),) * 3, 0.0)
        with pytest.raises(PolicyError):
            run_saturated(config, _BusyGrabber(), 100, seed=0)

    def test_plan_must_place_offered_server(self):
        config = SystemConfig((Exponential(1.0),) * 2, 0.0)
        with pytest.raises(PolicyError, match="offered server 0"):
            run_saturated(config, _EmptyPlanner(), 100, seed=0)


class _Waiter(Policy):
    name = "waiter"

    def decide(self, obs):
        return WAIT


class TestStalledRuns:
    def test_saturated_run_of_a_waiting_policy(self):
        with pytest.raises(PolicyError, match="idle with jobs waiting"):
            run_saturated(EXAMPLE, _Waiter(), 100, seed=0)

    def test_poisson_run_of_a_waiting_policy(self, monkeypatch):
        monkeypatch.setattr(engine, "_WORKERS", 1)
        with pytest.raises(PolicyError, match="after 0 of 50 departures"):
            run_poisson(EXAMPLE, _Waiter(), 0.5, n_jobs=50, n_runs=2, seed=0)


class TestConfigValidation:
    @pytest.mark.parametrize("delta", [-0.5, INF, float("nan")])
    def test_rejects_bad_delay(self, delta):
        with pytest.raises(ValueError, match="cancellation delay"):
            SystemConfig(EXAMPLE.servers, delta)


class TestParallelRuns:
    """run_poisson splits its runs over forked workers; the private
    _WORKERS constant overrides the CPU count so that every split runs
    on any host."""

    POLICIES = {
        "norep": NoRep(),
        "fullrep": FullRep(),
        "maxrate": MaxRate(),
        "adarep": ADAREP_EXAMPLE,
    }

    @staticmethod
    def _results(monkeypatch, config, policy, n_runs):
        out = []
        for w in (1, 2, 3):
            monkeypatch.setattr(engine, "_WORKERS", w)
            out.append(run_poisson(config, policy, 0.6, n_jobs=60, n_runs=n_runs, seed=11))
        return out

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_same_result_for_every_split(self, monkeypatch, name, delta):
        config = SystemConfig(EXAMPLE.servers, delta)
        for n_runs in (1, 2, 5):
            serial, *split = self._results(monkeypatch, config, self.POLICIES[name], n_runs)
            assert serial.n_runs == n_runs
            assert all(res == serial for res in split)

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_locally_defined_policy(self, monkeypatch, delta):
        class CopyOnIdle(Policy):
            # a new job if one waits, else a copy of the oldest lone job
            name = "copy-on-idle"

            def decide(self, obs):
                if obs.can_new:
                    return Decision("plan", (((obs.server,), "new"),))
                alone = [jv for jv in obs.jobs if len(jv.servers) == 1]
                if alone:
                    return Decision("plan", (((obs.server,), alone[0].job_id),))
                return WAIT

        config = SystemConfig(EXAMPLE.servers, delta)
        for n_runs in (1, 2, 5):
            serial, *split = self._results(monkeypatch, config, CopyOnIdle(), n_runs)
            assert all(res == serial for res in split)

    def test_failure_in_a_child_reaches_the_caller(self, monkeypatch):
        # runs 3..5 stall: with two workers they are the child's share
        run, caller = engine._poisson_run, os.getpid()

        def stall_late_runs(config, policy, lam, n_jobs, seed, i):
            if i >= 3:
                assert os.getpid() != caller, f"run {i} ran in the caller"
                policy = _Waiter()
            return run(config, policy, lam, n_jobs, seed, i)

        monkeypatch.setattr(engine, "_poisson_run", stall_late_runs)
        monkeypatch.setattr(engine, "_WORKERS", 2)
        with pytest.raises(PolicyError, match="idle with jobs waiting"):
            run_poisson(EXAMPLE, NoRep(), 0.5, n_jobs=50, n_runs=6, seed=1)
        assert multiprocessing.active_children() == []

    def test_failure_in_the_callers_share_reaps_the_children(self, monkeypatch):
        run = engine._poisson_run

        def fail_first_run(config, policy, lam, n_jobs, seed, i):
            if i == 0:
                raise PolicyError("run 0 failed")
            return run(config, policy, lam, n_jobs, seed, i)

        monkeypatch.setattr(engine, "_poisson_run", fail_first_run)
        monkeypatch.setattr(engine, "_WORKERS", 3)
        with pytest.raises(PolicyError, match="run 0 failed"):
            run_poisson(EXAMPLE, NoRep(), 0.5, n_jobs=2000, n_runs=6, seed=1)
        assert multiprocessing.active_children() == []

    def test_unpicklable_exception_keeps_its_type_name_and_message(self, monkeypatch):
        class LocalError(Exception):
            pass

        caller = os.getpid()

        class FailsInChild(NoRep):
            def decide(self, obs):
                if os.getpid() != caller:
                    raise LocalError("decided in a child")
                return super().decide(obs)

        # a class local to a function cannot be pickled by reference
        monkeypatch.setattr(engine, "_WORKERS", 2)
        with pytest.raises(RuntimeError, match="LocalError: decided in a child"):
            run_poisson(EXAMPLE, FailsInChild(), 0.5, n_jobs=50, n_runs=2, seed=1)
        assert multiprocessing.active_children() == []

    def test_no_child_outlives_a_passing_call(self, monkeypatch):
        monkeypatch.setattr(engine, "_WORKERS", 3)
        run_poisson(EXAMPLE, NoRep(), 0.5, n_jobs=50, n_runs=6, seed=1)
        assert multiprocessing.active_children() == []

    def test_call_beside_another_thread_stays_in_the_caller(self, monkeypatch):
        run, caller = engine._poisson_run, os.getpid()

        def in_caller(*args):
            assert os.getpid() == caller, "a run was forked beside a running thread"
            return run(*args)

        monkeypatch.setattr(engine, "_poisson_run", in_caller)
        monkeypatch.setattr(engine, "_WORKERS", 2)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            run_poisson(EXAMPLE, NoRep(), 0.5, n_jobs=50, n_runs=4, seed=1)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_children_import_scipy_on_demand(self):
        # a fresh interpreter forks before scipy is loaded, so the caller and
        # each child import it on their own first quadrature
        code = """
import sys
from repliq import engine
from repliq.distributions import Deterministic, Pareto
from repliq.engine import SystemConfig, run_poisson
from repliq.policies import MaxRate

config = SystemConfig((Pareto(1.0, 2.5), Deterministic(1.5)), 0.0)
assert "scipy" not in sys.modules
engine._WORKERS = 2
split = run_poisson(config, MaxRate(), 0.5, n_jobs=100, n_runs=4, seed=0)
engine._WORKERS = 1
serial = run_poisson(config, MaxRate(), 0.5, n_jobs=100, n_runs=4, seed=0)
assert split == serial, (split, serial)
"""
        src = str(pathlib.Path(engine.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr

    def test_call_from_a_daemonic_pool_worker_runs_serially(self, monkeypatch):
        args = (EXAMPLE, FullRep(), 0.6, 60, 4, 3)
        monkeypatch.setattr(engine, "_WORKERS", 1)
        serial = run_poisson(*args)
        # the worker inherits _WORKERS = 2 but may not fork children
        monkeypatch.setattr(engine, "_WORKERS", 2)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply_async(run_poisson, args).get(timeout=60) == serial
