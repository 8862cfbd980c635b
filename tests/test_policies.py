import pathlib
import random
import re

import pytest

from repliq.analytic import Partition
from repliq.config import parse_config
from repliq.distributions import (
    Deterministic,
    Exponential,
    FiniteSupport,
    HyperExp,
    _lattice_step,
)
from repliq.engine import SystemConfig, event_trace, run_saturated
from repliq.errors import PolicyError
from repliq.mdp import as_tabular_policy, build_mdp, solve_average_cost
from repliq.policies import (
    WAIT,
    AdaRep,
    Decision,
    FullRep,
    JobView,
    MaxRate,
    NoRep,
    Observation,
    Policy,
    TabularPolicy,
    UpfrontRep,
    canonical_state,
    instantaneous_rate,
    parse_policy,
)

INF = float("inf")

EXAMPLE_DISTS = (Deterministic(2.0), FiniteSupport(((1.0, 0.9), (20.0, 0.1))))


def job(job_id, origin, servers, elapsed):
    return JobView(
        job_id=job_id,
        origin=origin,
        servers=tuple(servers),
        elapsed=tuple(elapsed),
        elapsed_original=elapsed[0],
    )


def obs(server, jobs=(), dists=EXAMPLE_DISTS, can_new=True, delta=0.0, idle=None):
    if idle is None:
        busy = {s for jv in jobs for s in jv.servers}
        idle = tuple(s for s in range(len(dists)) if s not in busy)
    return Observation(
        server=server,
        idle_servers=idle,
        jobs=tuple(jobs),
        can_new=can_new,
        dists=dists,
        delta=delta,
    )


class TestNoRepFullRepUpfront:
    def test_norep_always_new_on_offered(self):
        d = NoRep().decide(obs(0))
        assert d.plan == (((0,), "new"),)

    def test_norep_waits_without_queue(self):
        d = NoRep().decide(obs(0, can_new=False))
        assert d.kind == "wait"

    def test_fullrep_all_idle(self):
        d = FullRep().decide(obs(0))
        assert d.plan == (((0, 1), "new"),)

    def test_fullrep_waits_on_partial_idle(self):
        jv = job(7, 1, (1,), (0.5,))
        d = FullRep().decide(obs(0, jobs=(jv,)))
        assert d.kind == "wait"

    def test_upfront_waits_for_whole_group(self):
        dists = (Exponential(1.0),) * 3
        policy = UpfrontRep(Partition((frozenset({0, 1}), frozenset({2}))))
        jv = job(3, 1, (1,), (0.2,))
        assert policy.decide(obs(0, jobs=(jv,), dists=dists)).kind == "wait"
        d = policy.decide(obs(2, jobs=(jv,), dists=dists))
        assert d.plan == (((2,), "new"),)
        d = policy.decide(obs(0, dists=dists))
        assert d.plan == (((0, 1), "new"),)


class TestAdaRep:
    POLICY = AdaRep(thresholds={(0, 1): INF, (1, 0): 1.0})

    def test_replicates_beyond_threshold(self):
        jv = job(4, 1, (1,), (2.0,))
        d = self.POLICY.decide(obs(0, jobs=(jv,)))
        assert d.plan == (((0,), 4),)

    def test_new_below_threshold(self):
        jv = job(4, 1, (1,), (0.5,))
        d = self.POLICY.decide(obs(0, jobs=(jv,)))
        assert d.plan == (((0,), "new"),)

    def test_fires_at_exact_threshold(self):
        jv = job(4, 1, (1,), (1.0,))
        assert self.POLICY.decide(obs(0, jobs=(jv,))).plan == (((0,), 4),)

    def test_infinite_threshold_never_fires(self):
        jv = job(4, 0, (0,), (100.0,))
        d = self.POLICY.decide(obs(1, jobs=(jv,)))
        assert d.plan == (((1,), "new"),)

    def test_homogeneous_additional_replica_index(self):
        dists = (Exponential(1.0),) * 5
        policy = AdaRep(homogeneous=(0.1, 0.2, 0.3, 0.4))
        jv = job(1, 0, (0, 1, 2), (0.35, 0.2, 0.1))
        d = policy.decide(obs(3, jobs=(jv,), dists=dists))
        assert d.plan == (((3,), 1),)
        jv = job(1, 0, (0, 1, 2), (0.25, 0.2, 0.1))
        d = policy.decide(obs(3, jobs=(jv,), dists=dists))
        assert d.plan == (((3,), "new"),)

    def test_tie_prefers_largest_elapsed_then_smallest_id(self):
        dists = (Exponential(1.0),) * 4
        policy = AdaRep(homogeneous=(0.1, 0.2, 0.3))
        a = job(5, 0, (0,), (0.9,))
        b = job(2, 1, (1,), (1.5,))
        c = job(9, 2, (2,), (1.5,))
        d = policy.decide(obs(3, jobs=(a, b, c), dists=dists))
        assert d.plan == (((3,), 2),)

    def test_wait_when_nothing_possible(self):
        jv = job(4, 1, (1,), (0.5,))
        d = self.POLICY.decide(obs(0, jobs=(jv,), can_new=False))
        assert d.kind == "wait"

    def test_nondecreasing_validation(self):
        with pytest.raises(ValueError):
            AdaRep(homogeneous=(0.3, 0.2))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"homogeneous": (float("nan"),)},
            {"homogeneous": (0.5, float("nan"))},
            {"thresholds": {(0, 1): float("nan")}},
            {"thresholds": {(0, 1): -1.0}},
        ],
    )
    def test_nan_or_negative_threshold_rejected(self, kwargs):
        with pytest.raises(ValueError, match="thresholds must be >= 0"):
            AdaRep(**kwargs)
        # an infinite threshold stays legal: it never replicates
        assert AdaRep(homogeneous=(0.5, INF)).homogeneous == (0.5, INF)

    def test_decide_is_pure(self):
        jv = job(4, 1, (1,), (2.0,))
        o = obs(0, jobs=(jv,))
        assert self.POLICY.decide(o) == self.POLICY.decide(o)


class TestMaxRate:
    def test_replicates_fresh_sibling(self):
        # one job just started on the deterministic server, other server idle:
        # replicating (rate 1/1.1) beats two singletons (0.5 + 1/2.9)
        jv = job(0, 0, (0,), (0.0,))
        o = obs(1, jobs=(jv,))
        d = MaxRate().decide(o)
        assert d.plan == (((1,), 0),)
        rep_rate = instantaneous_rate(o, Decision("plan", (((1,), 0),)))
        new_rate = instantaneous_rate(o, Decision("plan", (((1,), "new"),)))
        assert rep_rate == pytest.approx(1.0 / 1.1, rel=1e-12)
        assert new_rate == pytest.approx(0.5 + 1.0 / 2.9, rel=1e-12)

    def test_prefers_new_once_straggler_identified(self):
        # the finite-support job survived to elapsed 1: its residual is the
        # 19-atom, so helping it (rate 1/2) loses to a fresh pair (1/2 + 1/19)
        jv = job(0, 1, (1,), (1.0,))
        o = obs(0, jobs=(jv,))
        d = MaxRate().decide(o)
        assert d.plan == (((0,), "new"),)
        rep_rate = instantaneous_rate(o, Decision("plan", (((0,), 0),)))
        new_rate = instantaneous_rate(o, Decision("plan", (((0,), "new"),)))
        assert rep_rate == pytest.approx(0.5, rel=1e-12)
        assert new_rate == pytest.approx(0.5 + 1.0 / 19.0, rel=1e-12)

    def test_exponential_tie_prefers_new(self):
        dists = (Exponential(1.0), Exponential(1.0))
        jv = job(0, 0, (0,), (3.7,))
        o = obs(1, jobs=(jv,), dists=dists)
        rep_rate = instantaneous_rate(o, Decision("plan", (((1,), 0),)))
        new_rate = instantaneous_rate(o, Decision("plan", (((1,), "new"),)))
        assert rep_rate == pytest.approx(2.0, rel=1e-12)
        assert new_rate == pytest.approx(2.0, rel=1e-12)
        assert MaxRate().decide(o).plan == (((1,), "new"),)

    def test_cancel_delay_switch(self):
        jv = job(0, 0, (0,), (0.0,))
        o = obs(1, jobs=(jv,), delta=0.5)
        with_delta = instantaneous_rate(o, Decision("plan", (((1,), 0),)), True)
        without = instantaneous_rate(o, Decision("plan", (((1,), 0),)), False)
        assert with_delta == pytest.approx(1.0 / 1.6, rel=1e-12)
        assert without == pytest.approx(1.0 / 1.1, rel=1e-12)

    def test_empty_queue_can_still_replicate(self):
        jv = job(0, 1, (1,), (0.0,))
        o = obs(0, jobs=(jv,), can_new=False)
        d = MaxRate().decide(o)
        assert d.plan == (((0,), 0),)

    def test_empty_queue_replicates_stragglers_for_free(self):
        # with no queued job and no cancellation cost, an extra replica can
        # only raise the departure rate, even for an identified straggler
        jv = job(0, 1, (1,), (1.0,))
        o = obs(0, jobs=(jv,), can_new=False)
        assert MaxRate().decide(o).plan == (((0,), 0),)

    def test_empty_queue_waits_when_cancel_window_dominates(self):
        jv = job(0, 1, (1,), (19.5,))  # residual mass at 0.5
        o = obs(0, jobs=(jv,), can_new=False, delta=3.0)
        wait_rate = instantaneous_rate(o, Decision("wait"))
        rep_rate = instantaneous_rate(o, Decision("plan", (((0,), 0),)))
        assert wait_rate > rep_rate
        assert MaxRate().decide(o).kind == "wait"


def reference_maxrate(obs, include_cancel_delay=True):
    """MaxRate.decide as it was before its one-pass form: every candidate
    scored by instantaneous_rate, the first of the best kept."""
    mine = (obs.server,)
    candidates = []
    if obs.can_new:
        candidates.append(Decision("plan", ((mine, "new"),)))
    elif obs.jobs:
        candidates.append(WAIT)
    for jv in obs.jobs:
        candidates.append(Decision("plan", ((mine, jv.job_id),)))
    if not candidates:
        return WAIT
    best = candidates[0]
    best_rate = instantaneous_rate(obs, best, include_cancel_delay)
    for cand in candidates[1:]:
        rate = instantaneous_rate(obs, cand, include_cancel_delay)
        if rate > best_rate * (1.0 + 1e-12):
            best, best_rate = cand, rate
    return best


def _random_law(rng, family):
    if family == "hyperexp":
        return HyperExp(rng.choice((0.5, 1.0, 2.0)), rng.choice((0.1, 0.2)), rng.choice((0.1, 0.4)))
    if rng.random() < 0.3:
        return Deterministic(float(rng.randint(1, 4)))
    small = rng.randint(1, 3)
    return FiniteSupport(((float(small), 0.9), (float(small + rng.randint(1, 20)), 0.1)))


def _largest(law):
    atoms = law._atoms()
    return INF if atoms is None else max(v for v, _ in atoms)


def random_observation(rng, tie=False):
    """An observation the engine could hand out: K = 2..5 servers, 0..3 jobs
    of 1..3 copies on servers other than the offered one, each copy's
    elapsed time below its law's largest atom and no larger than the
    first copy's.  With tie, every server has one law and every job one
    copy of one elapsed time, so candidates tie exactly."""
    k = rng.randint(2, 5)
    family = rng.choice(("atomic", "hyperexp"))
    if tie:
        dists = (_random_law(rng, family),) * k
    else:
        dists = tuple(_random_law(rng, family) for _ in range(k))
    server = rng.randrange(k)
    free = [s for s in range(k) if s != server]
    rng.shuffle(free)
    n_jobs = rng.randint(0, min(3, len(free)))
    common = rng.choice((0.0, 0.5, 1.0))
    jobs = []
    for i in range(n_jobs):
        n_copies = 1 if tie else rng.randint(1, min(3, len(free) - (n_jobs - i - 1)))
        servers = tuple(free.pop() for _ in range(n_copies))
        if tie:
            elapsed = (min(common, _largest(dists[servers[0]]) - 0.5),)
        else:
            elapsed = []
            for s in servers:
                e = rng.randrange(int(2 * min(_largest(dists[s]), 6))) / 2
                elapsed.append(min([e] + elapsed))
        jobs.append(job(10 * i + rng.randint(0, 9), servers[0], servers, elapsed))
    return obs(server, jobs, dists=dists, can_new=rng.random() < 0.6, delta=rng.choice((0.0, 0.5)))


class TestMaxRateSinglePass:
    @pytest.mark.parametrize("tie", [False, True])
    def test_same_decisions_as_scoring_every_candidate(self, tie):
        rng = random.Random(1405 + tie)
        kinds = set()
        ties = 0
        for _ in range(300):
            o = random_observation(rng, tie)
            for flag in (True, False):
                got = MaxRate(include_cancel_delay=flag).decide(o)
                assert got == reference_maxrate(o, flag), (o, flag)
                kinds.add("wait" if got.kind == "wait" else type(got.plan[0][1]).__name__)
            if len(o.jobs) >= 2:
                rates = [
                    instantaneous_rate(o, Decision("plan", (((o.server,), jv.job_id),)))
                    for jv in o.jobs
                ]
                ties += len(set(rates)) < len(rates)
        assert kinds == {"wait", "str", "int"}
        if tie:
            assert ties > 0

    def test_new_and_replica_tie_on_memoryless_laws(self):
        # exponential servers: a replica and a new job give the same rate,
        # and the first candidate, the new job, is kept
        dists = (Exponential(1.0),) * 3
        o = obs(2, jobs=(job(4, 0, (0,), (0.7,)), job(9, 1, (1,), (2.5,))), dists=dists)
        assert MaxRate().decide(o) == reference_maxrate(o) == Decision("plan", (((2,), "new"),))


def reference_state_key(obs, g):
    """The tabular policy's state key as observation_state_key built it
    before the key moved into TabularPolicy.decide."""
    k = len(obs.dists)
    elapsed = [0] * k
    for jv in obs.jobs:
        for s, e in zip(jv.servers, jv.elapsed):
            elapsed[s] = round(e / g)
    cancel = [0] * k
    for s, rem in obs.cancelling:
        cancel[s] = round(rem / g)
    jobs = tuple(sorted(tuple(sorted(jv.servers)) for jv in obs.jobs))
    return (jobs, tuple(elapsed), tuple(cancel))


def reference_tabular(policy, obs):
    """TabularPolicy.decide as it was: look the key up in the table (or its
    canonical form, relabelled), then find each target job through a
    server-set -> job id dict."""
    key = reference_state_key(obs, float(_lattice_step(obs.dists, obs.delta)))
    table = dict(policy.table)
    plan = table.get(key)
    if plan is None:
        if policy.classes is not None:
            canon, perm = canonical_state(key, policy.classes)
            plan = table.get(canon)
        if plan is None:
            raise PolicyError(f"no action tabulated for state {key}")
        label = [0] * len(perm)
        for s, slot in enumerate(perm):
            label[slot] = s
        plan = tuple(
            (
                tuple([label[s] for s in group]),
                target if target == "new" else tuple(sorted([label[s] for s in target])),
            )
            for group, target in plan
        )
    by_servers = {tuple(sorted(jv.servers)): jv.job_id for jv in obs.jobs}
    resolved = []
    for group, target in plan:
        if target == "new":
            resolved.append((tuple(group), "new"))
            continue
        job_id = by_servers.get(tuple(sorted(target)))
        if job_id is None:
            raise PolicyError(f"plan references missing job on servers {target}")
        resolved.append((tuple(group), job_id))
    return Decision("plan", tuple(resolved))


class _Recorder(Policy):
    """Asks the wrapped policy and keeps every observation and answer."""

    def __init__(self, inner):
        self.inner = inner
        self.seen = []

    def decide(self, obs):
        dec = self.inner.decide(obs)
        self.seen.append((obs, dec))
        return dec


THREE = EXAMPLE_DISTS + EXAMPLE_DISTS[1:]  # a two-copy job leaves one server idle
UPFRONT = UpfrontRep(Partition((frozenset({0, 1}), frozenset({2}))))


def _full_view_observations():
    """Every observation the engine offers through a full-view wrapper, in
    saturated and Poisson runs with a delay, under policies that leave
    jobs in flight while a server is idle."""
    seen = []
    for inner in (NoRep(), UPFRONT, MaxRate(), AdaRep(homogeneous=(1.0, 3.0))):
        for lam, delta in ((0.0, 0.5), (0.5, 1.0)):
            recorder = _Recorder(inner)
            event_trace(SystemConfig(THREE, delta), recorder, 300.0, seed=4, lam=lam)
            seen += [o for o, _ in recorder.seen]
    return seen


class TestReadsJobs:
    OBSERVATIONS = _full_view_observations()

    def test_observations_cover_jobs_and_cancelling(self):
        assert any(o.jobs for o in self.OBSERVATIONS)
        assert any(o.cancelling for o in self.OBSERVATIONS)
        assert any(not o.can_new for o in self.OBSERVATIONS)

    @pytest.mark.parametrize("policy", [NoRep(), FullRep(), UPFRONT], ids=lambda p: p.name)
    def test_decision_ignores_jobs_and_cancelling(self, policy):
        assert policy.reads_jobs is False
        for o in self.OBSERVATIONS:
            assert policy.decide(o) == policy.decide(o._replace(jobs=(), cancelling=()))

    def test_time_dependent_policies_read_jobs(self):
        table = TabularPolicy(())
        for policy in (MaxRate(), AdaRep(homogeneous=(1.0,)), table, _Recorder(NoRep())):
            assert policy.reads_jobs is True

    def test_engine_offers_no_jobs_when_every_server_is_idle(self):
        # FullRep acts on "all idle" alone: every in-flight job holds a busy server
        all_idle = [o for o in self.OBSERVATIONS if len(o.idle_servers) == len(o.dists)]
        assert all_idle
        assert not any(o.jobs for o in all_idle)
        for o in self.OBSERVATIONS:
            busy = {s for jv in o.jobs for s in jv.servers}
            assert not busy & set(o.idle_servers)


def _lattice_cfg_dists():
    text = (pathlib.Path(__file__).resolve().parent.parent / "experiments/mdp_lattice.cfg").read_text()
    system = parse_config(text).materialize_system(None)
    return system.servers, system.delta


LAW_B = FiniteSupport(((1.0, 0.8), (8.0, 0.2)))


class TestTabularDecisions:
    @pytest.mark.parametrize(
        "case", ["example", "four_identical", "lattice_cfg"]
    )
    def test_same_decisions_as_the_dict_resolution(self, case):
        if case == "example":
            ds, delta = EXAMPLE_DISTS, 0.0
        elif case == "four_identical":
            ds, delta = (LAW_B,) * 4, 0.0
        else:
            ds, delta = _lattice_cfg_dists()
            assert delta == 0.1
        kernel = build_mdp(ds, delta)
        solution = solve_average_cost(kernel)
        recorder = _Recorder(as_tabular_policy(kernel, solution))
        run_saturated(SystemConfig(ds, delta), recorder, 3_000, seed=14)
        fresh = as_tabular_policy(kernel, solution)
        table_keys = {key for key, _ in fresh.table}
        g = float(_lattice_step(ds, delta))
        relabelled = replicas = 0
        for o, dec in recorder.seen:
            expected = reference_tabular(fresh, o)
            assert dec == expected
            assert fresh.decide(o) == expected
            relabelled += reference_state_key(o, g) not in table_keys
            replicas += any(target != "new" for _, target in expected.plan)
        assert replicas > 0
        if case == "four_identical":
            assert relabelled > 0

    def test_missing_job_raises(self):
        # the job on server 1 (ticks of 1 on the example's lattice) is found
        # by its server set; a plan naming servers no job holds is refused
        key = (((0,),), (2, 0), (0, 0))
        o = obs(1, jobs=(job(3, 0, (0,), (2.0,)),))
        found = TabularPolicy(table=((key, (((1,), (0,)),)),))
        assert found.decide(o) == Decision("plan", (((1,), 3),))
        stale = TabularPolicy(table=((key, (((1,), (0, 1)),)),))
        with pytest.raises(PolicyError, match="missing job"):
            stale.decide(o)

    def test_untabulated_state_raises(self):
        policy = TabularPolicy(table=())
        with pytest.raises(PolicyError, match="no action tabulated"):
            policy.decide(obs(0))
        with pytest.raises(PolicyError, match="no action tabulated"):
            TabularPolicy(table=(), classes=(0, 0)).decide(obs(0, dists=(LAW_B, LAW_B)))


class TestParsing:
    @pytest.mark.parametrize(
        "text,cls",
        [
            ("norep", NoRep),
            ("fullrep", FullRep),
            ("maxrate", MaxRate),
            ("upfront:[[1,2],[3]]", UpfrontRep),
            ("adarep:{1->2:inf, 2->1:1.0}", AdaRep),
            ("adarep-hom:[0.1,0.2,0.3]", AdaRep),
        ],
    )
    def test_literals(self, text, cls):
        policy = parse_policy(text)
        assert isinstance(policy, cls)

    def test_adarep_table_indices_are_one_based(self):
        policy = parse_policy("adarep:{1->2:inf, 2->1:1.0}")
        assert policy.thresholds == ((0, 1, INF), (1, 0, 1.0))

    def test_upfront_groups_are_one_based(self):
        policy = parse_policy("upfront:[[1,2],[3]]")
        assert set(policy.partition.groups) == {frozenset({0, 1}), frozenset({2})}

    def test_adarep_hom_values(self):
        policy = parse_policy("adarep-hom:[0.1,0.2,inf]")
        assert policy.homogeneous == (0.1, 0.2, INF)

    @pytest.mark.parametrize(
        "text",
        [
            "adarep:{1->2:inf,2->1:0.25}",
            "adarep-hom:[0.5,1,2.5]",
            "upfront:[[1,2],[3]]",
            "maxrate:nodelta",
        ],
    )
    def test_spec_round_trip(self, text):
        policy = parse_policy(text)
        assert policy.spec() == text
        assert parse_policy(policy.spec()).spec() == policy.spec()

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            parse_policy("lifo")
        with pytest.raises(ValueError):
            parse_policy("adarep:{1-2:1}")

    @pytest.mark.parametrize("text", ["adarep-hom:[]", "adarep-hom: [ ]"])
    def test_rejects_an_empty_threshold_list(self, text):
        # it ran as AdaRep() with no thresholds, written as adarep with params {}
        with pytest.raises(ValueError, match="adarep-hom thresholds"):
            parse_policy(text)

    @pytest.mark.parametrize("text", ["norep:3", "fullrep:xyz", "maxrate:nodelta2", "maxrate:delta"])
    def test_rejects_an_argument_the_policy_does_not_take(self, text):
        # they ran as the plain policy, maxrate with the delay
        with pytest.raises(ValueError, match=re.escape(repr(text))):
            parse_policy(text)

    @pytest.mark.parametrize("text", ["norep:", "fullrep: ", "maxrate:"])
    def test_empty_argument_is_the_plain_policy(self, text):
        assert parse_policy(text).spec() == text.partition(":")[0]
