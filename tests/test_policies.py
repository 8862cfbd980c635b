import pytest

from repliq.analytic import Partition
from repliq.distributions import Deterministic, Exponential, FiniteSupport
from repliq.errors import InconsistentObservationError
from repliq.policies import (
    AdaRep,
    Decision,
    FullRep,
    JobView,
    MaxRate,
    NoRep,
    Observation,
    UpfrontRep,
    decide,
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
        d = decide(NoRep(), obs(0))
        assert d.plan == (((0,), "new"),)

    def test_norep_waits_without_queue(self):
        d = decide(NoRep(), obs(0, can_new=False))
        assert d.kind == "wait"

    def test_fullrep_all_idle(self):
        d = decide(FullRep(), obs(0))
        assert d.plan == (((0, 1), "new"),)

    def test_fullrep_waits_on_partial_idle(self):
        jv = job(7, 1, (1,), (0.5,))
        d = decide(FullRep(), obs(0, jobs=(jv,)))
        assert d.kind == "wait"

    def test_upfront_waits_for_whole_group(self):
        dists = (Exponential(1.0),) * 3
        policy = UpfrontRep(Partition((frozenset({0, 1}), frozenset({2}))))
        jv = job(3, 1, (1,), (0.2,))
        assert decide(policy, obs(0, jobs=(jv,), dists=dists)).kind == "wait"
        d = decide(policy, obs(2, jobs=(jv,), dists=dists))
        assert d.plan == (((2,), "new"),)
        d = decide(policy, obs(0, dists=dists))
        assert d.plan == (((0, 1), "new"),)


class TestAdaRep:
    POLICY = AdaRep(thresholds={(0, 1): INF, (1, 0): 1.0})

    def test_replicates_beyond_threshold(self):
        jv = job(4, 1, (1,), (2.0,))
        d = decide(self.POLICY, obs(0, jobs=(jv,)))
        assert d.plan == (((0,), 4),)

    def test_new_below_threshold(self):
        jv = job(4, 1, (1,), (0.5,))
        d = decide(self.POLICY, obs(0, jobs=(jv,)))
        assert d.plan == (((0,), "new"),)

    def test_fires_at_exact_threshold(self):
        jv = job(4, 1, (1,), (1.0,))
        assert decide(self.POLICY, obs(0, jobs=(jv,))).plan == (((0,), 4),)

    def test_infinite_threshold_never_fires(self):
        jv = job(4, 0, (0,), (100.0,))
        d = decide(self.POLICY, obs(1, jobs=(jv,)))
        assert d.plan == (((1,), "new"),)

    def test_homogeneous_additional_replica_index(self):
        dists = (Exponential(1.0),) * 5
        policy = AdaRep(homogeneous=(0.1, 0.2, 0.3, 0.4))
        jv = job(1, 0, (0, 1, 2), (0.35, 0.2, 0.1))
        d = decide(policy, obs(3, jobs=(jv,), dists=dists))
        assert d.plan == (((3,), 1),)
        jv = job(1, 0, (0, 1, 2), (0.25, 0.2, 0.1))
        d = decide(policy, obs(3, jobs=(jv,), dists=dists))
        assert d.plan == (((3,), "new"),)

    def test_tie_prefers_largest_elapsed_then_smallest_id(self):
        dists = (Exponential(1.0),) * 4
        policy = AdaRep(homogeneous=(0.1, 0.2, 0.3))
        a = job(5, 0, (0,), (0.9,))
        b = job(2, 1, (1,), (1.5,))
        c = job(9, 2, (2,), (1.5,))
        d = decide(policy, obs(3, jobs=(a, b, c), dists=dists))
        assert d.plan == (((3,), 2),)

    def test_wait_when_nothing_possible(self):
        jv = job(4, 1, (1,), (0.5,))
        d = decide(self.POLICY, obs(0, jobs=(jv,), can_new=False))
        assert d.kind == "wait"

    def test_nondecreasing_validation(self):
        with pytest.raises(ValueError):
            AdaRep(homogeneous=(0.3, 0.2))

    def test_decide_is_pure(self):
        jv = job(4, 1, (1,), (2.0,))
        o = obs(0, jobs=(jv,))
        assert decide(self.POLICY, o) == decide(self.POLICY, o)


class TestMaxRate:
    def test_replicates_fresh_sibling(self):
        # one job just started on the deterministic server, other server idle:
        # replicating (rate 1/1.1) beats two singletons (0.5 + 1/2.9)
        jv = job(0, 0, (0,), (0.0,))
        o = obs(1, jobs=(jv,))
        d = decide(MaxRate(), o)
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
        d = decide(MaxRate(), o)
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
        assert decide(MaxRate(), o).plan == (((1,), "new"),)

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
        d = decide(MaxRate(), o)
        assert d.plan == (((0,), 0),)

    def test_empty_queue_replicates_stragglers_for_free(self):
        # with no queued job and no cancellation cost, an extra replica can
        # only raise the departure rate, even for an identified straggler
        jv = job(0, 1, (1,), (1.0,))
        o = obs(0, jobs=(jv,), can_new=False)
        assert decide(MaxRate(), o).plan == (((0,), 0),)

    def test_empty_queue_waits_when_cancel_window_dominates(self):
        jv = job(0, 1, (1,), (19.5,))  # residual mass at 0.5
        o = obs(0, jobs=(jv,), can_new=False, delta=3.0)
        wait_rate = instantaneous_rate(o, Decision("wait"))
        rep_rate = instantaneous_rate(o, Decision("plan", (((0,), 0),)))
        assert wait_rate > rep_rate
        assert decide(MaxRate(), o).kind == "wait"


class TestObservationValidation:
    def test_offered_server_in_replica_set(self):
        jv = job(0, 0, (0,), (1.0,))
        bad = Observation(
            server=0,
            idle_servers=(0,),
            jobs=(jv,),
            can_new=True,
            dists=EXAMPLE_DISTS,
            delta=0.0,
        )
        with pytest.raises(InconsistentObservationError):
            decide(NoRep(), bad)

    def test_offered_server_must_be_idle(self):
        bad = Observation(
            server=1,
            idle_servers=(0,),
            jobs=(),
            can_new=True,
            dists=EXAMPLE_DISTS,
            delta=0.0,
        )
        with pytest.raises(InconsistentObservationError):
            decide(NoRep(), bad)


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
