"""Replication decision rules.

A policy is asked for a decision whenever a server is assignable and
either a queued job or a replication candidate exists.  The observation
carries the offered server, the set of currently assignable servers, a
view of every in-flight job, and whether a new job is available; a
policy that declares ``reads_jobs = False`` (NoRep, FullRep, UpfrontRep)
gets no job views and no cancelling servers.

Every policy answers in one shape: wait, or a plan of (server group,
target) pairs that refills assignable servers.  Target "new" starts the
next queued job on the group; a job id adds replicas of that running job
on it.  A plan must place the offered server.  NoRep, FullRep, UpfrontRep,
MaxRate and AdaRep return one-group plans; a solved MDP policy
(TabularPolicy) may refill several groups at once.  All policies are
immutable, and decide() is a pure function of the observation that reads
job ids only as labels (see Policy).
"""

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .analytic import Partition
from .distributions import _eval_literal, _fmt, _launch_time, _lattice_step, _ticks, parse_number
from .errors import PolicyError

INF = float("inf")


class JobView(NamedTuple):
    """Read-only snapshot of one in-flight job."""

    job_id: int
    origin: int
    servers: tuple
    elapsed: tuple
    elapsed_original: float


class Observation(NamedTuple):
    """An offer; jobs and cancelling are () when reads_jobs is False."""

    server: int
    idle_servers: tuple
    jobs: tuple
    can_new: bool
    dists: tuple
    delta: float
    cancelling: tuple = ()


class Decision(NamedTuple):
    """What to do with the offered server.

    kind "wait": leave it idle.  kind "plan": apply ``plan``, a tuple of
    (server group, target) pairs.  Target "new" starts the next queued job
    on every server of the group; a job id adds replicas of that running
    job on them.  One of the groups must contain the offered server.
    """

    kind: str
    plan: tuple = ()


WAIT = Decision("wait")


class Policy:
    """Base of every decision rule.

    decide() must be pure and read job ids only as labels: relabelling
    the ids of the jobs, keeping their start order, relabels the job
    targets of the answer alike (AdaRep's tie-break on the lowest id
    follows start order).  Within a run, the simulator replays the
    launches of a scan of offers, each finding every job just started and
    no server cancelling, for every scan that begins as it did (see
    repliq.engine).

    reads_jobs: whether decide() reads the time-dependent part of the
    observation, the job views and the cancelling servers.  A subclass
    sets it False only if its answer depends on nothing else than the
    offered server, the idle servers, can_new, the laws and the delay;
    the simulator then passes both empty and replays the launches of a
    scan for every scan within a run that begins as it did.
    """

    name = "policy"
    reads_jobs = True

    def params_str(self) -> str:
        return ""

    def decide(self, obs: Observation) -> Decision:
        raise NotImplementedError

    def spec(self) -> str:
        p = self.params_str()
        return f"{self.name}:{p}" if p else self.name


class NoRep(Policy):
    """Every job runs on exactly one server: the first one offered."""

    name = "norep"
    reads_jobs = False

    def decide(self, obs):
        if obs.can_new:
            return Decision("plan", (((obs.server,), "new"),))
        return WAIT


class FullRep(Policy):
    """Each job is replicated on all servers; acts only when all are idle."""

    name = "fullrep"
    reads_jobs = False

    def decide(self, obs):
        # every in-flight job holds a busy server, so all idle means no jobs
        k = len(obs.dists)
        if obs.can_new and len(obs.idle_servers) == k:
            return Decision("plan", ((tuple(range(k)), "new"),))
        return WAIT


@dataclass(frozen=True)
class UpfrontRep(Policy):
    """Static partition into super-servers; a job occupies one whole group."""

    partition: Partition
    name = "upfront"
    reads_jobs = False

    def params_str(self):
        return str(self.partition)

    def decide(self, obs):
        group = tuple(sorted(self.partition.group_of(obs.server)))
        if obs.can_new and all(s in obs.idle_servers for s in group):
            return Decision("plan", ((group, "new"),))
        return WAIT


@dataclass(frozen=True)
class MaxRate(Policy):
    """Greedy choice of the action that maximizes the instantaneous
    departure rate, the sum over jobs of one over the expected remaining
    time to departure.

    include_cancel_delay controls whether the cancellation window is added
    to the expected departure time of multi-replica jobs.
    """

    include_cancel_delay: bool = True
    name = "maxrate"

    def params_str(self):
        return "" if self.include_cancel_delay else "nodelta"

    def decide(self, obs):
        jobs = obs.jobs
        mine = (obs.server,)
        if not jobs:
            return Decision("plan", ((mine, "new"),)) if obs.can_new else WAIT
        dists = obs.dists
        delta = obs.delta if self.include_cancel_delay else 0.0
        added = ((obs.server, 0.0),)
        # each job's rate as it is and with the offered server added, then
        # every candidate's rate summed in instantaneous_rate's order (0.0,
        # each job's term, the new job's term), so each is the same float
        stay, grow = [], []
        base = 0.0
        for jv in jobs:
            replicas = tuple(zip(jv.servers, jv.elapsed))
            term = 1.0 / _expected_departure(replicas, dists, delta)
            stay.append(term)
            grow.append(1.0 / _expected_departure(replicas + added, dists, delta))
            base += term
        if obs.can_new:
            base += 1.0 / _expected_departure(added, dists, delta)
        best, best_rate = None, base
        head = 0.0
        for j, jv in enumerate(jobs):
            rate = head + grow[j]
            for term in stay[j + 1 :]:
                rate += term
            if rate > best_rate * (1.0 + 1e-12):
                best, best_rate = jv.job_id, rate
            head += stay[j]
        if best is not None:
            return Decision("plan", ((mine, best),))
        return Decision("plan", ((mine, "new"),)) if obs.can_new else WAIT


@dataclass(frozen=True)
class AdaRep(Policy):
    """Threshold replication: replicate a job once its original copy has
    been in service at least the configured threshold and a server frees up.

    thresholds: mapping (origin server, target server) -> threshold for the
    heterogeneous form, used regardless of how often the job was already
    replicated.  homogeneous: nondecreasing per-extra-replica thresholds
    (tau_1, ..., tau_{K-1}); a job holding r copies needs elapsed >= tau_r
    for the next one.
    """

    thresholds: tuple = ()
    homogeneous: tuple = ()
    name = "adarep"

    def __post_init__(self):
        if self.homogeneous:
            taus = tuple(float(t) for t in self.homogeneous)
            if not all(t >= 0 for t in taus):
                raise ValueError(f"thresholds must be >= 0, got {taus}")
            if any(a > b for a, b in zip(taus, taus[1:])):
                raise ValueError(f"homogeneous thresholds must be nondecreasing, got {taus}")
            object.__setattr__(self, "homogeneous", taus)
        raw = self.thresholds
        items = raw.items() if isinstance(raw, dict) else [((o, t), v) for o, t, v in raw]
        table = tuple(sorted((int(o), int(t), float(v)) for (o, t), v in items))
        if not all(v >= 0 for _, _, v in table):
            raise ValueError("thresholds must be >= 0")
        object.__setattr__(self, "thresholds", table)

    def params_str(self):
        if self.homogeneous:
            return "[" + ",".join(_fmt(t) for t in self.homogeneous) + "]"
        items = ",".join(
            f"{o + 1}->{t + 1}:{_fmt(v)}" for o, t, v in self.thresholds
        )
        return "{" + items + "}"

    def spec(self):
        head = "adarep-hom" if self.homogeneous else self.name
        return f"{head}:{self.params_str()}"

    def _threshold(self, jv: JobView, target: int) -> float:
        if self.homogeneous:
            idx = len(jv.servers) - 1
            if idx >= len(self.homogeneous):
                return INF
            return self.homogeneous[idx]
        for o, t, v in self.thresholds:
            if o == jv.origin and t == target:
                return v
        return INF

    def decide(self, obs):
        best = None
        for jv in obs.jobs:
            thr = self._threshold(jv, obs.server)
            if jv.elapsed_original >= thr:
                key = (-jv.elapsed_original, jv.job_id)
                if best is None or key < best[0]:
                    best = (key, jv.job_id)
        if best is not None:
            return Decision("plan", (((obs.server,), best[1]),))
        if obs.can_new:
            return Decision("plan", (((obs.server,), "new"),))
        return WAIT


@dataclass(frozen=True)
class TabularPolicy(Policy):
    """Policy given as an explicit state -> refill-plan table.

    State keys are (sorted job server-sets, per-server elapsed, per-server
    cancelling remaining), times in whole ticks of the laws' lattice step
    (distributions._lattice_step); plans list (server group, "new" | job
    server-set) pairs covering every assignable server.  With law classes
    (see law_classes) the table holds canonical states only: an observed
    state outside it takes the plan of its canonical form, mapped back to
    the observed server labels and remembered under the observed key.
    """

    table: tuple
    classes: tuple = None
    name = "tabular"

    def __post_init__(self):
        object.__setattr__(self, "_lookup", {key: _entry(plan) for key, plan in self.table})
        # (laws, delay, float lattice step) of the last observation: a run
        # shares one laws tuple, so the step is looked up once, not per call
        object.__setattr__(self, "_lattice", (None, None, None))

    def params_str(self):
        return f"{len(self.table)}states"

    def decide(self, obs):
        dists, delta, g = self._lattice
        if obs.dists is not dists or obs.delta != delta:
            step = _lattice_step(obs.dists, obs.delta)
            if step is None:
                raise PolicyError(f"no time lattice for the laws {obs.dists} at delay {obs.delta}")
            g = float(step)
            object.__setattr__(self, "_lattice", (obs.dists, obs.delta, g))
        k = len(obs.dists)
        elapsed = [0] * k
        sets = []
        for jv in obs.jobs:
            for s, e in zip(jv.servers, jv.elapsed):
                elapsed[s] = _ticks(e, g)
            sets.append(tuple(sorted(jv.servers)))
        cancel = [0] * k
        for s, rem in obs.cancelling:
            cancel[s] = _ticks(rem, g)
        key = (tuple(sorted(sets)), tuple(elapsed), tuple(cancel))
        entry = self._lookup.get(key)
        if entry is None:
            entry = self._relabelled_entry(key)
        decision, plan = entry
        if decision is not None:
            return decision
        resolved = []
        for group, target in plan:
            if target != "new":
                if target not in sets:
                    raise PolicyError(f"plan references missing job on servers {target}")
                target = obs.jobs[sets.index(target)].job_id
            resolved.append((group, target))
        return Decision("plan", tuple(resolved))

    def _relabelled_entry(self, key):
        """The entry of key's canonical form in key's server labels, kept
        under key for the next visit."""
        entry = None
        if self.classes is not None:
            canon, perm = canonical_state(key, self.classes)
            entry = self._lookup.get(canon)
        if entry is None:
            raise PolicyError(f"no action tabulated for state {key}")
        label = [0] * len(perm)  # canonical label -> observed server
        for s, slot in enumerate(perm):
            label[slot] = s
        entry = _entry(
            (
                [label[s] for s in group],
                target if target == "new" else [label[s] for s in target],
            )
            for group, target in entry[1]
        )
        self._lookup[key] = entry
        return entry


def _entry(plan):
    """(Decision or None, plan) for a table plan: groups as tuples, job
    targets as sorted server tuples, and the Decision built once when the
    plan only starts new jobs."""
    plan = tuple(
        (tuple(group), target if target == "new" else tuple(sorted(target)))
        for group, target in plan
    )
    if all(target == "new" for _, target in plan):
        return Decision("plan", plan), plan
    return None, plan


def law_classes(dists):
    """Per server, the lowest index of a server with an equal law.

    None when no two laws are equal: then every state is its own canonical
    form and nothing needs relabelling.
    """
    classes = tuple(dists.index(d) for d in dists)
    return None if len(set(classes)) == len(classes) else classes


def canonical_state(key, classes):
    """Representative of a (jobs, elapsed, cancelling) key under the
    permutations of servers that share a law class.

    Jobs are ranked by the sorted (class, elapsed) pairs of their copies,
    largest first; within each class, servers ordered by (job rank,
    -elapsed, -cancelling), idle servers last, take the class's labels in
    ascending order.  Servers that tie are interchangeable, so every
    relabelling of a state gives the same representative.  Returns
    (canonical key, perm), where perm[s] is the canonical label of server s.
    """
    jobs, elapsed, cancel = key
    k = len(classes)
    rank = [len(jobs)] * k
    signed = sorted(
        ((sorted([(classes[s], elapsed[s]) for s in job]), job) for job in jobs), reverse=True
    )
    for r, (_, job) in enumerate(signed):
        for s in job:
            rank[s] = r
    order = sorted(range(k), key=lambda s: (classes[s], rank[s], -elapsed[s], -cancel[s]))
    perm = [0] * k
    for s, slot in zip(order, sorted(range(k), key=classes.__getitem__)):
        perm[s] = slot
    new_elapsed = [0.0] * k
    new_cancel = [0.0] * k
    for s in range(k):
        new_elapsed[perm[s]] = elapsed[s]
        new_cancel[perm[s]] = cancel[s]
    new_jobs = tuple(sorted(tuple(sorted([perm[s] for s in job])) for job in jobs))
    return (new_jobs, tuple(new_elapsed), tuple(new_cancel)), perm


def instantaneous_rate(obs: Observation, action: Decision, include_cancel_delay=True) -> float:
    """Sum over jobs (after hypothetically applying the action) of
    1 / E[remaining time to departure], assuming no further replication.

    A multi-replica job's expected departure time includes the cancellation
    window unless include_cancel_delay is false.
    """
    delta = obs.delta if include_cancel_delay else 0.0
    plan = action.plan
    rate = 0.0
    for jv in obs.jobs:
        replicas = tuple(zip(jv.servers, jv.elapsed))
        for group, target in plan:
            if target == jv.job_id:
                replicas += tuple([(s, 0.0) for s in group])
        rate += 1.0 / _expected_departure(replicas, obs.dists, delta)
    for group, target in plan:
        if target == "new":
            rate += 1.0 / _expected_departure(tuple([(s, 0.0) for s in group]), obs.dists, delta)
    return rate


class _Laws(tuple):
    """A tuple of service-time laws that computes its hash once.

    Every _expected_departure lookup hashes the laws, and each law's
    dataclass __hash__ runs in Python; the simulator wraps its laws in one
    _Laws per run.  Hash and equality are those of the plain tuple, so the
    memo's keys and results are the same either way."""

    def __new__(cls, laws):
        self = super().__new__(cls, laws)
        self._hash = tuple.__hash__(self)
        return self

    def __hash__(self):
        return self._hash


@lru_cache(maxsize=200_000)
def _expected_departure(replicas, dists, delta):
    return _launch_time([dists[s].residual(e) if e > 0 else dists[s] for s, e in replicas], delta)


# ---------------------------------------------------------------------------
# Policy literal grammar: norep | fullrep | upfront:[[1,2],[3]] | maxrate |
# adarep:{1->2:inf, 2->1:1.0} | adarep-hom:[0.1,0.2].  Server labels are
# 1-based; numbers take the arithmetic of distributions._eval_literal (1/2).

_ADAREP_ITEM = re.compile(r"^\s*(\d+)\s*->\s*(\d+)\s*:(.*)$")


def parse_policy(text: str) -> Policy:
    text = text.strip()
    head, _, args = text.partition(":")
    head = head.strip().lower()
    if head in ("norep", "fullrep", "maxrate"):
        arg = args.strip()
        if arg and (head, arg) != ("maxrate", "nodelta"):
            raise ValueError(f"unknown argument {arg!r} in policy literal {text!r}")
        if head == "maxrate":
            return MaxRate(include_cancel_delay=not arg)
        return NoRep() if head == "norep" else FullRep()
    if head == "upfront":
        groups = _eval_literal(args, "upfront")
        if not isinstance(groups, list) or not all(isinstance(g, list) for g in groups):
            raise ValueError(f"upfront groups must be [[...],...], got {args!r}")
        return UpfrontRep(Partition(tuple(frozenset(map(_server_index, g)) for g in groups)))
    if head == "adarep":
        body = args.strip()
        if not (body.startswith("{") and body.endswith("}")):
            raise ValueError(f"adarep thresholds must be {{o->t:value,...}}, got {args!r}")
        table = {}
        for item in body[1:-1].split(","):
            if not item.strip():
                continue
            m = _ADAREP_ITEM.match(item)
            if not m:
                raise ValueError(f"bad adarep threshold item {item!r}")
            o, t = _server_index(int(m.group(1))), _server_index(int(m.group(2)))
            table[(o, t)] = parse_number(m.group(3))
        return AdaRep(thresholds=table)
    if head == "adarep-hom":
        taus = _eval_literal(args, "adarep-hom")
        # an empty list would run as AdaRep() with no thresholds at all
        if not isinstance(taus, list) or not taus or not all(isinstance(t, float) for t in taus):
            raise ValueError(f"adarep-hom thresholds must be [t1,t2,...], got {args!r}")
        return AdaRep(homogeneous=tuple(taus))
    raise ValueError(f"unknown policy literal {text!r}")


def _server_index(label):
    """0-based index of a 1-based server label; ValueError unless an integer >= 1."""
    if not isinstance(label, (int, float)) or not 1 <= label < INF or label % 1:
        raise ValueError(f"server labels are integers >= 1, got {label!r}")
    return int(label) - 1
