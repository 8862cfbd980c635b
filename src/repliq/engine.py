"""Deterministic seeded discrete-event simulator of the central-queue
replication system.

One run is strictly sequential: events are processed in (time, kind, order)
order with departures before cancellation-window ends before arrivals, and
assignable servers are offered to the policy in ascending index order once
all events at a timestamp have been handled.  Identical (config, policy,
seed) triples therefore reproduce identical trajectories bit for bit.

There are three kinds of event.  Every launch of copies started together
draws each copy's service time and pushes one DEPART at the earliest end,
the first started copy winning ties; the first DEPART of a job to be
popped departs the job.  A job that departs with two or more copies and
delta > 0 pushes one CANCEL_END for all its servers, which frees them in
the order the copies started.  The ARRIVE events of a Poisson run each
push the next arrival.  A DEPART of replicas that a later launch added to
a running job stays in the heap when an earlier copy wins: popping it
does nothing, but it still ends a timestamp, so idle servers are offered
again then.  No server is offered while none is idle, so a timestamp that
leaves every server busy or cancelling costs no scan.

Each run keeps one table of time-free scans and asks the policy only on
a miss.  A scan is time-free when each of its offers finds every job in
flight started at this instant and no server cancelling, so that every
elapsed time is exactly 0.0.  Every scan of a policy whose ``reads_jobs``
is False (NoRep, FullRep, UpfrontRep) is, as it sees no job views and no
cancelling servers; for any other policy, a scan that begins with every
server idle.  Such a scan follows from the status of every server and
the number of queued jobs, at most one per idle server, as it begins.
The table keys it by them and keeps the scan's launches, each a sorted
server group and "new" or the target job's position among the jobs the
scan started, which the policy contract allows (see policies.Policy).  A
miss asks the policy at each offer and checks every answer; a hit
replays the launches.  Every other scan builds the observation of each
offer and asks the policy.  A job with one copy frees its server as it
departs.

A saturated run whose laws are atomic on a lattice of step g
(distributions._lattice_step) that is no binary fraction, such as 0.1,
snaps every copy's end and cancellation-window end to the multiple of g
nearest it, so that events simultaneous on the lattice share one
timestamp, as in the decision process.  Integer and dyadic lattices,
non-atomic laws and Poisson runs are left as they are.

Random numbers come from ``SeedSequence(seed).spawn(k + 1)``: child ``s``
draws server ``s``'s service times and the last child draws the Poisson
inter-arrival gaps, each in blocks of ``_BLOCK`` values.  A server's n-th
service time is therefore the same under every policy run with that seed
(common random numbers).

``run_poisson`` splits its independent runs over worker processes forked
from the caller, one per CPU in the process's affinity set; each run keeps
its own seed, so the result does not depend on the split.
"""

import heapq
import math
import os
import threading
from dataclasses import dataclass
from functools import partial

import numpy as np

from .distributions import _check_delta, _lattice_step, _snap
from .errors import PolicyError
from .policies import Decision, JobView, Observation, Policy, _Laws

INF = float("inf")

_IDLE, _BUSY, _CANCEL = 0, 1, 2
_DEPART, _CANCEL_END, _ARRIVE = 0, 1, 2

_WARMUP_FRACTION = 0.01
_N_BATCHES = 20
_UNSTABLE_QUEUE_FACTOR = 10.0
_BLOCK = 256
_TABLE_SIZE = 1 << 14  # time-free scans a _Sim remembers before it starts afresh
# run_poisson's worker count; None means one per CPU in the affinity set
_WORKERS = None


@dataclass(frozen=True)
class SystemConfig:
    """Server service-time laws plus the shared cancellation delay."""

    servers: tuple
    delta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "servers", tuple(self.servers))
        if not self.servers:
            raise ValueError("need at least one server")
        _check_delta(self.delta)

    @property
    def k(self) -> int:
        return len(self.servers)


class _Job:
    __slots__ = ("id", "arrival", "servers", "starts", "departed")

    def __init__(self, job_id, arrival):
        self.id = job_id
        self.arrival = arrival
        self.servers = ()  # in launch order; the first is the job's origin
        self.starts = []
        self.departed = False


def _blocks(draw):
    """Endless stream of the values of draw(_BLOCK), one block at a time."""
    while True:
        yield from draw(_BLOCK).tolist()


@dataclass(frozen=True)
class RunResult:
    """Outcome of one simulation (or one averaged batch of runs)."""

    mode: str
    policy: str
    params: str
    n_jobs: int
    seed: int
    throughput: float
    # each mode's own fields; the other mode leaves them at these defaults
    lam: float = 0.0
    n_runs: int = 1
    throughput_stderr: float = 0.0
    mean_computing: float = 0.0
    mean_response: float = 0.0
    response_stderr: float = 0.0
    unstable: bool = False
    batches: tuple = ()
    max_idle_gap: float = 0.0

    def work_conservation(self, k: int):
        """(throughput x mean computing time, stderr of that product).

        For a work-conserving policy on a saturated queue the product is k.
        """
        ratios = [sum_c / dur for (_, dur, sum_c) in self.batches if dur > 0]
        if not ratios:
            return self.throughput * self.mean_computing, 0.0
        return float(np.mean(ratios)), _stderr(ratios)


def _stderr(xs):
    """Standard error of the mean of xs; 0.0 for fewer than two values."""
    return float(np.std(xs, ddof=1) / math.sqrt(len(xs))) if len(xs) > 1 else 0.0


class _Sim:
    """One run.  With lam > 0 jobs arrive as a Poisson stream and wait in a
    FIFO queue; otherwise the queue is never empty (saturated)."""

    def __init__(self, config: SystemConfig, policy: Policy, seed, lam=0.0, trace=None):
        self.dists = _Laws(config.servers)
        self.k = config.k
        self.delta = config.delta
        self.policy = policy
        self.reads = policy.reads_jobs
        self.table = {}  # time-free scan -> its launches; see the module docstring
        self.trace = trace
        rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(self.k + 1)]
        self.draws = [_blocks(partial(d.sample_array, rng)) for d, rng in zip(self.dists, rngs)]
        # Poisson mode: arrival time of every job so far, indexed by job id;
        # jobs start in id order, so the queue is arrivals[started:].
        self.arrivals = [] if lam > 0 else None
        self.gaps = _blocks(partial(rngs[-1].exponential, 1.0 / lam)) if lam > 0 else None
        self.started = 0
        self.status = [_IDLE] * self.k
        self.n_idle = self.k
        self.idle_since = [0.0] * self.k
        self.cancel_until = [0.0] * self.k
        self.heap = []
        self.seq = 0
        self.jobs = {}
        # (idle servers, job views, cancelling) shared by the offers of one
        # scan; only launches change them within a scan.  Views and
        # cancelling stay empty for a policy that does not read them.
        self.snapshot = None
        self.dep_times = []
        self.dep_cost = []
        self.dep_resp = []  # response times, kept in Poisson runs only
        self.max_idle_gap = 0.0
        self.q_mid = 0
        self.q_end = 0
        self.served_at_horizon = 0
        # to a non-binary lattice; see the module docstring
        self.snap = _snap(_lattice_step(self.dists, self.delta)) if self.arrivals is None else None

    # -- event plumbing ------------------------------------------------------

    def _push(self, time, kind, a, b):
        self.seq += 1
        heapq.heappush(self.heap, (time, kind, self.seq, a, b))

    # -- decisions -------------------------------------------------------------

    def _observation(self, server, now, can_new):
        # tuple.__new__ fills the named tuples without their Python-level
        # __new__, which costs more than the tuple itself on this path
        if self.snapshot is None:
            views = []
            for job in self.jobs.values() if self.reads else ():
                starts = job.starts
                if len(starts) == 1:
                    elapsed = (now - starts[0],)
                else:
                    elapsed = tuple([now - st for st in starts])
                views.append(
                    tuple.__new__(JobView, (job.id, job.servers[0], job.servers, elapsed, elapsed[0]))
                )
            status = self.status
            idle = tuple([i for i in range(self.k) if status[i] == _IDLE])
            cancelling = ()
            if self.delta > 0 and self.reads:
                cancelling = tuple(
                    [(i, self.cancel_until[i] - now) for i in range(self.k) if status[i] == _CANCEL]
                )
            self.snapshot = (idle, tuple(views), cancelling)
        idle, views, cancelling = self.snapshot
        return tuple.__new__(
            Observation, (server, idle, views, can_new, self.dists, self.delta, cancelling)
        )

    def _scan(self, now):
        self.snapshot = None
        status = self.status
        jobs = self.jobs
        started = self.started
        key = launches = None
        if not self.reads or self.n_idle == self.k:  # time-free; see the module docstring
            queued = self.k if self.arrivals is None else min(len(self.arrivals) - started, self.n_idle)
            key = (tuple(status), queued)
            launches = self.table.get(key)
            if launches is not None:
                for group, target in launches:
                    job = self._start(now) if target == "new" else jobs[started + target]
                    self._launch(job, group, now)
                return
            launches = []
        acted = True
        while acted and self.n_idle:
            acted = False
            for s in range(self.k):
                if status[s] != _IDLE:
                    continue
                can_new = self.arrivals is None or self.started < len(self.arrivals)
                if not can_new and not jobs:  # nothing to start or replicate
                    break  # and nothing launched in this pass, so acted is False
                dec = self.policy.decide(self._observation(s, now, can_new))
                if not isinstance(dec, Decision):
                    raise PolicyError(f"decide answered {dec!r}, which is no Decision")
                if dec.kind != "wait":
                    self._apply(dec, s, now, launches, started)
                    acted = True
        # a job started before the scan has no position in it: such a scan,
        # of a policy that reads no jobs yet names one, is not kept
        if key is not None and all(t == "new" or t >= 0 for _, t in launches):
            if len(self.table) >= _TABLE_SIZE:
                self.table.clear()
            self.table[key] = launches

    def _apply(self, dec: Decision, offered, now, launches, started):
        """Launch dec's plan at the offer of server offered.  Each launch is
        appended to launches, unless None, as its group and "new" or the
        target's position among the jobs started from job id started on."""
        if dec.kind != "plan":
            raise PolicyError(f"unknown decision kind {dec.kind!r}")
        try:
            pairs = iter(dec.plan)
        except TypeError:
            raise PolicyError(f"plan {dec.plan!r} is no sequence of (group, target) pairs") from None
        placed = False
        for pair in pairs:
            try:
                group, target = pair
            except (TypeError, ValueError):
                raise PolicyError(f"plan item {pair!r} is no (group, target) pair") from None
            if type(group) is not tuple or len(group) > 1:
                try:
                    group = tuple(sorted(group))
                except TypeError:
                    raise PolicyError(f"plan group {group!r} is no set of server indices") from None
            if not group:
                raise PolicyError(f"plan {dec.plan!r} has an empty server group")
            placed = placed or offered in group
            if target == "new":
                if self.arrivals is not None and self.started == len(self.arrivals):
                    raise PolicyError("new-job decision with an empty queue")
                job = self._start(now)
            else:
                # a running job's servers are busy, so _launch refuses them
                try:
                    job = self.jobs.get(target)
                except TypeError:  # unhashable
                    job = None
                if job is None:
                    raise PolicyError(f"replication target job {target} has no active copies")
                target = job.id - started
            self._launch(job, group, now)
            if launches is not None:
                launches.append((group, target))
        if not placed:
            # the offered server stays idle and would be offered again forever
            raise PolicyError(f"plan does not place the offered server {offered}")

    def _start(self, now):
        """Start the next queued job."""
        job_id = self.started
        self.started = job_id + 1
        arrival = now if self.arrivals is None else self.arrivals[job_id]
        job = self.jobs[job_id] = _Job(job_id, arrival)
        return job

    def _launch(self, job, group, now):
        """Start a copy of job on each server of group, in order, and push
        one DEPART at the earliest end (see the module docstring)."""
        status = self.status
        starts = job.starts
        saturated = self.arrivals is None
        snap = self.snap
        first = None  # server of the earliest copy
        job.servers += group
        for s in group:
            try:
                idle = status[s] == _IDLE and s >= 0
            except (IndexError, TypeError):  # not a server index
                idle = False
            if not idle:
                raise PolicyError(f"server {s!r} of the plan group {group!r} is not an idle server")
            if saturated:
                gap = now - self.idle_since[s]
                if gap > self.max_idle_gap:
                    self.max_idle_gap = gap
            status[s] = _BUSY
            starts.append(now)
            end = now + next(self.draws[s])
            if snap is not None:
                end = snap(end)
            if first is None or end < first_end:
                first, first_end = s, end
            if self.trace is not None:
                self.trace.append((now, "start", job.id, s, len(starts)))
        self.n_idle -= len(group)
        self.seq += 1
        heapq.heappush(self.heap, (first_end, _DEPART, self.seq, job, first))
        self.snapshot = None

    # -- events ---------------------------------------------------------------

    def _depart(self, job, finisher, now):
        job.departed = True
        servers = job.servers
        ncopies = len(servers)
        if ncopies == 1:
            cost = now - job.starts[0]
            self.status[finisher] = _IDLE
            self.idle_since[finisher] = now
            self.n_idle += 1
        else:
            delta = self.delta
            cost = ncopies * now - math.fsum(job.starts) + delta * ncopies
            if delta > 0:
                until = now + delta
                for s in servers:
                    self.status[s] = _CANCEL
                    self.cancel_until[s] = until
                if self.snap is not None:
                    until = self.snap(until)
                self._push(until, _CANCEL_END, servers, job.id)
            else:
                self._free(servers, now)
        del self.jobs[job.id]
        self.dep_times.append(now)
        self.dep_cost.append(cost)
        if self.arrivals is not None:
            self.dep_resp.append(now - job.arrival)
        if self.trace is not None:
            self.trace.append((now, "depart", job.id, finisher, ncopies))

    def _free(self, servers, now):
        status, idle_since = self.status, self.idle_since
        for s in servers:
            status[s] = _IDLE
            idle_since[s] = now
        self.n_idle += len(servers)

    def _cancel_end(self, servers, job_id, now):
        self._free(servers, now)
        if self.trace is not None:
            self.trace.extend([(now, "cancel_end", job_id, s, self.delta) for s in servers])

    def _arrive(self, now, n_jobs):
        job_id = len(self.arrivals)
        self.arrivals.append(now)
        queued = job_id + 1 - self.started
        if self.trace is not None:
            self.trace.append((now, "arrive", job_id, -1, queued))
        if job_id + 1 == max(1, n_jobs // 2):
            self.q_mid = queued
        if job_id + 1 < n_jobs:
            self._push(now + next(self.gaps), _ARRIVE, None, 0)
        else:
            self.q_end = queued
            self.served_at_horizon = len(self.dep_times)

    # -- main loop ----------------------------------------------------------------

    def run(self, n_jobs, horizon=INF):
        """Process events until n_jobs jobs have departed or the next event
        lies past the horizon.  In Poisson mode n_jobs also caps arrivals."""
        heap = self.heap
        if self.gaps is not None:
            self._push(next(self.gaps), _ARRIVE, None, 0)
        self._scan(0.0)
        while heap:
            t = heap[0][0]
            if t > horizon:
                return
            while heap and heap[0][0] == t:
                _, kind, _, a, b = heapq.heappop(heap)
                if kind == _DEPART:
                    if not a.departed:  # else a cancelled copy's end
                        self._depart(a, b, t)
                        if len(self.dep_times) >= n_jobs:
                            return
                elif kind == _CANCEL_END:
                    self._cancel_end(a, b, t)
                else:
                    self._arrive(t, n_jobs)
            if self.n_idle:
                self._scan(t)
        # nothing runs, cancels or arrives, so nothing will happen again
        raise PolicyError(
            f"the policy left every server idle with jobs waiting, after "
            f"{len(self.dep_times)} of {n_jobs} departures"
        )


def run_saturated(config: SystemConfig, policy: Policy, n_jobs: int, seed: int) -> RunResult:
    """Simulate the never-empty queue for n_jobs departures.

    Throughput and mean computing time are taken after a warm-up of the
    first 1% of jobs; their standard errors come from 20 batch means.
    """
    if n_jobs < 1:
        raise ValueError(f"need n_jobs >= 1, got {n_jobs}")
    sim = _Sim(config, policy, seed)
    sim.run(n_jobs)
    times, costs = sim.dep_times, sim.dep_cost
    n = len(times)
    warm = max(1, int(n * _WARMUP_FRACTION)) if n > 1 else 0
    t0 = times[warm - 1] if warm else 0.0
    post_t = times[warm:]
    post_c = costs[warm:]
    span = post_t[-1] - t0
    throughput = len(post_t) / span if span > 0 else INF
    mean_c = math.fsum(post_c) / len(post_c)
    batches = _batch_stats(post_t, post_c, t0)
    return RunResult(
        mode="saturated",
        policy=policy.name,
        params=policy.params_str(),
        n_jobs=n_jobs,
        seed=seed,
        throughput=throughput,
        throughput_stderr=_stderr([nb / dur for nb, dur, _ in batches if dur > 0]),
        mean_computing=mean_c,
        batches=tuple(batches),
        max_idle_gap=sim.max_idle_gap,
    )


def _batch_stats(times, costs, t_start):
    n = len(times)
    n_batches = min(_N_BATCHES, n)
    size = n // n_batches
    batches = []
    prev_t = t_start
    for b in range(n_batches):
        lo = b * size
        hi = n if b == n_batches - 1 else (b + 1) * size
        dur = times[hi - 1] - prev_t
        batches.append((hi - lo, dur, math.fsum(costs[lo:hi])))
        prev_t = times[hi - 1]
    return batches


def run_poisson(
    config: SystemConfig,
    policy: Policy,
    lam: float,
    n_jobs: int = 1000,
    n_runs: int = 100,
    seed: int = 0,
) -> RunResult:
    """Poisson arrivals at rate lam; servers idle when the queue is empty.

    Each of n_runs independent runs draws n_jobs arrivals and serves them
    to completion; run i is seeded with [seed, i].  The reported response
    time is the mean of per-run means with its across-run standard error.
    The unstable flag fires when the backlog at the end of arrivals dwarfs
    the jobs served, or when the backlog keeps growing between the middle
    and the end of the arrival stream (the signature of lam at or above
    the policy's capacity).  The runs are split over forked workers (see
    _poisson_rows); the result is the same for every split.
    """
    if not 0 < lam < INF:  # nan too: _Sim would run it saturated, with no response times
        raise ValueError(f"need lam > 0 and finite, got {lam}")
    if n_jobs < 1:
        raise ValueError(f"need n_jobs >= 1, got {n_jobs}")
    if n_runs < 1:
        raise ValueError(f"need n_runs >= 1, got {n_runs}")
    rows = _poisson_rows(config, policy, lam, n_jobs, n_runs, seed)
    run_means, growths, q_ends, serveds, throughputs = zip(*rows)
    growth = float(np.mean(growths))
    unstable = float(np.mean(q_ends)) > _UNSTABLE_QUEUE_FACTOR * float(
        np.mean(serveds)
    ) or growth > max(2.0 * config.k, 3.0 * _stderr(growths))
    return RunResult(
        mode="poisson",
        policy=policy.name,
        params=policy.params_str(),
        lam=lam,
        n_jobs=n_jobs,
        n_runs=n_runs,
        seed=seed,
        throughput=float(np.mean(throughputs)),
        mean_response=float(np.mean(run_means)),
        response_stderr=_stderr(run_means),
        unstable=bool(unstable),
    )


def _poisson_run(config, policy, lam, n_jobs, seed, i):
    """Run i of run_poisson: (mean response, queue growth, backlog at the
    end of arrivals, departures by then but at least 1, throughput)."""
    sim = _Sim(config, policy, [seed, i], lam)
    sim.run(n_jobs)
    return (
        math.fsum(sim.dep_resp) / len(sim.dep_resp),
        sim.q_end - sim.q_mid,
        sim.q_end,
        max(1, sim.served_at_horizon),
        len(sim.dep_times) / sim.dep_times[-1],
    )


def _poisson_rows(config, policy, lam, n_jobs, n_runs, seed):
    """_poisson_run's rows for runs 0..n_runs-1, in run order.

    The runs are cut into contiguous chunks, one per worker.  The caller
    runs the first chunk and a forked child each other one; children
    inherit the config and the policy, and send back only their rows or
    the exception that stopped them.  No child outlives the call.
    """
    run = partial(_poisson_run, config, policy, lam, n_jobs, seed)
    workers = min(n_runs, _WORKERS or _cpu_count())
    ctx = _fork_context() if workers > 1 else None
    if ctx is None:
        return [run(i) for i in range(n_runs)]
    cuts = [n_runs * w // workers for w in range(workers + 1)]
    children = []
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            recv, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_run_chunk, args=(send, run, range(lo, hi)), daemon=True)
            child.start()
            send.close()
            children.append((child, recv))
        rows = [run(i) for i in range(cuts[1])]
        for child, recv in children:
            try:
                ok, payload = recv.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"run_poisson worker died with exit code {child.exitcode}"
                ) from None
            if not ok:
                raise payload
            rows.extend(payload)
    finally:
        for child, recv in children:
            child.terminate()  # a no-op for a child that has exited
            child.join()
            recv.close()
    return rows


def _run_chunk(conn, run, runs):
    try:
        conn.send((True, [run(i) for i in runs]))
    except Exception as exc:
        try:
            conn.send((False, exc))
        except Exception:  # the exception itself does not pickle
            conn.send((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
    conn.close()


def _cpu_count():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_context():
    """multiprocessing's fork context, or None where this process should not
    fork: the start method is missing, the process is daemonic (a Pool
    worker, which multiprocessing forbids to have children), or other
    threads run (a fork copies their locks in whatever state they are)."""
    import multiprocessing

    if (
        "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
        or threading.active_count() > 1
    ):
        return None
    return multiprocessing.get_context("fork")


def event_trace(
    config: SystemConfig,
    policy: Policy,
    horizon: float,
    seed: int,
    lam: float = 0.0,
):
    """Replay a run up to the time horizon, returning ordered event rows
    (time, event, job_id, server, detail): the run stops before it pops an
    event past the horizon.  Bit-identical across repeated invocations with
    the same arguments."""
    if not 0 <= horizon < INF:  # nan too: the run would go on for 10**9 departures
        raise ValueError(f"need 0 <= horizon < inf, got {horizon}")
    if not 0 <= lam < INF:  # nan or < 0 would run saturated, inf push arrivals at 0 forever
        raise ValueError(f"need 0 <= lam < inf, got {lam}")
    trace = []
    _Sim(config, policy, seed, lam, trace).run(n_jobs=10**9, horizon=horizon)
    return trace
