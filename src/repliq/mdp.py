"""Average-cost decision process for throughput-optimal replication.

For atomic (finite-support) service laws, the system observed at
server-release epochs is a finite Markov decision process: a state holds
the server sets of in-flight jobs, each server's elapsed service time,
each server's remaining cancellation window, and a counter of departures
still to be emitted when several jobs finish together.  Actions are
complete refill plans for the assignable servers (each group of freed
servers starts a fresh job or joins an existing one).  The cost of a
transition is K times the time it spans, so minimizing average cost per
departure maximizes throughput: rate = K / gain.

States count time in whole ticks of the mix's lattice step g
(distributions._lattice_step), so no time sum is rounded; the replay reads
the simulator's clock in ticks of the same g (TabularPolicy, engine).

Relabelling servers that share a law maps states onto states with equal
transition laws, so the chain is lumpable (Kemeny & Snell, Finite Markov
Chains, 1960): the kernel holds one canonical state per orbit
(policies.canonical_state) and one action per canonical occupancy, and
has the optimal gain of the full chain.  Four servers
finite([(1,0.8),(8,0.2)]) give 501 canonical states instead of 8124.  A
mix with no two equal laws keeps every state and plan as it is.
"""

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analytic import iter_partitions
from .distributions import _check_delta, _fmt, _lattice_step, _ticks, _time_of
from .errors import (
    MultichainError,
    NoConvergenceError,
    NonLatticeDeltaError,
    StateExplosionError,
)
from .policies import TabularPolicy, canonical_state, law_classes

INF = float("inf")

STATE_CAP = 1_000_000


@dataclass
class MdpKernel:
    states: list
    actions: list
    k: int
    classes: tuple = None  # law classes of the servers; None when all laws differ
    step: object = 1  # time per tick of the states' elapsed and cancel counts (a Fraction)
    plans: dict = None  # action label -> its refill plan; None for "null" and "advance"

    @property
    def n_states(self):
        return len(self.states)


@dataclass
class MdpSolution:
    gain: float
    throughput: float
    choices: list
    iterations: int
    method: str
    span: float = math.nan  # final span of the last relative value iteration
    bisection_rounds: int = 0  # rounds on the departure charge after its bracket; 0 for plain RVI


def build_mdp(ds, delta: float = 0.0, state_cap: int = STATE_CAP) -> MdpKernel:
    """Breadth-first reachable kernel from the all-idle state.

    Requires every service law to be atomic, with its atoms and the
    cancellation delay on the 1e-6 grid; g is their lattice step
    (distributions._lattice_step).  Elapsed times, cancellation
    windows and residual atoms are counted in ticks of g, held as integral
    floats, so sums of times are exact; times appear only in the costs and
    in state_string.  When two servers share a law, every state is interned
    in canonical form and each outcome of a step is canonicalised before
    outcomes are grouped, so the probabilities of outcomes in one orbit
    add up in one transition; each canonical state gets one action per
    canonical occupancy.  Atoms must be positive, else a copy that outlived
    a zero atom looks fresh.  state_cap counts canonical states.  Equal labels, floats and
    transitions share one object.
    """
    ds = tuple(ds)
    for d in ds:
        if d._atoms() is None or min(d._atoms())[0] <= 0:
            raise ValueError(f"decision process needs atomic laws with positive atoms, got {d}")
    _check_delta(delta)
    step = _lattice_step(ds, delta)
    if step is None:
        raise NonLatticeDeltaError(f"atom values of {ds} and delta {delta} have no lattice step on the 1e-6 grid")
    g = float(step)
    window = float(_ticks(delta, g))
    k = len(ds)
    classes = law_classes(ds)
    states = []
    index = {}
    actions = []
    # one pool per type, because 1 == 1.0 == True hash alike
    labels, floats, transitions = {}, {}, {}
    plans = {}
    residuals = {}
    canonicals = {}

    def residual(s, t):
        """Atoms of server s's law after t ticks elapsed, values in ticks;
        memoised per law class."""
        key = (s if classes is None else classes[s], t)
        atoms = residuals.get(key)
        if atoms is None:
            law = ds[s] if t == 0 else ds[s].residual(_time_of(t, step))
            atoms = residuals[key] = [(float(_ticks(v, g)), p) for v, p in law._atoms()]
        return atoms

    def intern(state):
        idx = index.get(state)
        if idx is None:
            if len(states) >= state_cap:
                raise StateExplosionError(f"more than {state_cap} reachable states")
            jobs, elapsed, cancel, pending = state
            elapsed = tuple([floats.setdefault(t, t) for t in elapsed])
            cancel = tuple([floats.setdefault(c, c) for c in cancel])
            state = (jobs, elapsed, cancel, pending)
            idx = index[state] = len(states)
            states.append(state)
        return idx

    def canonical(state):
        """Representative of state's orbit under relabelling equal-law servers."""
        canon = canonicals.get(state)
        if canon is None:
            key, _ = canonical_state(state[:3], classes)
            canon = canonicals[state] = key + state[3:]
        return canon

    def transition(idx, p, c, departs):
        tr = (idx, floats.setdefault(p, p), floats.setdefault(c, c), departs)
        return transitions.setdefault(tr, tr)

    intern(((), (0.0,) * k, (0.0,) * k, 0))
    frontier = 0
    while frontier < len(states):
        state = states[frontier]
        acts = []
        for label, occupancy, plan in _enumerate_actions(state, k, classes):
            label = labels.setdefault(label, label)
            plans.setdefault(label, plan)
            if occupancy is None:  # null step of a multi-departure chain
                jobs, elapsed, cancel, pending = state
                idx = intern((jobs, elapsed, cancel, pending - 1))
                acts.append((label, (transition(idx, 1.0, 0.0, 1),)))
                continue
            groups = {}
            for combo_state, prob, tau, departs in _step(residual, occupancy, window, k):
                if classes is not None:
                    combo_state = canonical(combo_state)
                key = (combo_state, departs)
                agg = groups.setdefault(key, [0.0, 0.0])
                agg[0] += prob
                agg[1] += prob * (k * _time_of(tau, step))
            trans = tuple(
                transition(intern(nxt), p, c / p, departs)
                for (nxt, departs), (p, c) in sorted(groups.items())
            )
            acts.append((label, trans))
        actions.append(acts)
        frontier += 1
    return MdpKernel(states=states, actions=actions, k=k, classes=classes, step=step, plans=plans)


def _enumerate_actions(state, k, classes):
    """(label, occupancy, plan) triples sorted by label; occupancy None marks
    the null step, plan None the null and advance steps.  Of the plans that
    differ by relabelling equal-law servers only the least label is kept: a
    plan's key pairs each group's sorted law classes with its target's sorted
    (class, elapsed) pairs, () for a new job, and as busy copies have elapsed
    > 0, equal keys mean equal canonical occupancies."""
    jobs, elapsed, cancel, pending = state
    if pending > 0:
        return [("null", None, None)]
    busy = {s for job in jobs for s in job}
    assignable = [s for s in range(k) if s not in busy and cancel[s] == 0.0]
    if not assignable:
        return [("advance", (jobs, elapsed, cancel), None)]
    cls = classes or range(k)
    signs = {job: tuple(sorted([(cls[s], elapsed[s]) for s in job])) for job in jobs}
    signs["new"] = ()
    least = {}
    for partition in iter_partitions(len(assignable)):
        groups = [tuple(sorted([assignable[i] for i in part])) for part in partition.groups]
        group_signs = [tuple(sorted([cls[s] for s in group])) for group in groups]
        for targets in itertools.product(signs, repeat=len(groups)):
            joined = [t for t in targets if t != "new"]
            if len(set(joined)) < len(joined):
                continue
            key = tuple(sorted(zip(group_signs, [signs[t] for t in targets])))
            plan = tuple(sorted(zip(groups, targets)))
            label = _plan_label(plan)
            if key not in least or label < least[key][0]:
                least[key] = (label, plan)
    out = []
    for label, plan in sorted(least.values()):
        new_jobs = list(jobs)
        for group, target in plan:
            if target == "new":
                new_jobs.append(group)
            else:
                new_jobs[new_jobs.index(target)] = tuple(sorted(target + group))
        out.append((label, (tuple(sorted(new_jobs)), elapsed, cancel), plan))
    return out


def _plan_label(plan):
    parts = []
    for group, target in plan:
        g = ",".join(str(s + 1) for s in group)
        if target == "new":
            parts.append(f"new[{g}]")
        else:
            t = ",".join(str(s + 1) for s in target)
            parts.append(f"rep[{g}]->[{t}]")
    return "+".join(parts)


def _step(residual, occupancy, window, k):
    """Joint outcomes until the next server-release epoch.

    Yields (next_state, probability, ticks spanned, departures-flag) per
    outcome of the conditional service laws of the busy servers;
    residual(s, t) gives server s's atoms after t ticks elapsed, and window
    is the cancellation delay, both in ticks.  Tick counts are integral
    floats, so every sum and difference here is exact.
    """
    jobs, elapsed, cancel = occupancy
    busy = sorted({s for job in jobs for s in job})
    slot = {s: i for i, s in enumerate(busy)}
    windows = [(job, [slot[s] for s in job], window if len(job) >= 2 else 0.0) for job in jobs]
    cancel_tau = min([c for c in cancel if c > 0], default=INF)
    for combo in itertools.product(*[residual(s, elapsed[s]) for s in busy]):
        prob = 1.0
        for _, p in combo:
            prob *= p
        tau = cancel_tau
        ends = []
        for job, slots, wait in windows:
            completion = min([combo[i][0] for i in slots])
            release = completion + wait
            ends.append((job, completion, release))
            if release < tau:
                tau = release
        survivors = []
        nxt_elapsed = [0.0] * k
        nxt_cancel = [0.0] * k
        finished = 0
        for job, completion, release in ends:
            if completion > tau:
                survivors.append(job)
                for s in job:
                    nxt_elapsed[s] = elapsed[s] + tau
                continue
            finished += 1
            rem = release - tau
            if rem > 0:
                for s in job:
                    nxt_cancel[s] = rem
        for s, c in enumerate(cancel):
            if c > 0:
                rem = c - tau
                if rem > 0:
                    nxt_cancel[s] = rem
        nxt = (
            tuple(sorted(survivors)),
            tuple(nxt_elapsed),
            tuple(nxt_cancel),
            max(0, finished - 1),
        )
        yield nxt, prob, tau, (1 if finished >= 1 else 0)


# ---------------------------------------------------------------------------
# Solvers.


def solve_average_cost(kernel: MdpKernel, tol: float = 1e-9, max_iters: int = 200_000) -> MdpSolution:
    """Minimize the long-run cost per departure; throughput is K / gain.

    When every transition emits one departure (no cancellation windows, so
    release epochs coincide with departures), relative value iteration with
    an aperiodicity damping step and span-seminorm stopping solves the
    standard per-step problem directly.  Otherwise zero-departure epochs
    make the horizon a transition-dependent count; the optimal cost per
    departure is then the root of g -> (minimal per-step average of
    cost - g * departures), a decreasing function, found by false position
    on g with the same iteration inside, warm-started from round to round
    (_solve_with_departure_gaps).  The chain induced by the returned policy
    is verified to have a single recurrent class.
    """
    flat = _flatten(kernel)
    if np.count_nonzero(flat.departs) == len(flat.departs):  # departures are 0 or 1
        gain, choices, iters, span = _rvi_per_step(flat, 0.0, tol, max_iters)
        solution = MdpSolution(
            gain=float(gain),
            throughput=float(kernel.k / gain),
            choices=choices,
            iterations=iters,
            method="rvi",
            span=span,
        )
    else:
        solution = _solve_with_departure_gaps(kernel.k, flat, tol, max_iters)
    _verify_unichain(kernel, solution.choices)
    return solution


class _FlatKernel(NamedTuple):
    """A kernel as arrays laid out for relative value iteration.

    Transitions are stored position-major: first the 0th transition of
    every (state, action) row, then the 1st, and so on, with rows ordered
    by falling transition count, so the rows holding an m-th transition
    are a prefix.  pick gathers the row sums action-position-major, with
    states ordered by falling action count; state_rank maps a state to
    its place in that order.
    """

    target: np.ndarray  # int32 per transition
    prob: np.ndarray
    cost: np.ndarray
    departs: np.ndarray  # int8 per transition
    sum_sizes: list  # rows holding an m-th transition, for m = 0, 1, ...
    pick: np.ndarray  # row sum index, action-position-major
    pick_sizes: list  # states holding an a-th action, for a = 0, 1, ...
    state_rank: np.ndarray


def _flatten(kernel):
    """The kernel's arrays, built once for every value iteration on it."""
    actions = kernel.actions
    n_acts = [len(acts) for acts in actions]
    n_trans = [len(trans) for acts in actions for _, trans in acts]

    def column(i, dtype):
        return np.fromiter(
            (t[i] for acts in actions for _, trans in acts for t in trans), dtype, sum(n_trans)
        )

    row_rank, trans_slot, sum_sizes = _position_major(n_trans)
    state_rank, row_slot, pick_sizes = _position_major(n_acts)
    order = np.empty(len(trans_slot), np.intp)
    order[trans_slot] = np.arange(len(trans_slot))
    pick = np.empty(len(row_slot), np.intp)
    pick[row_slot] = row_rank
    return _FlatKernel(
        target=column(0, np.int32)[order],
        prob=column(1, np.float64)[order],
        cost=column(2, np.float64)[order],
        departs=column(3, np.int8)[order],
        sum_sizes=sum_sizes,
        pick=pick,
        pick_sizes=pick_sizes,
        state_rank=state_rank,
    )


def _position_major(counts):
    """Position-major layout of counts[i] items stored contiguously per owner.

    Owners are ranked by falling count; the layout holds every owner's 0th
    item in rank order, then every 1st item, and so on, so the owners with
    an m-th item are a prefix of the m-th block.  Returns each owner's
    rank, each item's slot in the layout and the size of each block.
    """
    n = len(counts)
    rank = np.empty(n, np.intp)
    rank[sorted(range(n), key=counts.__getitem__, reverse=True)] = np.arange(n)
    owner = np.repeat(np.arange(n), counts)
    first = np.cumsum(counts) - counts
    pos = np.arange(len(owner)) - first[owner]
    sizes = np.bincount(pos)
    slot = (np.cumsum(sizes) - sizes)[pos] + rank[owner]
    return rank, slot, sizes.tolist()


def _rvi_per_step(flat, departure_charge, tol, max_iters, damping=0.5, h=None):
    """Relative value iteration on per-transition costs c - charge * d.

    Returns (per-step average cost under the optimal policy, greedy
    choices, iterations, final span).  The damped update keeps periodic
    chains contracting in the span seminorm.  Each row sum adds its terms
    left to right from 0.0 and each state keeps the first action that
    beats the best so far by more than 1e-15, so the result is the same to
    the last bit as the per-state loop over the kernel's tuples.  The
    relative values start at h, zeros by default; a given h is updated in
    place and holds the last relative values on return.
    """
    n = len(flat.state_rank)
    base = flat.cost - departure_charge * flat.departs
    terms = np.empty(len(base))
    sums = np.empty(len(flat.pick))
    vals = np.empty(len(flat.pick))
    best = np.empty(n)
    choice = np.empty(n, np.intp)
    adds = []
    offset = 0
    for size in flat.sum_sizes:
        adds.append((sums[:size], terms[offset : offset + size]))
        offset += size
    picks = []
    offset = 0
    for a, size in enumerate(flat.pick_sizes):
        picks.append((a, vals[offset : offset + size], best[:size], choice[:size]))
        offset += size
    if h is None:
        h = np.zeros(n)
    span = INF
    for it in range(1, max_iters + 1):
        np.take(h, flat.target, out=terms)
        np.add(base, terms, out=terms)
        np.multiply(flat.prob, terms, out=terms)
        sums.fill(0.0)
        for acc, term in adds:
            acc += term
        np.take(sums, flat.pick, out=vals)
        best.fill(INF)
        choice.fill(0)
        for a, val, b, ch in picks:
            better = val < b - 1e-15
            np.copyto(b, val, where=better)
            np.copyto(ch, a, where=better)
        w = best[flat.state_rank]
        diff = w - h
        span = diff.max() - diff.min()
        if span < tol:
            choices = choice[flat.state_rank].tolist()
            return float(0.5 * (diff.max() + diff.min())), choices, it, float(span)
        h[:] = damping * (w - w[0]) + (1.0 - damping) * h
    raise NoConvergenceError(f"span {span:.3e} after {max_iters} iterations")


def _solve_with_departure_gaps(k, flat, tol, max_iters):
    """Root of phi(g) = minimal per-step average of cost - g * departures.

    phi is concave, piecewise linear and decreasing, with phi(0) > 0 the
    least per-step cost.  Doubling g brackets the root; Illinois false
    position (Dowell & Jarratt, BIT 1971) then closes the bracket, halving
    the stored phi of an end kept twice in a row.  Each value iteration
    starts from the relative values of the one before.
    """
    inner_tol = min(tol, 1e-10)
    h = np.zeros(len(flat.state_rank))
    iters = 0

    def phi(g):
        nonlocal iters
        value, choices, it, span = _rvi_per_step(flat, g, inner_tol, max_iters, h=h)
        iters += it
        return value, choices, span

    lo, f_lo, hi = 0.0, None, 1.0
    f_hi, _, _ = phi(hi)
    while f_hi > 0.0:
        lo, f_lo, hi = hi, f_hi, hi * 2.0
        if hi > 1e12:
            raise NoConvergenceError("cost per departure appears unbounded")
        f_hi, _, _ = phi(hi)
    if f_lo is None:
        f_lo, _, _ = phi(lo)
    kept = 0  # +1 while lo moves and hi stays, -1 the other way
    for rounds in range(1, 201):
        g = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        value, choices, span = phi(g)
        if abs(value) < tol or (hi - lo) < tol * max(1.0, g):
            return MdpSolution(
                gain=g,
                throughput=k / g,
                choices=choices,
                iterations=iters,
                method="bisection-rvi",
                span=span,
                bisection_rounds=rounds,
            )
        if value > 0.0:
            lo, f_lo = g, value
            if kept == 1:
                f_hi *= 0.5
            kept = 1
        else:
            hi, f_hi = g, value
            if kept == -1:
                f_lo *= 0.5
            kept = -1
    raise NoConvergenceError("false position on the departure charge did not close")


def _verify_unichain(kernel, choices, start=0):
    """One recurrent class among the states the solved policy can visit.

    Two reachability sweeps, forward and backward, from a state x that
    starts at start: while some state reachable from x cannot reach x back,
    x moves there, which strictly shrinks the set reachable from x.  Then x
    lies in a closed class, and the chain is unichain iff every state
    reachable from start can reach x.
    """
    adj = [[j for j, p, _, _ in kernel.actions[s][c][1] if p > 0] for s, c in enumerate(choices)]
    radj = [[] for _ in adj]
    for s, out in enumerate(adj):
        for j in out:
            radj[j].append(s)

    def reach(edges, x):
        seen, stack = {x}, [x]
        while stack:
            for j in edges[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return seen

    visited = ahead = reach(adj, start)
    x = start
    while True:
        back = reach(radj, x)
        escape = ahead - back
        if not escape:
            break
        x = min(escape)
        ahead = reach(adj, x)
    if not visited <= back:
        raise MultichainError("more than one recurrent class under the solved policy")


# ---------------------------------------------------------------------------
# Exporting the solved policy.


def state_string(state, step=1) -> str:
    """A state with its tick counts printed as times (ticks of the given step)."""
    jobs, elapsed, cancel, pending = state
    js = "[" + ";".join("[" + ",".join(str(s + 1) for s in job) + "]" for job in jobs) + "]"
    ts = ",".join(_fmt(_time_of(t, step)) for t in elapsed)
    cs = ",".join(_fmt(_time_of(c, step)) for c in cancel)
    return f"jobs={js}|t={ts}|c={cs}|dr={pending}"


def policy_rows(kernel: MdpKernel, solution: MdpSolution):
    """(state, action) rows for every decision state of the solved policy."""
    rows = []
    for s, state in enumerate(kernel.states):
        label, _ = kernel.actions[s][solution.choices[s]]
        rows.append((state_string(state, kernel.step), label))
    return rows


def as_tabular_policy(kernel: MdpKernel, solution: MdpSolution) -> TabularPolicy:
    """Wrap the solved policy so the event-driven simulator can replay it."""
    table = []
    for s, state in enumerate(kernel.states):
        label, _ = kernel.actions[s][solution.choices[s]]
        plan = kernel.plans[label]
        if plan is not None:
            table.append((state[:3], plan))
    return TabularPolicy(table=tuple(table), classes=kernel.classes)
