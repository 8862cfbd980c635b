"""Upper bounds on the service capacity of replication systems.

Two bounding routes:

* Two heterogeneous servers: throughput of threshold replication in the
  relaxed pause-and-replicate model (a running job may be paused so a
  replica can start immediately), maximized over thresholds.  Any
  feasible replication policy is dominated by this value.
* K identical servers: K divided by the smallest achievable expected
  per-job computing time over all nondecreasing replica start-time
  vectors (t_2, ..., t_K), entries may be infinite.

Both are searched by _minimise over the candidates of _candidates.

The exact cost of a start-time vector has one path for every law: each
copy's overshoot is an integral of the joint tail of the finishing time
(product_tail_integral: one exact segment sweep for atomic laws and
exponential mixtures, quadrature for Pareto laws), which is polynomial in K.

The Monte-Carlo cost reuses one set of common random draws for every
start-time vector.  The draws are made path-major, (n_paths, K) from one
generator call, and held one contiguous row per copy, so a cost is a short
loop of elementwise work on rows of n_paths entries (about 0.2 ms at K=6
and 5000 paths): a running minimum for the finishing time, one overshoot
row per launched copy, one mask per replica.  Reducing across the K
entries of each path instead spends most of its time in numpy's per-row
reduction set-up.  The overshoot rows are added in numpy's pairwise order
for a row of K entries (``_row_sum``), so every cost, and with it every
descent step and bound, has the bits of the path-major reductions.
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .distributions import (
    FiniteSupport,
    ServiceDistribution,
    _check_delta,
    _golden,
    _lattice_step,
    _snap,
    _time_of,
    min_expectation,
    product_tail_integral,
)
from .errors import DegenerateTruncationError

INF = float("inf")


@dataclass(frozen=True)
class BoundReport:
    """A capacity bound with the optimizing thresholds / start times."""

    value: float
    optimizer: tuple
    stderr: float = 0.0


def adarep_pause_throughput(d1, d2, delta, thresholds) -> float:
    """Throughput of threshold replication when jobs may be paused.

    With thresholds (a, b): a job on server 1 gets a replica on server 2
    once it has run a seconds (pausing server 2's job), and symmetrically
    with b.  A zero threshold degenerates to full replication.
    """
    _check_delta(delta)
    t12, t21 = _as_pair(thresholds)
    if t12 == 0.0 or t21 == 0.0:
        return 1.0 / (delta + min_expectation([d1, d2]))
    m1 = d1.truncated_mean(t12)
    m2 = d2.truncated_mean(t21)
    if m1 * m2 <= 0.0:  # a zero mean, or positive means whose product underflows
        raise DegenerateTruncationError(
            f"truncated means ({m1}, {m2}) must have a positive product"
            f" for thresholds ({t12}, {t21})"
        )
    g12 = _overflow_ratio(d1, d2, t12, delta, m1)
    g21 = _overflow_ratio(d2, d1, t21, delta, m2)
    return (m1 + m2) / (m1 * m2 * (1.0 + g12 + g21))


def _overflow_ratio(d_own, d_other, threshold, delta, trunc_mean):
    # expected replicated-phase time per unit of truncated-phase time
    p = d_own.tail(threshold)
    if p <= 0.0:
        return 0.0
    rep_time = delta + min_expectation([d_own.residual(threshold), d_other])
    return p * rep_time / trunc_mean


def optimize_pause_bound(d1, d2, delta: float = 0.0) -> BoundReport:
    """Maximize the pause-and-replicate throughput over threshold pairs.

    Searches the pairs with the start-time search of homogeneous_bound
    (_minimise over _candidates of both laws), from no replication and from
    full replication out of either server.  The result upper-bounds the
    capacity of every replication policy on the same two servers.
    """
    cands, refine = _candidates((d1, d2))
    # a zero threshold is full replication whatever the other one is, a flat
    # face no one-threshold step leaves: a start, not a candidate
    pair, cost = _minimise(
        lambda t: 1.0 / adarep_pause_throughput(d1, d2, delta, t),
        cands[1:],
        [(INF, INF), (0.0, INF), (INF, 0.0)],
        ordered=False,
        refine=refine,
    )
    return BoundReport(value=1.0 / cost, optimizer=pair)


def _as_pair(thresholds):
    t12, t21 = thresholds
    if not (t12 >= 0 and t21 >= 0):
        raise ValueError(f"thresholds must be >= 0, got {thresholds}")
    return t12, t21


# ---------------------------------------------------------------------------
# K homogeneous servers: computing time as a function of replica start times.


@dataclass(frozen=True)
class StartTimeVector:
    """Replica start times t_2 <= ... <= t_K relative to the first copy at 0."""

    starts: tuple

    def __post_init__(self):
        starts = tuple(float(t) for t in self.starts)
        object.__setattr__(self, "starts", starts)
        if not all(t >= 0 for t in starts):
            raise ValueError(f"start times must be >= 0, got {starts}")
        if any(a > b for a, b in zip(starts, starts[1:])):
            raise ValueError(f"start times must be nondecreasing, got {starts}")


def homogeneous_cost(
    d: ServiceDistribution,
    delta: float,
    starts,
    estimator: str = "exact",
    n_paths: int = 100_000,
    seed: int = 0,
    _crn_draws=None,
):
    """Expected per-job computing time when replicas start at the given times.

    The job finishes at S = min over launched copies of (draw + start); each
    launched copy burns (S - start)^+ of server time, and the cancellation
    delay is charged once per launched replica plus once for the finishing
    server whenever at least one replica launched, as the simulator and the
    decision process charge it.

    estimator="exact": tail-product integrals for every law (an exact sweep
    for atomic laws and exponential mixtures, quadrature for Pareto laws).
    estimator="monte-carlo": n_paths >= 2 common-random-number sample
    paths.  Returns (mean, stderr); stderr is 0 for the exact path.
    """
    _check_delta(delta)
    _check_paths(estimator, n_paths)
    if not isinstance(starts, StartTimeVector):
        starts = StartTimeVector(starts)
    all_starts = (0.0,) + starts.starts

    if estimator == "monte-carlo":
        if _crn_draws is None:
            _crn_draws = _crn_rows(d, len(all_starts), n_paths, seed)
        return _cost_from_draws(_crn_draws, all_starts, delta)
    if estimator != "exact":
        raise ValueError(f"unknown estimator {estimator!r}")
    return _cost_tail_integrals(d, all_starts, delta), 0.0


def _crn_rows(d, k, n_paths, seed):
    # drawn path-major, the order the pinned Monte-Carlo values were recorded
    # in, then copied to one contiguous row per copy
    rng = np.random.default_rng(seed)
    draws = d.sample_array(rng, n_paths * k).reshape(n_paths, k)
    return np.ascontiguousarray(draws.T)


def _check_paths(estimator, n_paths):
    # one path has no sample variance, zero paths no mean
    if estimator == "monte-carlo" and n_paths < 2:
        raise ValueError(f"monte-carlo needs n_paths >= 2, got {n_paths}")


def _cost_tail_integrals(d, all_starts, delta):
    """E[sum over launched copies of (S - start)^+] plus the cancellation
    charges, from integrals of the joint tail of the finishing time S."""
    active = [t for t in all_starts if t < INF]
    comps = _copies(d, active)
    cost = 0.0
    for t in active:
        cost += product_tail_integral(comps, lower=t)
    if delta > 0.0 and len(all_starts) > 1:
        def joint_tail(x):
            out = 1.0
            for c, off, _ in comps:
                out *= c.tail(x - off)
            return out

        mult = sum(joint_tail(t) for t in all_starts[1:]) + joint_tail(all_starts[1])
        cost += delta * mult
    return cost


def _copies(d, active):
    """(law, offset, 1) for the copies started at the times in active.  An
    atomic copy is given as the law of its end times at offset 0: as in the
    simulator, on a lattice that is no binary fraction a copy started on it
    ends at the float nearest its multiple of the step, so that a start and
    an end due at one lattice point compare equal (0.2 + 0.1 is not 0.3 in
    floats).  Ends that round to one float merge their mass."""
    atoms = d._atoms()
    if atoms is None:
        return [(d, t, 1) for t in active]
    snap = _snap(_lattice_step((d,)))
    comps = []
    for t in active:
        on = snap is not None and snap(t) == t
        ends = {}
        for v, p in atoms:
            end = snap(v + t) if on else v + t
            ends[end] = min(1.0, ends.get(end, 0.0) + p)  # a law's masses may sum to 1 + 1e-12
        comps.append((FiniteSupport(tuple(ends.items())), 0.0, 1))
    return comps


def _cost_from_draws(rows, all_starts, delta):
    # rows[i] holds copy i's draws on every path, so each step below is
    # elementwise work on one row
    finite = [(row, t) for row, t in zip(rows, all_starts) if t < INF]
    s = finite[0][0] + finite[0][1]
    for row, t in finite[1:]:
        np.minimum(s, row + t, out=s)
    cost = _row_sum([np.maximum(s - t, 0.0) for _, t in finite])
    if delta > 0.0 and len(all_starts) > 1:
        charges = np.zeros_like(s)
        for _, t in finite[1:]:
            charges += t < s
        charges += all_starts[1] < s
        cost = cost + delta * charges
    n = len(cost)
    return float(cost.mean()), float(cost.std(ddof=1) / math.sqrt(n))


def _row_sum(terms):
    """Elementwise sum of the vectors in terms, added in the order of numpy's
    pairwise summation along a row of len(terms) entries: below 8 terms left
    to right; up to 128 terms eight strided accumulators, combined in a tree,
    then the remainder; beyond that halves cut at a multiple of 8.  The result
    has the bits of np.stack(terms, axis=1).sum(axis=1).  Sums into the
    vectors in terms."""
    n = len(terms)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _row_sum(terms[:half]) + _row_sum(terms[half:])
    if n < 8:
        total = terms[0]
        for x in terms[1:]:
            total += x
        return total
    r = terms[:8]
    stop = n - n % 8
    for i in range(8, stop, 8):
        for j in range(8):
            r[j] += terms[i + j]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for x in terms[stop:]:
        total += x
    return total


def homogeneous_bound(
    d: ServiceDistribution,
    delta: float,
    k: int,
    estimator: str = "exact",
    n_paths: int = 100_000,
    seed: int = 0,
    grid=None,
) -> BoundReport:
    """Capacity bound for k identical servers: k over the minimized job cost.

    Searches nondecreasing start-time vectors (_minimise over _candidates
    of d, or over the values in grid when given), multi-started from every
    upfront corner (first r starts zero, rest infinite).  Monte-Carlo
    evaluations reuse one common set of draws across all candidates.
    """
    if not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError(f"need an integer k >= 1, got {k!r}")
    k = int(k)
    _check_paths(estimator, n_paths)
    cands, refine = _candidates((d,))
    if grid:
        cands = sorted(set(map(float, grid)))
    rows = _crn_rows(d, k, n_paths, seed) if estimator == "monte-carlo" else None
    errs = {}

    def cost(vec):
        mean, errs[vec] = homogeneous_cost(d, delta, vec, estimator, n_paths, seed, _crn_draws=rows)
        return mean

    corners = [(0.0,) * (r - 1) + (INF,) * (k - r) for r in range(1, k + 1)]
    vec, mean = _minimise(cost, cands, corners, ordered=True, refine=refine)
    # an exact cost has no error, and mean**2 may overflow
    stderr = k * errs[vec] / mean**2 if errs[vec] else 0.0
    return BoundReport(value=k / mean, optimizer=vec, stderr=stderr)


_LATTICE_GUARD = 200  # most lattice steps below the largest atom searched


def _candidates(laws):
    """Start times (or thresholds) to search for the tuple of laws of a
    bound, and how to refine between them: False, or the lattice step of
    atomic laws whose lattice is too fine to list (True off a lattice).
    On a lattice of step g
    (distributions._lattice_step): the multiples of g up to the largest
    atom, and infinity.  The cost of each outcome is piecewise linear in
    each start time, with kinks at t_i + v - v' and jumps at t_i + v for
    atoms v, v', so a global minimiser lies on the lattice, and a start at
    or after the largest atom launches no copy.  Else: the deciles and
    breakpoints of every law, 8 log-spaced points from the least positive
    quantile to 4 q(0.995), 0 and infinity, refined by golden section."""
    step = _lattice_step(laws)
    if step is not None:
        n = round(max(v for d in laws for v, _ in d._atoms()) / step)
        if n <= _LATTICE_GUARD:
            return [_time_of(i, step) for i in range(n + 1)] + [INF], False
    qs = [d.quantile(q / 10) for d in laws for q in range(1, 10)]
    hi = max(d.quantile(0.995) for d in laws)
    pts = {0.0, INF, *qs}
    for d in laws:
        pts.update(d._breakpoints())
    positive = [q for q in qs + [hi] if q > 0]
    if positive:
        pts.update(np.geomspace(min(positive), 4.0 * hi, 8).tolist())
    return sorted(map(float, pts)), step or True


def _minimise(cost, cands, starts, ordered, refine):
    """(vector, cost) of least cost(vector) over vectors with entries in the
    sorted list cands, nondecreasing when ordered.  From each start,
    coordinate descent sets one entry at a time to its best candidate until
    a sweep changes none; a step must lower the cost by more than 1e-12
    relative.  With refine, golden section then searches each finite entry
    of the best vector between its neighbouring candidates (and entries,
    when ordered), in at most 3 passes; when refine is a lattice step, the
    multiples of it just below and above the section's point are tried
    too, and one of them is kept unless it costs more.  Each vector is
    costed once."""
    f = functools.cache(cost)  # vectors are tuples

    def limits(vec, j):
        if not ordered:
            return 0.0, INF
        return (vec[j - 1] if j > 0 else 0.0), (vec[j + 1] if j + 1 < len(vec) else INF)

    def better(c, than):
        return c < than * (1.0 - 1e-12)

    best, best_c = None, INF
    for vec in starts:
        c = f(vec)
        moved = True
        while moved:
            moved = False
            for j in range(len(vec)):
                lo, hi = limits(vec, j)
                for t in cands:
                    if lo <= t <= hi and t != vec[j]:
                        trial = vec[:j] + (t,) + vec[j + 1 :]
                        ct = f(trial)
                        if better(ct, c):
                            vec, c, moved = trial, ct, True
        if better(c, best_c):
            best, best_c = vec, c

    for _ in range(3 if refine else 0):
        before = best_c
        for j, t in enumerate(best):
            if t == INF:
                continue
            lo, hi = limits(best, j)
            below = [x for x in cands if x < t][-1:]
            above = [x for x in cands if t < x < INF][:1] or [t]
            a, b = max(below + [lo]), min(above + [hi])
            if a < b:
                line = lambda x: f(best[:j] + (x,) + best[j + 1 :])
                x, cx = _golden(line, a, b, 1e-3 * (1.0 + t))
                if refine is not True:  # atomic laws: a minimiser lies on their lattice
                    ticks = x / float(refine)
                    for m in (_time_of(math.floor(ticks), refine), _time_of(math.ceil(ticks), refine)):
                        if lo <= m <= hi and line(m) <= cx:
                            x, cx = m, line(m)
                if better(cx, best_c):
                    best, best_c = best[:j] + (x,) + best[j + 1 :], cx
        if not better(best_c, before):
            break
    return best, best_c
