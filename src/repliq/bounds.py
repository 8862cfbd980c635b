"""Upper bounds on the service capacity of replication systems.

Two bounding routes:

* Two heterogeneous servers: throughput of threshold replication in the
  relaxed pause-and-replicate model (a running job may be paused so a
  replica can start immediately), maximized over thresholds.  Any
  feasible replication policy is dominated by this value.
* K identical servers: K divided by the smallest achievable expected
  per-job computing time over all nondecreasing replica start-time
  vectors (t_2, ..., t_K), entries may be infinite.

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

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .distributions import (
    ServiceDistribution,
    min_expectation,
    product_tail_integral,
)
from .errors import DegenerateTruncationError

INF = float("inf")


@dataclass(frozen=True)
class ThresholdPair:
    """Replication thresholds: elapsed time on one server before the other helps."""

    t_1to2: float
    t_2to1: float

    def __post_init__(self):
        _as_pair((self.t_1to2, self.t_2to1))


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
    if m1 <= 0.0 or m2 <= 0.0:
        raise DegenerateTruncationError(
            f"truncated means ({m1}, {m2}) must be positive for thresholds ({t12}, {t21})"
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


def one_sided_pause_throughput(d1, d2, delta, t_2to1) -> float:
    """Same bound when server 1's jobs are never replicated.

    Server 2's jobs have effective service time: the truncated part plus,
    when they overflow the threshold, the replicated completion and the
    cancellation window.  Server 1 contributes its plain rate scaled by
    the fraction of time it is not paused.  Equals the two-threshold
    expression at (infinity, t_2to1) by construction.
    """
    _check_delta(delta)
    _as_pair((INF, t_2to1))
    m2 = d2.truncated_mean(t_2to1)
    p = d2.tail(t_2to1)
    if t_2to1 > 0.0 and m2 <= 0.0:
        raise DegenerateTruncationError(f"zero truncated mean at threshold {t_2to1}")
    if p > 0.0:
        effective = m2 + p * (delta + min_expectation([d1, d2.residual(t_2to1)]))
    else:
        effective = m2
    return (m2 / effective) / d1.mean() + 1.0 / effective


def optimize_pause_bound(
    d1,
    d2,
    delta: float = 0.0,
    grid=None,
    rel_tol: float = 1e-4,
    max_rounds: int = 40,
) -> BoundReport:
    """Maximize the pause-and-replicate throughput over threshold pairs.

    Evaluates a coarse grid per coordinate (atoms, quantiles, 0, infinity),
    then bisects around the incumbent until the value moves less than
    rel_tol relatively.  The result upper-bounds the capacity of every
    replication policy on the same two servers.
    """
    _check_delta(delta)
    g1 = sorted(grid[0]) if grid else _threshold_grid(d1)
    g2 = sorted(grid[1]) if grid else _threshold_grid(d2)

    def value(t12, t21):
        return adarep_pause_throughput(d1, d2, delta, (t12, t21))

    best_v, best_t = -INF, (INF, INF)
    for t12 in g1:
        for t21 in g2:
            v = value(t12, t21)
            if v > best_v * (1.0 + 1e-12):
                best_v, best_t = v, (t12, t21)

    for _ in range(max_rounds):
        improved = best_v
        for axis in (0, 1):
            axis_grid = sorted({best_t[axis]} | set(g1 if axis == 0 else g2))
            for cand in _local_candidates(axis_grid, best_t[axis]):
                t = (cand, best_t[1]) if axis == 0 else (best_t[0], cand)
                v = value(*t)
                if v > best_v * (1.0 + 1e-12):
                    best_v, best_t = v, t
            if axis == 0:
                g1 = sorted(set(g1) | {best_t[0]})
            else:
                g2 = sorted(set(g2) | {best_t[1]})
        if best_v <= improved * (1.0 + rel_tol):
            break
    return BoundReport(value=best_v, optimizer=best_t)


def _threshold_grid(d: ServiceDistribution):
    pts = {0.0, INF}
    atoms = d._atoms()
    if atoms is not None:
        pts |= {v for v, _ in atoms}
    else:
        pts |= {d.quantile(q) for q in np.arange(0.05, 0.96, 0.05)}
    return sorted(map(float, pts))


def _local_candidates(sorted_grid, incumbent):
    i = sorted_grid.index(incumbent)
    cands = []
    if i > 0 and sorted_grid[i - 1] < incumbent < INF:
        cands.append(0.5 * (sorted_grid[i - 1] + incumbent))
    if i + 1 < len(sorted_grid):
        nxt = sorted_grid[i + 1]
        if nxt < INF:
            cands.append(0.5 * (incumbent + nxt))
        elif incumbent > 0.0 and incumbent < INF:
            cands.append(2.0 * incumbent)
    elif incumbent == INF and i > 0 and sorted_grid[i - 1] > 0:
        cands.append(2.0 * sorted_grid[i - 1])
    return cands


def _as_pair(thresholds):
    if isinstance(thresholds, ThresholdPair):
        return thresholds.t_1to2, thresholds.t_2to1
    t12, t21 = thresholds
    if not (t12 >= 0 and t21 >= 0):
        raise ValueError(f"thresholds must be >= 0, got {thresholds}")
    return t12, t21


def _check_delta(delta):
    # SystemConfig's rule for the cancellation delay
    if not 0 <= delta < INF:
        raise ValueError(f"cancellation delay must be finite and >= 0, got {delta}")


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


_ENUM_GUARD = 2_000_000


def homogeneous_cost(
    d: ServiceDistribution,
    delta: float,
    starts,
    estimator: str = "exact",
    n_paths: int = 100_000,
    seed: int = 0,
    extra_finisher_term: bool = True,
    _crn_draws=None,
):
    """Expected per-job computing time when replicas start at the given times.

    The job finishes at S = min over launched copies of (draw + start); each
    launched copy burns (S - start)^+ of server time, and the cancellation
    delay is charged once per launched replica plus once for the finishing
    server whenever at least one replica launched (drop that last charge with
    extra_finisher_term=False).

    estimator="exact": exact enumeration for atomic laws, tail-product
    integrals otherwise (closed form for exponential mixtures, else
    quadrature).  estimator="monte-carlo": n_paths >= 2 common-random-number
    sample paths.  Returns (mean, stderr); stderr is 0 for the exact
    path.
    """
    _check_delta(delta)
    _check_paths(estimator, n_paths)
    if not isinstance(starts, StartTimeVector):
        starts = StartTimeVector(starts)
    all_starts = (0.0,) + starts.starts

    if estimator == "monte-carlo":
        if _crn_draws is None:
            _crn_draws = _crn_rows(d, len(all_starts), n_paths, seed)
        return _cost_from_draws(_crn_draws, all_starts, delta, extra_finisher_term)
    if estimator != "exact":
        raise ValueError(f"unknown estimator {estimator!r}")

    atoms = d._atoms()
    if atoms is not None:
        return _cost_exact_atomic(atoms, all_starts, delta, extra_finisher_term), 0.0
    return _cost_tail_integrals(d, all_starts, delta, extra_finisher_term), 0.0


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


def _cost_exact_atomic(atoms, all_starts, delta, extra_finisher_term):
    active = [t for t in all_starts if t < INF]
    if len(atoms) ** len(active) > _ENUM_GUARD:
        raise ValueError(
            f"{len(atoms)}^{len(active)} outcomes exceeds the enumeration guard"
        )
    total = 0.0
    for combo in itertools.product(atoms, repeat=len(active)):
        prob = 1.0
        s = INF
        for (v, p), t in zip(combo, active):
            prob *= p
            s = min(s, v + t)
        cost = sum(max(s - t, 0.0) for t in active)
        cost += delta * _delta_multiplier(s, all_starts, extra_finisher_term)
        total += prob * cost
    return total


def _cost_tail_integrals(d, all_starts, delta, extra_finisher_term):
    active = [t for t in all_starts if t < INF]
    comps = [(d, t, 1) for t in active]
    cost = 0.0
    for t in active:
        cost += product_tail_integral(comps, lower=t)
    if delta > 0.0 and len(all_starts) > 1:
        def joint_tail(x):
            out = 1.0
            for t in active:
                out *= d.tail(x - t)
            return out

        mult = sum(joint_tail(t) for t in all_starts[1:])
        if extra_finisher_term:
            mult += joint_tail(all_starts[1])
        cost += delta * mult
    return cost


def _cost_from_draws(rows, all_starts, delta, extra_finisher_term):
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
        if extra_finisher_term:
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


def _delta_multiplier(s, all_starts, extra_finisher_term):
    if len(all_starts) < 2:
        return 0.0
    mult = sum(1.0 for t in all_starts[1:] if t < s)
    if extra_finisher_term and all_starts[1] < s:
        mult += 1.0
    return mult


def homogeneous_bound(
    d: ServiceDistribution,
    delta: float,
    k: int,
    estimator: str = "exact",
    n_paths: int = 100_000,
    seed: int = 0,
    grid=None,
    rel_tol: float = 1e-5,
    max_sweeps: int = 50,
    extra_finisher_term: bool = True,
) -> BoundReport:
    """Capacity bound for k identical servers: k over the minimized job cost.

    Coordinate descent over nondecreasing start-time vectors on a value grid
    (atoms or quantiles, a log-spaced fill, 0, and infinity), multi-started
    from every upfront corner (first r starts zero, rest infinite).  Monte-
    Carlo evaluations reuse one common set of draws across all candidates.
    """
    if not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError(f"need an integer k >= 1, got {k!r}")
    k = int(k)
    _check_delta(delta)
    _check_paths(estimator, n_paths)
    if k == 1:
        mean, err = homogeneous_cost(
            d, delta, (), estimator, n_paths, seed,
            extra_finisher_term=extra_finisher_term,
        )
        return BoundReport(value=1.0 / mean, optimizer=(), stderr=err / mean**2)

    candidates = sorted(set(grid)) if grid else _start_time_grid(d)
    rows = None
    if estimator == "monte-carlo":
        rows = _crn_rows(d, k, n_paths, seed)

    # the cost is a pure function of the vector (Monte-Carlo reuses one draw
    # matrix), and descent sweeps revisit vectors, so cost each one once
    memo = {}

    def cost(vec):
        key = tuple(vec)
        if key not in memo:
            memo[key] = homogeneous_cost(
                d, delta, vec, estimator, n_paths, seed,
                extra_finisher_term=extra_finisher_term, _crn_draws=rows,
            )
        return memo[key]

    best_vec, best_cost, best_err = None, INF, 0.0
    for r in range(1, k + 1):
        vec = [0.0] * (r - 1) + [INF] * (k - r)
        mean, err = cost(vec)
        for _ in range(max_sweeps):
            before = mean
            for j in range(k - 1):
                lo = vec[j - 1] if j > 0 else 0.0
                hi = vec[j + 1] if j + 1 < k - 1 else INF
                for cand in candidates:
                    if cand < lo or cand > hi or cand == vec[j]:
                        continue
                    trial = list(vec)
                    trial[j] = cand
                    m, e = cost(trial)
                    if m < mean * (1.0 - 1e-12):
                        vec, mean, err = trial, m, e
            if mean >= before * (1.0 - rel_tol):
                break
        if mean < best_cost * (1.0 - 1e-12):
            best_vec, best_cost, best_err = tuple(vec), mean, err
    return BoundReport(
        value=k / best_cost,
        optimizer=best_vec,
        stderr=k * best_err / best_cost**2,
    )


def _start_time_grid(d: ServiceDistribution):
    pts = {0.0, INF}
    atoms = d._atoms()
    if atoms is not None:
        vals = [v for v, _ in atoms]
        pts |= set(vals)
        pts |= {0.5 * (a + b) for a, b in zip(vals, vals[1:])}
    else:
        qs = [d.quantile(q) for q in np.arange(0.05, 0.96, 0.05)]
        pts |= set(qs)
        hi = d.quantile(0.995)
        lo = max(min(q for q in qs if q > 0), 1e-3)
        pts |= set(np.geomspace(lo, 4.0 * hi, 12))
    return sorted(map(float, pts))
