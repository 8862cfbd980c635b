"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured values (run with ``pytest -s`` to see
them).  Criteria cover the worked two-server example, randomized
work-conservation and simulator-vs-closed-form matrices, the capacity
bounds, the decision-process sandwich, and the Poisson response-time
ordering."""

import time

import numpy as np

from repliq.analytic import (
    Partition,
    best_homogeneous_r,
    throughput_fullrep,
    throughput_norep,
    throughput_upfront,
)
from repliq.bounds import (
    adarep_pause_throughput,
    homogeneous_bound,
    optimize_pause_bound,
)
from repliq.distributions import (
    Deterministic,
    Exponential,
    FiniteSupport,
    HyperExp,
    Pareto,
    Shifted,
    min_expectation,
)
from repliq.engine import SystemConfig, event_trace, run_poisson, run_saturated
from repliq.mdp import as_tabular_policy, build_mdp, solve_average_cost
from repliq.policies import AdaRep, FullRep, MaxRate, NoRep, UpfrontRep

INF = float("inf")

EXAMPLE_DISTS = (Deterministic(2.0), FiniteSupport(((1.0, 0.9), (20.0, 0.1))))
EXAMPLE = SystemConfig(EXAMPLE_DISTS, 0.0)
ADAREP_EXAMPLE = AdaRep(thresholds={(0, 1): INF, (1, 0): 1.0})


def example_with_p(p):
    return SystemConfig(
        (Deterministic(2.0), FiniteSupport(((1.0, 1.0 - p), (20.0, p)))), 0.0
    )


def report(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_example_analytic_pair():
    t0 = time.time()
    norep = throughput_norep(EXAMPLE_DISTS).value
    fullrep = throughput_fullrep(EXAMPLE_DISTS, 0.0).value
    elapsed = time.time() - t0
    ok = (
        abs(norep - 0.84483) <= 1e-4
        and abs(fullrep - 0.90909) <= 1e-4
        and elapsed < 1.0
    )
    report(1, ok, f"norep={norep:.6f} fullrep={fullrep:.6f} ({elapsed:.2f}s)")


def test_criterion_02_example_adarep_million_jobs():
    t0 = time.time()
    res = run_saturated(EXAMPLE, ADAREP_EXAMPLE, 10**6, seed=2024)
    elapsed = time.time() - t0
    rel = abs(res.throughput - 1.2185) / 1.2185
    ok = rel <= 0.005 and elapsed < 60.0
    report(2, ok, f"throughput={res.throughput:.5f} rel_err={rel:.2%} ({elapsed:.1f}s)")


def _random_system(rng):
    pool = [
        lambda: Deterministic(rng.uniform(0.5, 3.0)),
        lambda: Exponential(rng.uniform(0.4, 2.0)),
        lambda: Shifted(rng.uniform(0.1, 1.0), Exponential(rng.uniform(0.5, 2.0))),
        lambda: HyperExp(rng.uniform(0.5, 1.5), rng.uniform(0.05, 0.3), rng.uniform(0.2, 0.8)),
        lambda: FiniteSupport(
            ((round(rng.uniform(0.5, 2.0), 2), 0.8), (round(rng.uniform(4.0, 12.0), 2), 0.2))
        ),
        lambda: Pareto(rng.uniform(0.3, 1.0), rng.uniform(1.5, 3.0)),
    ]
    k = int(rng.integers(2, 4))
    ds = tuple(pool[int(rng.integers(0, len(pool)))]() for _ in range(k))
    delta = [0.0, 0.1, 0.5][int(rng.integers(0, 3))]
    return SystemConfig(ds, delta)


def _random_policy(rng, config):
    atomic = all(d._atoms() is not None for d in config.servers)
    choices = ["norep", "fullrep", "adarep", "upfront"]
    if atomic:
        choices.append("maxrate")
    kind = choices[int(rng.integers(0, len(choices)))]
    k = config.k
    if kind == "norep":
        return NoRep()
    if kind == "fullrep":
        return FullRep()
    if kind == "maxrate":
        return MaxRate()
    if kind == "upfront":
        groups = [[0, 1]] + [[i] for i in range(2, k)]
        return UpfrontRep(Partition(tuple(frozenset(g) for g in groups)))
    table = {
        (o, t): float(rng.choice([0.5, 1.0, 2.0, INF]))
        for o in range(k)
        for t in range(k)
        if o != t
    }
    return AdaRep(thresholds=table)


def test_criterion_03_work_conservation_matrix():
    t0 = time.time()
    rng = np.random.default_rng(20240)
    worst = 0.0
    for i in range(20):
        config = _random_system(rng)
        policy = _random_policy(rng, config)
        res = run_saturated(config, policy, 20_000, seed=100 + i)
        product, err = res.work_conservation(config.k)
        sigma = abs(product - config.k) / max(3 * err, 1e-9)
        worst = max(worst, sigma)
        assert abs(product - config.k) <= max(3 * err, 1e-9), (
            f"config {i}: {policy.spec()} on {config}: product={product} err={err}"
        )
    elapsed = time.time() - t0
    ok = elapsed < 300.0
    report(3, ok, f"20 configs, worst |R*E[C]-K| at {worst:.2f} of budget ({elapsed:.1f}s)")


def test_criterion_04_simulator_matches_closed_forms():
    t0 = time.time()
    rng = np.random.default_rng(777)
    count = 0
    worst = 0.0
    while count < 30:
        config = _random_system(rng)
        k = config.k
        kind = ["norep", "fullrep", "upfront"][count % 3]
        if kind == "norep":
            policy, expected = NoRep(), throughput_norep(config.servers).value
        elif kind == "fullrep":
            policy, expected = FullRep(), throughput_fullrep(config.servers, config.delta).value
        else:
            groups = [[0, 1]] + [[i] for i in range(2, k)]
            part = Partition(tuple(frozenset(g) for g in groups))
            policy = UpfrontRep(part)
            expected = throughput_upfront(part, config.servers, config.delta).value
        res = run_saturated(config, policy, 40_000, seed=3000 + count)
        gap = abs(res.throughput - expected)
        worst = max(worst, gap / max(3 * res.throughput_stderr, 1e-9))
        assert gap <= max(3 * res.throughput_stderr, 1e-9), (
            f"config {count}: {policy.spec()} on {config}: sim={res.throughput} "
            f"expected={expected} stderr={res.throughput_stderr}"
        )
        count += 1
    elapsed = time.time() - t0
    ok = elapsed < 300.0
    report(4, ok, f"30 configs, worst gap at {worst:.2f} of 3-stderr budget ({elapsed:.1f}s)")


def test_criterion_05_homogeneous_replica_count():
    t0 = time.time()
    shifted = best_homogeneous_r(Shifted(0.1, Exponential(1.0)), 0.0, 10)
    hyper = best_homogeneous_r(HyperExp(0.6, 0.2, 0.4), 0.0, 10)
    elapsed = time.time() - t0
    ok = shifted.r_star == 1 and hyper.r_star == 10 and elapsed < 1.0
    report(5, ok, f"shifted-exp r*={shifted.r_star}, hyperexp r*={hyper.r_star} ({elapsed:.2f}s)")


def test_criterion_06_homogeneous_bound_special_cases():
    t0 = time.time()
    exp_pair = homogeneous_bound(Exponential(1.0), 0.5, 2)
    det_cases = [
        (homogeneous_bound(Deterministic(c), 0.0, k), k / c)
        for k, c in ((2, 1.0), (3, 2.0), (5, 0.5))
    ]
    elapsed = time.time() - t0
    ok = (
        abs(exp_pair.value - 2.0) <= 1e-3
        and exp_pair.optimizer == (INF,)
        and all(rep.value == expected for rep, expected in det_cases)
        and elapsed < 60.0
    )
    report(
        6,
        ok,
        f"exp pair bound={exp_pair.value:.6f} argmin={exp_pair.optimizer}, "
        f"deterministic cases exact ({elapsed:.1f}s)",
    )


def test_criterion_07_pause_bound_dominates_simulations():
    t0 = time.time()
    threshold_at_p01 = None
    worst_margin = INF
    for p in np.arange(0.05, 0.51, 0.05):
        p = round(float(p), 2)
        config = example_with_p(p)
        d1, d2 = config.servers
        bound = optimize_pause_bound(d1, d2, 0.0)
        if p == 0.1:
            threshold_at_p01 = bound.optimizer[1]
        policies = [
            AdaRep(thresholds={(0, 1): INF, (1, 0): 1.0}),
            AdaRep(thresholds={(0, 1): INF, (1, 0): bound.optimizer[1]}),
            MaxRate(),
        ]
        for policy in policies:
            res = run_saturated(config, policy, 100_000, seed=int(p * 1000))
            margin = bound.value - res.throughput
            worst_margin = min(worst_margin, margin + 3 * res.throughput_stderr)
            assert res.throughput <= bound.value + 3 * res.throughput_stderr, (
                f"p={p}: {policy.spec()} throughput {res.throughput} exceeds "
                f"bound {bound.value}"
            )
    elapsed = time.time() - t0
    ok = threshold_at_p01 == 1.0 and elapsed < 600.0
    report(
        7,
        ok,
        f"bound dominates all runs (worst slack {worst_margin:.4f}), "
        f"t*(2->1)={threshold_at_p01} at p=0.1 ({elapsed:.1f}s)",
    )


def test_criterion_08_maxrate_is_max_of_extremes():
    t0 = time.time()
    worst = 0.0
    for p in np.arange(0.05, 0.51, 0.05):
        p = round(float(p), 2)
        config = example_with_p(p)
        expected = max(
            throughput_norep(config.servers).value,
            throughput_fullrep(config.servers, 0.0).value,
        )
        res = run_saturated(config, MaxRate(), 100_000, seed=int(1000 + p * 100))
        gap = abs(res.throughput - expected)
        worst = max(worst, gap / max(3 * res.throughput_stderr, 1e-9))
        assert gap <= 3 * res.throughput_stderr, (
            f"p={p}: maxrate={res.throughput} expected={expected} "
            f"stderr={res.throughput_stderr}"
        )
    elapsed = time.time() - t0
    ok = elapsed < 600.0
    report(8, ok, f"10 sweep points, worst gap at {worst:.2f} of budget ({elapsed:.1f}s)")


def test_criterion_09_mdp_sandwich():
    t0 = time.time()
    kernel = build_mdp(EXAMPLE_DISTS, 0.0)
    solution = solve_average_cost(kernel)
    rate = solution.throughput
    bound = optimize_pause_bound(*EXAMPLE_DISTS, 0.0).value
    policy = as_tabular_policy(kernel, solution)
    res = run_saturated(EXAMPLE, policy, 300_000, seed=555)
    elapsed = time.time() - t0
    ok = (
        1.2185 - 1e-4 <= rate <= bound + 1e-9
        and abs(res.throughput - rate) <= 3 * res.throughput_stderr
        and elapsed < 300.0
    )
    report(
        9,
        ok,
        f"1.2185 <= K/g={rate:.5f} <= bound={bound:.5f}; simulated "
        f"{res.throughput:.5f}±{res.throughput_stderr:.5f} ({elapsed:.1f}s)",
    )


def test_criterion_10_response_time_ordering():
    """Poisson response times on the worked example cross over once.

    The threshold policy never copies a job on server 1, and idle servers
    are offered in index order, so at light load it serves most jobs alone
    on det(2): its zero-load response is 2.0 against full replication's
    E[min(S1, S2)] = 1.1.  The criterion is therefore: (i) from some grid
    rate lam* on, adarep has the strictly lowest response; (ii) lam* lies
    below the larger static capacity; (iii) below lam*, full replication
    (or maxrate, which ties it) is lowest; (iv) norep is flagged unstable
    at 0.9..1.1, fullrep and maxrate past the static capacity, and adarep,
    whose capacity K/g = 1.2185 exceeds the grid, nowhere.
    """
    t0 = time.time()
    lambdas = [round(0.1 * i, 1) for i in range(1, 12)]
    policies = [
        ("norep", NoRep()),
        ("fullrep", FullRep()),
        ("maxrate", MaxRate()),
        ("adarep", ADAREP_EXAMPLE),
    ]
    table = {}
    unstable = {}
    for lam in lambdas:
        for name, policy in policies:
            res = run_poisson(EXAMPLE, policy, lam, n_jobs=1000, n_runs=100, seed=42)
            table[(lam, name)] = res.mean_response
            unstable[(lam, name)] = res.unstable
    elapsed = time.time() - t0
    capacity = max(
        throughput_norep(EXAMPLE_DISTS).value,
        throughput_fullrep(EXAMPLE_DISTS, 0.0).value,
    )
    lines = []
    lowest = {}
    adarep_wins = []
    for lam in lambdas:
        vals = {name: table[(lam, name)] for name, _ in policies}
        lowest[lam] = min(vals, key=vals.get)
        if all(vals["adarep"] < v for n, v in vals.items() if n != "adarep"):
            adarep_wins.append(lam)
        lines.append(
            f"  lam={lam}: "
            + " ".join(f"{n}={vals[n]:.3f}" for n, _ in policies)
            + f" lowest={lowest[lam]}"
        )
    lam_star = adarep_wins[0] if adarep_wins else None
    below = [lam for lam in lambdas if lam_star is None or lam < lam_star]
    flagged = {
        name: [lam for lam in lambdas if unstable[(lam, name)]] for name, _ in policies
    }
    past_capacity = [lam for lam in lambdas if lam > capacity]
    clauses = {
        "(i) single crossover": lam_star is not None
        and adarep_wins == [lam for lam in lambdas if lam >= lam_star],
        "(ii) crossover below capacity": lam_star is not None and lam_star < capacity,
        "(iii) fullrep lowest below lam*": lam_star is not None
        and all(lowest[lam] in ("fullrep", "maxrate") for lam in below),
        "(iv) stability flags": all(lam in flagged["norep"] for lam in (0.9, 1.0, 1.1))
        and all(lam in flagged[n] for n in ("fullrep", "maxrate") for lam in past_capacity)
        and not flagged["adarep"],
        "time budget": elapsed < 600.0,
    }
    print("\n".join(lines))
    failed = [name for name, held in clauses.items() if not held]
    winners_below = sorted({lowest[lam] for lam in below})
    report(
        10,
        not failed,
        f"adarep lowest from lam*={lam_star} (static capacity {capacity:.3f}); "
        f"lowest below lam*: {'/'.join(winners_below) or 'none'}; unstable flags: "
        + " ".join(f"{n}@{','.join(map(str, f)) or 'none'}" for n, f in flagged.items())
        + f"; failed clauses: {', '.join(failed) or 'none'} ({elapsed:.1f}s)",
    )


def test_criterion_11_module_invariant_spotchecks():
    t0 = time.time()
    # distribution decomposition identity on every variant
    laws = [
        Deterministic(2.0),
        Exponential(1.3),
        Shifted(0.5, Exponential(1.0)),
        HyperExp(0.5, 0.1, 0.4),
        Pareto(0.5, 2.2),
        FiniteSupport(((1.0, 0.9), (20.0, 0.1))),
    ]
    for d in laws:
        for t in (0.25, 1.0, 1.9):
            tail = d.tail(t)
            if tail <= 0:
                continue
            lhs = d.truncated_mean(t) + tail * d.residual(t).mean()
            assert abs(lhs - d.mean()) <= 1e-8
    # the general expression at threshold infinity equals the one-sided
    # bound: server 2's jobs take the truncated part plus the replicated
    # completion on overflow, server 1 runs while it is not paused
    d1, d2 = EXAMPLE_DISTS
    for t21 in (0.25, 1.0, 5.0, INF):
        m2, p = d2.truncated_mean(t21), d2.tail(t21)
        effective = m2 + (p * min_expectation([d1, d2.residual(t21)]) if p > 0 else 0.0)
        a = (m2 / effective) / d1.mean() + 1.0 / effective
        b = adarep_pause_throughput(*EXAMPLE_DISTS, 0.0, (INF, t21))
        assert abs(a - b) <= 1e-9
    # threshold policy with infinite thresholds is trajectory-equal to norep
    quiet = AdaRep(thresholds={(0, 1): INF, (1, 0): INF})
    assert event_trace(EXAMPLE, quiet, 300.0, seed=77) == event_trace(
        EXAMPLE, NoRep(), 300.0, seed=77
    )
    # event traces are deterministic given the seed
    assert event_trace(EXAMPLE, ADAREP_EXAMPLE, 200.0, seed=5) == event_trace(
        EXAMPLE, ADAREP_EXAMPLE, 200.0, seed=5
    )
    elapsed = time.time() - t0
    ok = elapsed < 300.0
    report(11, ok, f"identities, one-sided bound match, trajectory equality ({elapsed:.1f}s)")
