"""The four benchmark workloads: their inputs, their ops and the checks on
every op's output.

An op is one public call into repliq.  ``build(name, seed, smoke)`` makes a
workload's inputs from the seed (set-up) and returns its ops, which are run
in order once per timed pass, each seeing the results of the ops before it.
A check returns None when the output is right and a message otherwise.

Statistical bands are ``max(rel * value, 5 * stderr)``: a 5-stderr band
alone is too narrow on short runs whose batch-means stderr is itself noisy,
and a relative band alone is too narrow on short runs.
"""

from dataclasses import dataclass

import numpy as np

from repliq import analytic, bounds, engine, mdp, policies
from repliq.distributions import parse_distribution

EXAMPLE = ("det(2)", "finite([(1,0.9),(20,0.1)])")
EXAMPLE_NOREP = 0.84483
EXAMPLE_FULLREP = 0.90909
EXAMPLE_OPT = 1.2184874  # K/g of the worked example's decision process
ADAREP_EXAMPLE = "adarep:{1->2:inf,2->1:1}"
LATTICE = ("det(0.3)", "finite([(0.1,0.7),(1.7,0.3)])")
HOMOG_LAW = "hyperexp(0.6,0.2,0.4)"


@dataclass
class Op:
    """One public call.  ``layer`` and ``span`` name the trace span;
    ``kind`` is "sim" (counts toward jobs/s), "probe" (a replay that is
    expected to hit ``known_defect`` while that defect stands) or "call"."""

    name: str
    span: str
    fn: object
    check: object = None
    kind: str = "call"
    jobs: int = 0
    known_defect: str = ""
    info: object = None


def _seeds(seed, n):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n, dtype=np.uint32)]


def _band(res, expected, rel):
    gap = abs(res.throughput - expected)
    tol = max(rel * expected, 5.0 * res.throughput_stderr)
    if gap <= tol:
        return None
    return f"throughput {res.throughput:.6f} is {gap:.6f} from {expected:.6f} (tol {tol:.6f})"


def _close(value, expected, tol, what):
    if abs(value - expected) <= tol:
        return None
    return f"{what} {value!r} differs from {expected!r} by more than {tol}"


def _at_most(res, bound, what):
    if res.throughput <= bound + 5.0 * res.throughput_stderr:
        return None
    return f"throughput {res.throughput:.6f} exceeds {what} {bound:.6f}"


def _sim(name, config, policy, n_jobs, seed, check, kind="sim", known_defect=""):
    return Op(
        name=name,
        span="engine.run_saturated",
        fn=lambda ctx: engine.run_saturated(config, _resolve(policy, ctx), n_jobs, seed),
        check=check,
        kind=kind,
        jobs=n_jobs,
        known_defect=known_defect,
    )


def _resolve(policy, ctx):
    return policy(ctx) if callable(policy) else policy


def _kernel_info(kernel, ctx):
    return {"states": kernel.n_states, "transitions": _transitions(kernel)}


def _transitions(kernel):
    return sum(len(trans) for acts in kernel.actions for _, trans in acts)


def _mdp_ops(tag, ds, delta):
    """build_mdp + solve_average_cost + as_tabular_policy on one kernel."""

    def solve_info(sol, ctx):
        work = _transitions(ctx[f"{tag}.build"]) * sol.iterations
        return {"method": sol.method, "iterations": sol.iterations, "work": work}

    return [
        Op(f"{tag}.build", "mdp.build_mdp", lambda ctx: mdp.build_mdp(ds, delta), info=_kernel_info),
        Op(
            f"{tag}.solve",
            "mdp.solve_average_cost",
            lambda ctx: mdp.solve_average_cost(ctx[f"{tag}.build"]),
            info=solve_info,
        ),
        Op(
            f"{tag}.tabular",
            "mdp.as_tabular_policy",
            lambda ctx: mdp.as_tabular_policy(ctx[f"{tag}.build"], ctx[f"{tag}.solve"]),
        ),
    ]


# -- sat_example -------------------------------------------------------------


def _sat_example(seed, smoke):
    ds = tuple(parse_distribution(t) for t in EXAMPLE)
    config = engine.SystemConfig(ds, 0.0)
    kernel = mdp.build_mdp(ds, 0.0)
    tabular = mdp.as_tabular_policy(kernel, mdp.solve_average_cost(kernel))
    n = 2_000 if smoke else 20_000
    n_long = 2_000 if smoke else 60_000
    s = _seeds(seed, 5)
    return [
        Op(
            "closed_form.norep",
            "analytic.throughput_norep",
            lambda ctx: analytic.throughput_norep(ds),
            check=lambda r, ctx: _close(r.value, EXAMPLE_NOREP, 1e-4, "norep rate"),
        ),
        Op(
            "closed_form.fullrep",
            "analytic.throughput_fullrep",
            lambda ctx: analytic.throughput_fullrep(ds, 0.0),
            check=lambda r, ctx: _close(r.value, EXAMPLE_FULLREP, 1e-4, "fullrep rate"),
        ),
        _sim("sim.norep", config, policies.NoRep(), n, s[0],
             lambda r, ctx: _band(r, EXAMPLE_NOREP, 0.005)),
        _sim("sim.fullrep", config, policies.FullRep(), n, s[1],
             lambda r, ctx: _band(r, EXAMPLE_FULLREP, 0.005)),
        _sim("sim.adarep", config, policies.parse_policy(ADAREP_EXAMPLE), n_long, s[2],
             lambda r, ctx: _band(r, EXAMPLE_OPT, 0.005)),
        _sim("sim.maxrate", config, policies.MaxRate(), n, s[3],
             lambda r, ctx: _band(r, max(EXAMPLE_NOREP, EXAMPLE_FULLREP), 0.005)),
        _sim("sim.tabular", config, tabular, n_long, s[4],
             lambda r, ctx: _band(r, EXAMPLE_OPT, 0.005)),
    ]


# -- poisson_example ---------------------------------------------------------

# The two cells whose stability verdict is checked within 10% of capacity:
# norep at load 1.07 must be flagged and adarep at load 0.90 must not be.
# run_poisson's growth rule needs its default of 100 runs to call them
# reliably.  Per-run queue growth of adarep at lam=1.1 has mean 0.2 and
# sd 9.7 (3000 runs), so 30 runs flag it unstable about once in 500 seeds;
# resampling those runs gives no false flag in 20000 draws of 100.
_EDGE_CELLS = {(0.9, "norep"), (1.1, "adarep")}
_EDGE_RUNS = 100


def _poisson_example(seed, smoke):
    ds = tuple(parse_distribution(t) for t in EXAMPLE)
    config = engine.SystemConfig(ds, 0.0)
    capacity = {
        "norep": EXAMPLE_NOREP,
        "fullrep": EXAMPLE_FULLREP,
        "maxrate": EXAMPLE_FULLREP,
        "adarep": EXAMPLE_OPT,
    }
    specs = {"norep": "norep", "fullrep": "fullrep", "maxrate": "maxrate", "adarep": ADAREP_EXAMPLE}
    lams = (0.3, 0.6, 0.9, 1.1)
    n_jobs, n_runs = (200, 2) if smoke else (1000, 30)
    s = iter(_seeds(seed, len(lams) * len(specs)))
    ops = []
    for lam in lams:
        for name, spec in specs.items():
            runs = n_runs
            if not smoke and (lam, name) in _EDGE_CELLS:
                runs = _EDGE_RUNS
            ops.append(
                Op(
                    f"lam{lam}.{name}",
                    "engine.run_poisson",
                    _poisson_call(config, policies.parse_policy(spec), lam, n_jobs, runs, next(s)),
                    check=_poisson_check(name, lam, capacity[name]),
                    kind="sim",
                    jobs=n_jobs * runs,
                )
            )
    return ops


def _poisson_call(config, policy, lam, n_jobs, n_runs, seed):
    return lambda ctx: engine.run_poisson(config, policy, lam, n_jobs, n_runs, seed)


def _poisson_check(name, lam, capacity):
    def check(res, ctx):
        if name == "norep" and lam >= 0.9 and not res.unstable:
            return f"norep not flagged unstable at lam={lam} (capacity {capacity})"
        if name == "adarep" and lam == 1.1 and res.unstable:
            return "adarep flagged unstable at lam=1.1"
        if lam <= 0.95 * capacity:
            if res.unstable:
                return f"flagged unstable at load {lam / capacity:.2f}"
            return _close(res.throughput, lam, 0.05 * lam, f"throughput at lam={lam}")
        return None

    return check


# -- homog_wide ----------------------------------------------------------------


def _homog_wide(seed, smoke):
    k, delta = 6, 0.1
    d = parse_distribution(HOMOG_LAW)
    config = engine.SystemConfig((d,) * k, delta)
    n = 1_000 if smoke else 15_000
    n_paths = 2_000 if smoke else 5_000
    # smoke mode narrows the start-time grid so the coordinate descent is short
    grid = (0.0, 1.0, 3.0, float("inf")) if smoke else None
    s = _seeds(seed, 5)

    def adarep_hom(ctx):
        return policies.AdaRep(homogeneous=ctx["bound.exact"].optimizer)

    def bound_check(r, ctx):
        if r.value < ctx["best_r"].bound - 1e-9:
            return f"bound {r.value} below the best upfront rate {ctx['best_r'].bound}"
        return None

    def mc_check(r, ctx):
        exact = ctx["bound.exact"].value
        if abs(r.value - exact) <= 4.0 * r.stderr + 1e-3 * exact:
            return None
        return f"monte-carlo bound {r.value}±{r.stderr} disagrees with exact {exact}"

    def below_bound(r, ctx):
        return _at_most(r, ctx["bound.exact"].value, "the exact bound")

    def upfront_check(r, ctx):
        return below_bound(r, ctx) or _band(r, ctx["best_r"].bound, 0.01)

    return [
        Op(
            "best_r",
            "analytic.best_homogeneous_r",
            lambda ctx: analytic.best_homogeneous_r(d, delta, k),
            check=lambda r, ctx: None if r.r_star == 3 else f"r*={r.r_star}, expected 3",
        ),
        Op(
            "bound.exact",
            "bounds.homogeneous_bound.exact",
            lambda ctx: bounds.homogeneous_bound(d, delta, k, "exact", grid=grid),
            check=bound_check,
        ),
        Op(
            "bound.monte-carlo",
            "bounds.homogeneous_bound.monte-carlo",
            lambda ctx: bounds.homogeneous_bound(
                d, delta, k, "monte-carlo", n_paths=n_paths, seed=s[0], grid=grid
            ),
            check=mc_check,
        ),
        _sim("sim.norep", config, policies.NoRep(), n, s[1],
             lambda r, ctx: below_bound(r, ctx) or _band(r, k / d.mean(), 0.01)),
        _sim("sim.fullrep", config, policies.FullRep(), n, s[2], below_bound),
        _sim("sim.upfront", config, policies.parse_policy("upfront:[[1,2,3],[4,5,6]]"), n, s[3],
             upfront_check),
        _sim("sim.adarep-hom", config, adarep_hom, n, s[4], below_bound),
    ]


# -- mdp_exact -------------------------------------------------------------------


def _mdp_exact(seed, smoke):
    example = tuple(parse_distribution(t) for t in EXAMPLE)
    lattice = tuple(parse_distribution(t) for t in LATTICE)
    if smoke:
        k3 = (parse_distribution("finite([(1,0.9),(4,0.1)])"),) * 3
        k4 = (parse_distribution("finite([(1,0.8),(2,0.2)])"),) * 3
    else:
        k3 = (parse_distribution("finite([(1,0.9),(10,0.1)])"),) * 3
        k4 = (parse_distribution("finite([(1,0.8),(8,0.2)])"),) * 4
    n_replay = 500 if smoke else 10_000
    n_probe = 500 if smoke else 2_000
    s = _seeds(seed, 6)

    def dominates_static(ds, delta):
        static = max(analytic.throughput_norep(ds).value, analytic.throughput_fullrep(ds, delta).value)

        def check(sol, ctx):
            if sol.throughput >= static * (1.0 - 1e-6):
                return None
            return f"K/g={sol.throughput} below the best static policy {static}"

        return check

    def sandwich(tag):
        def check(rep, ctx):
            rate = ctx[f"{tag}.solve"].throughput
            if rate <= rep.value + 1e-9:
                return None
            return f"K/g={rate} exceeds the pause bound {rep.value}"

        return check

    def replay_check(tag):
        return lambda r, ctx: _band(r, ctx[f"{tag}.solve"].throughput, 0.005)

    def example_replay(i):
        # the criterion-9 replay, split in four and spread over the pass so
        # that its jobs/s does not hang on one second of host speed
        return _sim(f"example.replay{i}", engine.SystemConfig(example, 0.0),
                    lambda ctx: ctx["example.tabular"], n_replay, s[2 + i], replay_check("example"))

    ops = []
    ops += _mdp_ops("example", example, 0.0)
    ops[-2].check = lambda sol, ctx: _close(sol.throughput, EXAMPLE_OPT, 1e-6, "K/g")
    ops += [
        Op(
            "example.pause_bound",
            "bounds.optimize_pause_bound",
            lambda ctx: bounds.optimize_pause_bound(*example, 0.0),
            check=sandwich("example"),
        ),
        example_replay(0),
    ]
    ops += _mdp_ops("k3", k3, 1.0)
    ops[-2].check = dominates_static(k3, 1.0)
    ops.append(
        _sim("k3.replay", engine.SystemConfig(k3, 1.0), lambda ctx: ctx["k3.tabular"], n_probe, s[0],
             replay_check("k3"), kind="probe",
             known_defect="plan references missing job on servers")
    )
    ops.append(example_replay(1))
    ops += _mdp_ops("k4", k4, 0.0)
    ops[-2].check = dominates_static(k4, 0.0)
    ops.append(example_replay(2))
    ops += _mdp_ops("lattice", lattice, 0.1)
    ops[-2].check = dominates_static(lattice, 0.1)
    ops += [
        Op(
            "lattice.pause_bound",
            "bounds.optimize_pause_bound",
            lambda ctx: bounds.optimize_pause_bound(*lattice, 0.1),
            check=sandwich("lattice"),
        ),
        _sim("lattice.replay", engine.SystemConfig(lattice, 0.1), lambda ctx: ctx["lattice.tabular"],
             n_probe, s[1], replay_check("lattice"), kind="probe",
             known_defect="no action tabulated for state"),
        example_replay(3),
    ]
    return ops


_BY_NAME = {
    "sat_example": _sat_example,
    "poisson_example": _poisson_example,
    "homog_wide": _homog_wide,
    "mdp_exact": _mdp_exact,
}


def build(name, seed, smoke=False):
    return _BY_NAME[name](seed, smoke)
