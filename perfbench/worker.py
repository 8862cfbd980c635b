"""Runs one workload in this process and prints one JSON object on stdout.

``--setup-only`` imports repliq from the checkout's ``src`` and builds the
workload's inputs, then exits; run.py times whole set-up processes.
Otherwise the worker runs untraced passes over the workload's ops until
``--seconds`` have passed, checking every op's output; op times are
host-normalised afterwards (hostspeed.py).
With ``--trace 1`` it splits the time: untraced passes first, then the
shims from tracer.py are installed and traced passes follow.  run.py starts
this file with the BLAS thread count capped at 1.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import hostspeed

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

POLICY_NAMES = ("norep", "fullrep", "upfront", "maxrate", "adarep", "tabular")
SAMPLE_TAGS = ("det", "finite", "hyperexp")
INTEGRAL_PATHS = ("atomic", "exponential", "quadrature")
ESTIMATORS = ("exact", "monte-carlo")
SOLVE_METHODS = ("rvi", "bisection-rvi")
SIM_SPANS = ("engine.run_saturated", "engine.run_poisson")
MDP_SPANS = ("mdp.build_mdp", "mdp.solve_average_cost")


def import_repliq():
    if not (SRC / "repliq" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repliq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repliq

    if Path(repliq.__file__).resolve().parent != (SRC / "repliq").resolve():
        sys.exit(f"perfbench: imported repliq from {repliq.__file__}, not from {SRC}")


def judge(op, res, err, ctx):
    """(status, detail): ok, failed, or known_defect for a probe that hit
    the defect it documents."""
    if err is not None:
        msg = f"{type(err).__name__}: {err}"
        if op.kind == "probe" and op.known_defect and op.known_defect in str(err):
            return "known_defect", msg
        return "failed", msg
    if op.check is None:
        return "ok", None
    try:
        msg = op.check(res, ctx)
    except Exception as exc:  # a check that cannot run is a failed op
        msg = f"check raised {type(exc).__name__}: {exc}"
    return ("failed", msg) if msg else ("ok", None)


def run_pass(ops, expected_departure, tracer=None, pass_no=0):
    """One pass over the ops, with a host-speed reference run before the
    first op and after each op.  ``elapsed_s`` is the pass's raw wall time."""
    ctx = {}
    rec = {"sim_jobs": 0, "raw_op_s": 0.0, "cache_hits": 0, "cache_misses": 0,
           "refs": [hostspeed.sample()], "ops": []}
    span = tracer.span if tracer else (lambda name, op_id=None: nullcontext())
    start = perf_counter()
    with span("pass", f"p{pass_no}"):
        for op in ops:
            if expected_departure is not None:
                expected_departure.cache_clear()  # each op starts cold, as a fresh CLI call does
            res, err = None, None
            t0 = perf_counter()
            with span(op.span, f"p{pass_no}.{op.name}") as trace:
                try:
                    res = op.fn(ctx)
                except Exception as exc:  # counted as a failed op, not fatal
                    err = exc
            t1 = perf_counter()
            rec["refs"].append(hostspeed.sample())
            rec["raw_op_s"] += t1 - t0
            if expected_departure is not None:
                info = expected_departure.cache_info()
                rec["cache_hits"] += info.hits
                rec["cache_misses"] += info.misses
            status, detail = judge(op, res, err, ctx)
            if err is None:
                ctx[op.name] = res
            done = op.jobs if err is None else 0
            rec["ops"].append({
                "name": op.name, "span": op.span, "kind": op.kind, "t0": t0, "t1": t1,
                "status": status, "detail": detail, "jobs": done,
                "info": op.info(res, ctx) if op.info and err is None else {},
                "trace": trace,
            })
            if op.kind == "sim":
                rec["sim_jobs"] += done
    rec["elapsed_s"] = perf_counter() - start
    return rec


def normalise(passes):
    """Set each op's host-normalised time ``s`` and the pass totals."""
    refs = [r for p in passes for r in p["refs"]]
    for p in passes:
        p.update(wall_s=0.0, sim_s=0.0, bound_s=0.0, mdp_s=0.0)
        for o in p["ops"]:
            o["s"] = (o["t1"] - o["t0"]) * hostspeed.scale(refs, o["t0"], o["t1"])
            p["wall_s"] += o["s"]
            if o["kind"] == "sim" and o["jobs"]:
                p["sim_s"] += o["s"]
            if o["span"].split(".", 1)[0] in ("bounds", "analytic"):
                p["bound_s"] += o["s"]
            if o["span"] in MDP_SPANS:
                p["mdp_s"] += o["s"]
    return passes


def run_window(ops, seconds, expected_departure, tracer=None, first_no=0):
    """Passes until the next one would end after ``seconds``; at least one."""
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start + passes[-1]["elapsed_s"] <= seconds:
        passes.append(run_pass(ops, expected_departure, tracer, first_no + len(passes)))
    return passes


def end_to_end(passes):
    med = lambda key: statistics.median(p[key] for p in passes)
    statuses = [o["status"] for p in passes for o in p["ops"]]
    sim_rates = [p["sim_jobs"] / p["sim_s"] for p in passes if p["sim_s"] > 0]
    refs = [seconds for p in passes for _, seconds in p["refs"]]
    return {
        "wall_s": med("wall_s"),
        "raw_wall_s": med("raw_op_s"),
        "host_slowdown": statistics.median(refs) / hostspeed.NOMINAL_S,
        "sim_jobs_per_s": statistics.median(sim_rates) if sim_rates else 0.0,
        "bound_s": med("bound_s"),
        "mdp_s": med("mdp_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": sum(s != "ok" for s in statuses) / len(statuses),
    }


def per_layer(passes, overhead):
    """Per-layer metrics from traced passes, per pass where they are totals."""
    n = len(passes)
    hot = {}
    spans = {}
    sim = {"calls": 0, "ns": 0, "self_ns": 0, "jobs": 0}
    mdp = {"states": 0, "transitions": 0, "iterations": 0, "work": 0, "solve_ns": 0}
    for p in passes:
        for o in p["ops"]:
            tr = o["trace"]
            dur = tr["end_ns"] - tr["start_ns"]
            for name, agg in tr["hot"].items():
                tot = hot.setdefault(name, [0, 0, 0, 0])
                for i in range(4):
                    tot[i] += agg[i]
            key = o["span"]
            if key == "mdp.solve_average_cost" and o["info"]:
                key = f"{key}.{o['info']['method']}"
                mdp["solve_ns"] += dur
            spans[key] = spans.get(key, 0) + dur
            if o["span"] in SIM_SPANS:
                sim["calls"] += 1
                sim["ns"] += dur
                sim["self_ns"] += dur - sum(a[2] for a in tr["hot"].values())
                sim["jobs"] += o["jobs"]
            for k in ("states", "transitions", "iterations", "work"):
                mdp[k] += o["info"].get(k, 0)
    hits = sum(p["cache_hits"] for p in passes)
    lookups = hits + sum(p["cache_misses"] for p in passes)

    def h(name, i=0):
        return hot.get(name, [0, 0, 0, 0])[i]

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    decide = [name for name in hot if name.startswith("policies.decide.")]
    decide_calls = sum(h(name) for name in decide)
    m = {
        "engine.sim.calls": sim["calls"] / n,
        "engine.sim.s": sim["ns"] / n / 1e9,
        "engine.self_s": sim["self_ns"] / n / 1e9,
        "engine.self_ns_per_job": ratio(sim["self_ns"], sim["jobs"]),
        "policies.decide.calls": decide_calls / n,
    }
    for pol in POLICY_NAMES:
        name = f"policies.decide.{pol}"
        m[f"{name}.ns_per_call"] = ratio(h(name, 1), h(name))
    m["policies.decide.per_job"] = ratio(decide_calls, sim["jobs"])
    m["policies.decide.act_ratio"] = ratio(sum(h(name, 3) for name in decide), decide_calls)
    m["policies.instantaneous_rate.calls"] = h("policies.instantaneous_rate") / n
    m["policies.instantaneous_rate.s"] = h("policies.instantaneous_rate", 1) / n / 1e9
    m["policies.expected_departure.hit_ratio"] = ratio(hits, lookups)
    for tag in SAMPLE_TAGS:
        name = f"distributions.sample.{tag}"
        m[f"{name}.calls"] = h(name) / n
        m[f"{name}.ns_per_call"] = ratio(h(name, 1), h(name))
    m["distributions.sample_array.draws"] = h("distributions.sample_array", 3) / n
    m["distributions.sample_array.ns_per_draw"] = ratio(
        h("distributions.sample_array", 1), h("distributions.sample_array", 3))
    m["distributions.min_expectation.calls"] = h("distributions.min_expectation") / n
    m["distributions.min_expectation.s"] = h("distributions.min_expectation", 1) / n / 1e9
    for path in INTEGRAL_PATHS:
        name = f"distributions.product_tail_integral.{path}"
        m[f"{name}.calls"] = h(name) / n
        m[f"{name}.s"] = h(name, 1) / n / 1e9
    for est in ESTIMATORS:
        m[f"bounds.homogeneous_bound.{est}.s"] = spans.get(f"bounds.homogeneous_bound.{est}", 0) / n / 1e9
    for est in ESTIMATORS:
        name = f"bounds.homogeneous_cost.{est}"
        m[f"{name}.calls"] = h(name) / n
        m[f"{name}.ns_per_call"] = ratio(h(name, 1), h(name))
    m["bounds.optimize_pause_bound.s"] = spans.get("bounds.optimize_pause_bound", 0) / n / 1e9
    m["bounds.adarep_pause_throughput.calls"] = h("bounds.adarep_pause_throughput") / n
    m["analytic.s"] = sum(v for k, v in spans.items() if k.startswith("analytic.")) / n / 1e9
    build_ns = spans.get("mdp.build_mdp", 0)
    m["mdp.build_mdp.s"] = build_ns / n / 1e9
    m["mdp.states"] = mdp["states"] / n
    m["mdp.transitions"] = mdp["transitions"] / n
    m["mdp.build_mdp.us_per_state"] = ratio(build_ns, mdp["states"], 1e-3)
    for method in SOLVE_METHODS:
        m[f"mdp.solve_average_cost.{method}.s"] = spans.get(f"mdp.solve_average_cost.{method}", 0) / n / 1e9
    m["mdp.rvi_iterations"] = mdp["iterations"] / n
    m["mdp.solve.ns_per_transition_iter"] = ratio(mdp["solve_ns"], mdp["work"])
    m["mdp.as_tabular_policy.s"] = spans.get("mdp.as_tabular_policy", 0) / n / 1e9
    m["trace.overhead"] = overhead
    return m


def op_summary(passes):
    """One row per op: its status in the first pass and its median time."""
    rows = []
    for i, first in enumerate(passes[0]["ops"]):
        rows.append({
            "name": first["name"],
            "span": first["span"],
            "kind": first["kind"],
            "status": first["status"],
            "detail": first["detail"],
            "median_s": statistics.median(p["ops"][i]["s"] for p in passes),
        })
    return rows


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", help="file for the traced spans (JSON)")
    args = ap.parse_args()

    import_repliq()
    import workloads
    from repliq import policies

    ops = workloads.build(args.workload, args.seed, args.smoke)
    if args.setup_only:
        return
    expected_departure = getattr(policies, "_expected_departure", None)
    if not hasattr(expected_departure, "cache_info"):
        expected_departure = None

    window = args.seconds / 2 if args.trace else args.seconds
    passes = normalise(run_window(ops, window, expected_departure))
    out = {
        "workload": args.workload,
        "env": environment(),
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_raw_wall_s": [p["raw_op_s"] for p in passes],
        "end_to_end": end_to_end(passes),
        "ops": op_summary(passes),
    }
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        traced = normalise(run_window(ops, window, expected_departure, tracer, len(passes)))
        overhead = (statistics.median(p["wall_s"] for p in traced)
                    / statistics.median(p["wall_s"] for p in passes) - 1.0)
        out["traced_passes"] = len(traced)
        out["per_layer"] = per_layer(traced, overhead)
        passes += traced
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "spans": tracer.dump()}, fh)
    statuses = [o["status"] for p in passes for o in p["ops"]]
    out["attempted"] = sum(s != "known_defect" for s in statuses)
    out["failed"] = statuses.count("failed")
    out["known_defects"] = statuses.count("known_defect")
    out["failures"] = sorted({f"{o['status']}: {o['name']}: {o['detail']}"
                              for p in passes for o in p["ops"] if o["status"] != "ok"})
    print(json.dumps(out))


if __name__ == "__main__":
    main()
