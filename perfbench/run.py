"""repliq benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Workloads (see workloads.py for why each was chosen): sat_example,
poisson_example, homog_wide, mdp_exact.  Run from the root of a checkout;
repliq is imported from its ``src``.  Each workload runs in its own
single-threaded process (worker.py) with BLAS threads capped at 1.  The
load is a closed loop of one caller: one public call at a time, Poisson
arrivals exist in simulated time only.

Set-up (``setup_s``) is the median wall time of several whole processes
that start Python, import repliq and build the workload's inputs.  The
timed pass runs the workload's ops until ``--seconds`` have passed and
checks every op's output.  Times are host-normalised (see hostspeed.py:
seconds on an uncontended core, judged by a reference loop run around each
op); the raw pass time and the host slowdown are reported beside them.
End-to-end metrics, medians over passes:

    setup_s         s      set-up process wall time (median of several)
    wall_s          s      time of one pass over the ops
    sim_jobs_per_s  1/s    departures simulated / seconds in simulator calls
    bound_s         s      seconds per pass in bounds and analytic calls
    mdp_s           s      seconds per pass in build_mdp + solve_average_cost
    peak_rss_mb     MB     peak resident set size of the workload process
    error_rate      ratio  ops that failed or hit a known defect / ops run

``--trace 1`` spends half the time on untraced passes and half on traced
ones and reports the per-layer metrics of BENCHMARK.json, including
``trace.overhead`` (traced / untraced pass wall time - 1).  Every run writes
its metrics, op statuses and run environment to ``perfbench/out/``; a
traced run also writes its spans there.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Replay probes that hit a documented defect are reported in
``error_rate`` and listed in the output file, but are not counted in
``attempted``/``failed``, which cover the checked ops.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("sat_example", "poisson_example", "homog_wide", "mdp_exact")
SETUP_REPEATS = 5
DEADLINE_S = 170.0
EXTRA_UNITS = {"wall_s": "s", "sim_jobs_per_s": "1/s", "bound_s": "s", "mdp_s": "s",
               "peak_rss_mb": "MB", "error_rate": "ratio", "raw_wall_s": "s",
               "host_slowdown": "ratio"}
BLAS_CAP = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def git_state():
    if not (ROOT / ".git").exists():
        return {"revision": None, "dirty": None}

    def git(*cmd):
        return subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True,
                              text=True, timeout=30).stdout.strip()

    return {"revision": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def worker_cmd(args, workload, *extra):
    return [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *(["--smoke"] if args.smoke else []), *extra]


def run_workload(args, workload, env, deadline):
    spans = []
    refs = [hostspeed.sample()]
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(worker_cmd(args, workload, "--setup-only"), env=env, check=True,
                       timeout=max(1.0, deadline - perf_counter()))
        spans.append((t0, perf_counter()))
        refs.append(hostspeed.sample())
    setups = [(t1 - t0) * hostspeed.scale(refs, t0, t1) for t0, t1 in spans]
    tag = f"{workload}-seed{args.seed}-trace{args.trace}"
    extra = ["--spans-out", str(OUT / f"{tag}-spans.json")] if args.trace else []
    proc = subprocess.run(worker_cmd(args, workload, *extra), env=env, check=True,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - perf_counter()))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["seed"] = args.seed
    result["smoke"] = args.smoke
    result["setup_runs_s"] = setups
    result["end_to_end"]["setup_s"] = statistics.median(setups)
    result["env"].update(git_state())
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def report(result, spec, trace):
    e2e = result["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(result["workload"], "")
    print(f"== {result['workload']} (seed {result['seed']}): {why}")
    print(f"   {result['passes']} untraced passes; env {json.dumps(result['env'], sort_keys=True)}")
    for name in ["setup_s", *EXTRA_UNITS]:
        print(f"   {name:<16} {e2e[name]:>14.6g} {units.get(name, EXTRA_UNITS.get(name))}")
    if trace:
        print(f"   {result['traced_passes']} traced passes")
        for m in spec["per_layer"]:
            print(f"   {m['name']:<48} {result['per_layer'][m['name']]:>14.6g} {m['unit']}")
    for line in result["failures"]:
        print(f"   {line}")


def main():
    ap = argparse.ArgumentParser(description="repliq benchmark (see the module docstring)")
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs; checks the plumbing only")
    args = ap.parse_args()
    start = perf_counter()

    if not (ROOT / "src" / "repliq" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repliq sources under {ROOT / 'src'}")
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    OUT.mkdir(exist_ok=True)
    env = {**os.environ, **BLAS_CAP}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    results = []
    for workload in names:
        result = run_workload(args, workload, env, start + DEADLINE_S * len(names))
        report(result, spec, args.trace)
        results.append(result)

    def metrics(result, prefix=""):
        values = result["per_layer"] if args.trace else result["end_to_end"]
        return {prefix + m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in metric_specs}

    if len(results) == 1:
        merged = metrics(results[0])
    else:
        merged = {k: v for r in results for k, v in metrics(r, r["workload"] + ".").items()}
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": merged,
    }))


if __name__ == "__main__":
    main()
