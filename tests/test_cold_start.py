"""Cold start: importing repliq, and every computation that has a closed form
or runs in repliq's own code, loads numpy and not scipy.  scipy is imported
by the quadrature fallback of product_tail_integral alone, on its first
call, and gives the same numbers there as in a process that loaded it up
front.  HyperExp.quantile, and with it the default start-time grid of
homogeneous_bound on hyperexp laws, runs without scipy, and so do minima
of an atomic law beside an exponential mixture."""

import json
import os
import pathlib
import subprocess
import sys

import repliq
from repliq import bounds
from repliq.distributions import Deterministic, HyperExp, Pareto, min_expectation

SRC = str(pathlib.Path(repliq.__file__).resolve().parent.parent)

CHILD = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import repliq
from repliq import analytic, bounds, mdp
from repliq.distributions import Deterministic, FiniteSupport, HyperExp, Pareto, min_expectation
from repliq.engine import SystemConfig, run_saturated
from repliq.policies import MaxRate

loaded = {"import": scipy_modules()}
ds = (Deterministic(2.0), FiniteSupport(((1.0, 0.9), (20.0, 0.1))))
analytic.throughput_norep(ds)
analytic.throughput_fullrep(ds)
config = SystemConfig(ds, 0.0)
run_saturated(config, MaxRate(), 2000, seed=0)
kernel = mdp.build_mdp(ds, 0.0)
tabular = mdp.as_tabular_policy(kernel, mdp.solve_average_cost(kernel))
run_saturated(config, tabular, 2000, seed=0)
bounds.optimize_pause_bound(*ds)
homog = bounds.homogeneous_bound(HyperExp(0.6, 0.2, 0.4), 0.1, 3)
quantile = HyperExp(0.6, 0.2, 0.4).quantile(0.5)
mixed = (Deterministic(2.0), HyperExp(0.6, 0.2, 0.4))
mixed_min = min_expectation(mixed)
mixed_pause = bounds.optimize_pause_bound(*mixed, 0.1)
run_saturated(SystemConfig(mixed, 0.0), MaxRate(), 500, seed=0)
loaded["computations"] = scipy_modules()
pareto_min = min_expectation([Pareto(1.0, 2.5)])
loaded["on_demand"] = scipy_modules()
print(json.dumps({"loaded": loaded, "quantile": repr(quantile), "homog": repr(homog),
                  "pareto_min": repr(pareto_min), "mixed_min": repr(mixed_min),
                  "mixed_pause": repr(mixed_pause.value)}))
"""


def run_child(code):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_scipy_loads_only_where_it_runs():
    out = json.loads(run_child(CHILD).splitlines()[-1])
    assert out["loaded"]["import"] == []
    assert out["loaded"]["computations"] == []
    assert "scipy.integrate" in out["loaded"]["on_demand"]
    # repr round-trips a float, so == here is == on the bits
    assert float(out["quantile"]) == HyperExp(0.6, 0.2, 0.4).quantile(0.5)
    assert out["homog"] == repr(bounds.homogeneous_bound(HyperExp(0.6, 0.2, 0.4), 0.1, 3))
    assert float(out["pareto_min"]) == min_expectation([Pareto(1.0, 2.5)])
    mixed = (Deterministic(2.0), HyperExp(0.6, 0.2, 0.4))
    assert float(out["mixed_min"]) == min_expectation(mixed)
    assert float(out["mixed_pause"]) == bounds.optimize_pause_bound(*mixed, 0.1).value
