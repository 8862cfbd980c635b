"""Golden answers: the shipped configs give the recorded CSVs byte for byte
below the ``# generated`` line, so a speed-up that moves a single bit fails
here.  A change that means to move an answer regenerates the file it moves,
with the command of its entry in GOLDEN, for example

    PYTHONPATH=src python -m repliq simulate --config experiments/response_time.cfg \\
        --jobs 3000 --runs 3 --out tests/golden/response_time.csv

and names every changed file and value in CHANGES.md.

The event traces under ``golden/traces/`` pin the simulator's event order
itself (starts, departures, cancellation-window ends, arrivals) on the
cases where replicated copies are cancelled: six servers with a
cancellation delay, the 0.1 lattice, Poisson arrivals with δ = 1,
Poisson upfront groups, whose idle servers used to be offered again at
the ends of cancelled copies, Poisson MaxRate and a zero-threshold
adarep, whose scans are replayed from the run's table, and the solved
policy of ``experiments/mdp_lattice.cfg`` replayed on its 0.1 lattice
(``lattice_tabular``).
``PYTHONPATH=src python tests/test_golden.py`` rewrites them."""

import math
import pathlib

import pytest

from repliq.cli import main
from repliq.config import parse_config
from repliq.distributions import parse_distribution
from repliq.engine import SystemConfig, event_trace
from repliq.mdp import as_tabular_policy, build_mdp, solve_average_cost
from repliq.policies import FullRep, MaxRate, parse_policy

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
TRACE_DIR = GOLDEN_DIR / "traces"

SIMULATE = ["simulate", "--jobs", "3000", "--runs", "3"]
GOLDEN = {
    "example1_simulate": SIMULATE,
    "homog_k6_simulate": SIMULATE,
    "maxrate_p_sweep": SIMULATE,
    "response_time": SIMULATE,
    "mdp_k5_identical": ["mdp"],
}


def _body(data):
    head, _, body = data.partition(b"\n")
    assert head.startswith(b"# generated"), head
    return body


def test_every_golden_file_has_a_config():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.csv")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_config_reproduces_its_golden_file(tmp_path, name):
    command, *flags = GOLDEN[name]
    out = tmp_path / f"{name}.csv"
    config = ROOT / "experiments" / f"{name}.cfg"
    assert main([command, "--config", str(config), *flags, "--out", str(out)]) == 0
    expected = (GOLDEN_DIR / f"{name}.csv").read_bytes()
    assert _body(out.read_bytes()) == _body(expected)


def _trace_cases():
    """name -> (system, policy, lam, horizon, seed) of every pinned trace."""
    cfg = parse_config((ROOT / "experiments" / "homog_k6_simulate.cfg").read_text())
    system, policies = cfg.materialize(None)
    cases = {f"homog_k6_{p.name}": (system, p, 0.0, 15.0, cfg.seed) for p in policies}
    lattice = tuple(map(parse_distribution, ("det(0.3)", "finite([(0.1,0.7),(1.7,0.3)])")))
    cases["lattice_fullrep"] = (SystemConfig(lattice, 0.1), FullRep(), 0.0, 20.0, 5)
    example = tuple(map(parse_distribution, ("det(2)", "finite([(1,0.9),(20,0.1)])")))
    adarep = parse_policy("adarep:{1->2:inf, 2->1:1}")
    cases["example_poisson_adarep"] = (SystemConfig(example, 1.0), adarep, 0.5, 600.0, 5)
    # one DEPART per launch: no idle server is offered again at the end of
    # a group's losing copy
    upfront = parse_policy("upfront:[[1,2],[3]]")
    example3 = example + example[1:]
    cases["example_poisson_upfront"] = (SystemConfig(example3, 0.0), upfront, 0.5, 400.0, 5)
    # scans answered from the run's table: every MaxRate offer of a Poisson
    # run, and a zero-threshold adarep that replicates a job started earlier
    # in the same scan
    cases["example_poisson_maxrate"] = (SystemConfig(example, 0.0), MaxRate(), 0.5, 400.0, 5)
    adarep_zero = parse_policy("adarep:{1->2:0, 2->1:0}")
    cases["example_adarep_zero"] = (SystemConfig(example, 0.0), adarep_zero, 0.0, 400.0, 5)
    # the solved policy of mdp_lattice.cfg: multi-server refill plans, each
    # group's copies snapped to the 0.1 lattice
    system = parse_config((ROOT / "experiments" / "mdp_lattice.cfg").read_text()).materialize_system(None)
    kernel = build_mdp(system.servers, system.delta)
    tabular = as_tabular_policy(kernel, solve_average_cost(kernel))
    cases["lattice_tabular"] = (system, tabular, 0.0, 20.0, 5)
    return cases


TRACES = _trace_cases()


def _trace_text(name):
    system, policy, lam, horizon, seed = TRACES[name]
    rows = event_trace(system, policy, horizon, seed, lam)
    return "".join(f"{t!r},{ev},{job},{server},{detail!r}\n" for t, ev, job, server, detail in rows)


def test_every_trace_file_has_a_case():
    assert sorted(p.stem for p in TRACE_DIR.glob("*.csv")) == sorted(TRACES)


@pytest.mark.parametrize("name", sorted(TRACES))
def test_event_trace_reproduces_its_golden_file(name):
    assert _trace_text(name) == (TRACE_DIR / f"{name}.csv").read_text()


def _check_bookkeeping(rows, k, delta, horizon, lam):
    """The event rows of a run keep the engine's books: every job starts
    after it arrives and departs once, with as many copies as it started;
    with delta > 0 a job of two or more copies ends one cancellation window
    per copy, delta after it departs; and no server starts a copy while it
    runs one or cancels.  Jobs still running at the horizon have not departed."""
    copies = {}  # job -> servers in start order
    arrived, departed = set(), set()
    running = {}  # server -> job
    cancelling = {}  # server -> (job, end of its window)
    for t, ev, job, server, detail in rows:
        if ev == "start":
            assert 0 <= server < k and server not in running and server not in cancelling
            assert job not in departed and (job in arrived or not lam)
            running[server] = job
            copies.setdefault(job, []).append(server)
            assert detail == len(copies[job])
        elif ev == "depart":
            assert job not in departed and server in copies[job]
            departed.add(job)
            assert detail == len(copies[job])
            for s in copies[job]:
                assert running.pop(s) == job
                if delta > 0 and detail >= 2:
                    cancelling[s] = (job, t + delta)
        elif ev == "cancel_end":
            end_job, end = cancelling.pop(server)
            assert job == end_job and math.isclose(t, end, rel_tol=1e-12) and detail == delta
        else:
            arrived.add(job)
    assert departed and set(copies) == departed | set(running.values())
    # a window still open at the horizon ends past it
    assert all(end > horizon for _, end in cancelling.values())


BOOKKEEPING = dict(
    TRACES,
    poisson_upfront_delay=(
        SystemConfig(TRACES["example_poisson_upfront"][0].servers, 0.5),
        parse_policy("upfront:[[1,2],[3]]"),
        0.6,
        400.0,
        11,
    ),
)


@pytest.mark.parametrize("name", sorted(BOOKKEEPING))
def test_event_rows_keep_the_books(name):
    system, policy, lam, horizon, seed = BOOKKEEPING[name]
    rows = event_trace(system, policy, horizon, seed, lam)
    _check_bookkeeping(rows, system.k, system.delta, horizon, lam)


if __name__ == "__main__":
    TRACE_DIR.mkdir(exist_ok=True)
    for name in TRACES:
        (TRACE_DIR / f"{name}.csv").write_text(_trace_text(name))
