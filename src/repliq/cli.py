"""Experiment runner.

Subcommands: ``analytic`` (closed-form throughput tables), ``simulate``
(saturated or Poisson-arrival runs), ``bound`` (capacity upper bounds),
and ``mdp`` (solve the decision process and emit its policy table).

All four share one table pipeline.  A subcommand gives the rows of one
sweep point, each as (series key, title, row) with the command's own
columns; ``_table`` runs it at every sweep point and puts the config
digest, version and sweep value in front of every row, so a sweep may not
share a name with a column.  ``--gnuplot`` draws one line per series key,
titled by the series' first row.

A command takes a flag for each config key it reads and a run may vary:
``simulate`` takes ``--seed/--jobs/--runs`` and ``bound`` takes
``--seed/--paths`` (``_OVERRIDES``).  A flag's value replaces the file's
and goes through the same checks, so a bad one is a config error, but the
``config`` column keeps the digest of the file itself.

Every CSV starts with a ``# generated`` timestamp line; everything after
it is a deterministic function of the config and seed.  Exit codes:
0 success, 2 config error, 3 numeric error.
"""

import argparse
import csv
import io
import math
import sys
from datetime import datetime, timezone

from . import __version__, analytic, bounds, engine, mdp
from .config import ExperimentConfig, parse_config
from .errors import ConfigError, RepliqError
from .policies import FullRep, NoRep, UpfrontRep, parse_policy


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        out = args.out or cfg.out
        axes = None
        if getattr(args, "gnuplot", ""):
            if not out:
                raise ConfigError("--gnuplot plots a CSV file: give --out or set out in the config")
            axes = _plot_axes(args.command, cfg)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        fields, table = _table(args, cfg)
        lines = _lines(table, cfg) if axes else None
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RepliqError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    _write_csv([row for _, _, row in table], fields, out)
    if axes:
        _write_gnuplot(args.gnuplot, out, *axes, lines)
    return 0


# the config keys each command reads that a flag of the same name replaces
_OVERRIDES = {"simulate": ("seed", "jobs", "runs"), "bound": ("seed", "paths")}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="repliq",
        description="Throughput, bounds, and simulations for replication queues.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, doc in (
        ("analytic", cmd_analytic, "closed-form throughput tables"),
        ("simulate", cmd_simulate, "saturated or Poisson simulation runs"),
        ("bound", cmd_bound, "service-capacity upper bounds"),
        ("mdp", cmd_mdp, "solve the replication decision process"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="experiment config path")
        p.add_argument("--out", default="", help="CSV output path (default stdout)")
        for key in _OVERRIDES.get(name, ()):
            p.add_argument(f"--{key}", help=f"replaces the config's {key}")
        if name != "mdp":  # the policy table has no y column to plot
            p.add_argument("--gnuplot", default="", help="also emit a gnuplot script")
        if name == "simulate":
            p.add_argument(
                "--trace",
                default="",
                help="write the event log of the first run (up to --horizon) here",
            )
            p.add_argument("--horizon", type=_horizon, default=100.0)
        p.set_defaults(handler=handler)
    return parser


def _horizon(text):
    # event_trace replays a run up to a finite time
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def _load_config(args) -> ExperimentConfig:
    keys = _OVERRIDES.get(args.command, ())
    overrides = {key: getattr(args, key) for key in keys if getattr(args, key) is not None}
    with open(args.config, encoding="utf-8") as fh:
        return parse_config(fh.read(), overrides)


_ANALYTIC_DEFAULT = ["norep", "fullrep"]  # the policies of an analytic config that lists none

# each command's own columns, after config, version and the sweep column
_COLUMNS = {
    "analytic": ["policy", "params", "throughput", "error"],
    "simulate": [
        "policy",
        "params",
        "lambda",
        "n_jobs",
        "seed",
        "throughput",
        "mean_C",
        "mean_response",
        "stderr",
        "unstable",
    ],
    "bound": ["kind", "bound", "optimizer", "stderr", "error"],
    "mdp": ["item", "state", "action", "value"],
}


def _table(args, cfg):
    """(header, rows) of the command's table.  Each row is (series key,
    title, CSV row): the command gives one sweep point's rows, and the
    config digest, version and sweep value go in front of every one."""
    columns = _COLUMNS[args.command]
    if cfg.sweep_name in ("config", "version", *columns):
        raise ConfigError(f"sweep {cfg.sweep_name!r} names a column of the {args.command} table")
    header = ["config", "version", cfg.sweep_name] if cfg.sweep_name else ["config", "version"]
    rows = []
    for point in cfg.sweep_points():
        lead = {"config": cfg.digest, "version": __version__}
        if cfg.sweep_name:
            lead[cfg.sweep_name] = point
        for key, title, row in args.handler(cfg, args, point):
            rows.append((key, title, {**lead, **row}))
    return header + columns, rows


def cmd_analytic(cfg: ExperimentConfig, args, point):
    """One row per policy literal, a line per position titled as the config writes it."""
    system = cfg.materialize_system(point)
    literals = cfg.policies_raw or _ANALYTIC_DEFAULT
    for i, (literal, spec) in enumerate(zip(literals, cfg.policy_specs(point) or literals)):
        try:
            row = _analytic_row(spec, system)
        except (RepliqError, ValueError) as exc:  # ValueError: a malformed literal
            row = dict(policy=spec, error=str(exc))
        yield i, literal, row


def _analytic_row(spec, system):
    ds, delta = system.servers, system.delta
    head, _, arg = spec.partition(":")
    head = head.strip().lower()  # as parse_policy reads the simulator's heads
    if head in ("best-partition", "best-r") and arg.strip():
        raise ValueError(f"unknown argument {arg.strip()!r} in policy literal {spec!r}")
    if head == "best-partition":
        _, rep = analytic.best_partition(ds, delta)
    elif head == "best-r":
        if len(set(ds)) != 1:
            raise ConfigError("best-r needs identical servers")
        hom = analytic.best_homogeneous_r(ds[0], delta, len(ds))
        params = f"r*={hom.r_star};achievable={hom.achievable_exactly}"
        return dict(policy="best-r", params=params, throughput=_num(hom.bound))
    else:
        policy = parse_policy(spec)
        if isinstance(policy, NoRep):
            rep = analytic.throughput_norep(ds)
        elif isinstance(policy, FullRep):
            rep = analytic.throughput_fullrep(ds, delta)
        elif isinstance(policy, UpfrontRep):
            rep = analytic.throughput_upfront(policy.partition, ds, delta)
        else:
            raise ConfigError(f"policy {spec!r} has no closed-form throughput")
    return dict(policy=rep.policy, params=rep.params, throughput=_num(rep.value))


def cmd_simulate(cfg: ExperimentConfig, args, point):
    """One row per policy (and lambda), a line per policy (and lambda under
    a poisson sweep) titled policy:params."""
    system, policies = cfg.materialize(point)
    if not policies:
        raise ConfigError("simulate needs a policies list")
    poisson = cfg.mode == "poisson"
    if args.trace and point == cfg.sweep_points()[0]:  # the first run only
        lam = cfg.lambdas[0] if poisson else 0.0
        _write_trace(args.trace, system, policies[0], args.horizon, cfg.seed, lam)
    for i, policy in enumerate(policies):
        for j, lam in enumerate(cfg.lambdas if poisson else [None]):
            if poisson:
                res = engine.run_poisson(system, policy, lam, cfg.jobs, cfg.runs, cfg.seed)
            else:
                res = engine.run_saturated(system, policy, cfg.jobs, cfg.seed)
            row = dict(
                policy=res.policy,
                params=res.params,
                **{"lambda": _num(res.lam) if poisson else "sat"},
                n_jobs=res.n_jobs,
                seed=res.seed,
                throughput=_num(res.throughput),
                mean_C="" if poisson else _num(res.mean_computing),
                mean_response=_num(res.mean_response) if poisson else "",
                stderr=_num(res.response_stderr if poisson else res.throughput_stderr),
                unstable=int(res.unstable),
            )
            title = f"{res.policy}:{res.params}" if res.params else res.policy
            if poisson and cfg.sweep_name:
                yield (i, j), f"{title} lambda={row['lambda']}", row
            else:
                yield i, title, row


def cmd_bound(cfg: ExperimentConfig, args, point):
    """One row per bound kind that applies, a line per kind."""
    system, _ = cfg.materialize(point)
    ds, delta = system.servers, system.delta
    for kind in _bound_kinds(cfg, ds):
        try:
            if kind == "pause":
                rep = bounds.optimize_pause_bound(ds[0], ds[1], delta)
                opt = f"t12={_num(rep.optimizer[0])};t21={_num(rep.optimizer[1])}"
            else:
                rep = bounds.homogeneous_bound(
                    ds[0],
                    delta,
                    len(ds),
                    estimator=cfg.estimator,
                    n_paths=cfg.paths,
                    seed=cfg.seed,
                )
                opt = ";".join(_num(t) for t in rep.optimizer)
            row = dict(kind=kind, bound=_num(rep.value), optimizer=opt, stderr=_num(rep.stderr))
        except RepliqError as exc:
            row = dict(kind=kind, error=str(exc))
        yield kind, kind, row


def _bound_kinds(cfg, ds):
    if cfg.bound == "pause" or (cfg.bound == "auto" and len(ds) == 2):
        if len(ds) != 2:
            raise ConfigError("the pause-and-replicate bound needs exactly 2 servers")
        return ["pause"]
    if cfg.bound in ("homogeneous", "auto"):
        if len(set(ds)) != 1:
            raise ConfigError("the homogeneous bound needs identical servers")
        return ["homogeneous"]
    kinds = []
    if len(ds) == 2:
        kinds.append("pause")
    if len(set(ds)) == 1:
        kinds.append("homogeneous")
    if not kinds:
        raise ConfigError("no applicable bound for this server mix")
    return kinds


def cmd_mdp(cfg: ExperimentConfig, args, point):
    """The gain row, then one row per state of the solved policy; no plot lines."""
    system, _ = cfg.materialize(point)
    try:
        kernel = mdp.build_mdp(system.servers, system.delta)
    except ValueError as exc:  # a law the decision process cannot take
        raise ConfigError(str(exc)) from exc
    solution = mdp.solve_average_cost(kernel)
    value = (
        f"gain={solution.gain!r};throughput={solution.throughput!r}"
        f";states={kernel.n_states};method={solution.method}"
    )
    yield None, None, dict(item="gain", value=value)
    for state_str, action in mdp.policy_rows(kernel, solution):
        yield None, None, dict(item="policy", state=state_str, action=action)


def _write_trace(path, system, policy, horizon, seed, lam):
    rows = engine.event_trace(system, policy, horizon, seed, lam)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("time,event,job_id,server,detail\n")
        for t, ev, job, server, detail in rows:
            fh.write(f"{t!r},{ev},{job},{server},{detail}\n")


def _num(x) -> str:
    # CSV cells keep the float repr (2.0, inf); literals use distributions._fmt (2)
    return repr(float(x))


def _write_csv(rows, fields, out_path):
    buf = io.StringIO()
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    buf.write(f"# generated {stamp}\n")
    writer = csv.DictWriter(buf, fieldnames=fields, restval="", lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    text = buf.getvalue()
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _plot_axes(command, cfg):
    """(x, y) columns of the --gnuplot script.  x is the sweep column, else
    lambda in poisson mode; a table with neither has no numeric x, so it
    is refused."""
    poisson = command == "simulate" and cfg.mode == "poisson"
    if not (cfg.sweep_name or poisson):
        raise ConfigError("--gnuplot needs a numeric x: a sweep, or poisson mode's lambdas")
    y = {"simulate": "mean_response" if poisson else "throughput", "bound": "bound"}
    return cfg.sweep_name or "lambda", y.get(command, "throughput")


def _write_gnuplot(path, csv_path, x, y, lines):
    """A gnuplot script of y against x in the CSV, one line per (title,
    first row, row stride, last row) of lines."""
    plots = [
        f"'{csv_path}' every {stride}::{first}::{last} using '{x}':'{y}'"
        f" with linespoints title '{title}'"
        for title, first, stride, last in lines
    ]
    script = (
        "set datafile separator ','\n"
        f"set xlabel '{x}'\nset ylabel '{y}'\nset key outside\n"
        "plot " + ", \\\n     ".join(plots) + "\n"
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(script)


def _lines(table, cfg):
    """One plot line per series of a table: (title, first row, row stride,
    last row), titled by the series' first row.  Each line needs one row
    per x value, evenly spaced: per sweep point, or per lambda of a poisson
    table with no sweep."""
    n = len(cfg.sweep_values) if cfg.sweep_name else len(cfg.lambdas)
    stride = len(table) // n if cfg.sweep_name else 1
    series = {}
    for i, (key, title, _) in enumerate(table):
        series.setdefault(key, (title, []))[1].append(i)
    lines = []
    for title, rows in series.values():
        # the bound kinds that apply can change along the sweep
        if rows != list(range(rows[0], rows[0] + n * stride, stride)):
            raise ConfigError(
                "--gnuplot needs one row per x value in each line:"
                " the same bound kinds at every sweep point"
            )
        lines.append((title, rows[0], stride, rows[-1]))
    return lines


if __name__ == "__main__":
    sys.exit(main())
