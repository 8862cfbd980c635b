"""Experiment runner.

Subcommands: ``analytic`` (closed-form throughput tables), ``simulate``
(saturated or Poisson-arrival runs), ``bound`` (capacity upper bounds),
and ``mdp`` (solve the decision process and emit its policy table).

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
from .policies import parse_policy


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
        rows, fields = args.handler(cfg, args)
        lines = _lines(rows, axes[0], args.command, cfg) if axes else None
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RepliqError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    _write_csv(rows, fields, out)
    if axes:
        _write_gnuplot(args.gnuplot, out, *axes, lines)
    return 0


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
        p.add_argument("--seed", type=_seed, default=None)
        p.add_argument("--jobs", type=_count, default=None)
        p.add_argument("--runs", type=_count, default=None)
        p.add_argument("--paths", type=_paths, default=None)
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


def _count(text, least=1):
    value = int(text)
    if value < least:
        raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
    return value


def _paths(text):
    # a Monte-Carlo standard error needs two sample paths
    return _count(text, 2)


def _horizon(text):
    # event_trace replays a run up to a finite time
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def _seed(text):
    # numpy's SeedSequence takes non-negative integers only
    return _count(text, 0)


def _load_config(args) -> ExperimentConfig:
    with open(args.config, encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    for key in ("seed", "jobs", "runs", "paths"):
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    return cfg


def _base_row(cfg, point):
    row = {"config": cfg.digest, "version": __version__}
    if cfg.sweep_name:
        row[cfg.sweep_name] = point
    return row


_ANALYTIC_DEFAULT = ["norep", "fullrep"]  # the policies of an analytic config that lists none


def cmd_analytic(cfg: ExperimentConfig, args):
    fields = ["config", "version"]
    if cfg.sweep_name:
        fields.append(cfg.sweep_name)
    fields += ["policy", "params", "throughput", "error"]
    rows = []
    for point in cfg.sweep_points():
        system = cfg.materialize_system(point)
        specs = cfg.policy_specs(point) or _ANALYTIC_DEFAULT
        for spec in specs:
            row = _base_row(cfg, point)
            try:
                row.update(_analytic_row(spec, system))
            except (RepliqError, ValueError) as exc:  # ValueError: a malformed literal
                row.update(policy=spec, params="", throughput="", error=str(exc))
            rows.append(row)
    return rows, fields


def _analytic_row(spec, system):
    ds, delta = system.servers, system.delta
    head, _, arg = spec.partition(":")
    if arg.strip() and head in ("norep", "fullrep", "best-partition", "best-r"):
        raise ValueError(f"unknown argument {arg.strip()!r} in policy literal {spec!r}")
    if head == "norep":
        rep = analytic.throughput_norep(ds)
    elif head == "fullrep":
        rep = analytic.throughput_fullrep(ds, delta)
    elif head == "upfront":
        policy = parse_policy(spec)
        rep = analytic.throughput_upfront(policy.partition, ds, delta)
    elif head == "best-partition":
        _, rep = analytic.best_partition(ds, delta)
    elif head == "best-r":
        if len(set(ds)) != 1:
            raise ConfigError("best-r needs identical servers")
        hom = analytic.best_homogeneous_r(ds[0], delta, len(ds))
        return dict(
            policy="best-r",
            params=f"r*={hom.r_star};achievable={hom.achievable_exactly}",
            throughput=_num(hom.bound),
            error="",
        )
    else:
        raise ConfigError(f"policy {spec!r} has no closed-form throughput")
    return dict(policy=rep.policy, params=rep.params, throughput=_num(rep.value), error="")


def cmd_simulate(cfg: ExperimentConfig, args):
    fields = ["config", "version"]
    if cfg.sweep_name:
        fields.append(cfg.sweep_name)
    fields += [
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
    ]
    rows = []
    for point in cfg.sweep_points():
        system, policies = cfg.materialize(point)
        if not policies:
            raise ConfigError("simulate needs a policies list")
        if getattr(args, "trace", ""):
            lam = cfg.lambdas[0] if cfg.mode == "poisson" else 0.0
            _write_trace(args.trace, system, policies[0], args.horizon, cfg.seed, lam)
            args.trace = ""  # first run only
        for policy in policies:
            if cfg.mode == "saturated":
                results = [engine.run_saturated(system, policy, cfg.jobs, cfg.seed)]
            else:
                results = [
                    engine.run_poisson(system, policy, lam, cfg.jobs, cfg.runs, cfg.seed)
                    for lam in cfg.lambdas
                ]
            for res in results:
                row = _base_row(cfg, point)
                row.update(
                    policy=res.policy,
                    params=res.params,
                    **{"lambda": "sat" if res.mode == "saturated" else _num(res.lam)},
                    n_jobs=res.n_jobs,
                    seed=res.seed,
                    throughput=_num(res.throughput),
                    mean_C=_num(res.mean_computing) if res.mode == "saturated" else "",
                    mean_response=_num(res.mean_response) if res.mode == "poisson" else "",
                    stderr=_num(
                        res.throughput_stderr
                        if res.mode == "saturated"
                        else res.response_stderr
                    ),
                    unstable=int(res.unstable),
                )
                rows.append(row)
    return rows, fields


def cmd_bound(cfg: ExperimentConfig, args):
    fields = ["config", "version"]
    if cfg.sweep_name:
        fields.append(cfg.sweep_name)
    fields += ["kind", "bound", "optimizer", "stderr", "error"]
    rows = []
    for point in cfg.sweep_points():
        system, _ = cfg.materialize(point)
        ds, delta = system.servers, system.delta
        kinds = _bound_kinds(cfg, ds)
        for kind in kinds:
            row = _base_row(cfg, point)
            row["kind"] = kind
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
                row.update(bound=_num(rep.value), optimizer=opt, stderr=_num(rep.stderr), error="")
            except RepliqError as exc:
                row.update(bound="", optimizer="", stderr="", error=str(exc))
            rows.append(row)
    return rows, fields


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


def cmd_mdp(cfg: ExperimentConfig, args):
    fields = ["config", "version", "item", "state", "action", "value"]
    rows = []
    for point in cfg.sweep_points():
        system, _ = cfg.materialize(point)
        try:
            kernel = mdp.build_mdp(system.servers, system.delta)
        except ValueError as exc:  # a law the decision process cannot take
            raise ConfigError(str(exc)) from exc
        solution = mdp.solve_average_cost(kernel)
        row = _base_row(cfg, point)
        row.update(
            item="gain",
            state="",
            action="",
            value=f"gain={solution.gain!r};throughput={solution.throughput!r}"
            f";states={kernel.n_states};method={solution.method}",
        )
        rows.append(row)
        for state_str, action in mdp.policy_rows(kernel, solution):
            row = _base_row(cfg, point)
            row.update(item="policy", state=state_str, action=action, value="")
            rows.append(row)
    return rows, fields


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
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k, "") for k in fields})
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


def _lines(rows, x, command, cfg):
    """One plot line per series of a table: (title, first row, row stride,
    last row).  A series is a policy (analytic, simulate, and per lambda
    under a poisson sweep) or a bound kind.  The commands write each sweep
    point's rows together, series by series; a poisson table with no sweep
    writes each policy's lambdas together."""
    if x == "lambda":
        size = len(cfg.lambdas)
        spans = [(first, 1, first + size - 1) for first in range(0, len(rows), size)]
    else:
        size = len(rows) // len(cfg.sweep_values)
        spans = [(first, size, len(rows) - size + first) for first in range(size)]
    out = []
    for first, stride, last in spans:
        row = rows[first]
        if command == "analytic":  # the row's policy column names the best partition found
            title = (cfg.policies_raw or _ANALYTIC_DEFAULT)[first]
        elif command == "bound":
            title = row["kind"]
            # the kinds that apply can change along the sweep
            if size * len(cfg.sweep_values) != len(rows) or any(
                r["kind"] != title for r in rows[first : last + 1 : stride]
            ):
                raise ConfigError("--gnuplot needs the same bound kinds at every sweep point")
        else:
            title = f"{row['policy']}:{row['params']}" if row["params"] else row["policy"]
            if x != "lambda" and cfg.mode == "poisson":
                title += f" lambda={row['lambda']}"
        out.append((title, first, stride, last))
    return out


if __name__ == "__main__":
    sys.exit(main())
