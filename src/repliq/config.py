"""Experiment configuration files.

Plain ``key = value`` lines with ``#`` comments.  Distribution and policy
literals follow the grammars in :mod:`repliq.distributions` and
:mod:`repliq.policies`; every number in them, and in ``delta``, ``lambdas``
and ``sweep``, may be arithmetic such as ``1/2``.  A single sweep axis
substitutes ``$name`` inside any literal, so one config regenerates a whole
figure's worth of rows.  A ``start:stop:step`` range gives at most
``_MAX_RANGE_POINTS`` points, none repeated at 12 decimals.  The bound
command reads servers and delta alone: the server mix decides which
bounds apply.

Example::

    servers = det(2), finite([(1,1-$p),(20,$p)])
    delta   = 0
    policies = norep; fullrep; adarep:{1->2:inf, 2->1:1}
    mode    = saturated
    jobs    = 100000
    seed    = 7
    sweep   = p: 0.05:0.5:0.05
"""

import hashlib
import math
from dataclasses import dataclass

from .distributions import parse_number, parse_servers
from .engine import SystemConfig
from .errors import ConfigError
from .policies import UpfrontRep, parse_policy

_KNOWN_KEYS = {
    "servers",
    "delta",
    "policies",
    "mode",
    "lambdas",
    "jobs",
    "runs",
    "seed",
    "sweep",
    "out",
}

_CHOICES = {"mode": ("saturated", "poisson")}

_MAX_RANGE_POINTS = 10_000  # the largest shipped sweep has 20 points


@dataclass
class ExperimentConfig:
    servers_raw: str
    delta_raw: str = "0"
    policies_raw: tuple = ()
    mode: str = "saturated"
    lambdas: tuple = ()
    jobs: int = 100_000
    runs: int = 1
    seed: int = 0
    sweep_name: str = ""
    sweep_values: tuple = ()
    out: str = ""
    digest: str = ""

    def sweep_points(self):
        if not self.sweep_name:
            return [None]
        return list(self.sweep_values)

    def _subst(self, text, point):
        if point is None:
            return text
        return text.replace(f"${self.sweep_name}", repr(point))

    def policy_specs(self, point):
        """Policy literals with the sweep variable substituted, unparsed."""
        return [self._subst(p, point) for p in self.policies_raw]

    def materialize_system(self, point):
        try:
            servers = parse_servers(self._subst(self.servers_raw, point))
            delta = parse_number(self._subst(self.delta_raw, point))
            return SystemConfig(servers=servers, delta=delta)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def materialize(self, point):
        """(SystemConfig, policies) for one sweep point."""
        system = self.materialize_system(point)
        try:
            policies = tuple(parse_policy(p) for p in self.policy_specs(point))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for policy in policies:
            # an upfront partition covers every server; adarep's pairs name
            # only servers the system has
            if (
                isinstance(policy, UpfrontRep) and policy.partition.k != system.k
                or any(max(o, t) >= system.k for o, t, _ in getattr(policy, "thresholds", ()))
            ):
                raise ConfigError(f"policy {policy.spec()} does not fit {system.k} servers")
        return system, policies


def parse_config(text: str, overrides=None) -> ExperimentConfig:
    """The config of text.  overrides maps a key to a value string that
    replaces the file's: it is checked as the file's values are, and the
    digest stays the file's own."""
    values = {}
    first_line = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().lower()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: key {key!r} repeats line {first_line[key]}")
        values[key] = val.strip()
        first_line[key] = lineno

    if "servers" not in values:
        raise ConfigError("config must define servers")
    cfg = ExperimentConfig(
        servers_raw=values["servers"],
        digest=hashlib.sha256(repr(sorted(values.items())).encode()).hexdigest()[:12],
    )
    values.update(overrides or {})
    if "delta" in values:
        cfg.delta_raw = values["delta"]
    if "policies" in values:
        cfg.policies_raw = tuple(
            p.strip() for p in values["policies"].split(";") if p.strip()
        )
    for key, allowed in _CHOICES.items():
        choice = values.get(key, getattr(cfg, key)).lower()
        if choice not in allowed:
            raise ConfigError(f"{key} must be {'/'.join(allowed)}, got {choice!r}")
        setattr(cfg, key, choice)
    if "lambdas" in values:
        cfg.lambdas = tuple(_parse_number_list(values["lambdas"]))
        for lam in cfg.lambdas:
            if not 0 < lam < math.inf:
                raise ConfigError(f"every lambda must be finite and > 0, got {lam}")
    for key in ("jobs", "runs", "seed"):
        if key in values:
            try:
                setattr(cfg, key, int(values[key]))
            except ValueError as exc:
                raise ConfigError(f"{key} must be an integer: {exc}") from exc
    for key, least in (("jobs", 1), ("runs", 1), ("seed", 0)):
        if getattr(cfg, key) < least:
            raise ConfigError(f"{key} must be >= {least}, got {getattr(cfg, key)}")
    if "sweep" in values:
        name, _, vals = values["sweep"].partition(":")
        if not vals:
            raise ConfigError("sweep must look like 'name: v1, v2' or 'name: a:b:step'")
        cfg.sweep_name = name.strip()
        if not cfg.sweep_name:
            raise ConfigError(f"sweep {values['sweep']!r} has no name")
        cfg.sweep_values = tuple(_parse_number_list(vals))
        if not cfg.sweep_values:
            raise ConfigError(f"sweep {values['sweep']!r} has no values")
        if any(math.isnan(v) for v in cfg.sweep_values):  # substituted, "nan" is no literal
            raise ConfigError(f"sweep {values['sweep']!r} has a nan value")
    if "out" in values:
        cfg.out = values["out"]
    if (cfg.mode == "poisson") != bool(cfg.lambdas):  # lambdas would be ignored
        raise ConfigError("lambdas need poisson mode" if cfg.lambdas else "poisson mode needs a lambdas list")
    cfg.materialize_system(cfg.sweep_points()[0])  # fail fast on bad literals
    return cfg


def _parse_number_list(text: str):
    text = text.strip()
    try:
        if text.count(":") != 2:
            return [parse_number(x) for x in text.split(",") if x.strip()]
        start, stop, step = (parse_number(x) for x in text.split(":"))
    except ValueError as exc:
        raise ConfigError(f"bad number list {text!r}: {exc}") from exc
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ConfigError(f"range ends and step must be finite, got {text!r}")
    if step <= 0:
        raise ConfigError(f"sweep step must be > 0, got {step}")
    span = (stop - start) / step + 1e-9  # whole steps past start; inf if it overflows
    if span >= _MAX_RANGE_POINTS:
        raise ConfigError(f"range {text!r} has more than {_MAX_RANGE_POINTS} points")
    points = [round(start + i * step, 12) for i in range(math.floor(span) + 1)]
    if len(set(points)) < len(points):
        raise ConfigError(f"range {text!r} repeats points at 12 decimals")
    return points
