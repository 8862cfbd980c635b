"""Experiment configuration files.

Plain ``key = value`` lines with ``#`` comments.  Distribution and policy
literals follow the grammars in :mod:`repliq.distributions` and
:mod:`repliq.policies`.  A single sweep axis substitutes ``$name`` inside
any literal, so one config regenerates a whole figure's worth of rows.

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

from .distributions import parse_distribution, parse_number
from .engine import SystemConfig
from .errors import ConfigError
from .policies import parse_policy

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
    "bound",
    "estimator",
    "paths",
    "out",
}


@dataclass
class ExperimentConfig:
    servers_raw: tuple
    delta_raw: str = "0"
    policies_raw: tuple = ()
    mode: str = "saturated"
    lambdas: tuple = ()
    jobs: int = 100_000
    runs: int = 1
    seed: int = 0
    sweep_name: str = ""
    sweep_values: tuple = ()
    bound: str = "auto"
    estimator: str = "exact"
    paths: int = 100_000
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
            servers = tuple(
                parse_distribution(self._subst(s, point)) for s in self.servers_raw
            )
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
        return system, policies


def parse_config(text: str) -> ExperimentConfig:
    values = {}
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
        values[key] = val.strip()

    if "servers" not in values:
        raise ConfigError("config must define servers")
    cfg = ExperimentConfig(
        servers_raw=tuple(split_top_level(values["servers"])),
        digest=hashlib.sha256(repr(sorted(values.items())).encode()).hexdigest()[:12],
    )
    if not cfg.servers_raw:
        raise ConfigError("servers list is empty")
    if "delta" in values:
        cfg.delta_raw = values["delta"]
    if "policies" in values:
        cfg.policies_raw = tuple(
            p.strip() for p in values["policies"].split(";") if p.strip()
        )
    if "mode" in values:
        mode = values["mode"].lower()
        if mode not in ("saturated", "poisson"):
            raise ConfigError(f"mode must be saturated or poisson, got {mode!r}")
        cfg.mode = mode
    if "lambdas" in values:
        cfg.lambdas = tuple(_parse_number_list(values["lambdas"]))
        for lam in cfg.lambdas:
            if not 0 < lam < math.inf:
                raise ConfigError(f"every lambda must be finite and > 0, got {lam}")
    for key in ("jobs", "runs", "seed", "paths"):
        if key in values:
            try:
                setattr(cfg, key, int(values[key]))
            except ValueError as exc:
                raise ConfigError(f"{key} must be an integer: {exc}") from exc
    for key, least in (("jobs", 1), ("runs", 1), ("paths", 2), ("seed", 0)):
        if getattr(cfg, key) < least:
            raise ConfigError(f"{key} must be >= {least}, got {getattr(cfg, key)}")
    if "sweep" in values:
        name, _, vals = values["sweep"].partition(":")
        if not vals:
            raise ConfigError("sweep must look like 'name: v1, v2' or 'name: a:b:step'")
        cfg.sweep_name = name.strip()
        cfg.sweep_values = tuple(_parse_number_list(vals))
        if not cfg.sweep_values:
            raise ConfigError(f"sweep {values['sweep']!r} has no values")
    if "bound" in values:
        kind = values["bound"].lower()
        if kind not in ("auto", "pause", "homogeneous", "both"):
            raise ConfigError(f"bound must be auto/pause/homogeneous/both, got {kind!r}")
        cfg.bound = kind
    if "estimator" in values:
        est = values["estimator"].lower()
        if est not in ("exact", "monte-carlo"):
            raise ConfigError(f"estimator must be exact or monte-carlo, got {est!r}")
        cfg.estimator = est
    if "out" in values:
        cfg.out = values["out"]
    if cfg.mode == "poisson" and not cfg.lambdas:
        raise ConfigError("poisson mode needs a lambdas list")
    cfg.materialize_system(cfg.sweep_points()[0])  # fail fast on bad literals
    return cfg


def split_top_level(text: str, sep: str = ","):
    """Split on sep outside any brackets (literals contain their own commas)."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
    return [p for p in parts if p]


def _parse_number_list(text: str):
    text = text.strip()
    try:
        if text.count(":") != 2:
            return [float(x) for x in text.split(",") if x.strip()]
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError as exc:
        raise ConfigError(f"bad number list {text!r}: {exc}") from exc
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ConfigError(f"range ends and step must be finite, got {text!r}")
    if step <= 0:
        raise ConfigError(f"sweep step must be > 0, got {step}")
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [round(start + i * step, 12) for i in range(n)]
