"""Trace shims for the benchmark's traced pass.

Coarse calls (each op, and the pass around them) become spans: name,
start, end, parent span and op id.  Hot calls (``decide``, ``sample``,
``sample_array``, ``min_expectation``, ``product_tail_integral``,
``instantaneous_rate``, ``homogeneous_cost``, ``adarep_pause_throughput``)
are aggregated under their enclosing span into calls, total ns, ns spent
outside any other hot call ("top" ns, used for self time) and one extra
count (decisions that launched work, or draws).  Spans stay in memory and
are written out when the run ends.

repliq modules import with ``from .distributions import ...``, so a shim
replaces the name in every module that looks it up.  Installing is one-way:
the traced passes run last in their process.
"""

import functools
from contextlib import contextmanager
from time import perf_counter_ns

POLICY_CLASSES = ("NoRep", "FullRep", "UpfrontRep", "MaxRate", "AdaRep", "TabularPolicy")
SAMPLED_LAWS = (("Deterministic", "det"), ("FiniteSupport", "finite"), ("HyperExp", "hyperexp"))


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._hot_depth = 0

    @contextmanager
    def span(self, name, op_id=None):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "op": op_id,
            "start_ns": perf_counter_ns(),
            "end_ns": None,
            "hot": {},
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end_ns"] = perf_counter_ns()
            self._stack.pop()

    def wrap(self, fn, name, extra=None):
        """Shim ``fn``; ``name`` is a string or a function of (args, kwargs),
        ``extra`` a function of (args, kwargs, result) giving the extra count."""
        label = name if callable(name) else (lambda args, kwargs: name)

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            top = self._hot_depth == 0
            self._hot_depth += 1
            out = None
            start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                ns = perf_counter_ns() - start
                self._hot_depth -= 1
                if self._stack:
                    agg = self._stack[-1]["hot"].setdefault(label(args, kwargs), [0, 0, 0, 0])
                    agg[0] += 1
                    agg[1] += ns
                    if top:
                        agg[2] += ns
                    if extra is not None and out is not None:
                        agg[3] += extra(args, kwargs, out)

        return shim

    def install(self):
        from repliq import analytic, bounds, distributions, policies
        import repliq

        for cls_name in POLICY_CLASSES:
            cls = getattr(policies, cls_name)
            cls.decide = self.wrap(cls.decide, f"policies.decide.{cls.name}", _acted)
        for cls_name, tag in SAMPLED_LAWS:
            cls = getattr(distributions, cls_name)
            cls.sample = self.wrap(cls.sample, f"distributions.sample.{tag}")
            cls.sample_array = self.wrap(cls.sample_array, "distributions.sample_array", _draws)
        modules = (repliq, distributions, policies, bounds, analytic)
        for home, attr, name in (
            (distributions, "min_expectation", "distributions.min_expectation"),
            (distributions, "product_tail_integral", _integral_path),
            (policies, "instantaneous_rate", "policies.instantaneous_rate"),
            (bounds, "homogeneous_cost", _cost_estimator),
            (bounds, "adarep_pause_throughput", "bounds.adarep_pause_throughput"),
        ):
            original = getattr(home, attr)
            shim = self.wrap(original, name)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, shim)

    def dump(self):
        """Spans with their duration and self time (duration minus child
        spans and top-level hot calls)."""
        child_ns = {}
        for rec in self.spans:
            if rec["parent"] is not None:
                child_ns[rec["parent"]] = child_ns.get(rec["parent"], 0) + _duration(rec)
        out = []
        for rec in self.spans:
            dur = _duration(rec)
            hot_top = sum(agg[2] for agg in rec["hot"].values())
            out.append(
                {
                    "id": rec["id"],
                    "name": rec["name"],
                    "parent": rec["parent"],
                    "op": rec["op"],
                    "start_ns": rec["start_ns"],
                    "end_ns": rec["end_ns"],
                    "self_ns": dur - child_ns.get(rec["id"], 0) - hot_top,
                    "hot": {
                        name: {"calls": a[0], "ns": a[1], "top_ns": a[2], "extra": a[3]}
                        for name, a in sorted(rec["hot"].items())
                    },
                }
            )
        return out


def _duration(rec):
    return rec["end_ns"] - rec["start_ns"]


def _acted(args, kwargs, decision):
    return decision.kind != "wait"


def _draws(args, kwargs, out):
    return len(out)


def _integral_path(args, kwargs):
    """The path product_tail_integral takes: exact for purely atomic
    components, closed form when all are exponential, quadrature otherwise."""
    from repliq.distributions import Exponential, Shifted

    comps = args[0] if args else kwargs["components"]
    laws = []
    for d, _, _ in comps:
        while isinstance(d, Shifted):
            d = d.inner
        laws.append(d)
    if all(d._atoms() is not None for d in laws):
        path = "atomic"
    elif all(isinstance(d, Exponential) for d in laws):
        path = "exponential"
    else:
        path = "quadrature"
    return f"distributions.product_tail_integral.{path}"


def _cost_estimator(args, kwargs):
    estimator = args[3] if len(args) > 3 else kwargs.get("estimator", "exact")
    return f"bounds.homogeneous_cost.{estimator}"
