"""Service-time distribution algebra.

Every throughput formula in the toolkit consumes the same handful of
quantities: the mean, the tail P(X > x), the truncated mean E[min(X, t)],
the residual law (X - t | X > t), and expectations of minima of independent
service times.  This module provides them in closed form per variant.
Integrals of products of tails are exact for atomic laws, exponential
mixtures (exp, shiftexp, hyperexp and their residuals) and any mix of them:
between atoms and offsets the product is a constant times a finite sum of
exponentials, summed in one segment sweep.  Quadrature is kept for Pareto.

scipy is imported in one place, where it runs: ``scipy.integrate.quad``
inside ``product_tail_integral``'s quadrature fallback (products with a
Pareto law).  ``HyperExp.quantile`` finds its root with ``_brentq``,
a port of ``scipy.optimize.brentq`` that returns the same bits, and the
bounds refine their start times with ``_golden``, a golden-section search.
Importing repliq loads numpy alone, and so do the closed forms, the simulator,
the MDP and the bounds on any mix of atomic laws and exponential mixtures.

Every law has a positive mean.  Conventions: tail(x) = P(X > x) and equals 1
for any x below the support; ``float('inf')`` is an admissible threshold/age
everywhere it makes sense.
"""

import ast
import bisect
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import BracketError, InfiniteMeanError, NoConvergenceError, ZeroSupportError

INF = float("inf")

_QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-11, limit=400)


class ServiceDistribution:
    """Immutable law of one server's service time; safe to share across threads."""

    __slots__ = ()

    def mean(self) -> float:
        raise NotImplementedError

    def tail(self, x: float) -> float:
        """P(X > x)."""
        raise NotImplementedError

    def truncated_mean(self, t: float) -> float:
        """E[min(X, t)] = integral of the tail over [0, t]."""
        raise NotImplementedError

    def quantile(self, p: float) -> float:
        """Smallest x with P(X <= x) >= p; ValueError unless p is in [0, 1)."""
        if not 0.0 <= p < 1.0:
            raise ValueError(f"quantile needs p in [0, 1), got {p}")
        return self._quantile(p)

    def _quantile(self, p: float) -> float:
        raise NotImplementedError

    def _tail_inverse(self, s: float) -> float:
        """Smallest x with tail(x) <= s, for s in (0, 1]."""
        return self._quantile(1.0 - s)

    def residual(self, t: float) -> "ServiceDistribution":
        """Law of (X - t) given X > t; raises ZeroSupportError if tail(t) = 0."""
        if t == 0:
            return self
        if self.tail(t) <= 0.0:
            raise ZeroSupportError(f"no mass beyond t={t} for {self}")
        return self._residual(t)

    def _residual(self, t: float) -> "ServiceDistribution":
        return Residual(self, t)

    def sample(self, rng) -> float:
        """One draw by inverse transform; deterministic given the generator state."""
        return self._quantile(rng.random())

    def sample_array(self, rng, n: int) -> np.ndarray:
        return np.array([self.sample(rng) for _ in range(n)])

    # -- integration protocol -------------------------------------------------
    # _support_upper: sup of the support (inf when unbounded).
    # _breakpoints: x values where the tail jumps or kinks.
    # _decay: ("exp",) | ("poly", alpha) asymptotic tail class, read only
    #   for unbounded support.
    # _atoms: [(value, prob), ...] for purely atomic laws, else None.
    # _phases: [(weight, rate), ...] for mixtures of exponentials, else None.

    def _support_upper(self) -> float:
        return INF

    def _breakpoints(self) -> tuple:
        return ()

    def _decay(self) -> tuple:
        return ("exp",)

    def _atoms(self):
        return None

    def _phases(self):
        return None


@dataclass(frozen=True)
class Deterministic(ServiceDistribution):
    """Constant positive service time."""

    value: float

    def __post_init__(self):
        if not 0 < self.value < INF:
            raise ValueError(f"deterministic value must be finite and > 0, got {self.value}")

    def mean(self):
        return self.value

    def tail(self, x):
        return 1.0 if x < self.value else 0.0

    def truncated_mean(self, t):
        return min(self.value, t)

    def _quantile(self, p):
        return self.value

    def _residual(self, t):
        return Deterministic(self.value - t)

    def sample_array(self, rng, n):
        return np.full(n, self.value)

    def _support_upper(self):
        return self.value

    def _breakpoints(self):
        return (self.value,)

    def _atoms(self):
        return ((self.value, 1.0),)

    def __str__(self):
        return f"det({_fmt(self.value)})"


@dataclass(frozen=True)
class Exponential(ServiceDistribution):
    """Memoryless service time with the given rate."""

    rate: float

    def __post_init__(self):
        if not 0 < self.rate < INF:
            raise ValueError(f"rate must be finite and > 0, got {self.rate}")

    def mean(self):
        return 1.0 / self.rate

    def tail(self, x):
        if x <= 0:
            return 1.0
        return math.exp(-self.rate * x)

    def truncated_mean(self, t):
        if t == INF:
            return self.mean()
        return -math.expm1(-self.rate * t) / self.rate

    def _quantile(self, p):
        return -math.log1p(-p) / self.rate

    def _residual(self, t):
        return self

    def sample_array(self, rng, n):
        return -np.log1p(-rng.random(n)) / self.rate

    def _phases(self):
        return ((1.0, self.rate),)

    def __str__(self):
        return f"exp({_fmt(self.rate)})"


@dataclass(frozen=True)
class Shifted(ServiceDistribution):
    """A fixed delay followed by the inner service time."""

    shift: float
    inner: ServiceDistribution

    def __post_init__(self):
        if not 0 <= self.shift < INF:
            raise ValueError(f"shift must be finite and >= 0, got {self.shift}")

    def mean(self):
        return self.shift + self.inner.mean()

    def tail(self, x):
        return self.inner.tail(x - self.shift)

    def truncated_mean(self, t):
        if t <= self.shift:
            return t
        return self.shift + self.inner.truncated_mean(t - self.shift)

    def _quantile(self, p):
        return self.shift + self.inner._quantile(p)

    def _residual(self, t):
        if t < self.shift:
            return Shifted(self.shift - t, self.inner)
        return self.inner.residual(t - self.shift)

    def sample_array(self, rng, n):
        return self.shift + self.inner.sample_array(rng, n)

    def _support_upper(self):
        return self.shift + self.inner._support_upper()

    def _breakpoints(self):
        return (self.shift,) + tuple(self.shift + b for b in self.inner._breakpoints())

    def _decay(self):
        return self.inner._decay()

    def _atoms(self):
        inner = self.inner._atoms()
        if inner is None:
            return None
        return tuple((self.shift + v, p) for v, p in inner)

    def __str__(self):
        if isinstance(self.inner, Exponential):
            return f"shiftexp({_fmt(self.shift)},{_fmt(self.inner.rate)})"
        return f"shift({_fmt(self.shift)}, {self.inner})"


@dataclass(frozen=True)
class HyperExp(ServiceDistribution):
    """Mixture of two exponentials: rate2 with probability p2, else rate1."""

    rate1: float
    rate2: float
    p2: float

    def __post_init__(self):
        if not (0 < self.rate1 < INF and 0 < self.rate2 < INF):
            raise ValueError("hyperexponential rates must be finite and > 0")
        if not 0.0 <= self.p2 <= 1.0:
            raise ValueError(f"p2 must be in [0, 1], got {self.p2}")

    def mean(self):
        return (1.0 - self.p2) / self.rate1 + self.p2 / self.rate2

    def tail(self, x):
        if x <= 0:
            return 1.0
        return (1.0 - self.p2) * math.exp(-self.rate1 * x) + self.p2 * math.exp(
            -self.rate2 * x
        )

    def truncated_mean(self, t):
        if t == INF:
            return self.mean()
        return (1.0 - self.p2) * -math.expm1(-self.rate1 * t) / self.rate1 + (
            self.p2 * -math.expm1(-self.rate2 * t) / self.rate2
        )

    def _quantile(self, p):
        if p <= 0:
            return 0.0
        target = 1.0 - p
        hi = 1.0
        while self.tail(hi) > target:
            hi *= 2.0
        return _brentq(lambda x: self.tail(x) - target, 0.0, hi, xtol=1e-13, rtol=1e-13)

    def _residual(self, t):
        # conditioning re-weights the mixture; each branch stays memoryless
        tail = self.tail(t)
        p2 = self.p2 * math.exp(-self.rate2 * t) / tail
        return HyperExp(self.rate1, self.rate2, min(1.0, max(0.0, p2)))

    def sample_array(self, rng, n):
        branch = rng.random(n) < self.p2
        u = rng.random(n)
        rates = np.where(branch, self.rate2, self.rate1)
        return -np.log1p(-u) / rates

    def _phases(self):
        return ((1.0 - self.p2, self.rate1), (self.p2, self.rate2))

    def __str__(self):
        return f"hyperexp({_fmt(self.rate1)},{_fmt(self.rate2)},{_fmt(self.p2)})"


@dataclass(frozen=True)
class Pareto(ServiceDistribution):
    """Heavy-tailed law with minimum xm and shape alpha; mean exists iff alpha > 1."""

    xm: float
    alpha: float

    def __post_init__(self):
        if not 0 < self.xm < INF:
            raise ValueError(f"scale xm must be finite and > 0, got {self.xm}")
        if not 0 < self.alpha < INF:
            raise ValueError(f"shape alpha must be finite and > 0, got {self.alpha}")

    def mean(self):
        if self.alpha <= 1.0:
            raise InfiniteMeanError(f"{self} has no finite mean (alpha <= 1)")
        return self.alpha * self.xm / (self.alpha - 1.0)

    def tail(self, x):
        if x <= self.xm:
            return 1.0
        return (self.xm / x) ** self.alpha

    def truncated_mean(self, t):
        if t == INF:
            return self.mean()
        if t <= self.xm:
            return t
        if self.alpha == 1.0:
            return self.xm * (1.0 + math.log(t / self.xm))
        a = self.alpha
        return self.xm + self.xm**a * (t ** (1.0 - a) - self.xm ** (1.0 - a)) / (1.0 - a)

    def _quantile(self, p):
        return self.xm * (1.0 - p) ** (-1.0 / self.alpha)

    def _tail_inverse(self, s):
        return self.xm * s ** (-1.0 / self.alpha)

    def sample_array(self, rng, n):
        return self.xm * (1.0 - rng.random(n)) ** (-1.0 / self.alpha)

    def _breakpoints(self):
        return (self.xm,)

    def _decay(self):
        return ("poly", self.alpha)

    def __str__(self):
        return f"pareto({_fmt(self.xm)},{_fmt(self.alpha)})"


@dataclass(frozen=True)
class FiniteSupport(ServiceDistribution):
    """Law on finitely many nonnegative atoms with a positive mean."""

    atoms: tuple

    def __post_init__(self):
        atoms = tuple(sorted((float(v), float(p)) for v, p in self.atoms if p != 0))
        if not atoms:
            raise ValueError("finite-support law needs at least one atom")
        values = [v for v, _ in atoms]
        if len(set(values)) != len(values):
            raise ValueError(f"atom values must be distinct, got {values}")
        if any(not 0 <= v < INF for v in values):
            raise ValueError(f"atom values must be finite and >= 0, got {values}")
        if any(not 0 < p <= 1 for _, p in atoms):
            raise ValueError("atom probabilities must be in (0, 1]")
        total = math.fsum(p for _, p in atoms)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"atom probabilities must sum to 1, got {total}")
        object.__setattr__(self, "atoms", atoms)
        if self.mean() == 0.0:
            raise ValueError(f"finite-support law needs a positive mean, got atoms {values}")
        object.__setattr__(self, "_values", tuple(values))
        cum = np.cumsum([p for _, p in atoms])
        cum[-1] = 1.0
        object.__setattr__(self, "_cum", cum)

    def mean(self):
        return math.fsum(v * p for v, p in self.atoms)

    def tail(self, x):
        # mass strictly above x
        i = bisect.bisect_right(self._values, x)
        return math.fsum(p for _, p in self.atoms[i:])

    def truncated_mean(self, t):
        return math.fsum(min(v, t) * p for v, p in self.atoms)

    def _quantile(self, p):
        i = int(np.searchsorted(self._cum, p, side="right"))
        return self._values[min(i, len(self._values) - 1)]

    def _residual(self, t):
        tail = self.tail(t)
        return FiniteSupport(
            tuple((v - t, p / tail) for v, p in self.atoms if v > t)
        )

    def sample_array(self, rng, n):
        idx = np.searchsorted(self._cum, rng.random(n), side="right")
        return np.asarray(self._values)[np.minimum(idx, len(self._values) - 1)]

    def _support_upper(self):
        return self._values[-1]

    def _breakpoints(self):
        return self._values

    def _atoms(self):
        return self.atoms

    def __str__(self):
        inner = ",".join(f"({_fmt(v)},{_fmt(p)})" for v, p in self.atoms)
        return f"finite([{inner}])"


@dataclass(frozen=True)
class Residual(ServiceDistribution):
    """Tail-ratio wrapper for residual laws with no closed-form variant.

    tail(x) = base.tail(age + x) / base.tail(age), exactly.
    """

    base: ServiceDistribution
    age: float

    def __post_init__(self):
        if not self.age >= 0:
            raise ValueError(f"age must be >= 0, got {self.age}")
        object.__setattr__(self, "_tail_at_age", self.base.tail(self.age))
        if self._tail_at_age <= 0:
            raise ZeroSupportError(f"no mass beyond t={self.age} for {self.base}")

    def mean(self):
        return (self.base.mean() - self.base.truncated_mean(self.age)) / self._tail_at_age

    def tail(self, x):
        if x <= 0:
            return 1.0
        return self.base.tail(self.age + x) / self._tail_at_age

    def truncated_mean(self, t):
        if t == INF:
            return self.mean()
        top = self.base.truncated_mean(self.age + t) - self.base.truncated_mean(self.age)
        return top / self._tail_at_age

    def _quantile(self, p):
        # invert the base tail at tail(age)·(1 − p): forming 1 − tail(age)·(1 − p)
        # would round to 1 once the tail at the age is below about 1e-16; the
        # clamp catches rounding below the support's start at large ages
        return max(0.0, self.base._tail_inverse(self._tail_at_age * (1.0 - p)) - self.age)

    def _residual(self, t):
        return self.base.residual(self.age + t)

    def _support_upper(self):
        return self.base._support_upper() - self.age

    def _breakpoints(self):
        return tuple(b - self.age for b in self.base._breakpoints() if b > self.age)

    def _decay(self):
        return self.base._decay()

    def __str__(self):
        return f"residual({self.base}, {_fmt(self.age)})"


def _brentq(f, a, b, xtol, rtol, maxiter=100):
    """Root of f between a and b by Brent's method: scipy's brentq.c step for
    step, the same float operations in the same order, so it returns the bits
    of ``scipy.optimize.brentq`` without importing scipy.  Raises BracketError
    when f(a) and f(b) share a sign, NoConvergenceError after maxiter steps."""
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return float(xpre)
    if fcur == 0:
        return float(xcur)
    if (fpre < 0) == (fcur < 0):
        raise BracketError(f"f(a) = {fpre} and f(b) = {fcur} have the same sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return float(xcur)
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C's step is inf or nan: it fails the test below
                stry = math.nan
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise NoConvergenceError(f"brentq did not converge in {maxiter} iterations (x = {xcur})")


def _golden(f, a, b, tol):
    """(x, f(x)) of least f among the points a golden-section search (Brent,
    Algorithms for Minimization without Derivatives, 1973) evaluates in
    shrinking [a, b] to width tol: the minimum when f is unimodal there."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return (c, fc) if fc <= fd else (d, fd)


def _fmt(x: float) -> str:
    if x == INF:
        return "inf"
    if x == int(x):
        return str(int(x))
    return repr(x)


def _check_delta(delta):
    """The one rule for a cancellation delay, wherever one is given."""
    if not 0 <= delta < INF:
        raise ValueError(f"cancellation delay must be finite and >= 0, got {delta}")


# ---------------------------------------------------------------------------
# The time lattice of an atomic mix.

_GRID = 10**6  # lattice values are read in units of 1e-6


@lru_cache(maxsize=256)
def _lattice_step(dists, delta=0.0):
    """Largest step g, a Fraction, of which every atom of every law in the
    tuple dists and the delay delta are whole multiples: their gcd in units
    of 1e-6.  None when a law is not atomic, a value lies more than 1e-9
    off the 1e-6 grid, or a positive value rounds to no unit of it (a step
    of 0 counts no time).

    The decision process counts time in ticks of g, the tabular policy
    reads its observations in ticks, and a saturated run on a lattice whose
    g is no binary fraction snaps its event times to multiples of g.
    """
    values = [delta]
    for d in dists:
        atoms = d._atoms()
        if atoms is None:
            return None
        values += [v for v, _ in atoms]
    g = 0
    for v in values:
        scaled = v * _GRID
        units = round(scaled)
        if abs(scaled - units) > 1e-3 or (v > 0 and units == 0):
            return None
        g = math.gcd(g, units)
    return Fraction(g, _GRID)


def _ticks(x, step):
    """The whole number of steps (a float step, from _lattice_step) nearest x."""
    return round(x / step)


def _time_of(ticks, step):
    """The time spanned by a whole number of ticks of step (a Fraction): the
    float nearest to it, as int true division rounds correctly."""
    return int(ticks) * step.numerator / step.denominator


def _snap(step):
    """The function taking a time to the float nearest its multiple of step
    (a Fraction, from _lattice_step); None for no step or a binary one."""
    if step is None or float(step) == step:
        return None
    g = float(step)
    return lambda time: _time_of(_ticks(time, g), step)


# ---------------------------------------------------------------------------
# Expectations of minima via the integral of the product of tails.


def min_expectation(ds) -> float:
    """E[min over the given laws] = integral over [0, inf) of the product of tails.

    Exact for any mix of atomic laws and exponential mixtures (exp,
    shiftexp, hyperexp); adaptive quadrature (relative error ~1e-9) once a
    Pareto law is among them.
    """
    ds = list(ds)
    if not ds:
        raise ValueError("min_expectation needs at least one distribution")
    return product_tail_integral([(d, 0.0, 1) for d in ds], lower=0.0)


def product_tail_integral(components, lower: float = 0.0) -> float:
    """Integral over [lower, inf) of the product over components of
    tail_i(x - offset_i) ** power_i.

    ``components`` is an iterable of (distribution, offset, power).  This is
    the workhorse behind minima expectations and expected overshoots
    E[(min_k(X_k + o_k) - a)^+].  Exact for any mix of atomic and
    exponential-mixture tails; quadrature once a Pareto law is among them.
    """
    comps = _normalize_components(components)
    upper = min(off + d._support_upper() for d, off, _ in comps)
    if upper <= lower:
        return 0.0

    exact = _exact_integral(comps, lower, upper)
    if exact is not None:
        return exact

    from scipy.integrate import quad

    def f(x):
        out = 1.0
        for d, off, pw in comps:
            t = d.tail(x - off)
            if t == 0.0:
                return 0.0
            out *= t**pw
        return out

    breakpoints = sorted(
        {off + b for d, off, _ in comps for b in d._breakpoints()}
        | {off for _, off, _ in comps if off > lower}
    )
    if upper < INF:
        pts = [b for b in breakpoints if lower < b < upper]
        val, _ = quad(f, lower, upper, points=pts or None, **_QUAD_OPTS)
        return val

    decays = [d._decay() for d, _, _ in comps]
    has_exp = any(dec[0] == "exp" for dec in decays)
    if not has_exp:
        total_alpha = sum(dec[1] * pw for dec, (_, _, pw) in zip(decays, comps))
        if total_alpha <= 1.0 + 1e-12:
            raise InfiniteMeanError(
                f"product tail decays like x^-{total_alpha:g}; integral diverges"
            )

    base = max([lower, 1.0] + breakpoints + [off for _, off, _ in comps])
    if has_exp:
        cut = base if base > 0 else 1.0
        while f(cut) > 1e-17 and cut < 1e12:
            cut *= 2.0
        pts = [b for b in breakpoints if lower < b < cut]
        val, _ = quad(f, lower, cut, points=pts or None, **_QUAD_OPTS)
        if f(cut) <= 1e-17:
            return val
    else:
        cut = 4.0 * base + 1.0
        pts = [b for b in breakpoints if lower < b < cut]
        val, _ = quad(f, lower, cut, points=pts or None, **_QUAD_OPTS)
    # remainder via x = cut/u, mapping [cut, inf) to (0, 1]
    rem, _ = quad(lambda u: f(cut / u) * cut / (u * u), 0.0, 1.0, **_QUAD_OPTS)
    return val + rem


def _normalize_components(components):
    """Unwrap shift layers into offsets and merge duplicate components."""
    merged = {}
    for d, off, pw in components:
        while isinstance(d, Shifted):
            off = off + d.shift
            d = d.inner
        key = (d, off)
        merged[key] = merged.get(key, 0) + pw
    return [(d, off, pw) for (d, off), pw in merged.items()]


def _exact_integral(comps, lower, upper):
    # Between edges (lower, upper, atom points, mixture offsets) the product
    # is a constant from the atomic tails times a sum of exponentials from the
    # mixtures.  Atoms are placed at off + v itself (a - off may fall one ulp
    # short of v: 1.0 - 0.9 < 0.1); phase weights are taken at the segment
    # start, so no exp(rate * offset) is formed.  None if a component has
    # neither atoms nor phases (Pareto): it has no closed form.
    steps, mixes, edges = [], [], {lower, upper}
    for d, off, pw in comps:
        atoms = d._atoms()
        if atoms is not None:
            at = [off + v for v, _ in atoms]
            tails = [math.fsum(p for _, p in atoms[i:]) for i in range(len(atoms) + 1)]
            steps.append((at, tails, pw))
            edges.update(at)
        elif (phases := d._phases()) is not None:
            mixes.append((phases, off, pw))
            edges.add(off)
        else:
            return None
    points = sorted([x for x in edges if lower <= x <= upper])
    total = 0.0
    for a, b in zip(points, points[1:]):
        prod = 1.0
        for at, tails, pw in steps:
            prod *= tails[bisect.bisect_right(at, a)] ** pw
        live = mixes and [m for m in mixes if m[1] <= a]
        if not live:
            total += (b - a) * prod
            continue
        terms = {0.0: prod}  # total rate -> coefficient
        for phases, off, pw in live:
            phases = [(w * math.exp(-r * (a - off)), r) for w, r in phases]
            for _ in range(pw):
                grown = {}
                for rate, coef in terms.items():
                    for w, r in phases:
                        grown[rate + r] = grown.get(rate + r, 0.0) + coef * w
                terms = grown
        for rate, coef in terms.items():
            total += coef * (1.0 if b == INF else -math.expm1(-rate * (b - a))) / rate
    return total


# ---------------------------------------------------------------------------
# Literal grammar used in config files: det(2), exp(1), shiftexp(0.5,1),
# hyperexp(0.5,0.1,0.4), pareto(0.5,1.2), finite([(1,0.9),(20,0.1)]),
# shift(0.5, exp(1)).

_CONSTRUCTORS = {
    "det": lambda c: Deterministic(c),
    "exp": lambda rate: Exponential(rate),
    "shiftexp": lambda shift, rate: Shifted(shift, Exponential(rate)),
    "hyperexp": lambda r1, r2, p2: HyperExp(r1, r2, p2),
    "pareto": lambda xm, alpha: Pareto(xm, alpha),
    "finite": lambda atoms: FiniteSupport(tuple(atoms)),
    "shift": lambda c, inner: Shifted(c, inner),
}

_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}


def parse_distribution(text: str) -> ServiceDistribution:
    """Parse a distribution literal; raises ValueError on anything else."""
    value = _eval_literal(text, "distribution")
    if not isinstance(value, ServiceDistribution):
        raise ValueError(f"{text!r} is not a distribution literal")
    return value


def parse_servers(text: str) -> tuple:
    """Parse a comma-separated list of distribution literals, such as a
    config's servers line; raises ValueError on anything else."""
    value = _eval_literal(text, "servers")
    laws = value if isinstance(value, list) else [value]
    if not laws or not all(isinstance(d, ServiceDistribution) for d in laws):
        raise ValueError(f"{text!r} is not a list of distribution literals")
    return tuple(laws)


def parse_number(text: str) -> float:
    """Parse arithmetic on numbers and inf, such as ``1/2``; raises
    ValueError on anything else."""
    value = _eval_literal(text, "number")
    if not isinstance(value, float):
        raise ValueError(f"{text!r} is not a number literal")
    return value


def _eval_literal(text, what):
    # arithmetic faults (1/0, 10**400) are bad input like any other
    try:
        return _eval_node(ast.parse(text.strip(), mode="eval").body)
    except (SyntaxError, TypeError, KeyError, ValueError, ArithmeticError) as exc:
        raise ValueError(f"bad {what} literal {text!r}: {exc}") from exc


def _eval_node(node):
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _CONSTRUCTORS:
            raise ValueError(f"unknown constructor {ast.dump(node.func)}")
        args = [_eval_node(a) for a in node.args]
        return _CONSTRUCTORS[node.func.id](*args)
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return float(node.value)
    if isinstance(node, ast.Name) and node.id == "inf":
        return INF
    if isinstance(node, (ast.List, ast.Tuple)):
        return [_eval_node(e) for e in node.elts]
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return _BINOPS[type(node.op)](_eval_node(node.left), _eval_node(node.right))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        v = _eval_node(node.operand)
        return -v if isinstance(node.op, ast.USub) else v
    raise ValueError(f"unsupported syntax: {ast.dump(node)}")
