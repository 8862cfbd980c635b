import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from repliq.distributions import (
    Deterministic,
    Exponential,
    FiniteSupport,
    HyperExp,
    Pareto,
    Residual,
    Shifted,
    _brentq,
    _lattice_step,
    min_expectation,
    parse_distribution,
    product_tail_integral,
)
from repliq.errors import BracketError, InfiniteMeanError, NoConvergenceError, ZeroSupportError

INF = float("inf")

EXAMPLE_PAIR_ATOMS = ((1.0, 0.9), (20.0, 0.1))


def example_servers():
    return Deterministic(2.0), FiniteSupport(EXAMPLE_PAIR_ATOMS)


ALL_VARIANTS = [
    Deterministic(2.0),
    Exponential(1.3),
    Shifted(0.5, Exponential(1.0)),
    HyperExp(0.5, 0.1, 0.4),
    Pareto(0.5, 2.2),
    FiniteSupport(EXAMPLE_PAIR_ATOMS),
    FiniteSupport(((0.5, 0.25), (1.0, 0.25), (2.5, 0.5))),
]


class TestMean:
    def test_deterministic(self):
        assert Deterministic(2.0).mean() == 2.0

    def test_example_pair(self):
        _, d2 = example_servers()
        assert d2.mean() == pytest.approx(2.9, abs=1e-12)

    def test_pareto_closed_form_and_monte_carlo(self):
        d = Pareto(0.5, 2.0)
        assert d.mean() == pytest.approx(1.0, abs=1e-12)
        rng = np.random.default_rng(3)
        assert d.sample_array(rng, 10**6).mean() == pytest.approx(1.0, abs=0.01)

    def test_pareto_heavy_tail_raises(self):
        with pytest.raises(InfiniteMeanError):
            Pareto(0.5, 1.0).mean()
        with pytest.raises(InfiniteMeanError):
            Pareto(0.5, 0.8).mean()

    def test_shifted_adds(self):
        assert Shifted(0.5, Exponential(1.0)).mean() == pytest.approx(1.5)

    def test_hyperexp(self):
        d = HyperExp(0.5, 0.1, 0.4)
        assert d.mean() == pytest.approx(0.6 / 0.5 + 0.4 / 0.1)


class TestTail:
    def test_exponential_at_zero(self):
        assert Exponential(1.0).tail(0.0) == 1.0

    def test_finite_support_strictly_above(self):
        _, d2 = example_servers()
        assert d2.tail(1.0) == pytest.approx(0.1, abs=1e-15)
        assert d2.tail(0.999) == pytest.approx(1.0)
        assert d2.tail(20.0) == 0.0

    def test_pareto_closed_form_and_monte_carlo(self):
        d = Pareto(0.5, 1.2)
        assert d.tail(1.0) == pytest.approx(0.5**1.2, rel=1e-12)
        rng = np.random.default_rng(11)
        frac = (d.sample_array(rng, 10**6) > 1.0).mean()
        assert frac == pytest.approx(0.43527528164806206, abs=0.005)

    @pytest.mark.parametrize("d", ALL_VARIANTS)
    def test_nonincreasing_and_one_below_support(self, d):
        xs = np.linspace(0.0, 30.0, 200)
        tails = [d.tail(x) for x in xs]
        assert all(a >= b - 1e-12 for a, b in zip(tails, tails[1:]))
        assert d.tail(-1.0) == 1.0
        assert d.tail(0.0) == 1.0


class TestTruncatedMean:
    def test_deterministic(self):
        assert Deterministic(2.0).truncated_mean(1.0) == 1.0

    def test_example_pair_at_one(self):
        _, d2 = example_servers()
        assert d2.truncated_mean(1.0) == pytest.approx(1.0)

    def test_exponential_closed_form(self):
        assert Exponential(2.0).truncated_mean(0.5) == pytest.approx(
            0.31606027941427883, rel=1e-12
        )

    @pytest.mark.parametrize("d", ALL_VARIANTS)
    @pytest.mark.parametrize("t", [0.0, 0.3, 1.0, 2.0, 7.5])
    def test_matches_tail_integral(self, d, t):
        expected, _ = quad(d.tail, 0.0, t, limit=200, points=[x for x in (0.5, 1, 2, 2.5, 20) if x < t])
        assert d.truncated_mean(t) == pytest.approx(expected, abs=1e-8)

    def test_infinity_gives_mean(self):
        # to the bit: the general formula at t = inf is the mean's
        more = [
            HyperExp(0.5, 0.1, 0.0),
            HyperExp(0.5, 0.1, 1.0),
            Pareto(0.5, 2.2).residual(1.0),
            Shifted(0.5, HyperExp(0.5, 0.1, 0.4)),
        ]
        for d in ALL_VARIANTS + more:
            assert d.truncated_mean(INF) == d.mean(), d

    def test_infinity_with_infinite_mean_raises(self):
        with pytest.raises(InfiniteMeanError):
            Pareto(1.0, 0.9).truncated_mean(INF)


class TestResidual:
    def test_exponential_memoryless(self):
        d = Exponential(1.7)
        for t in (0.1, 1.0, 5.0):
            r = d.residual(t)
            assert r == d
            for x in np.linspace(0.1, 4.0, 10):
                assert r.tail(x) == pytest.approx(d.tail(t + x) / d.tail(t), rel=1e-12)

    def test_finite_support_single_surviving_atom(self):
        _, d2 = example_servers()
        r = d2.residual(1.0)
        assert isinstance(r, FiniteSupport)
        assert r.atoms == ((19.0, 1.0),)

    def test_deterministic(self):
        r = Deterministic(2.0).residual(1.0)
        assert r == Deterministic(1.0)

    def test_zero_support(self):
        with pytest.raises(ZeroSupportError):
            Deterministic(2.0).residual(2.0)
        with pytest.raises(ZeroSupportError):
            example_servers()[1].residual(20.0)

    def test_shifted_before_and_after_shift(self):
        d = Shifted(0.5, Exponential(1.0))
        assert d.residual(0.2) == Shifted(0.3, Exponential(1.0))
        assert d.residual(0.5) == Exponential(1.0)
        assert d.residual(1.5) == Exponential(1.0)

    def test_hyperexp_reweights(self):
        d = HyperExp(0.5, 0.1, 0.4)
        r = d.residual(2.0)
        assert isinstance(r, HyperExp)
        for x in np.linspace(0.1, 8.0, 10):
            assert r.tail(x) == pytest.approx(d.tail(2.0 + x) / d.tail(2.0), rel=1e-12)

    def test_generic_wrapper_tail_ratio(self):
        d = Pareto(0.5, 2.2)
        r = d.residual(1.5)
        assert isinstance(r, Residual)
        for x in np.linspace(0.1, 10.0, 10):
            assert r.tail(x) == pytest.approx(d.tail(1.5 + x) / d.tail(1.5), rel=1e-12)
        # residual of a residual composes ages
        rr = r.residual(0.5)
        assert rr.age == pytest.approx(2.0)

    @pytest.mark.parametrize("age", [1e6, 1e11])
    def test_pareto_residual_quantile_closed_form(self, age):
        # X - a given X > a is a((1 - p)^(-1/alpha) - 1) for a Pareto law with
        # xm <= a; at a = 1e11 the tail at the age, 3.2e-17, is below the
        # spacing of floats under 1
        r = Pareto(1.0, 1.5).residual(age)
        for p in (0.1, 0.1 + 1e-9, 0.5, 0.9, 0.99):
            want = age * math.expm1(-math.log1p(-p) / 1.5)
            assert r.quantile(p) == pytest.approx(want, rel=1e-12)
        assert r.quantile(0.1 + 1e-9) > r.quantile(0.1)
        assert r.quantile(0.0) == 0.0
        assert (r.sample_array(np.random.default_rng(3), 100) >= 0.0).all()

    @pytest.mark.parametrize("d", ALL_VARIANTS)
    @pytest.mark.parametrize("t", [0.25, 1.0, 1.9])
    def test_decomposition_identity(self, d, t):
        # E[X] = E[min(X, t)] + P(X > t) * E[X - t | X > t]
        tail = d.tail(t)
        if tail <= 0:
            return
        total = d.truncated_mean(t) + tail * d.residual(t).mean()
        assert total == pytest.approx(d.mean(), abs=1e-8)


class TestMinExpectation:
    def test_example_pair(self):
        d1, d2 = example_servers()
        assert min_expectation([d1, d2]) == pytest.approx(1.1, abs=1e-12)

    def test_iid_exponentials_exact(self):
        mu = 1.4
        for r in range(1, 6):
            assert min_expectation([Exponential(mu)] * r) == pytest.approx(
                1.0 / (r * mu), rel=1e-12
            )

    def test_two_deterministic(self):
        assert min_expectation([Deterministic(3.0), Deterministic(3.0)]) == 3.0

    def test_single_equals_mean(self):
        for d in ALL_VARIANTS:
            assert min_expectation([d]) == pytest.approx(d.mean(), rel=1e-9)

    def test_monotone_in_list_size(self):
        rng = np.random.default_rng(5)
        pool = ALL_VARIANTS
        for _ in range(20):
            ds = list(rng.choice(len(pool), size=4))
            chosen = [pool[i] for i in ds]
            values = [min_expectation(chosen[: r + 1]) for r in range(4)]
            assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_monte_carlo_cross_check_mixed(self):
        d1 = Shifted(0.5, Exponential(1.0))
        d2 = Pareto(0.5, 2.0)
        expected = min_expectation([d1, d2])
        rng = np.random.default_rng(17)
        n = 10**6
        draws = np.minimum(d1.sample_array(rng, n), d2.sample_array(rng, n))
        assert expected == pytest.approx(draws.mean(), abs=4 * draws.std() / math.sqrt(n))

    @pytest.mark.parametrize(
        "ds,expected",
        [
            ([Pareto(1.0, 2.5), FiniteSupport(((1.0, 0.5), (3.0, 0.5)))], 1.2691833034233748),
            (
                [Pareto(0.5, 2.2), Pareto(1.0, 3.0), FiniteSupport(((0.5, 0.25), (1.0, 0.25), (2.5, 0.5)))],
                0.7018335043631346,
            ),
            ([Pareto(0.5, 2.2), Shifted(0.5, FiniteSupport(EXAMPLE_PAIR_ATOMS))], 0.8158404139392684),
        ],
    )
    def test_pareto_beside_atoms_pins(self, ds, expected):
        # quadrature up to the end of the shortest atomic support, to the bit
        assert min_expectation(ds) == expected

    def test_heavy_tail_divergence(self):
        with pytest.raises(InfiniteMeanError):
            min_expectation([Pareto(0.5, 0.8)])
        with pytest.raises(InfiniteMeanError):
            min_expectation([Pareto(0.5, 0.4), Pareto(0.5, 0.4)])
        # two moderately heavy tails together are integrable
        assert min_expectation([Pareto(0.5, 0.7), Pareto(0.5, 0.7)]) > 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            min_expectation([])

    def test_offset_integral_matches_monte_carlo(self):
        # E[(min(X1, X2 + 1) - 0.5)^+] via the integral and via sampling
        d = Exponential(1.0)
        value = product_tail_integral([(d, 0.0, 1), (d, 1.0, 1)], lower=0.5)
        rng = np.random.default_rng(23)
        n = 10**6
        s = np.minimum(d.sample_array(rng, n), d.sample_array(rng, n) + 1.0)
        mc = np.maximum(s - 0.5, 0.0)
        assert value == pytest.approx(mc.mean(), abs=4 * mc.std() / math.sqrt(n))

    def test_shifted_atom_passes_at_its_own_point(self):
        # 0.9 + 0.1 is 1.0 in floats, but 1.0 - 0.9 falls one ulp below 0.1:
        # the shifted law's first atom must count as passed at 1.0
        inner = FiniteSupport(((0.1, 0.7), (1.7, 0.3)))
        ds = [Shifted(0.9, inner), inner]
        assert _enumerated_overshoot([(d, 0.0, 1) for d in ds], 0.0) == pytest.approx(0.433)
        assert min_expectation(ds) == pytest.approx(0.433, rel=1e-12)

    def test_atomic_offsets_on_decimal_lattices_match_enumeration(self):
        rng = random.Random(41)
        for _ in range(300):
            step = rng.choice([0.1, 0.05, 0.3])
            comps = []
            for _ in range(rng.randint(1, 3)):
                values = rng.sample(range(1, 25), rng.randint(1, 3))
                weights = [rng.random() + 0.1 for _ in values]
                atoms = [(v * step, w / sum(weights)) for v, w in zip(values, weights)]
                d = FiniteSupport(tuple(atoms)) if len(atoms) > 1 else Deterministic(atoms[0][0])
                if rng.random() < 0.5:
                    d = Shifted(rng.randint(0, 12) * step, d)
                comps.append((d, rng.randint(0, 12) * step, rng.randint(1, 2)))
            lower = rng.choice([0.0, rng.randint(0, 20) * step])
            expected = _enumerated_overshoot(comps, lower)
            assert product_tail_integral(comps, lower) == pytest.approx(expected, rel=1e-9, abs=1e-12)


def _enumerated_overshoot(comps, lower):
    """E[(min over copies of (X + offset) - lower)^+] by enumerating the
    atoms of every copy; a component of power r stands for r copies."""
    copies = [(d, off) for d, off, pw in comps for _ in range(pw)]
    total = []
    for outcome in itertools.product(*[d._atoms() for d, _ in copies]):
        prob = math.prod(p for _, p in outcome)
        first = min(off + v for (_, off), (v, _) in zip(copies, outcome))
        total.append(prob * max(first - lower, 0.0))
    return math.fsum(total)


def _random_mixture_case(rng):
    """Components mixing exp and hyperexp laws, some shifted, with offsets,
    powers 1-3 and a lower limit, all drawn from ``rng``."""
    comps = []
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.4:
            d = Exponential(rng.uniform(0.1, 3.0))
        else:
            p2 = rng.choice([0.0, 1.0, rng.random()])
            d = HyperExp(rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0), p2)
        if rng.random() < 0.3:
            d = Shifted(rng.uniform(0.0, 2.0), d)
        comps.append((d, rng.choice([0.0, rng.uniform(0.0, 3.0)]), rng.randint(1, 3)))
    return comps, rng.choice([0.0, rng.uniform(0.0, 4.0)])


class TestMixtureClosedForm:
    def test_far_offsets_do_not_overflow(self):
        # an exp(rate * offset) factor overflows here; segment-anchored weights do not
        assert min_expectation([parse_distribution("shiftexp(800,1)")]) == 801.0
        assert product_tail_integral([(Exponential(1.0), 750.0, 1)]) == 751.0
        pair = [parse_distribution("shiftexp(800,1)"), parse_distribution("shiftexp(799,2)")]
        expected = 799.0 + -math.expm1(-2.0) / 2.0 + math.exp(-2.0) / 3.0
        assert min_expectation(pair) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(799.4774441194605, rel=1e-15)

    def test_matches_quadrature_oracle(self):
        # Residual(d, 0) has the same tail as d but takes the quadrature path
        rng = random.Random(20260)
        checked = 0
        for _ in range(150):
            comps, lower = _random_mixture_case(rng)
            exact = product_tail_integral(comps, lower=lower)
            oracle = product_tail_integral(
                [(Residual(d, 0.0), off, pw) for d, off, pw in comps], lower=lower
            )
            if oracle > 1e-6:
                assert exact == pytest.approx(oracle, rel=1e-9), (comps, lower)
                checked += 1
        assert checked >= 100

    @pytest.mark.parametrize("r1,r2,p", [(0.6, 0.2, 0.4), (2.0, 0.05, 0.1), (1.0, 3.0, 0.0)])
    def test_hyperexp_pair_closed_form(self, r1, r2, p):
        expected = (1 - p) ** 2 / (2 * r1) + 2 * p * (1 - p) / (r1 + r2) + p**2 / (2 * r2)
        assert min_expectation([HyperExp(r1, r2, p)] * 2) == pytest.approx(expected, rel=1e-14)


def _random_mixed_case(rng):
    """Atomic components (decimal-lattice or free atoms, some shifted) beside
    the exponential mixtures of ``_random_mixture_case``, in drawn order, with
    offsets, powers 1-3 and a lower limit, all drawn from ``rng``."""
    comps, _ = _random_mixture_case(rng)
    for _ in range(rng.randint(1, 3)):
        n = rng.randint(1, 3)
        if rng.random() < 0.5:
            step = rng.choice([0.1, 0.25, 1.0])
            values = [v * step for v in rng.sample(range(1, 30), n)]
        else:
            values = [rng.uniform(0.05, 8.0) for _ in range(n)]
        weights = [rng.random() + 0.1 for _ in values]
        atoms = [(v, w / sum(weights)) for v, w in zip(values, weights)]
        d = FiniteSupport(tuple(atoms)) if n > 1 else Deterministic(values[0])
        if rng.random() < 0.3:
            d = Shifted(rng.uniform(0.0, 2.0), d)
        comps.append((d, rng.choice([0.0, rng.uniform(0.0, 3.0)]), rng.randint(1, 3)))
    rng.shuffle(comps)
    return comps, rng.choice([0.0, rng.uniform(0.0, 4.0)])


class TestMixedClosedForm:
    def test_matches_quadrature_oracle(self):
        # atomic laws beside exponential mixtures take the exact sweep;
        # Residual(d, 0) has the same tail as d but takes the quadrature path,
        # whose absolute tolerance (1e-13) leaves tiny values out
        rng = random.Random(5150)
        checked = 0
        for _ in range(150):
            comps, lower = _random_mixed_case(rng)
            exact = product_tail_integral(comps, lower=lower)
            oracle = product_tail_integral(
                [(Residual(d, 0.0), off, pw) for d, off, pw in comps], lower=lower
            )
            if oracle > 1e-6:
                assert exact == pytest.approx(oracle, rel=1e-12), (comps, lower)
                checked += 1
        assert checked >= 100

    @pytest.mark.parametrize("c,r", [(2.0, 1.0), (0.5, 3.0), (7.0, 0.25), (1.3, 0.6)])
    def test_deterministic_beside_exponential(self, c, r):
        expected = -math.expm1(-r * c) / r  # E[min(c, X)] for X ~ exp(r)
        assert min_expectation([Deterministic(c), Exponential(r)]) == pytest.approx(
            expected, rel=1e-15
        )

    def test_finite_beside_hyperexp(self):
        # E[min(X, Y)] = sum over atoms v of P(X = v) E[min(v, Y)], and
        # E[min(v, Y)] = sum over phases of w (1 - e^{-r v}) / r
        atoms, r1, r2, q = EXAMPLE_PAIR_ATOMS, 0.6, 0.2, 0.4
        expected = math.fsum(
            p * w * -math.expm1(-r * v) / r for v, p in atoms for w, r in ((1 - q, r1), (q, r2))
        )
        value = min_expectation([FiniteSupport(atoms), HyperExp(r1, r2, q)])
        assert value == pytest.approx(expected, rel=1e-15)


class TestSampling:
    def test_deterministic_any_seed(self):
        rng = np.random.default_rng(99)
        assert Deterministic(2.0).sample(rng) == 2.0

    def test_finite_support_law_of_large_numbers(self):
        _, d2 = example_servers()
        rng = np.random.default_rng(7)
        assert d2.sample_array(rng, 10**6).mean() == pytest.approx(2.9, abs=0.05)

    def test_sample_matches_scalar_path(self):
        for d in ALL_VARIANTS:
            a = d.sample(np.random.default_rng(42))
            b = d.sample(np.random.default_rng(42))
            assert a == b

    @pytest.mark.parametrize("d", ALL_VARIANTS)
    def test_kolmogorov_smirnov(self, d):
        rng = np.random.default_rng(31)
        n = 10**5
        xs = np.sort(d.sample_array(rng, n))
        values = np.unique(xs)
        emp_hi = np.searchsorted(xs, values, side="right") / n
        emp_lo = np.searchsorted(xs, values, side="left") / n
        cdf = 1.0 - np.array([d.tail(v) for v in values])
        cdf_left = 1.0 - np.array([d.tail(v - 1e-9) for v in values])
        ks = max(np.abs(emp_hi - cdf).max(), np.abs(emp_lo - cdf_left).max())
        assert ks < 0.01


class TestQuantile:
    @pytest.mark.parametrize("d", ALL_VARIANTS)
    def test_inverse_of_cdf(self, d):
        for p in (0.05, 0.3, 0.5, 0.9, 0.99):
            x = d.quantile(p)
            assert 1.0 - d.tail(x) >= p - 1e-9
            assert 1.0 - d.tail(x - 1e-6) <= p + 1e-6 or d._atoms() is not None

    @pytest.mark.parametrize("d", ALL_VARIANTS + [Pareto(0.5, 2.2).residual(1.0)])
    @pytest.mark.parametrize("p", [-0.1, 1.0, 1.5, INF, math.nan])
    def test_rejects_p_outside_unit_interval(self, d, p):
        with pytest.raises(ValueError, match=r"p in \[0, 1\)"):
            d.quantile(p)


def hyperexp_root(d, p):
    """The root problem HyperExp.quantile hands to _brentq: f and its bracket."""
    target = 1.0 - p
    hi = 1.0
    while d.tail(hi) > target:
        hi *= 2.0
    return (lambda x: d.tail(x) - target), 0.0, hi


class TestBrentq:
    """_brentq ports scipy.optimize.brentq and must return the same bits."""

    def test_matches_scipy_on_hyperexp_quantiles(self):
        rng = np.random.default_rng(20261018)
        n = 40
        laws = [HyperExp(0.6, 0.2, 0.4), HyperExp(0.5, 0.1, 0.4), HyperExp(1.0, 2.0, 0.0)]
        laws += [
            HyperExp(float(r1), float(r2), float(q))
            for r1, r2, q in zip(10 ** rng.uniform(-3, 3, n), 10 ** rng.uniform(-3, 3, n), rng.random(n))
        ]
        # np.float64 grid values as the bounds pass them, p near 0 and 1, random p
        ps = [*np.arange(0.05, 0.96, 0.05), 0.995, 1e-300, 1e-17, 1e-9, 1 - 1e-9, 1 - 1e-16]
        ps += list(rng.random(10))
        for d in laws:
            for p in ps:
                f, a, b = hyperexp_root(d, p)
                want = brentq(f, a, b, xtol=1e-13, rtol=1e-13)
                got = _brentq(f, a, b, xtol=1e-13, rtol=1e-13)
                assert type(got) is float and got == want, (d, p)
                assert d.quantile(p) == want, (d, p)

    def test_bisects_where_a_step_divides_by_zero(self):
        # a 1e-300 rate leaves f flat over the bracket, so a secant or
        # interpolation step divides by zero: scipy's step is inf or nan there
        # and it bisects
        d = HyperExp(0.6, 1e-300, 0.4)
        for p, want in (
            (0.7, 2.8768207245178087e299),
            (0.8, 6.931471805599536e299),
            (0.9, 1.386294361119891e300),
        ):
            f, a, b = hyperexp_root(d, p)
            assert brentq(f, a, b, xtol=1e-13, rtol=1e-13) == want
            assert d.quantile(p) == want

    @pytest.mark.parametrize(
        "f",
        [
            lambda x: x**3 - 2.0,
            lambda x: math.cos(x) - x,
            lambda x: math.exp(x) - 5.0,
            lambda x: math.atan(x - 0.3),
            lambda x: x**5 - 1e-10,
        ],
    )
    @pytest.mark.parametrize("xtol,rtol", [(1e-13, 1e-13), (2e-12, 8.9e-16), (1e-6, 1e-6)])
    def test_matches_scipy_on_smooth_roots(self, f, xtol, rtol):
        rng = np.random.default_rng(7)
        for a, b in zip(-rng.uniform(0, 10, 30), rng.uniform(2, 50, 30)):
            assert _brentq(f, a, b, xtol, rtol) == brentq(f, a, b, xtol=xtol, rtol=rtol)

    def test_root_at_an_end(self):
        assert _brentq(lambda x: x, 0.0, 1.0, 1e-13, 1e-13) == 0.0
        assert _brentq(lambda x: x - 1.0, 0.0, 1.0, 1e-13, 1e-13) == 1.0

    def test_same_sign_ends_raise(self):
        f = lambda x: x * x + 1.0  # noqa: E731
        with pytest.raises(ValueError):
            brentq(f, -1.0, 1.0)
        with pytest.raises(BracketError):
            _brentq(f, -1.0, 1.0, 1e-13, 1e-13)

    @pytest.mark.parametrize(
        "f,maxiter",
        [(lambda x: math.cos(x) - x, 3), (lambda x: (x - 1.0) ** 5, 100)],
    )
    def test_exhausted_iterations_raise(self, f, maxiter):
        with pytest.raises(RuntimeError, match="converge"):
            brentq(f, -3.0, 10.0, xtol=1e-13, rtol=1e-13, maxiter=maxiter)
        with pytest.raises(NoConvergenceError):
            _brentq(f, -3.0, 10.0, 1e-13, 1e-13, maxiter)


class TestLatticeStep:
    def test_integer_atoms(self):
        assert _lattice_step(example_servers()) == 1
        assert _lattice_step(example_servers(), 3.0) == 1

    def test_decimal_atoms_and_delay(self):
        ds = (Deterministic(0.3), FiniteSupport(((0.1, 0.7), (1.7, 0.3))))
        assert _lattice_step(ds, 0.1) == Fraction(1, 10)
        assert _lattice_step(ds, 0.05) == Fraction(1, 20)
        assert _lattice_step((Deterministic(0.6), Deterministic(0.9))) == Fraction(3, 10)

    def test_shifted_atoms(self):
        assert _lattice_step((Shifted(0.5, Deterministic(1.0)),)) == Fraction(3, 2)
        inner = FiniteSupport(((1.0, 0.5), (2.0, 0.5)))
        assert _lattice_step((Shifted(0.5, inner), inner)) == Fraction(1, 2)

    def test_off_the_grid(self):
        assert _lattice_step((Deterministic(1 / 3),)) is None
        assert _lattice_step(example_servers(), 1 / 3) is None
        # within 1e-9 of the 1e-6 grid counts as on it
        assert _lattice_step((Deterministic(0.1 + 1e-10),)) == Fraction(1, 10)

    def test_positive_value_below_one_unit(self):
        # a step of 0 would count no time
        assert _lattice_step((FiniteSupport(((1e-300, 1.0),)),)) is None
        assert _lattice_step((Deterministic(1e-17), Deterministic(1.0))) is None
        assert _lattice_step(example_servers(), 1e-17) is None

    def test_value_past_two_to_the_53_units(self):
        # a tick count past 2**53 is no exact float: sums of ticks would round
        assert _lattice_step((Deterministic(2**53 / 10**6),)) == Fraction(2**53, 10**6)
        assert _lattice_step((Deterministic(2**54 / 10**6),)) is None
        huge = FiniteSupport(((1.0, 0.8), (1e300, 0.2)))
        assert _lattice_step((Deterministic(2.0), huge)) is None
        assert _lattice_step(example_servers(), 1e300) is None

    def test_non_atomic(self):
        assert _lattice_step((Exponential(1.0), Deterministic(1.0))) is None
        assert _lattice_step((Shifted(0.5, Exponential(1.0)),)) is None


class TestValidation:
    def test_finite_support_rules(self):
        with pytest.raises(ValueError):
            FiniteSupport(((1.0, 0.5), (2.0, 0.4)))
        with pytest.raises(ValueError):
            FiniteSupport(((1.0, 0.5), (1.0, 0.5)))
        with pytest.raises(ValueError):
            FiniteSupport(((-1.0, 0.5), (2.0, 0.5)))

    def test_parameter_signs(self):
        with pytest.raises(ValueError):
            Exponential(0.0)
        with pytest.raises(ValueError):
            Pareto(0.0, 1.0)
        with pytest.raises(ValueError):
            Shifted(-0.1, Exponential(1.0))
        with pytest.raises(ValueError):
            HyperExp(0.5, 0.1, 1.2)
        for bad in (-2.0, 0.0, INF, float("nan")):
            with pytest.raises(ValueError):
                Deterministic(bad)
        # every throughput is a rate 1/E[...]: a zero-mean law has none,
        # but a zero atom beside a positive one is a valid law
        with pytest.raises(ValueError, match="positive mean"):
            FiniteSupport(((0.0, 1.0),))
        zero_atom = FiniteSupport(((0.0, 0.6), (1.0, 0.4)))
        assert zero_atom.mean() == 0.4
        assert zero_atom.truncated_mean(0.5) == 0.2

    @pytest.mark.parametrize(
        "make",
        [
            lambda x: Exponential(x),
            lambda x: Shifted(x, Exponential(1.0)),
            lambda x: HyperExp(x, 1.0, 0.5),
            lambda x: HyperExp(1.0, x, 0.5),
            lambda x: Pareto(x, 2.0),
            lambda x: Pareto(1.0, x),
            lambda x: FiniteSupport(((1.0, 0.5), (x, 0.5))),
            lambda x: FiniteSupport(((1.0, x), (2.0, 1.0))),
        ],
        ids=["exp", "shift", "hyperexp1", "hyperexp2", "xm", "alpha", "atom", "prob"],
    )
    @pytest.mark.parametrize("bad", [INF, float("nan")])
    def test_parameters_must_be_finite(self, make, bad):
        with pytest.raises(ValueError):
            make(bad)


class TestParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("det(2)", Deterministic(2.0)),
            ("exp(1.5)", Exponential(1.5)),
            ("shiftexp(0.5,1)", Shifted(0.5, Exponential(1.0))),
            ("hyperexp(0.5,0.1,0.4)", HyperExp(0.5, 0.1, 0.4)),
            ("pareto(0.5,1.2)", Pareto(0.5, 1.2)),
            ("finite([(1,0.9),(20,0.1)])", FiniteSupport(EXAMPLE_PAIR_ATOMS)),
            ("shift(0.5, exp(1))", Shifted(0.5, Exponential(1.0))),
            ("finite([(1,1-0.1),(20,0.1)])", FiniteSupport(EXAMPLE_PAIR_ATOMS)),
        ],
    )
    def test_round_trip(self, text, expected):
        parsed = parse_distribution(text)
        assert parsed == expected
        assert parse_distribution(str(parsed)) == expected

    def test_rejects_garbage(self):
        for bad in ("__import__('os')", "det(2) + 1", "normal(0,1)", "det()"):
            with pytest.raises(ValueError):
                parse_distribution(bad)
