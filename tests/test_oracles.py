"""The pmf kernel and the Gauss-Legendre rule against exact stdlib oracles.

Logarithms and Newton iterations run in ``decimal`` at 50 digits; binomial
probabilities at a binary-rational p are exact ``fractions.Fraction``
values.  Where numpy's longdouble is only double precision the kernel loses
its extra digits, so the pmf bounds widen there.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import roots_legendre

from cohstat import fock, spin
from cohstat.inference import _gauss_legendre, analytic_binomial_posterior

DIGITS = 50
EXTENDED = np.finfo(np.longdouble).nmant >= 63
# a few units in the last place of a double, or what a double-precision log pmf keeps
PMF_TOL = 1e-15 if EXTENDED else 1e-12

# B_2m / (2m (2m-1)) for the Stirling series of log k!
_STIRLING = [Fraction(1, 12), Fraction(-1, 360), Fraction(1, 1260), Fraction(-1, 1680), Fraction(1, 1188),
             Fraction(-691, 360360), Fraction(1, 156), Fraction(-3617, 122400), Fraction(43867, 244188)]


def _pi() -> Decimal:
    """pi to the context precision (the series recipe of the decimal documentation)."""
    with localcontext() as ctx:
        ctx.prec += 2
        three = Decimal(3)
        last, t, s, n, na, d, da = 0, three, 3, 1, 0, 0, 24
        while s != last:
            last = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    return +s


def _log_factorial(k: int) -> Decimal:
    """log k! exactly below 300, by the Stirling series (error far below 1e-50) above."""
    if k < 300:
        return Decimal(math.factorial(k)).ln()
    dk = Decimal(k)
    series = sum(Decimal(c.numerator) / Decimal(c.denominator) / dk ** (2 * m + 1) for m, c in enumerate(_STIRLING))
    return (dk + Decimal("0.5")) * dk.ln() - dk + (2 * _pi()).ln() / 2 + series


def _poisson(lam: float, k: int) -> Decimal:
    rate = Decimal(lam)
    if k == 0:
        return (-rate).exp()
    return (-rate + k * rate.ln() - _log_factorial(k)).exp()


def _relative(value: float, exact) -> float:
    return float(abs(Decimal(value) / Decimal(exact) - 1)) if exact else abs(value)


class TestStirlerr:
    def test_table_is_correctly_rounded(self):
        with localcontext() as ctx:
            ctx.prec = DIGITS
            half_log_2pi = (2 * _pi()).ln() / 2
            for k in range(1, 16):
                exact = _log_factorial(k) - (k + Decimal("0.5")) * Decimal(k).ln() + k - half_log_2pi
                assert fock._STIRLERR_TABLE[k] == float(exact)

    @pytest.mark.parametrize("k", [16, 17, 30, 100, 1000, 10**6])
    def test_series_above_the_table(self, k):
        with localcontext() as ctx:
            ctx.prec = DIGITS
            exact = _log_factorial(k) - (k + Decimal("0.5")) * Decimal(k).ln() + k - (2 * _pi()).ln() / 2
            assert abs(float(fock._stirlerr(k)) - float(exact)) <= 2e-18


class TestPoissonKernel:
    @pytest.mark.parametrize("lam", [0.01, 1.0, 30.0, 123.456, 1e3, 1e4, 1e6])
    def test_pmf_against_decimal(self, lam):
        spread = 12.0 * math.sqrt(lam + 1.0)
        counts = np.unique(np.linspace(max(0.0, lam - spread), lam + spread, 41).astype(int))
        counts = np.union1d(counts, [0, 1, 2, 15, 16])
        values = fock._poisson_weight(lam, counts)
        with localcontext() as ctx:
            ctx.prec = DIGITS
            exact = [_poisson(lam, int(k)) for k in counts]
        worst = max(_relative(v, e) for v, e in zip(values.tolist(), exact) if e > Decimal("1e-300"))
        assert worst <= PMF_TOL

    def test_edges(self):
        assert fock._poisson_weight(0.0, np.arange(3)).tolist() == [1.0, 0.0, 0.0]
        assert fock._poisson_weight(2.5, 0) == math.exp(-2.5)

    @pytest.mark.parametrize("lam", [0.01, 1.0, 30.0, 1e3, 1e4, 1e6])
    def test_tail_at_default_truncation(self, lam):
        dim = fock.default_truncation(math.sqrt(lam))
        with localcontext() as ctx:
            ctx.prec = DIGITS
            term, exact, k = _poisson(lam, dim), Decimal(0), dim
            while term > exact * Decimal("1e-40"):
                exact += term
                k += 1
                term = term * Decimal(lam) / k
        assert _relative(fock.poisson_tail(lam, dim), exact) <= 1e-13

    @pytest.mark.parametrize("lam, dim", [(2.0, 2), (100.0, 80), (1e4, 9000), (1e4, 10000), (1e6, 2)])
    def test_tail_at_or_below_the_mean(self, lam, dim):
        with localcontext() as ctx:
            ctx.prec = DIGITS
            term, below = (-Decimal(lam)).exp(), Decimal(0)
            for k in range(dim):
                below += term
                term = term * Decimal(lam) / (k + 1)
            exact = 1 - below
        assert _relative(fock.poisson_tail(lam, dim), exact) <= 1e-13


class TestBinomialKernel:
    @pytest.mark.parametrize("n", [0, 1, 2, 20, 60, 61, 200, 1000])
    @pytest.mark.parametrize("p", [0.0, 1e-3, 0.3, 0.5, 0.999, 1.0])
    def test_pmf_against_fractions(self, n, p):
        counts = sorted({*range(0, n + 1, max(1, n // 40)), *range(max(0, n - 3), n + 1)})
        exact_p = Fraction(p)
        exact = [math.comb(n, k) * exact_p**k * (1 - exact_p) ** (n - k) for k in counts]
        values = spin._binomial_weight(n, np.array(counts), p).tolist()
        for value, e in zip(values, exact):
            if e == 0:
                assert value == 0.0
            elif e > Fraction(1, 10**300):
                assert _relative(value, Decimal(e.numerator) / Decimal(e.denominator)) <= PMF_TOL

    def test_density_on_the_grid(self):
        n, k = 1000, 300
        grid = np.linspace(0.0, 1.0, 101)
        values = spin._binomial_weight(n, k, grid).tolist()
        with localcontext() as ctx:
            ctx.prec = DIGITS
            for value, p in zip(values, grid.tolist()):
                e = math.comb(n, k) * Fraction(p) ** k * (1 - Fraction(p)) ** (n - k)
                if e > Fraction(1, 10**300):
                    assert _relative(value, Decimal(e.numerator) / Decimal(e.denominator)) <= PMF_TOL

    @pytest.mark.parametrize("two_j", [61, 200, 1000, 2000])
    def test_sqrt_binomials_above_the_exact_range(self, two_j):
        values = spin._sqrt_binomials(two_j, np.arange(two_j + 1)).tolist()
        with localcontext() as ctx:
            ctx.prec = DIGITS
            for k in range(0, two_j + 1, max(1, two_j // 40)):
                assert _relative(values[k], Decimal(math.comb(two_j, k)).sqrt()) <= PMF_TOL

    def test_sqrt_binomials_overflow_near_2050(self):
        assert np.isfinite(spin._sqrt_binomials(2000, np.arange(2001))).all()
        assert np.isinf(spin._sqrt_binomials(2100, np.arange(2101))[1050])


def _legendre_oracle(n: int, start: np.ndarray) -> tuple[list[Decimal], list[Decimal]]:
    """Nodes x >= 0 and their weights by Newton's method in 50-digit decimal, from float starts."""
    nodes, weights = [], []
    with localcontext() as ctx:
        ctx.prec = DIGITS
        for x0 in start[start >= 0].tolist():
            x = Decimal(x0)
            for _ in range(3):
                p_prev, p = Decimal(1), x
                for j in range(1, n):
                    p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
                slope = n * (x * p - p_prev) / (x * x - 1) if n > 1 else Decimal(1)
                x -= p / slope
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * slope * slope))
    return nodes, weights


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 200, 202, 400, 1002])
    def test_no_farther_from_the_oracle_than_scipy(self, n):
        ours, theirs = _gauss_legendre(n), roots_legendre(n)
        nodes, weights = _legendre_oracle(n, ours[0])

        def errors(rule):
            x, w = rule[0][n // 2 :], rule[1][n // 2 :]
            node_error = max(float(abs(Decimal(a) - e)) for a, e in zip(x.tolist(), nodes))
            weight_error = max(float(abs(Decimal(a) / e - 1)) for a, e in zip(w.tolist(), weights))
            return node_error, weight_error

        node_error, weight_error = errors(ours)
        scipy_node_error, scipy_weight_error = errors(theirs)
        assert node_error <= scipy_node_error
        assert weight_error <= scipy_weight_error

    @pytest.mark.parametrize("n", [1, 2, 5, 64, 65, 301])
    def test_symmetric_ascending_and_summing_to_two(self, n):
        x, w = _gauss_legendre(n)
        assert x.shape == w.shape == (n,)
        assert (np.diff(x) > 0).all() and (w > 0).all()
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert abs(math.fsum(w.tolist()) - 2.0) <= 4e-16

    @pytest.mark.parametrize("n", [1, 2, 7, 30])
    def test_integrates_its_degree_exactly(self, n):
        x, w = _gauss_legendre(n)
        for degree in range(2 * n):
            exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
            assert abs(float(w @ x**degree) - exact) <= 1e-14


    # each size is built once and kept, so the arrays handed out are read-only
    def test_rule_is_kept_per_size_and_read_only(self):
        x, w = _gauss_legendre(37)
        assert not x.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            w[0] = 0.0
        again = _gauss_legendre(37)
        assert again[0] is x and again[1] is w
        fresh = _gauss_legendre.__wrapped__(37)
        assert np.array_equal(fresh[0], x) and np.array_equal(fresh[1], w)
        other = _gauss_legendre(38)
        assert other[0].shape == other[1].shape == (38,)
        assert not np.isin(other[0], x).all()


class TestExactDegreeBetaMass:
    # RADIAL_NODES nodes on polar_window(n, k): exact in degree up to n = 399, resolved past it
    @pytest.mark.parametrize("n", [0, 1, 20, 1000, 5000])
    def test_mass_is_one(self, n):
        for k in sorted({0, n // 3, n}):
            assert abs(analytic_binomial_posterior(n, k).total_mass - 1.0) <= 1e-13
