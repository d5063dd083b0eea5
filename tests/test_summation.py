"""Summation engine: adaptive direct sums, tail models, Euler-Maclaurin."""

import math

import mpmath as mp
import numpy as np
import pytest

from eulersums import DomainError, EvalConfig, SumResult, em_tail, hurwitz_zeta, sum_adaptive
from eulersums.asymptotics import (
    LogPowerSeries,
    central_harmonic_diff_lp,
    exp_lp,
    gamma_ratio_lp,
    gen_harmonic_lp,
    harmonic_lp,
    inv_binomial_lp,
    recip_power_shift,
)
from eulersums.special import BERNOULLI_2J, ZETA3, bernoulli_poly
from eulersums.summation import NonFiniteTermError, NonMonotoneTailError

from conftest import assert_close

mp.mp.dps = 30
ULP = 2.0**-52


class TestEvalConfig:
    def test_defaults(self):
        cfg = EvalConfig()
        assert cfg.rel_tol == 1e-10
        assert cfg.max_terms == 10**8
        assert cfg.em_order == 6

    def test_validation(self):
        with pytest.raises(DomainError):
            EvalConfig(rel_tol=0.0)
        with pytest.raises(DomainError):
            EvalConfig(max_terms=0)
        with pytest.raises(DomainError):
            EvalConfig(em_order=12)


class TestSumAdaptive:
    def test_geometric(self):
        res = sum_adaptive(lambda k: 2.0**-k, EvalConfig(), k_start=0)
        assert res.converged
        assert_close(res.value, 2.0, 1e-12)
        assert res.tail_estimate <= 1e-10 * 2.0 * 1.01

    def test_telescoping(self):
        cfg = EvalConfig(rel_tol=1e-6, max_terms=10**7)
        res = sum_adaptive(lambda k: 1.0 / (k * (k + 1.0)), cfg, k_start=1)
        assert res.converged
        assert_close(res.value, 1.0, 3e-6)

    def test_non_finite(self):
        def term(k):
            with np.errstate(divide="ignore"):
                return 1.0 / (k - 10.0)

        with pytest.raises(NonFiniteTermError):
            sum_adaptive(term, EvalConfig(), k_start=1)

    def test_max_terms_guard(self):
        cfg = EvalConfig(rel_tol=1e-10, max_terms=1000)
        res = sum_adaptive(lambda k: 1.0 / (k * (k + 1.0)), cfg, k_start=1)
        assert not res.converged
        assert res.terms_used == 1000

    def test_alternating_tail_bound(self):
        cfg = EvalConfig(rel_tol=1e-8, max_terms=10**7)
        res = sum_adaptive(lambda k: (-1.0) ** k * 0.5**k, cfg, k_start=0)
        assert res.converged
        assert_close(res.value, 2.0 / 3.0, 1e-8)

    def test_determinism(self):
        cfg = EvalConfig(rel_tol=1e-8)
        a = sum_adaptive(lambda k: k**-3.0, cfg, k_start=1)
        b = sum_adaptive(lambda k: k**-3.0, cfg, k_start=1)
        assert a == b  # bit-identical fields

    def test_partial_sums_bounded_by_value_plus_tail(self):
        cfg = EvalConfig(rel_tol=1e-8)
        res = sum_adaptive(lambda k: k**-4.0, cfg, k_start=1)
        k = np.arange(1.0, 2001.0)
        partials = np.cumsum(k**-4.0)
        assert (np.diff(partials) >= 0).all()
        assert (partials <= res.value + res.tail_estimate + 1e-15).all()


class TestLogPowerSeries:
    def test_eval_and_diff(self):
        f = LogPowerSeries(10.0, {(1, 2.0): 1.0})  # ln t / t^2
        t = 7.0
        assert_close(f(t), math.log(t) / t**2, 1e-14)
        df = f.diff()
        assert_close(df(t), (1.0 - 2.0 * math.log(t)) / t**3, 1e-14)

    def test_tail_integral(self):
        K = 50.0
        f = LogPowerSeries(10.0, {(0, 3.0): 2.0})
        assert_close(f.tail_integral(K), 2.0 * K**-2.0 / 2.0, 1e-14)
        g = LogPowerSeries(10.0, {(1, 2.0): 1.0})
        want = (math.log(K) + 1.0) / K  # int ln t/t^2 = (ln K + 1)/K
        assert_close(g.tail_integral(K), want, 1e-14)
        with pytest.raises(DomainError):
            LogPowerSeries(10.0, {(0, 1.0): 1.0}).tail_integral(K)

    def test_truncation_bound_is_last_kept_order(self):
        f = LogPowerSeries(5.0, {(0, 2.0): 1.0, (0, 3.5): 0.5, (1, 4.5): -2.0})
        K = 50.0
        assert f.truncation_bound(K) == LogPowerSeries(5.0, {(1, 4.5): 2.0}).tail_integral(K)
        assert LogPowerSeries(5.0, {(0, 2.0): 1.0}).truncation_bound(K) == 0.0
        # a derivative keeps as many orders as the series it came from
        assert f.diff().s_cap == 6.0

    def test_product(self):
        f = LogPowerSeries(10.0, {(1, 1.0): 2.0})
        g = LogPowerSeries(10.0, {(1, 2.0): 3.0})
        h = f * g
        t = 5.0
        assert_close(h(t), 6.0 * math.log(t) ** 2 / t**3, 1e-14)


class TestAsymptoticModels:
    """The tail expansions against directly computed quantities at t = 400."""

    T = 400

    def test_harmonic(self):
        h = math.fsum(1.0 / k for k in range(1, self.T + 1))
        assert_close(harmonic_lp(14.0)(float(self.T)), h, 1e-14)

    def test_gen_harmonic(self):
        h2 = math.fsum(k**-2.0 for k in range(1, self.T + 1))
        assert_close(gen_harmonic_lp(2, 14.0)(float(self.T)), h2, 1e-14)
        h3 = math.fsum(k**-3.0 for k in range(1, self.T + 1))
        assert_close(gen_harmonic_lp(3, 14.0)(float(self.T)), h3, 1e-14)

    def test_central_binomial(self):
        cb = 1.0
        for i in range(1, self.T + 1):
            cb *= (2 * i - 1) / (2.0 * i)
        model = gamma_ratio_lp(0.5, 1.0, 14.0).scaled(1.0 / math.sqrt(math.pi))
        assert_close(model(float(self.T)), cb, 1e-13)

    def test_central_harmonic_diff(self):
        hk = math.fsum(1.0 / k for k in range(1, self.T + 1))
        h2k = math.fsum(1.0 / k for k in range(1, 2 * self.T + 1))
        assert_close(central_harmonic_diff_lp(14.0)(float(self.T)), hk - 2.0 * h2k, 1e-13)

    def test_inv_binomial(self):
        n = 3
        t = float(self.T)
        want = math.factorial(n) / ((t + 1) * (t + 2) * (t + 3))
        assert_close(inv_binomial_lp(n, 16.0)(t), want, 1e-13)

    def test_recip_power_shift(self):
        f = recip_power_shift(2.5, 3.0, 16.0)
        assert_close(f(float(self.T)), (self.T + 2.5) ** -3.0, 1e-13)


class TestGammaRatio:
    """gamma_ratio_lp and the Bernoulli polynomials its exponent is built from."""

    @pytest.mark.parametrize("n", range(26))
    def test_bernoulli_poly(self, n):
        for a in (-50.5, -7.5, -0.9, -0.5, 0.0, 0.1, 0.5, 0.99, 1.0, 2.5):
            # each term binom(n, k) B_k a^(n-k) is rounded a few times before
            # the exact fsum, so the error is relative to their absolute sum
            scale = math.fsum(abs(math.comb(n, k) * float(mp.bernoulli(k)) * a ** (n - k))
                              for k in range(n + 1))
            assert abs(bernoulli_poly(n, a) - mp.bernpoly(n, a)) <= 4 * ULP * scale, a

    def test_bernoulli_poly_domain(self):
        for n in (-1, 26):
            with pytest.raises(DomainError):
                bernoulli_poly(n, 0.5)

    @pytest.mark.parametrize("a, b", [(-0.5, 1.0), (0.9, 1.0), (-7.5, 1.0), (2.5, 0.5), (1.0, -0.3)])
    def test_values(self, a, b):
        t = mp.mpf(400)
        want = mp.gamma(t + a) / mp.gamma(t + b)
        assert abs(gamma_ratio_lp(a, b, b - a + 12.0)(400.0) - want) <= 8 * ULP * abs(want)

    def test_order_on_the_cap_is_kept(self):
        # the cap of lhs_base_binomial(x, 1): s_cap - (1 + x) rounds to just
        # below 6 at this x, yet the order at t^-s_cap sits on the cap
        x = -0.1215851027611018
        s_cap = x + 1.0 + 1 + 5.0
        ratio = gamma_ratio_lp(-x, 1.0, s_cap)
        assert len(ratio.terms) == 7
        assert max(s for _a, s in ratio.terms) == pytest.approx(s_cap)

    @pytest.mark.parametrize("s_cap", [3.0, 7.5, 16.5, 20.0])
    def test_central_binomial_is_the_half_case(self, s_cap):
        """binom(2t, t)/4^t = Gamma(t + 1/2) / (sqrt(pi) Gamma(t + 1)), against
        its Stirling form exp(sum_j d_j t^(1-2j)) / sqrt(pi t) with
        d_j = B_2j (2^(1-2j) - 2) / (2j (2j-1)), coefficient by coefficient.
        B_{n+1}(1/2) and B_{n+1}(1) are sums that cancel to a few ulp of their
        largest term, which is what the tolerance allows for."""
        corr = LogPowerSeries(s_cap, {(0, 2.0 * j - 1.0): b * (2.0 ** (1 - 2 * j) - 2.0)
                                      / (2 * j * (2 * j - 1))
                                      for j, b in enumerate(BERNOULLI_2J, start=1)
                                      if 2 * j - 1 <= s_cap})
        inv_sqrt_pi = 1.0 / math.sqrt(math.pi)
        want = exp_lp(corr) * LogPowerSeries(s_cap, {(0, 0.5): inv_sqrt_pi})
        got = gamma_ratio_lp(0.5, 1.0, s_cap).scaled(inv_sqrt_pi)
        assert got.terms.keys() == want.terms.keys()
        for key, c in want.terms.items():
            assert abs(got.terms[key] - c) <= 1e-12 * abs(c), key


class TestEmTail:
    def test_inverse_square(self, cfg):
        f = LogPowerSeries(14.0, {(0, 2.0): 1.0})
        tail, err = em_tail(f, 100, cfg)
        assert_close(tail, hurwitz_zeta(2.0, 101.0), 1e-12)
        assert err < 1e-20

    def test_inverse_fourth(self, cfg):
        f = LogPowerSeries(16.0, {(0, 4.0): 1.0})
        tail, _ = em_tail(f, 50, cfg)
        assert_close(tail, hurwitz_zeta(4.0, 51.0), 1e-13)

    def test_harmonic_tail_reaches_double_zeta3(self, cfg):
        # partial sum of H_k/k^2 to 1e3 plus the smooth-tail estimate
        K = 1000
        h = 0.0
        partial = 0.0
        for k in range(1, K + 1):
            h += 1.0 / k
            partial += h / k**2
        model = harmonic_lp(14.0) * LogPowerSeries(14.0, {(0, 2.0): 1.0})
        tail, _ = em_tail(model, K, cfg)
        assert_close(partial + tail, 2.0 * ZETA3, 1e-9)

    @pytest.mark.parametrize("order", range(1, 12))
    def test_every_em_order_against_exact_tails(self, order):
        # sum_{k>K} 1/k^2 and a log-power tail, whose exact values are Hurwitz
        # zeta values and s-derivatives: sum ln^a k / k^s = (-1)^a zeta^(a)(s, K+1)
        cases = [
            (LogPowerSeries(40.0, {(0, 2.0): 1.0}), 100, mp.zeta(2, 101)),
            (LogPowerSeries(40.0, {(2, 2.5): 1.0, (1, 3.0): -0.3}), 50,
             mp.zeta(2.5, 51, 2) + 0.3 * mp.zeta(3, 51, 1)),
        ]
        for model, K, exact in cases:
            tail, err = em_tail(model, K, EvalConfig(em_order=order))
            assert abs(tail - float(exact)) <= err + 4 * ULP * float(exact)
            assert err <= 1e-8 * float(exact)

    def test_non_monotone_rejected(self, cfg):
        grows = LogPowerSeries(5.0, {(2, 0.0): 1.0})  # ln^2 t
        with pytest.raises(NonMonotoneTailError):
            em_tail(grows, 100, cfg)


def test_sum_result_is_frozen():
    r = SumResult(1.0, 0.0, 1, True)
    with pytest.raises(AttributeError):
        r.value = 2.0
