"""Jet arithmetic and gamma-ratio mixed partials.

The finite-difference oracle runs in 50-digit arithmetic (mpmath) so the
step h = 1e-4 keeps its O(h^2) truncation floor without roundoff blow-up
(dividing by h^7 eats ~27 digits); the ratio itself is evaluated from
mpmath's own gamma, fully independent of the package code under test.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from eulersums import (
    EULER_GAMMA,
    ZETA2,
    ZETA4,
    DomainError,
    Jet1,
    RatioVariant,
    digamma,
    gamma,
    gamma_ratio_jet,
    jet_exp,
    jet_mul,
    ln_gamma_jet,
    mixed_partial,
    polygamma,
)
from eulersums.jets import JetMismatchError
from eulersums.series import lhs_base_binomial, lhs_variant2

from conftest import REFS, assert_close

mp.mp.dps = 30


class TestLnGammaJet:
    def test_at_one_order_two(self):
        j = ln_gamma_jet(1.0, 2)
        assert abs(j.coeffs[0]) < 1e-15
        assert_close(j.coeffs[1], -EULER_GAMMA, 1e-13)
        assert_close(j.coeffs[2], ZETA2 / 2.0, 1e-12)

    def test_at_two_order_one(self):
        j = ln_gamma_jet(2.0, 1)
        assert abs(j.coeffs[0]) < 1e-15
        assert_close(j.coeffs[1], 1.0 - EULER_GAMMA, 1e-13)

    def test_order_zero(self):
        j = ln_gamma_jet(1.0, 0)
        assert list(j.coeffs) == [0.0]

    def test_domain(self):
        with pytest.raises(DomainError):
            ln_gamma_jet(-1.0, 2)


class TestJetArithmetic:
    def test_exp_of_zero_is_unit(self):
        z = Jet1(2.0, np.zeros(6))
        e = jet_exp(z)
        assert e.coeffs[0] == 1.0
        assert np.all(e.coeffs[1:] == 0.0)

    def test_mul_by_unit(self):
        j = ln_gamma_jet(2.5, 6)
        unit = Jet1(2.5, np.array([1.0] + [0.0] * 6))
        assert np.allclose(jet_mul(j, unit).coeffs, j.coeffs, rtol=0, atol=0)

    def test_exp_value_part(self):
        assert_close(jet_exp(ln_gamma_jet(1.0, 2)).coeffs[0], 1.0, 1e-15)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 4.0])
    def test_exp_log_roundtrip_value(self, a):
        j = jet_exp(ln_gamma_jet(a, 4))
        assert_close(j.coeffs[0], gamma(a), 1e-13)

    @pytest.mark.parametrize("a", [0.7, 1.0, 3.2])
    def test_exp_inverse_property(self, a):
        j = ln_gamma_jet(a, 8)
        prod = jet_mul(jet_exp(j), jet_exp(Jet1(j.base, -j.coeffs)))
        assert abs(prod.coeffs[0] - 1.0) < 1e-12
        assert np.max(np.abs(prod.coeffs[1:])) < 1e-12

    def test_mismatch_errors(self):
        with pytest.raises(JetMismatchError):
            jet_mul(ln_gamma_jet(1.0, 2), ln_gamma_jet(2.0, 2))
        with pytest.raises(JetMismatchError):
            jet_mul(ln_gamma_jet(1.0, 2), ln_gamma_jet(1.0, 3))


def _ratio_mp(variant: RatioVariant, x, z):
    shift = 1 if variant is RatioVariant.BETA_SHIFT1 else 0
    return mp.gamma(x + 1) * mp.gamma(z) / mp.gamma(x + z + shift)


class TestGammaRatioJet:
    def test_value_at_origin(self):
        j = gamma_ratio_jet(RatioVariant.BETA_SHIFT0, 0.0, 1.0, 0, 0)
        assert j.coeffs[0, 0] == 1.0

    @pytest.mark.parametrize("p", [1.0, 2.5])
    @pytest.mark.parametrize("m", range(0, 5))
    def test_shift1_x_zero_single_term(self, p, m):
        # at x = 0 the alternating binomial series is its k = 0 term
        j = gamma_ratio_jet(RatioVariant.BETA_SHIFT1, 0.0, p, 0, m)
        got = (-1.0) ** m / math.factorial(m) * mixed_partial(j, 0, m)
        assert_close(got, p ** -(m + 1), 1e-12)

    @pytest.mark.parametrize("z", [1.0, 2.0, 2.5])
    def test_second_x_derivative_formula(self, z):
        # 2! coeff[2][0] = psi^2(z) + 2 gamma psi(z) - psi'(z) + gamma^2 + pi^2/6
        j = gamma_ratio_jet(RatioVariant.BETA_SHIFT0, 0.0, z, 2, 0)
        got = mixed_partial(j, 2, 0)
        want = (digamma(z) ** 2 + 2.0 * EULER_GAMMA * digamma(z) - polygamma(1, z)
                + EULER_GAMMA**2 + math.pi**2 / 6.0)
        if abs(want) < 1e-12:
            assert abs(got - want) < 1e-10
        else:
            assert_close(got, want, 1e-10)

    def test_mixed_partial_value_and_range(self):
        j = gamma_ratio_jet(RatioVariant.BETA_SHIFT0, 2.0, 1.5, 2, 3)
        want = math.exp(math.lgamma(3.0) + math.lgamma(1.5) - math.lgamma(3.5))
        assert_close(mixed_partial(j, 0, 0), want, 1e-13)
        with pytest.raises(DomainError):
            mixed_partial(j, 3, 0)
        with pytest.raises(DomainError):
            mixed_partial(j, 0, 4)

    def test_pole_guard(self):
        with pytest.raises(DomainError):
            gamma_ratio_jet(RatioVariant.BETA_SHIFT0, -1.0, 1.0, 1, 1)
        with pytest.raises(DomainError):
            gamma_ratio_jet(RatioVariant.BETA_SHIFT0, 0.0, 1.0, 4, 1)

    def test_frozen_mixed_partials(self):
        j = gamma_ratio_jet(RatioVariant.BETA_SHIFT0, 0.0, 1.0, 3, 1)
        assert_close(mixed_partial(j, 1, 1), REFS[("F", 1, 1, 0)], 1e-12)
        assert_close(mixed_partial(j, 2, 1), REFS[("F", 2, 1, 0)], 1e-12)
        assert_close(mixed_partial(j, 3, 1), REFS[("F", 3, 1, 0)], 1e-12)
        j2 = gamma_ratio_jet(RatioVariant.BETA_SHIFT0, 2.0, 1.0, 3, 1)
        assert_close(mixed_partial(j2, 3, 1), REFS[("F", 3, 1, 2)], 1e-12)
        j3 = gamma_ratio_jet(RatioVariant.BETA_SHIFT0, 1.0, 1.0, 2, 3)
        assert_close(mixed_partial(j3, 2, 3), REFS[("F", 2, 3, 1)], 1e-12)
        j4 = gamma_ratio_jet(RatioVariant.BETA_SHIFT1, 1.0, 0.5, 1, 2)
        assert_close(mixed_partial(j4, 1, 2), REFS[("G", 1, 2, 1, 0.5)], 1e-12)
        j5 = gamma_ratio_jet(RatioVariant.BETA_SHIFT1, 2.0, 2.5, 3, 0)
        assert_close(mixed_partial(j5, 3, 0), REFS[("G", 3, 0, 2, 2.5)], 1e-12)

    def test_f3_against_series_oracle(self):
        # d^3_x d_z ratio at (0,1) equals -3 * sum (H_k^2-H_k^(2))/(k+1)^2
        j = gamma_ratio_jet(RatioVariant.BETA_SHIFT0, 0.0, 1.0, 3, 1)
        f3 = mixed_partial(j, 3, 1)
        oracle = lhs_variant2(0, 1).value
        assert_close(f3, -3.0 * oracle, 1e-8)
        assert_close(f3, -6.0 * ZETA4, 1e-12)


# ------------------------ finite-difference agreement ------------------------

_FD_BASES = [(0.0, 1.0), (2.0, 1.0), (1.0, 1.5), (0.0, 0.5)]
_H_FD = mp.mpf("1e-4")


def _fd_mixed(variant: RatioVariant, x0: float, z0: float, a: int, b: int) -> float:
    """Central finite difference of order (a, b) at step 1e-4, evaluated in
    50-digit arithmetic so only the O(h^2) truncation remains."""
    with mp.workdps(50):
        cache: dict[tuple[int, int], mp.mpf] = {}

        def f(i: int, j: int) -> mp.mpf:
            if (i, j) not in cache:
                cache[(i, j)] = _ratio_mp(variant, mp.mpf(x0) + i * _H_FD, mp.mpf(z0) + j * _H_FD)
            return cache[(i, j)]

        total = mp.mpf(0)
        for i in range(a + 1):
            wi = (-1) ** i * math.comb(a, i)
            for j in range(b + 1):
                wj = (-1) ** j * math.comb(b, j)
                total += wi * wj * f(a - 2 * i, b - 2 * j)
        return float(total / (2 * _H_FD) ** (a + b))


@pytest.mark.parametrize("variant", [RatioVariant.BETA_SHIFT0, RatioVariant.BETA_SHIFT1])
@pytest.mark.parametrize("x0,z0", _FD_BASES)
def test_finite_difference_agreement(variant, x0, z0):
    jet = gamma_ratio_jet(variant, x0, z0, 3, 4)
    for a in range(0, 4):
        for b in range(0, 5):
            exact = mixed_partial(jet, a, b)
            fd = _fd_mixed(variant, x0, z0, a, b)
            if abs(exact) < 1e-12:
                assert abs(fd - exact) <= 1e-5
            else:
                assert abs(fd - exact) / abs(exact) <= 1e-5, (
                    f"FD mismatch at variant={variant} base=({x0},{z0}) order=({a},{b}): "
                    f"fd={fd!r} exact={exact!r}"
                )


@pytest.mark.parametrize("x", [0.5, 2.0, 3.0])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_base_theorem_consistency(x, m):
    # (-1)^m/m! d^m_z ratio(x, z)|_{z=1} reproduces the summed series
    j = gamma_ratio_jet(RatioVariant.BETA_SHIFT0, x, 1.0, 0, m)
    closed = (-1.0) ** m / math.factorial(m) * mixed_partial(j, 0, m)
    series = lhs_base_binomial(x, m)
    assert series.converged
    if abs(closed) < 1e-12:
        assert abs(series.value - closed) <= 1e-8
    else:
        assert_close(series.value, closed, 1e-8)


def test_jet1_derivative_accessor():
    j = ln_gamma_jet(2.0, 3)
    assert_close(j.derivative(1), digamma(2.0), 1e-13)
    assert_close(j.derivative(2), polygamma(1, 2.0), 1e-12)
    with pytest.raises(DomainError):
        j.derivative(4)


def test_jet1_is_value_type():
    j = ln_gamma_jet(2.0, 3)
    k = Jet1(j.base, j.coeffs.copy())
    assert np.array_equal(j.coeffs, k.coeffs) and j.base == k.base
