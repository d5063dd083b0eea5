"""Jet arithmetic and gamma-ratio mixed partials.

The finite-difference oracle runs in 50-digit arithmetic (mpmath) so the
step h = 1e-4 keeps its O(h^2) truncation floor without roundoff blow-up
(dividing by h^7 eats ~27 digits); the ratio itself is evaluated from
mpmath's own gamma, fully independent of the package code under test.
"""

import inspect
import itertools
import math

import mpmath as mp
import numpy as np
import pytest

from eulersums import (
    EULER_GAMMA,
    ZETA2,
    ZETA4,
    DomainError,
    RatioVariant,
    digamma,
    gamma,
    gamma_ratio_jet,
    jet_exp,
    ln_gamma_jet,
    mixed_partial,
    polygamma,
)
from eulersums import identities, jets
from eulersums.identities import REGISTRY, default_grid
from eulersums.series import lhs_base_binomial, lhs_variant2
from eulersums.special import SQRT_PI
from eulersums.summation import EvalConfig

from conftest import REFS, assert_close

mp.mp.dps = 30


class TestLnGammaJet:
    def test_at_one_order_two(self):
        j = ln_gamma_jet(1.0, 2)
        assert abs(j[0]) < 1e-15
        assert_close(j[1], -EULER_GAMMA, 1e-13)
        assert_close(j[2], ZETA2 / 2.0, 1e-12)

    def test_at_two_order_one(self):
        j = ln_gamma_jet(2.0, 1)
        assert abs(j[0]) < 1e-15
        assert_close(j[1], 1.0 - EULER_GAMMA, 1e-13)

    def test_order_zero(self):
        j = ln_gamma_jet(1.0, 0)
        assert list(j) == [0.0]

    def test_domain(self):
        with pytest.raises(DomainError):
            ln_gamma_jet(-1.0, 2)


class TestJetArithmetic:
    def test_exp_of_zero_is_unit(self):
        e = jet_exp(np.zeros(6))
        assert e[0] == 1.0
        assert np.all(e[1:] == 0.0)

    def test_mul_by_unit(self):
        j = ln_gamma_jet(2.5, 6)
        unit = np.array([1.0] + [0.0] * 6)
        assert np.allclose(jets._conv1(j, unit), j, rtol=0, atol=0)

    def test_exp_value_part(self):
        assert_close(jet_exp(ln_gamma_jet(1.0, 2))[0], 1.0, 1e-15)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 4.0])
    def test_exp_log_roundtrip_value(self, a):
        j = jet_exp(ln_gamma_jet(a, 4))
        assert_close(j[0], gamma(a), 1e-13)

    @pytest.mark.parametrize("a", [0.7, 1.0, 3.2])
    def test_exp_inverse_property(self, a):
        j = ln_gamma_jet(a, 8)
        prod = _ref_conv1(jet_exp(j), jet_exp(-j))
        assert abs(prod[0] - 1.0) < 1e-12
        assert np.max(np.abs(prod[1:])) < 1e-12


def _ratio_mp(variant: RatioVariant, x, z):
    shift = 1 if variant is RatioVariant.BETA_SHIFT1 else 0
    return mp.gamma(x + 1) * mp.gamma(z) / mp.gamma(x + z + shift)


class TestGammaRatioJet:
    def test_value_at_origin(self):
        j = gamma_ratio_jet(RatioVariant.BETA_SHIFT0, 0.0, 1.0, 0, 0)
        assert j.shape == (1, 1) and j[0, 0] == 1.0

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
    assert EvalConfig().converged(series)
    if abs(closed) < 1e-12:
        assert abs(series.value - closed) <= 1e-8
    else:
        assert_close(series.value, closed, 1e-8)


# ------------------- the kernels against their loop reference -------------------
#
# The loop kernels below are the jets as they were written before the batched
# dots: one np.dot per coefficient and the exp recurrence summed by sum().
# The kernels must give their bits, so every closed form keeps its bits.


def _ref_conv1(ca, cb):
    n = len(ca)
    out = np.zeros(n)
    for k in range(n):
        out[k] = np.dot(ca[: k + 1], cb[k::-1])
    return out


def _ref_exp_series1(c):
    n = len(c)
    out = np.zeros(n)
    out[0] = math.exp(c[0])
    for k in range(1, n):
        out[k] = sum(j * c[j] * out[k - j] for j in range(1, k + 1)) / k
    return out


def _ref_exp2(f):
    ox, oz = f.shape[0] - 1, f.shape[1] - 1
    g = np.zeros_like(f)
    g[0] = _ref_exp_series1(f[0])
    for k in range(1, ox + 1):
        row = np.zeros(oz + 1)
        for i in range(1, k + 1):
            row += i * _ref_conv1(f[i], g[k - i])
        g[k] = row / k
    return g


def _ref_gamma_ratio_jet(variant, x0, z0, ox, oz):
    shift = 1.0 if variant is RatioVariant.BETA_SHIFT1 else 0.0
    w0 = x0 + z0 + shift
    ux = ln_gamma_jet(x0 + 1.0, ox)
    uz = ln_gamma_jet(z0, oz)
    uw = ln_gamma_jet(w0, ox + oz)
    log_jet = np.zeros((ox + 1, oz + 1))
    log_jet[:, 0] += ux
    log_jet[0, :] += uz
    for a in range(ox + 1):
        for b in range(oz + 1):
            log_jet[a, b] -= uw[a + b] * math.comb(a + b, a)
    return _ref_exp2(log_jet)


def _hex(coeffs):
    return [float(v).hex() for v in np.ravel(coeffs)]


def _recording(monkeypatch, name):
    """Record the arguments of every call the closed forms make to
    identities.<name>."""
    calls = []
    real = getattr(identities, name)

    def recorded(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(identities, name, recorded)
    return calls


# A superset of the closed-form benchmark's parameter sets: x and n in 0..10,
# p in {0.5, 1, 2.5}, m in 0..10 (out-of-domain combinations raise).
_AXES = {"x": [float(v) for v in range(11)], "n": list(range(11)), "p": [0.5, 1.0, 2.5],
         "m": list(range(11))}


def _run_closed_forms():
    for name in dir(identities):
        if not name.startswith("rhs_"):
            continue
        fn = getattr(identities, name)
        for args in itertools.product(*(_AXES[p] for p in inspect.signature(fn).parameters)):
            try:
                fn(*args)
            except DomainError:
                pass
    for ident, params in default_grid():
        row = REGISTRY[ident]
        sides, full = row.bind(ident, params)
        sides(**{k: v for k, v in full.items() if k != row.selector})


def test_gamma_ratio_jets_keep_the_loop_bits(monkeypatch):
    """Every gamma-ratio jet the default grid and the closed-form parameter
    sets reach, coefficient by coefficient."""
    calls = _recording(monkeypatch, "gamma_ratio_jet")
    _run_closed_forms()
    reached = set(calls)
    assert len(reached) > 1000
    assert {args[3] for args in reached} == {0, 1, 2, 3}
    for args in sorted(reached, key=repr):
        got = gamma_ratio_jet(*args)
        assert _hex(got) == _hex(_ref_gamma_ratio_jet(*args)), args


def test_cor_36_products_keep_the_loop_bits(monkeypatch):
    """jet_exp on every input rhs_cor_36 gives it, and rhs_cor_36 itself
    against coefficient m of the loop's Cauchy product, up to m = 20."""
    exps = _recording(monkeypatch, "jet_exp")
    for p, m in itertools.product([0.5, 1.0, 1.5, 2.5, 4.0], range(21)):
        ratio = jet_exp(ln_gamma_jet(p, m) - ln_gamma_jet(p + 0.5, m))
        delta = -jets.psi_jet(p + 0.5, m)
        delta[0] += digamma(0.5)
        want = SQRT_PI * (-1.0) ** m * _ref_conv1(ratio, delta)[m]
        assert identities.rhs_cor_36(p, m).hex() == want.hex(), (p, m)
    assert len(exps) == 105
    for (a,) in exps:
        assert _hex(jet_exp(a)) == _hex(_ref_exp_series1(a))


@pytest.mark.parametrize("n", [2, 5, 13])
def test_strided_operands_get_the_contiguous_bits(n):
    """The exp kernel's bits do not depend on how an operand is laid out: a
    strided view gives the loop's bits on a contiguous copy, up to the
    MAX_OZ + 1 = 13 coefficients a row of a gamma-ratio jet has.  (The loop's
    own bits did: np.dot hands a positive stride to BLAS, whose strided dot
    rounds differently, so a strided loop reference would not do here.)"""
    rng = np.random.default_rng(n)
    f = rng.standard_normal((n, 4)).T
    assert not f[1].flags.c_contiguous
    assert _hex(jets._exp2(f)) == _hex(_ref_exp2(f.copy()))


def test_gather_tables_are_read_only():
    idx = jets._gather(2, 4)
    assert idx.shape == (2, 8, 4)
    with pytest.raises(ValueError):
        idx[0, 0, 0] = 1
