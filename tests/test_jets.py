"""Jet arithmetic and gamma-ratio mixed partials.

The finite-difference oracle runs in 50-digit arithmetic (mpmath) so the
step h = 1e-4 keeps its O(h^2) truncation floor without roundoff blow-up
(dividing by h^7 eats ~27 digits); the ratio itself is evaluated from
mpmath's own gamma, fully independent of the package code under test.
"""

import inspect
import itertools
import json
import math
import re
from pathlib import Path

import mpmath as mp
import pytest

from eulersums import (
    EULER_GAMMA,
    ZETA2,
    ZETA4,
    DomainError,
    RatioVariant,
    digamma,
    gamma_ratio_jet,
    jet_exp,
    ln_gamma_jet,
    mixed_partial,
    polygamma,
)
from eulersums import identities, jets, series, special
from eulersums.identities import REGISTRY, default_grid
from eulersums.jets import MAX_OX, MAX_OZ
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

    def test_ln_gamma_past_binary64_raises_before_any_psi_tuple(self):
        """lnGamma(3e305) overflows: a DomainError naming a, on every call,
        and no psi tuple is built for it."""
        series._cache.cache_clear()
        for _ in range(2):
            with pytest.raises(DomainError, match=re.escape("at a = 3e+305")):
                ln_gamma_jet(3e305, 2)
        assert jets.psi_derivatives.cache_info().currsize == 0
        assert ln_gamma_jet(2.5e305, 2)[0] > 1e308


class TestJetArithmetic:
    def test_exp_of_zero_is_unit(self):
        assert jet_exp((0.0,) * 6) == (1.0,) + (0.0,) * 5

    def test_mul_by_unit(self):
        j = ln_gamma_jet(2.5, 6)
        assert jets.jet_mul(j, (1.0,) + (0.0,) * 6) == list(j)

    def test_exp_value_part(self):
        assert_close(jet_exp(ln_gamma_jet(1.0, 2))[0], 1.0, 1e-15)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 4.0])
    def test_exp_log_roundtrip_value(self, a):
        j = jet_exp(ln_gamma_jet(a, 4))
        assert_close(j[0], math.gamma(a), 1e-13)

    @pytest.mark.parametrize("a", [0.7, 1.0, 3.2])
    def test_exp_inverse_property(self, a):
        j = ln_gamma_jet(a, 8)
        prod = _ref_conv1(jet_exp(j), jet_exp([-v for v in j]))
        assert abs(prod[0] - 1.0) < 1e-12
        assert max(abs(v) for v in prod[1:]) < 1e-12


def _ratio_mp(variant: RatioVariant, x, z):
    shift = 1 if variant is RatioVariant.BETA_SHIFT1 else 0
    return mp.gamma(x + 1) * mp.gamma(z) / mp.gamma(x + z + shift)


class TestGammaRatioJet:
    def test_value_at_origin(self):
        assert gamma_ratio_jet(RatioVariant.BETA_SHIFT0, 0.0, 1.0)[0][0] == 1.0

    @pytest.mark.parametrize("p", [1.0, 2.5])
    @pytest.mark.parametrize("m", range(0, 5))
    def test_shift1_x_zero_single_term(self, p, m):
        # at x = 0 the alternating binomial series is its k = 0 term
        j = gamma_ratio_jet(RatioVariant.BETA_SHIFT1, 0.0, p)
        got = (-1.0) ** m / math.factorial(m) * mixed_partial(j, 0, m)
        assert_close(got, p ** -(m + 1), 1e-12)

    @pytest.mark.parametrize("z", [1.0, 2.0, 2.5])
    def test_second_x_derivative_formula(self, z):
        # 2! coeff[2][0] = psi^2(z) + 2 gamma psi(z) - psi'(z) + gamma^2 + pi^2/6
        j = gamma_ratio_jet(RatioVariant.BETA_SHIFT0, 0.0, z)
        got = mixed_partial(j, 2, 0)
        want = (digamma(z) ** 2 + 2.0 * EULER_GAMMA * digamma(z) - polygamma(1, z)
                + EULER_GAMMA**2 + math.pi**2 / 6.0)
        if abs(want) < 1e-12:
            assert abs(got - want) < 1e-10
        else:
            assert_close(got, want, 1e-10)

    def test_mixed_partial_value_and_range(self):
        j = gamma_ratio_jet(RatioVariant.BETA_SHIFT0, 2.0, 1.5)
        want = math.exp(math.lgamma(3.0) + math.lgamma(1.5) - math.lgamma(3.5))
        assert_close(mixed_partial(j, 0, 0), want, 1e-13)
        with pytest.raises(DomainError):
            mixed_partial(j, MAX_OX + 1, 0)
        with pytest.raises(DomainError):
            mixed_partial(j, 0, MAX_OZ + 1)

    @pytest.mark.parametrize("coeffs, a, b, named", [
        (((1.0, -math.inf),), 0, 1, "(0,1) is -inf"), (((1.0,), (math.nan,)), 1, 0, "(1,0) is nan"),
        (((0.0, 0.0, 1e308),), 0, 2, "(0,2) is inf")])
    def test_a_partial_past_binary64_is_named(self, coeffs, a, b, named):
        """mixed_partial reads every jet coefficient a closed form uses, so a
        non-finite partial, an entry's or one that b! a! takes past binary64,
        ends there, naming its orders."""
        with pytest.raises(DomainError, match=re.escape(f"mixed partial {named}, outside binary64")):
            mixed_partial(coeffs, a, b)

    @pytest.mark.parametrize("fn, args, named", [
        # jet entry (0, 1) is -inf at z0 = 1e-300
        (identities.rhs_thm_35, (0.5, 1e-300, 1), "mixed partial (0,1) is -inf"),
        # Gamma(p) past binary64: the exp of the jets' ln Gamma sum overflows
        (identities.rhs_thm_35, (1.0, 5e-324, 0), "exp(744.4400719213812) is outside binary64"),
        (identities.rhs_thm_35, (0.0, 3e-309, 0), "exp(710.400181446492) is outside binary64"),
        (identities.rhs_cor_36, (5e-324, 0), "exp(743.8677069784566) is outside binary64"),
        # an inf in the ratio jet at a tiny p, whose product with delta is nan
        (identities.rhs_cor_36, (1e-100, 3),
         "p = 1e-100 and m = 3 put the closed form outside binary64"),
        (identities.rhs_cor_36, (1e-200, 1),
         "p = 1e-200 and m = 1 put the closed form outside binary64"),
        (identities.rhs_cor_36, (1e-22, 13),
         "p = 1e-22 and m = 13 put the closed form outside binary64"),
        # ln Gamma(x + 1) past binary64
        (identities.rhs_thm_35, (1e306, 1.0, 0), "lnGamma(a) is outside binary64 at a = 1e+306")],
        ids=["35-inf-entry", "35-subnormal-p", "35-tiny-p", "cor36-subnormal-p",
             "cor36-nan-m3", "cor36-nan-m1", "cor36-nan-m13", "35-huge-x"])
    def test_a_closed_form_past_binary64_raises(self, fn, args, named):
        for _ in range(2):
            with pytest.raises(DomainError, match=re.escape(named)):
                fn(*args)

    def test_pole_guard(self):
        with pytest.raises(DomainError):
            gamma_ratio_jet(RatioVariant.BETA_SHIFT0, -1.0, 1.0)

    def test_frozen_mixed_partials(self):
        j = gamma_ratio_jet(RatioVariant.BETA_SHIFT0, 0.0, 1.0)
        assert_close(mixed_partial(j, 1, 1), REFS[("F", 1, 1, 0)], 1e-12)
        assert_close(mixed_partial(j, 2, 1), REFS[("F", 2, 1, 0)], 1e-12)
        assert_close(mixed_partial(j, 3, 1), REFS[("F", 3, 1, 0)], 1e-12)
        j2 = gamma_ratio_jet(RatioVariant.BETA_SHIFT0, 2.0, 1.0)
        assert_close(mixed_partial(j2, 3, 1), REFS[("F", 3, 1, 2)], 1e-12)
        j3 = gamma_ratio_jet(RatioVariant.BETA_SHIFT0, 1.0, 1.0)
        assert_close(mixed_partial(j3, 2, 3), REFS[("F", 2, 3, 1)], 1e-12)
        j4 = gamma_ratio_jet(RatioVariant.BETA_SHIFT1, 1.0, 0.5)
        assert_close(mixed_partial(j4, 1, 2), REFS[("G", 1, 2, 1, 0.5)], 1e-12)
        j5 = gamma_ratio_jet(RatioVariant.BETA_SHIFT1, 2.0, 2.5)
        assert_close(mixed_partial(j5, 3, 0), REFS[("G", 3, 0, 2, 2.5)], 1e-12)

    def test_f3_against_series_oracle(self):
        # d^3_x d_z ratio at (0,1) equals -3 * sum (H_k^2-H_k^(2))/(k+1)^2
        j = gamma_ratio_jet(RatioVariant.BETA_SHIFT0, 0.0, 1.0)
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
    jet = gamma_ratio_jet(variant, x0, z0)
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
    j = gamma_ratio_jet(RatioVariant.BETA_SHIFT0, x, 1.0)
    closed = (-1.0) ** m / math.factorial(m) * mixed_partial(j, 0, m)
    series = lhs_base_binomial(x, m)
    assert EvalConfig().converged(series)
    if abs(closed) < 1e-12:
        assert abs(series.value - closed) <= 1e-8
    else:
        assert_close(series.value, closed, 1e-8)


# ------------------- the kernels against their loop reference -------------------
#
# The loop kernels below are the jets written out one coefficient at a time,
# every sum an explicit left-to-right loop (sum() compensates from Python 3.12
# on).  The kernels must give their bits, whatever the CPU, so every closed
# form keeps its bits.


def _ref_dot(a, b):
    acc = 0.0
    for u, v in zip(a, b):
        acc += u * v
    return acc


def _ref_conv1(ca, cb):
    return [_ref_dot(ca[: k + 1], cb[k::-1]) for k in range(len(ca))]


def _ref_exp_series1(c):
    out = [math.exp(c[0])]
    for k in range(1, len(c)):
        out.append(_ref_dot([j * c[j] for j in range(1, k + 1)], out[k - 1 :: -1]) / k)
    return out


def _ref_exp2(f):
    ox, oz = len(f) - 1, len(f[0]) - 1
    g = [_ref_exp_series1(f[0])]
    for k in range(1, ox + 1):
        products = [_ref_conv1(f[i], g[k - i]) for i in range(1, k + 1)]
        g.append([_ref_dot(range(1, k + 1), [p[b] for p in products]) / k for b in range(oz + 1)])
    return g


def _ref_gamma_ratio_jet(variant, x0, z0, ox, oz):
    shift = 1.0 if variant is RatioVariant.BETA_SHIFT1 else 0.0
    w0 = x0 + z0 + shift
    ux = ln_gamma_jet(x0 + 1.0, ox)
    uz = ln_gamma_jet(z0, oz)
    uw = ln_gamma_jet(w0, ox + oz)
    log_jet = [[0.0] * (oz + 1) for _ in range(ox + 1)]
    for a in range(ox + 1):
        for b in range(oz + 1):
            if b == 0:
                log_jet[a][b] += ux[a]
            if a == 0:
                log_jet[a][b] += uz[b]
            log_jet[a][b] -= uw[a + b] * math.comb(a + b, a)
    return _ref_exp2(log_jet)


def _hex(coeffs):
    rows = coeffs if isinstance(coeffs[0], (tuple, list)) else [coeffs]
    return [[float(v).hex() for v in row] for row in rows]


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


def _right_sides():
    """[name, args, float.hex of the value or the exception's class name] of
    every rhs_* over _AXES."""
    out = []
    for name in sorted(n for n in dir(identities) if n.startswith("rhs_")):
        fn = getattr(identities, name)
        for args in itertools.product(*(_AXES[p] for p in inspect.signature(fn).parameters)):
            try:
                out.append([name, list(args), float(fn(*args)).hex()])
            except DomainError as exc:
                out.append([name, list(args), type(exc).__name__])
    return out


def _grid_right_sides():
    """[identity, params, float.hex of the right side] of every default_grid()
    point, through the registry row verify uses."""
    out = []
    for ident, params in default_grid():
        row = REGISTRY[ident]
        sides, full = row.bind(ident, params)
        _, rhs = sides(**{k: v for k, v in full.items() if k != row.selector})
        out.append([ident.value, params, float(rhs).hex()])
    return out


_RHS_NAMES = sorted(name for name in dir(identities) if name.startswith("rhs_"))

# the closed forms that read z-order m of a gamma-ratio jet (rhs_thm_311 reads
# m - 1), and the most m each takes
_MOST_M = {name: MAX_OZ for name in ("rhs_thm_e15", "rhs_thm_t25", "rhs_thm_31", "rhs_thm_33",
                                     "rhs_thm_35", "rhs_thm_37", "rhs_thm_39")}
_MOST_M["rhs_thm_311"] = MAX_OZ + 1


@pytest.mark.parametrize("name", _RHS_NAMES)
def test_right_sides_take_integral_float_orders_as_the_ints(name):
    """Every rhs_* over _AXES with n and m given as floats (2.0) gives the
    int call's bits, or the same DomainError: both checks return the int."""
    fn = getattr(identities, name)
    params = list(inspect.signature(fn).parameters)
    orders = [i for i, p in enumerate(params) if p in ("n", "m")]
    assert orders
    for args in itertools.product(*(_AXES[p] for p in params)):
        given = [float(v) if i in orders else v for i, v in enumerate(args)]
        want, got = _bits_or_error(fn, *args), _bits_or_error(fn, *given)
        assert got == want, (name, args)


@pytest.mark.parametrize("name", _RHS_NAMES)
def test_right_sides_refuse_bad_orders_by_name(name):
    """A negative, non-integral or non-finite n or m, or an m past the jets'
    MAX_OZ, is a DomainError naming it: never a TypeError, an IndexError or
    math.comb's ValueError.  The most m is taken."""
    fn = getattr(identities, name)
    params = list(inspect.signature(fn).parameters)
    valid = {p: _AXES[p][2] for p in params}  # x = 2.0, n = 2, p = 2.5, m = 2
    for key in ("n", "m"):
        if key not in params:
            continue
        bad = [-1, -1.0, -7, 1.5, 2.5, math.inf, -math.inf, math.nan]
        if key == "m" and name in _MOST_M:
            assert math.isfinite(fn(**{**valid, "m": _MOST_M[name]}))
            bad += [_MOST_M[name] + 1, float(_MOST_M[name] + 1)]
        for v in bad:
            with pytest.raises(DomainError, match=f"^{key} must be"):
                fn(**{**valid, key: v})


# the bound each closed form's real parameter must be above: x > -1, and
# p > 0 but in the psi-series corollaries, which take p > -1 (p != 0)
_LEAST = {"x": -1.0, "p": 0.0}
_LEAST_P = {"rhs_cor_38": -1.0, "rhs_cor_310": -1.0, "rhs_cor_312": -1.0}


@pytest.mark.parametrize("name", [n for n in _RHS_NAMES
                                  if {"x", "p"} & set(inspect.signature(getattr(identities, n)).parameters)])
def test_right_sides_refuse_bad_reals_by_name(name):
    """A non-finite x or p, or one not above its bound, is a DomainError
    naming it before any jet is built, on every call: never one naming a
    jet's base point, as rhs_thm_35(0.5, -1.0, 1) once did."""
    fn = getattr(identities, name)
    params = list(inspect.signature(fn).parameters)
    valid = {p: _AXES[p][2] for p in params}  # x = 2.0, n = 2, p = 2.5, m = 2
    series._cache.cache_clear()
    for key in {"x", "p"} & set(params):
        least = _LEAST_P.get(name, _LEAST[key]) if key == "p" else _LEAST[key]
        for v in [math.nan, math.inf, -math.inf, least, least - 1.0]:
            for _ in range(2):
                with pytest.raises(DomainError, match=f"^{key} must be finite and > {least:g}, "):
                    fn(**{**valid, key: v})
    assert jets._ratio_jet.cache_info().currsize == 0


def _bits_or_error(fn, *args):
    try:
        return float(fn(*args)).hex()
    except DomainError as exc:
        return type(exc).__name__


def test_right_sides_keep_their_pinned_bits():
    """rhs_bits.json, written by tests/repin_fixtures.py: any other change to
    these bits is a change of result."""
    pinned = json.loads((Path(__file__).parent / "rhs_bits.json").read_text())
    assert _right_sides() == pinned["rhs"]
    assert _grid_right_sides() == pinned["grid"]


def test_gamma_ratio_jets_keep_the_loop_bits(monkeypatch):
    """Every gamma-ratio jet the default grid and the closed-form parameter
    sets reach, coefficient by coefficient: entries (0..ox, 0..oz) of the kept
    jet are a build at exactly (ox, oz), whatever orders a closed form reads."""
    calls = _recording(monkeypatch, "gamma_ratio_jet")
    _right_sides()
    _grid_right_sides()
    reached = set(calls)
    assert len(reached) > 40
    for variant, x0, z0 in sorted(reached, key=repr):
        got = gamma_ratio_jet(variant, x0, z0)
        assert len(got[0]) == MAX_OZ + 1
        for ox, oz in itertools.product(range(MAX_OX + 1), range(MAX_OZ + 1)):
            want = _ref_gamma_ratio_jet(variant, x0, z0, ox, oz)
            assert _hex([row[: oz + 1] for row in got[: ox + 1]]) == _hex(want), (
                variant, x0, z0, ox, oz)


def test_cor_36_products_keep_the_loop_bits(monkeypatch):
    """jet_exp on every input rhs_cor_36 gives it, and rhs_cor_36 itself
    against coefficient m of the loop's Cauchy product, up to m = 20."""
    exps = _recording(monkeypatch, "jet_exp")
    for p, m in itertools.product([0.5, 1.0, 1.5, 2.5, 4.0], range(21)):
        ratio = jet_exp([u - v for u, v in zip(ln_gamma_jet(p, m), ln_gamma_jet(p + 0.5, m))])
        delta = [-(d / math.factorial(k)) for k, d in enumerate(jets.psi_derivatives(p + 0.5, m))]
        delta[0] += digamma(0.5)
        want = SQRT_PI * (-1.0) ** m * _ref_dot(ratio, delta[::-1])
        assert identities.rhs_cor_36(p, m).hex() == want.hex(), (p, m)
    assert len(exps) == 105
    for (a,) in exps:
        assert _hex(jet_exp(a)) == _hex(_ref_exp_series1(a))


# -------------------- one shared jet per base point --------------------

_BASES = list(itertools.product(RatioVariant, [float(v) for v in range(11)] + [0.5, 2.5],
                                [0.5, 1.0, 2.5]))


def test_shared_jets_keep_the_bits_of_a_fresh_build():
    """Every caller reads its entries of one kept jet per base point, built at
    (MAX_OX, MAX_OZ) on the first call: the bits of an unshared build,
    read-only.  test_gamma_ratio_jets_keep_the_loop_bits holds entry (a, b)
    to a build at exactly (a, b)."""
    series._cache.cache_clear()
    fresh = jets._ratio_jet.__wrapped__
    for variant, x0, z0 in _BASES:
        for _ in range(2):
            got = gamma_ratio_jet(variant, x0, z0)
            assert type(got) is tuple and len(got) == MAX_OX + 1
            assert all(type(row) is tuple and len(row) == MAX_OZ + 1 for row in got)
            assert _hex(got) == _hex(fresh(variant, x0, z0)), (variant, x0, z0)
    assert jets._ratio_jet.cache_info().misses == len(_BASES)


def test_the_closed_form_axes_keep_one_jet_per_base_point():
    """Every rhs_* over _AXES, a superset of the closed_form benchmark's
    points, reads 44 base points: (x0, 1) for the 11 x or n of rhs_thm_e15
    and the finite-sum theorems, and (x0, p) for the 33 (x or n, p) of
    rhs_thm_35 and the shifted ones; one jet each, whatever m is read."""
    series._cache.cache_clear()
    _right_sides()
    assert jets._ratio_jet.cache_info().currsize == 44


@pytest.mark.parametrize("first, second", [
    (lambda: identities.rhs_thm_e15(3.0, 4), lambda: identities.rhs_thm_t25(3, 4)),
    (lambda: identities.rhs_thm_35(2.0, 0.5, 3), lambda: identities.rhs_thm_37(0.5, 2, 3)),
    (lambda: identities.rhs_thm_35(2.0, 0.5, 0), lambda: identities.rhs_thm_311(0.5, 2, 13))],
    ids=["e15-t25", "35-37", "35-311"])
def test_base_theorems_share_the_jet_of_their_x_partials(first, second):
    """A base theorem reads row 0 of the jet whose x-rows the theorems at the
    same base point read, at any z-order: the two closed forms build one jet."""
    series._cache.cache_clear()
    first()
    second()
    assert jets._ratio_jet.cache_info().misses == 1


@pytest.mark.parametrize("args", [(-1.0, 1.0), (0.0, 0.0), (-1.0, 0.5), (1.0, math.inf),
                                  (math.nan, 1.0), (0.0, -0.5)])
def test_bad_base_points_raise_on_every_call(args):
    series._cache.cache_clear()
    for variant in RatioVariant:
        for _ in range(2):
            with pytest.raises(DomainError):
                gamma_ratio_jet(variant, *args)
    assert jets._ratio_jet.cache_info().currsize == 0


def test_a_base_point_where_no_z_order_builds_raises_on_every_call():
    """psi'(2e-300) overflows, so the ln Gamma jet at w0 = 2e-300 does not
    build at x-order MAX_OX even at z-order 0, and nothing is kept."""
    series._cache.cache_clear()
    for _ in range(2):
        with pytest.raises(DomainError, match=re.escape("polygamma(1, 2e-300) overflows")):
            gamma_ratio_jet(RatioVariant.BETA_SHIFT0, 1e-300, 1e-300)
    assert jets._ratio_jet.cache_info().currsize == 0


@pytest.mark.parametrize("fn, args", [
    (identities.rhs_thm_e15, (math.nan, 1)), (identities.rhs_thm_e15, (math.inf, 1)),
    (identities.rhs_thm_35, (1.0, math.nan, 1)), (identities.rhs_thm_35, (1.0, math.inf, 1)),
    (identities.rhs_cor_36, (math.nan, 2)), (ln_gamma_jet, (math.inf, 2))])
def test_non_finite_arguments_raise_on_every_call(fn, args):
    """A non-finite x or p is a DomainError, not a NaN, and is kept nowhere."""
    series._cache.cache_clear()
    for _ in range(2):
        with pytest.raises(DomainError, match="finite"):
            fn(*args)
    assert all(table.cache_info().currsize == 0 for table in special._MEMOS)


_NEAR_MINUS_ONE = -0.9999999999999999  # -1 + 2^-53


@pytest.mark.parametrize("fn, args, bits", [
    (identities.rhs_thm_35, (_NEAR_MINUS_ONE, 0.5, 0), "0x1.ffffffffffffap+52"),
    (identities.rhs_thm_35, (_NEAR_MINUS_ONE, 2.5, 0), "0x1.ffffffffffffap+52"),
    (identities.rhs_thm_35, (_NEAR_MINUS_ONE, 0.5, 2), "0x1.ffffffffffffap+2"),
    (identities.rhs_thm_35, (_NEAR_MINUS_ONE, 0.5, 3), "0x1.ffffffffffffap+3"),
    (identities.rhs_thm_e15, (-1.0 + 2.0**-36, 1), "-0x1.fffffffffffffp+35"),
    (identities.rhs_thm_e15, (-1.0 + 2.0**-36, 2), "-0x1.0000000000000p+19"),
    (identities.rhs_thm_e15, (-1.0 + 2.0**-20, 3), "0x1.5555555555555p+6"),
])
def test_x_order_zero_jets_stay_finite_next_to_the_pole(fn, args, bits):
    """At x0 = -1 + 2^-53, next to the x-rows' pole at x0 = -1, psi at
    x0 + 1 = 2^-53 is large but finite, and the two base theorems, which read
    row 0 of the jet, keep their values."""
    z0 = args[1] if fn is identities.rhs_thm_35 else 1.0
    variant = RatioVariant.BETA_SHIFT1 if fn is identities.rhs_thm_35 else RatioVariant.BETA_SHIFT0
    rows = gamma_ratio_jet(variant, _NEAR_MINUS_ONE, z0)
    assert all(math.isfinite(c) for row in rows for c in row)
    assert fn(*args).hex() == bits
    assert fn(*args).hex() == bits


@pytest.mark.parametrize("m", range(MAX_OZ + 1))
def test_base_theorems_next_to_the_pole_keep_the_bits_of_an_x_order_zero_build(m):
    """Row 0 of the shared jet is, bit for bit, the jet built at x-order 0,
    or raises as that build does (psi' overflows at z0 = 1e-300)."""
    for fn, variant, z0, args in (
            (identities.rhs_thm_e15, RatioVariant.BETA_SHIFT0, 1.0, (_NEAR_MINUS_ONE, m)),
            (identities.rhs_thm_35, RatioVariant.BETA_SHIFT1, 1e-300, (_NEAR_MINUS_ONE, 1e-300, m))):
        if m == 0 and fn is identities.rhs_thm_e15:
            continue  # rhs_thm_e15 takes m >= 1
        want = _bits_or_error(lambda: (-1.0) ** m / math.factorial(m) * mixed_partial(
            _ref_gamma_ratio_jet(variant, _NEAR_MINUS_ONE, z0, 0, m), 0, m))
        assert _bits_or_error(fn, *args) == want, (fn.__name__, m)


_TINY_P = [10.0**-e for e in (20, 25, 26, 30, 100, 300, 308)]


@pytest.mark.parametrize("m", range(MAX_OZ + 1))
def test_base_theorems_at_a_tiny_p_keep_the_bits_of_a_build_at_their_z_order(m, monkeypatch):
    """At z0 = p below about 1e-25, psi at z0 leaves binary64 before z-order
    MAX_OZ, and the shared jet stops at the last z-order that builds.  Each
    read keeps the bits of a jet built at exactly (MAX_OX, m), or is a
    DomainError where that build raises."""
    calls = [(identities.rhs_thm_35, (float(k), p, m)) for p in _TINY_P for k in range(3)]
    calls += [(identities.rhs_thm_37, (p, k, m)) for p in _TINY_P for k in range(3)]
    series._cache.cache_clear()
    got = [_bits_or_error(fn, *args) for fn, args in calls]
    assert len(jets._ratio_jet(RatioVariant.BETA_SHIFT1, 1.0, 1e-30)[0]) == 11
    assert len(jets._ratio_jet(RatioVariant.BETA_SHIFT1, 1.0, 1e-300)[0]) == 2
    monkeypatch.setattr(identities, "gamma_ratio_jet", lambda variant, x0, z0: _ref_gamma_ratio_jet(
        variant, x0, z0, MAX_OX, m))
    assert got == [_bits_or_error(fn, *args) for fn, args in calls]
