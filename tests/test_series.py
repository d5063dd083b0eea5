"""Direct-summation oracles: frozen references, classical values, invariants."""

import math
import re
import struct
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from eulersums import (
    DomainError,
    EvalConfig,
    ZETA2,
    ZETA3,
    ZETA4,
    hurwitz_zeta,
    lhs_alt,
    lhs_base_binomial,
    lhs_binomial_shifted,
    lhs_central_binom,
    lhs_linear_euler,
    lhs_quadratic_euler,
    lhs_variant1,
    lhs_variant2,
    lhs_variant3,
    lhs_variant3h,
    lhs_variant4,
    riemann_zeta,
)
from eulersums import asymptotics, identities, series, special
from eulersums.series import (
    quadratic_minus_linear,
    zeta_power_series,
    zeta_tail_sum,
)
from eulersums.special import LN2
from eulersums.summation import NonFiniteTermError

import test_em_oracles as T
from conftest import REFS, assert_close

EM_TOL = 1e-11       # split-at-K + Euler-Maclaurin routes
DIRECT_TOL = 1e-9    # the binomial base series, at the tolerance of their former direct sums


class TestVariant1:
    def test_euler_1775(self):
        r = lhs_variant1(0, 1)
        assert EvalConfig().converged(r)
        assert_close(r.value, ZETA3, 1e-12)

    def test_zeta4_quarter(self):
        assert_close(lhs_variant1(0, 2).value, ZETA4 / 4.0, 1e-12)

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (3, 2), (2, 3)])
    def test_frozen(self, n, m):
        assert_close(lhs_variant1(n, m).value, REFS[("v1", n, m)], EM_TOL)

    def test_brute_force_cross_check(self):
        # fast-decaying case summed raw to 2e5 terms: tail < 1e-17
        n, m, K = 3, 2, 200_000
        k = np.arange(1.0, K + 1.0)
        hk = np.cumsum(1.0 / k)
        inv_b = np.ones_like(k)
        for i in range(1, n + 1):
            inv_b *= i / (k + i)
        brute = math.fsum((hk * inv_b / (n + k + 1.0) ** (m + 1)).tolist())
        assert_close(lhs_variant1(n, m).value, brute, 1e-13)

    def test_divergence_guard(self):
        with pytest.raises(DomainError):
            lhs_variant1(0, 0)
        with pytest.raises(DomainError):
            lhs_variant1(-1, 2)


class TestVariant2:
    def test_stated_form(self):
        # denominator (k+1)^2 variant of the quadratic-harmonic sum
        assert_close(lhs_variant2(0, 1).value, 2.0 * ZETA4, 1e-11)

    def test_k_power_form(self):
        assert_close(quadratic_minus_linear(2).value, 2.5 * ZETA4, 1e-11)

    @pytest.mark.parametrize("n,m", [(0, 1), (0, 2), (2, 1), (2, 2), (3, 4)])
    def test_frozen(self, n, m):
        assert_close(lhs_variant2(n, m).value, REFS[("v2", n, m)], EM_TOL)


class TestAlt:
    def test_n_zero(self):
        assert_close(lhs_alt(0, 1).value, -ZETA2, 1e-12)

    def test_n_one_partial_fractions(self):
        # sum 1/((k+2)^2 (k+1)) telescopes to 2 - zeta(2)
        assert_close(lhs_alt(1, 1).value, 2.0 - ZETA2, 1e-11)

    @pytest.mark.parametrize("n,m", [(1, 2), (2, 1), (3, 2)])
    def test_frozen(self, n, m):
        assert_close(lhs_alt(n, m).value, REFS[("t25", n, m)], EM_TOL)


class TestVariant3Family:
    def test_telescoping(self):
        assert_close(lhs_variant3(1.0, 0, 0).value, 1.0, 1e-12)

    def test_h_telescoping(self):
        assert_close(lhs_variant3h(1.0, 0, 0).value, 1.0, 1e-12)

    def test_variant4_exact_values(self):
        assert_close(lhs_variant4(1.0, 0, 1).value, 2.0, 1e-11)
        assert_close(lhs_variant4(1.0, 1, 1).value, 0.125, 1e-11)

    @pytest.mark.parametrize("p,n,m", [(1.0, 2, 1), (0.5, 1, 0), (2.5, 3, 2), (1.5, 0, 1)])
    def test_frozen_v3(self, p, n, m):
        assert_close(lhs_variant3(p, n, m).value, REFS[("v3", p, n, m)], EM_TOL)

    @pytest.mark.parametrize("p,n,m", [(1.0, 1, 1), (0.5, 2, 0), (2.5, 1, 2)])
    def test_frozen_v3h(self, p, n, m):
        assert_close(lhs_variant3h(p, n, m).value, REFS[("v3h", p, n, m)], EM_TOL)

    @pytest.mark.parametrize("p,n,m", [(0.5, 0, 2), (1.5, 2, 1), (2.5, 1, 3)])
    def test_frozen_v4(self, p, n, m):
        assert_close(lhs_variant4(p, n, m).value, REFS[("v4", p, n, m)], EM_TOL)

    def test_domain(self):
        # p > -1: p = 0 and -1/2 sum (test_shifted_families_take_p_in_minus_one_to_zero)
        with pytest.raises(DomainError):
            lhs_variant3(-1.0, 0, 1)
        with pytest.raises(DomainError):
            lhs_variant3(-1.5, 0, 1)
        with pytest.raises(DomainError):
            lhs_variant4(1.0, 0, 0)


class TestCentralBinom:
    def test_unit_case(self):
        # paper's positive-sign form: sum (2H_2k - H_k) C(2k,k)/((k+1) 4^(k+1)) = 1
        r = lhs_central_binom(1.0, 0)
        assert_close(-r.value / 4.0, 1.0, 1e-11)

    def test_half_case(self):
        want = math.pi * (4.0 * LN2**2 - math.pi**2 / 6.0)
        assert_close(-lhs_central_binom(0.5, 1).value, want, 1e-11)

    def test_p_two_exact(self):
        # closed form reduces to -32/9 at (2, 0)
        assert_close(lhs_central_binom(2.0, 0).value, -32.0 / 9.0, 1e-11)

    def test_factor_is_the_signed_binomial_at_minus_half(self):
        """binom(2k, k)/4^k is (-1)^k binom(-1/2, k): the running product of
        (2k - 1)/(2k), and the gamma-ratio tail over sqrt(pi), bit for bit.
        Its operands are exact, so it rounds twice per k and not in its
        exponents (test_signed_binomial_rounding checks other x)."""
        f = series._signed_binomial(-0.5)
        for K in series._SPLITS:
            k = np.arange(1.0, K + 1.0)
            head = np.concatenate(([1.0], np.cumprod((2.0 * k - 1.0) / (2.0 * k))))
            assert f.head(K) == tuple(head.tolist())
        tail = asymptotics.gamma_ratio_lp(0.5, 1.0, series._DEPTH).scaled(1.0 / math.sqrt(math.pi))
        assert (f.tail.s0, f.tail.depth) == (tail.s0, tail.depth)
        assert [[c.hex() for c in row] for row in f.tail.rows] == [
            [c.hex() for c in row] for row in tail.rows]
        assert (f.rounding, f.rounding_per_k, f.s_rounding) == (0.0, 2.0, 0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            lhs_central_binom(-1.0, 0)
        with pytest.raises(DomainError):
            lhs_central_binom(1.0, -1)


class TestBaseBinomial:
    def test_integer_finite(self):
        assert_close(lhs_base_binomial(2.0, 1).value, 1.5, 1e-15)
        assert lhs_base_binomial(0.0, 3).value == 0.0

    @pytest.mark.parametrize("x", [10, 30, 60, 120])
    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_integer_error_within_estimate(self, x, m):
        # the finite sum cancels as x grows, but it is summed exactly: its
        # value is the exact sum rounded once, within its estimate
        r = lhs_base_binomial(float(x), m)
        exact = sum(Fraction((-1) ** (k - 1) * math.comb(x, k), k**m) for k in range(1, x + 1))
        assert r.value == float(exact)
        assert abs(Fraction(r.value) - exact) <= Fraction(r.tail_estimate)
        assert r.tail_estimate > 0.0

    def test_integer_cancellation_converged(self):
        # binom(60, k) up to 1.2e17 cancel to H_60 = 4.68, which the exact
        # sum keeps to the last bit
        r = lhs_base_binomial(60.0, 1)
        assert r.value == float(sum(Fraction(1, k) for k in range(1, 61)))
        assert (r.tail_estimate, r.terms_used) == (series._U * r.value, 60)
        assert EvalConfig().converged(r)

    @pytest.mark.parametrize("x,m", [(0.5, 1), (0.5, 2), (2.5, 1), (3.5, 3)])
    def test_frozen(self, x, m):
        r = lhs_base_binomial(x, m)
        assert EvalConfig().converged(r)
        assert_close(r.value, REFS[("e15", x, m)], DIRECT_TOL)

    @pytest.mark.parametrize("x, exact", [(-0.5, True), (0.5, True), (2.5, True), (7.5, True),
                                          (-0.9, False), (0.3, False), (2.3, False)])
    def test_signed_binomial_rounding(self, x, exact):
        """At a half-integer x, k - 1 - x and the exponents 1 + x + j are
        exact: 2 roundings per k and none in the exponents; else 3 and 3."""
        f = series._signed_binomial(x)
        assert (f.rounding, f.rounding_per_k, f.s_rounding) == (
            (0.0, 2.0, 0.0) if exact else (0.0, 3.0, 3.0))
        assert all((2.0 * s).is_integer() for _a, s in f.tail.terms) == exact

    def test_domain(self):
        with pytest.raises(DomainError):
            lhs_base_binomial(-1.5, 1)
        with pytest.raises(DomainError):
            lhs_base_binomial(0.5, 0)

    @pytest.mark.filterwarnings("error")
    def test_large_x_cancellation_not_converged(self):
        # terms up to binom(50.5, 25) ~ 1e14 cancel to H_50.5 ~ 4.5: binary64
        # cannot hold the sum to rel_tol, and the head budget says so
        assert not EvalConfig().converged(lhs_base_binomial(50.5, 1))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x", [160.5, 500.5])
    def test_x_past_binary64_raises(self, x):
        # 160.5: the tail model's derivatives overflow; 500.5: 1/Gamma(-x) does
        with pytest.raises(NonFiniteTermError):
            lhs_base_binomial(x, 1)


class TestBinomialShifted:
    def test_x_zero_single_term(self):
        for p, m in ((1.5, 2), (0.5, 0)):
            assert_close(lhs_binomial_shifted(0.0, p, m).value, p ** -(m + 1), 1e-15)

    def test_x_one(self):
        assert_close(lhs_binomial_shifted(1.0, 1.0, 0).value, 0.5, 1e-15)

    @pytest.mark.parametrize("x", [10, 30, 60, 120])
    @pytest.mark.parametrize("p,m", [(0.5, 0), (2.5, 0), (1.0, 3), (2.5, 9)])
    def test_integer_error_within_estimate(self, x, p, m):
        r = lhs_binomial_shifted(float(x), p, m)
        exact = sum(Fraction((-1) ** k * math.comb(x, k)) / (Fraction(p) + k) ** (m + 1)
                    for k in range(0, x + 1))
        assert r.value == float(exact)
        assert abs(Fraction(r.value) - exact) <= Fraction(r.tail_estimate)
        assert r.tail_estimate > 0.0

    def test_half_pi(self):
        # x = p = 1/2, m = 0 sums to the beta value pi/2
        r = lhs_binomial_shifted(0.5, 0.5, 0)
        assert_close(r.value, math.pi / 2.0, DIRECT_TOL)

    @pytest.mark.parametrize("x,p,m", [(0.5, 1.0, 1), (2.5, 0.5, 2), (1.5, 2.5, 3)])
    def test_frozen(self, x, p, m):
        assert_close(lhs_binomial_shifted(x, p, m).value, REFS[("t35", x, p, m)], DIRECT_TOL)

    @pytest.mark.filterwarnings("error")
    def test_large_x(self):
        assert not EvalConfig().converged(lhs_binomial_shifted(50.5, 1.0, 0))
        with pytest.raises(NonFiniteTermError):
            lhs_binomial_shifted(500.5, 1.0, 0)

    # 0x1.51cb453b9536dp-26 is the least p with p^-40 < 2^1024 + 2^3
    EDGE_P = float.fromhex("0x1.51cb453b9536dp-26")

    @pytest.mark.parametrize("x,p,m", [(59.0, 1e-10, 39),
                                       (3.0, math.nextafter(EDGE_P, 0.0), 39)])
    def test_integer_past_binary64_refused_before_summing(self, monkeypatch, x, p, m):
        # p^-(m+1) alone bounds the sum past binary64: the message of the
        # final division, without taking the first binomial of the sum
        def no_sum(*args):
            raise AssertionError("summed")

        monkeypatch.setattr(series.math, "comb", no_sum)
        with pytest.raises(DomainError) as err:
            lhs_binomial_shifted(x, p, m)
        assert str(err.value) == f"x = {x}, p = {p} and m = {m} put the finite sum past binary64"

    def test_integer_just_inside_the_overflow_bound(self):
        r = lhs_binomial_shifted(3.0, self.EDGE_P, 39)
        exact = sum(Fraction((-1) ** k * math.comb(3, k)) / (Fraction(self.EDGE_P) + k) ** 40
                    for k in range(4))
        assert r.value == float(exact) == 1.7976931348623071e308

    def test_first_term_past_binary64_raises(self):
        # the k = 0 term divides by 0.1^401, which underflows to 0: the term is
        # infinite, and the sum ends in NonFiniteTermError, not ZeroDivisionError
        assert series._power(401, (0.1,)).head(64)[0] == 0.0
        with pytest.raises(NonFiniteTermError, match="^a term of the series divides by 0$"):
            lhs_binomial_shifted(0.5, 0.1, 400)


class TestEulerSums:
    def test_classical(self):
        assert_close(lhs_linear_euler(1, 2).value, 2.0 * ZETA3, 1e-11)
        assert_close(lhs_linear_euler(2, 2).value, 7.0 / 4.0 * ZETA4, 1e-11)
        assert_close(lhs_quadratic_euler(2).value, 17.0 / 4.0 * ZETA4, 1e-11)

    @pytest.mark.parametrize("p,q", [(2, 3), (2, 4), (3, 4)])
    def test_symmetry_relation(self, p, q):
        spq = lhs_linear_euler(p, q).value
        sqp = lhs_linear_euler(q, p).value
        want = riemann_zeta(float(p)) * riemann_zeta(float(q)) + riemann_zeta(float(p + q))
        assert_close(spq + sqp, want, 1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            lhs_linear_euler(0, 2)
        with pytest.raises(DomainError):
            lhs_quadratic_euler(1)


class TestIndexShiftBridge:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_bridge(self, m):
        # stated form = k-power form - (m+2) zeta(m+3) + sum zeta(k+1) zeta(m+2-k)
        stated = lhs_variant2(0, m).value
        power = quadratic_minus_linear(m + 1).value
        correction = -(m + 2) * riemann_zeta(m + 3.0) + math.fsum(
            riemann_zeta(k + 1.0) * riemann_zeta(float(m + 2 - k)) for k in range(1, m + 1)
        )
        assert_close(stated, power + correction, 1e-8)


def zeta_tail_reference(m):
    """sum_{j>=2} zeta(m+j, 2) to 30 digits."""
    with mp.workdps(30):
        return mp.nsum(lambda j: mp.zeta(m + j, 2), [2, mp.inf])


def zeta_power_reference(p, m):
    """sum_{j>=0} p^j zeta(m+j+2, p+1) to 30 digits, p taken exactly."""
    with mp.workdps(30):
        p = mp.mpf(p)
        return mp.nsum(lambda j: p**j * mp.zeta(m + j + 2, p + 1), [0, mp.inf])


# the series summed by series._sum_geometric, with their 30-digit references
ZETA_REFERENCES = {"zeta_tail_sum": zeta_tail_reference, "zeta_power_series": zeta_power_reference}

# (series, parameters, the ratio r proven in its docstring)
GEOMETRIC_POINTS = [("zeta_tail_sum", (m,), 0.5) for m in range(11)]
GEOMETRIC_POINTS += [("zeta_power_series", (p, m), p / (p + 1.0))
                     for p in (0.1, 0.4, 0.9) for m in range(6)]

# (s, a) for hurwitz_zeta: the a the two series reach at s up to 1000, with
# s = 10..20 crossing its switch to the direct branch, and the a = 1 of the
# riemann_zeta(5..13) the closed forms read
HURWITZ_POINTS = [(11, 1.457)] + [(s, a) for a in [2.0] + [1.0 + k / 50 for k in range(1, 50)]
                                  for s in [*range(2, 21), 40, 70, 100, 200, 1000]]
HURWITZ_POINTS += [(s, 1.0) for s in range(5, 14)]


class TestZetaTailSeries:
    def test_goldbach(self):
        r = zeta_tail_sum(0)
        assert EvalConfig().converged(r)
        assert_close(r.value, 1.0, 1e-12)

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_family(self, m):
        want = m + 1.0 - math.fsum(riemann_zeta(k + 1.0) for k in range(1, m + 1))
        assert_close(zeta_tail_sum(m).value, want, 1e-11)

    def test_power_series(self):
        assert_close(zeta_power_series(0.4, 1).value, REFS[("cor38", 0.4, 1)], 1e-11)
        with pytest.raises(DomainError):
            zeta_power_series(1.5, 1)

    @pytest.mark.parametrize("name, params, r", GEOMETRIC_POINTS)
    def test_ratio_bound_and_value(self, monkeypatch, name, params, r):
        """The proof as a check: every term the loop took is at most r times
        the one before, the value lies within its estimate of the reference,
        and the stop comes within 60 terms."""
        seen = []
        sum_geometric = series._sum_geometric

        def recording(term, *args):
            def recorded(j):
                seen.append(term(j))
                return seen[-1]

            return sum_geometric(recorded, *args)

        monkeypatch.setattr(series, "_sum_geometric", recording)
        res = getattr(series, name)(*params)
        assert len(seen) == res.terms_used <= 60
        assert all(b <= r * a for a, b in zip(seen, seen[1:]))
        assert EvalConfig().converged(res)
        assert abs(res.value - ZETA_REFERENCES[name](*params)) <= res.tail_estimate

    def test_hurwitz_rounding_covers_the_terms(self):
        """hurwitz_zeta within _HURWITZ_ROUNDING U over the (s, a) the two
        series reach, integer s >= 2, a = 2 and a = 1 + p, 0 < p < 1, on both
        sides of its switch to the direct branch (s = 12 at a = 1, s = 15 at
        a = 2); and at the riemann_zeta(5..13) the closed forms read.  (11,
        1.457) is the worst point measured on a finer grid before the direct
        branch existed."""
        with mp.workdps(30):
            for s, a in HURWITZ_POINTS:
                want = mp.zeta(s, a)
                got = hurwitz_zeta(float(s), a)
                assert abs(got - want) <= series._HURWITZ_ROUNDING * series._U * want, (s, a)

    def test_hurwitz_direct_branch_drops_below_a_quarter_ulp(self):
        """Where hurwitz_zeta takes its direct branch, it returns the fsum of
        N terms, N the fewest whose remainder bound, (N + a)^-s (1 + (N +
        a)/(s - 1)) over a^-s, is at most U/4; the remainder it drops,
        zeta(s, a + N), is at most U/4 zeta(s, a); and the points reach both
        branches."""
        branches = set()
        with mp.workdps(30):
            for s, a in HURWITZ_POINTS:
                n_direct = max(0, math.ceil(20.0 + 0.8 * s - a))
                terms = special._direct_terms(float(s), a, n_direct)
                branches.add(terms is not None)
                if terms is not None:
                    n = len(terms)

                    def bound(n):
                        return (a / (n + mp.mpf(a))) ** s * (1 + (n + mp.mpf(a)) / (s - 1))
                    assert n <= n_direct and bound(n) <= series._U / 4 < bound(n - 1), (s, a, n)
                    assert mp.zeta(s, a + n) <= series._U / 4 * mp.zeta(s, a), (s, a, n)
                    assert terms == [(j + a) ** -float(s) for j in range(n)], (s, a)
                    assert hurwitz_zeta(float(s), a) == math.fsum(terms), (s, a)
        assert branches == {True, False}

    def test_underflowing_zeta_tail_stops_at_once(self):
        # zeta(1102, 2) is below the least binary64: the first term is 0
        r = zeta_tail_sum(1100)
        assert (r.value, r.tail_estimate, r.terms_used) == (0.0, 0.0, 1)
        assert EvalConfig().converged(r)


class TestGeometricStop:
    """series._sum_geometric on series whose sums are known."""

    def test_geometric(self):
        res = series._sum_geometric(lambda j: 2.0**-j, 0, 0.5, 0.0, 0.0)
        assert EvalConfig().converged(res)
        assert abs(res.value - 2.0) <= res.tail_estimate <= 1e-15
        assert res.terms_used <= 60

    def test_non_finite(self):
        with pytest.raises(NonFiniteTermError):
            series._sum_geometric(lambda j: math.inf if j == 5 else 2.0**-j, 0, 0.5, 0.0, 0.0)


class TestHalfShift:
    """The half-shifted example's series is variant 3h at p = -1/2, n = 0."""

    def test_m_zero_closed_form(self):
        # 2 zeta(2) - 4 ln^2 2
        assert_close(lhs_variant3h(-0.5, 0, 0).value, 2.0 * ZETA2 - 4.0 * LN2**2, 1e-11)

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_frozen(self, m):
        assert_close(lhs_variant3h(-0.5, 0, m).value, REFS[("cor310", -0.5, m)], EM_TOL)


class TestOracleContracts:
    def test_determinism(self):
        assert lhs_variant1(2, 2) == lhs_variant1(2, 2)

    @pytest.mark.parametrize("fn, args", [(lhs_variant1, (2.0, 1)), (lhs_variant2, (1, 2.0)),
                                          (lhs_alt, (3.0, 1.0)), (lhs_variant3, (0.5, 2.0, 0.0)),
                                          (lhs_variant3h, (1.5, 1.0, 1)),
                                          (lhs_variant4, (0.5, 0, 2.0))])
    def test_integral_float_n_and_m_are_the_ints(self, fn, args):
        """An integral n or m given as a float sums as the int, bit for bit."""
        assert fn(*args) == fn(*(int(v) if i >= len(args) - 2 else v
                                 for i, v in enumerate(args)))

    @pytest.mark.parametrize("n, m, named", [(2.5, 1, "n"), (math.inf, 1, "n"), (math.nan, 1, "n"),
                                             (1, 1.5, "m"), (1, math.inf, "m"),
                                             (1, math.nan, "m")])
    def test_n_and_m_that_are_not_integers_are_named(self, n, m, named):
        with pytest.raises(DomainError, match=f"^{named} must be"):
            lhs_variant1(n, m)
        with pytest.raises(DomainError, match=f"^{named} must be"):
            lhs_variant3(0.5, n, m)

    # every other oracle with an integer order or index, and the argument it
    # takes there: (function, arguments, position of the integer, name, least)
    _INTEGER_ARGS = [
        (lhs_linear_euler, (2, 3), 0, "p", 1), (lhs_linear_euler, (2, 3), 1, "q", 2),
        (lhs_quadratic_euler, (3,), 0, "q", 2), (quadratic_minus_linear, (3,), 0, "q", 2),
        (lhs_central_binom, (0.5, 1), 1, "m", 0), (lhs_variant3h, (-0.5, 0, 1), 2, "m", 0),
        (lhs_base_binomial, (0.5, 2), 1, "m", 1), (lhs_base_binomial, (3.0, 2), 1, "m", 1),
        (lhs_binomial_shifted, (0.5, 1.0, 1), 2, "m", 0),
        (lhs_binomial_shifted, (3.0, 1.0, 1), 2, "m", 0),
        (zeta_tail_sum, (1,), 0, "m", 0), (zeta_power_series, (0.4, 1), 1, "m", 0),
    ]

    @pytest.mark.parametrize("fn, args, at, name, least", _INTEGER_ARGS)
    def test_integral_float_orders_are_the_ints(self, fn, args, at, name, least):
        """An integral float sums as the int, bit for bit, as n and m do."""
        given = args[:at] + (float(args[at]),) + args[at + 1:]
        assert fn(*given) == fn(*args)

    @pytest.mark.parametrize("fn, args, at, name, least", _INTEGER_ARGS)
    def test_orders_that_are_not_integers_are_named(self, fn, args, at, name, least):
        for bad in (args[at] + 0.5, least - 1, math.inf, math.nan):
            given = args[:at] + (bad,) + args[at + 1:]
            with pytest.raises(DomainError,
                               match=f"^{name} must be an integer >= {least}, got {bad}$"):
                fn(*given)

    def test_integer_x_sums_that_leave_binary64_are_named(self):
        """A finite sum is exact whatever its terms' size, and only a value
        past binary64, or below its normal numbers, names the parameters."""
        # 5 - 10/2^1000 + ... rounds to 5, where 5^1000 leaves binary64
        assert lhs_base_binomial(5.0, 1000) == (5.0, 5.0 * series._U, 5)
        assert lhs_binomial_shifted(5.0, 1.0, 1000).value == 1.0
        # 0.5^-1023 = 2^1023 is the largest power of 2 in binary64
        assert lhs_binomial_shifted(0.0, 0.5, 1022).value == 2.0**1023
        for x, p, m in ((0.0, 0.5, 1023), (5.0, 0.001, 200), (5.0, 3e-25, 12)):
            with pytest.raises(DomainError, match="^" + re.escape(
                    f"x = {x}, p = {p} and m = {m} put the finite sum past binary64")):
                lhs_binomial_shifted(x, p, m)
        # 2^-1022 is the least normal number and 2^-1023 is not
        assert lhs_binomial_shifted(0.0, 2.0, 1021).value == 2.0**-1022
        with pytest.raises(DomainError, match="^" + re.escape(
                "x = 0.0, p = 2.0 and m = 1022 put the finite sum below the normal numbers")):
            lhs_binomial_shifted(0.0, 2.0, 1022)

    def test_integer_grid_sums_are_correctly_rounded(self):
        """Every integer-x left side of the default grid is its exact
        rational sum rounded once, bit for bit."""
        points = [params for ident, params in identities.default_grid()
                  if ident in (identities.IdentityId.THM_BASE_E15,
                               identities.IdentityId.THM_BASE_35)]
        assert len(points) == 125 and all(float(pt["x"]).is_integer() for pt in points)
        for pt in points:
            x, m = int(pt["x"]), pt["m"]
            if "p" in pt:
                got = lhs_binomial_shifted(pt["x"], pt["p"], m).value
                p = Fraction(pt["p"])
                exact = sum(Fraction((-1) ** k * math.comb(x, k)) / (p + k) ** (m + 1)
                            for k in range(x + 1))
            else:
                got = lhs_base_binomial(pt["x"], m).value
                exact = sum(Fraction((-1) ** (k - 1) * math.comb(x, k), k**m)
                            for k in range(1, x + 1))
            assert got.hex() == float(exact).hex(), pt

    @pytest.mark.parametrize("p", [math.inf, math.nan, 0.0, -1.0])
    def test_p_must_be_finite_and_positive(self, p):
        for call in (lambda: lhs_central_binom(p, 1), lambda: lhs_binomial_shifted(0.5, p, 1),
                     lambda: lhs_binomial_shifted(2.0, p, 1)):
            with pytest.raises(DomainError, match="^p must be finite and > 0"):
                call()

    @pytest.mark.parametrize("p", [math.inf, math.nan, -1.0, -2.0])
    def test_shifted_p_must_be_finite_and_above_minus_one(self, p):
        for fn in (lhs_variant3, lhs_variant3h, lhs_variant4):
            for n in (0, 1):
                with pytest.raises(DomainError, match="^p must be finite and > -1"):
                    fn(p, n, 1)

    @pytest.mark.parametrize("p", [-0.999, -0.5, -1e-300, 0.0, -0.0])
    def test_shifted_families_take_p_in_minus_one_to_zero(self, p):
        """Every denominator p + n + k, k >= 1, is positive for p > -1: the
        three shifted families sum there, each within its estimate of the
        30-digit reference test_em_oracles takes for its pinned sets."""
        for name in ("lhs_variant3", "lhs_variant3h", "lhs_variant4"):
            for n in (0, 2):
                res = getattr(series, name)(p, n, 10)
                sign = 1 if name == "lhs_variant4" else (-1) ** n
                assert EvalConfig().converged(res), (name, p, n)
                assert abs(res.value - float(sign * T._reference(name, (p, n, 10)))) \
                    <= res.tail_estimate, (name, p, n)

    def test_shifted_first_denominator_below_2_to_the_minus_1000_is_named(self):
        """Next to p = -1 the first denominator of variant 3, (p + 1)^e at
        k = 1, leaves binary64 as e grows: (1/2)^1000 = 2^-1000 is summed,
        and one order more is refused by name."""
        assert math.isfinite(lhs_variant3(-0.5, 0, 999).value)
        with pytest.raises(DomainError, match=re.escape(
                "p = -0.5 puts (p + 0 + 1)^1001 below 2^-1000")):
            lhs_variant3(-0.5, 0, 1000)

    @pytest.mark.parametrize("name, m, want", [("lhs_variant3h", 1000, 2.70159155217585556e-177),
                                               ("lhs_variant4", 1001, 0.0)])
    def test_exact_zero_first_terms_are_not_summed(self, name, m, want):
        """Variants 3h and 4 start at the first k whose term is not an exact
        zero: H_0 = 0 at k = 1, and H_1^2 - H_1^(2) = 0 at k = 2 for variant 4.
        So the first denominator they read, at k = 2 or 3, is above 1 for
        every p > -1, and next to p = -1 they sum where variant 3 is refused:
        variant 3h at p = -1/2, n = 0, m = 1000 is
        1/(2 (3/2)^1001) + (3/2)/(3 (5/2)^1001) + ... = 2.70159e-177 (a 30-digit
        mpmath sum), and variant 4's first term, (1/3) (5/2)^-1001 = 1e-399,
        underflows to 0.  The terms these sums skip are exact zeros, so no
        other value moves."""
        res = getattr(series, name)(-0.5, 0, m)
        assert EvalConfig().converged(res)
        assert abs(res.value - want) <= res.tail_estimate

    @pytest.mark.parametrize("x", [math.inf, math.nan, -1.0, -2.0])
    def test_x_must_be_finite_and_above_minus_one(self, x):
        with pytest.raises(DomainError, match="^x must be finite and > -1"):
            lhs_base_binomial(x, 1)
        with pytest.raises(DomainError, match="^x must be finite and > -1"):
            lhs_binomial_shifted(x, 1.0, 1)

    @pytest.mark.parametrize("x, m", [(1e6, 1), (1e300, 1), (1e308, 1), (5000.0, 12),
                                      (10.0, 30000)])
    def test_integer_x_past_the_work_cap_is_refused_unsummed(self, monkeypatch, x, m):
        """A finite sum whose work bound passes the cap names its parameters
        before the first term: math.comb, which starts the sum, never runs.
        At x = 1e308 lgamma overflows; at x = 10, m = 30000 the powers are
        multiplied by Karatsuba, and the bound is 1.5^2.6 that of m = 20000."""
        def unsummed(*args):
            raise AssertionError("the sum was started")
        monkeypatch.setattr(math, "comb", unsummed)
        with pytest.raises(DomainError, match="^" + re.escape(
                f"x = {x} and m = {m} put the exact finite sum past its work cap")):
            lhs_base_binomial(x, m)
        with pytest.raises(DomainError, match="^" + re.escape(
                f"x = {x}, p = 1.0 and m = {m} put the exact finite sum past its work cap")):
            lhs_binomial_shifted(x, 1.0, m)

    def test_integer_x_work_cap_edge(self):
        """binom(1030, 515) is past binary64, which the exact sum does not
        mind; at m = 12 the work cap falls between x = 991 and 992."""
        assert lhs_base_binomial(1030.0, 1).value == pytest.approx(
            math.fsum(1.0 / k for k in range(1, 1031)), rel=1e-15)
        assert EvalConfig().converged(lhs_base_binomial(991.0, 12))
        with pytest.raises(DomainError, match="^x = 992.0 and m = 12 put the exact finite sum"):
            lhs_base_binomial(992.0, 12)

    def test_karatsuba_sized_powers_are_summed(self):
        """At x = 10, m = 20000 each power k^m has up to 66439 bits, which
        CPython multiplies by Karatsuba: the sum takes tens of ms and is
        under the cap, and it is the exact sum rounded once."""
        want = float(sum(Fraction((-1) ** (k - 1) * math.comb(10, k), k**20000)
                         for k in range(1, 11)))
        res = lhs_base_binomial(10.0, 20000)
        assert res.value == want == 10.0
        assert res.tail_estimate == series._U * 10.0

    def test_monotone_partial_sums(self):
        # positive-term series: partial sums never exceed value + tail_estimate
        res = lhs_variant1(1, 1)
        n = 2 * series._SPLITS[-1]  # as far as the harmonic table reaches, past the summed head
        k = np.arange(1.0, n + 1.0)
        h = np.array(series._harmonic_numbers(1, series._SPLITS[-1]))
        terms = h[1 : n + 1] / ((k + 2.0) ** 2 * (k + 1.0))
        partials = np.cumsum(terms)
        assert (np.diff(partials) >= 0.0).all()
        assert (partials <= res.value + res.tail_estimate).all()

    @pytest.mark.parametrize("prev", [False, True])
    @pytest.mark.parametrize("order", range(1, 11))
    def test_harmonic_factor_is_its_definition(self, order, prev):
        """Entry k of the harmonic factor's head is H_k^(order), or
        H_{k-1}^(order) with prev, within the factor's stated rounding of the
        correctly rounded sum of the correctly rounded terms."""
        f = series._harmonic(order, prev)
        K = series._SPLITS[-1]
        head = f.head(K)
        assert head[0] == (-math.inf if prev else 0.0)
        for k in (1, 2, 3, 10, 100, 500, 999, K):
            want = math.fsum(1 / j**order for j in range(1, k - prev + 1))
            bound = (f.rounding + f.rounding_per_k * k) * series._U * want
            assert abs(head[k] - want) <= bound, (k, head[k], want)
        for K in series._SPLITS[:-1]:
            assert f.head(K) == head[: K + 1]

    def test_a_sum_from_zero_over_a_pole_is_not_finite(self):
        """H_{k-1} is -inf at k = 0, so a sum from k = 0 over it ends in
        NonFiniteTermError rather than a value."""
        with pytest.raises(NonFiniteTermError):
            series._em_sum(0, series._harmonic(prev=True), series._power(2, 1.0))

    def test_terms_used_reports_the_split(self):
        """terms_used is the sum's own K: the least on the ladder that is at
        least 8 times the largest scale among its factors."""
        assert lhs_variant1(0, 1).terms_used == 64
        assert lhs_variant1(7, 1).terms_used == 64
        assert lhs_variant1(8, 1).terms_used == 128  # the power's shift n + 1 = 9
        assert lhs_variant3(20.0, 2, 1).terms_used == 256  # p + n = 22
        assert lhs_base_binomial(100.5, 1).terms_used == 1024  # |x| + 1 past 1024 / 8
        assert [series._split(c) for c in (0.0, 8.0, 8.5, 16.0, 32.0, 64.0, 128.0, 1e6)] == [
            64, 64, 128, 128, 256, 512, 1024, 1024]

    def test_tail_estimate_meets_contract(self):
        r = lhs_variant1(0, 1)
        assert EvalConfig().converged(r)
        assert r.tail_estimate <= 1e-10 * max(1.0, abs(r.value))


# ------------------------------ exact head sums ------------------------------


def _packed(v: float) -> bytes:
    """The bits of v, so that equal values of opposite sign of zero differ."""
    return struct.pack("<d", v)


def _random_heads(seed: int, count: int) -> list[np.ndarray]:
    """Seeded arrays of up to 1002 terms (3 for near ties), a quarter of each
    kind: magnitudes spread over 60 decades with mixed signs; sums that
    cancel, to about 1e-4 of their largest term, as a head of alternating
    terms may; sums that cancel deeply, each term beside its negation plus
    terms 1e-12 smaller; and near ties, a float plus half its ulp, give or
    take a little or nothing."""
    rng = np.random.default_rng(seed)

    def tens(lo, hi, n):
        return np.array([10.0**v for v in rng.uniform(lo, hi, n)])

    heads = []
    for i in range(count):
        n = int(rng.integers(1, 1002))
        if i % 4 == 0:
            t = rng.choice([-1.0, 1.0], n) * tens(-30.0, 30.0, n)
        elif i % 4 < 3:
            n = (n + 2) // 3
            x = rng.standard_normal(n) * tens(-3.0, 3.0, n)
            small = (1e-4 if i % 4 == 1 else 1e-12) * rng.standard_normal(n)
            t = np.concatenate((x, -x * (1.0 + small) if i % 4 == 1 else -x, small))
            t = t[rng.permutation(len(t))]
        else:
            x = float(rng.uniform(0.5, 2.0) * 2.0 ** int(rng.integers(-300, 300)))
            half = math.ulp(x) / 2.0
            nudge = half * 2.0 ** -int(rng.integers(20, 80)) * rng.choice([-1.0, 0.0, 1.0])
            t = np.array([x, half, nudge])
        heads.append(t)
    return heads


def _em_head(monkeypatch, terms) -> float:
    """_em_sum's head value for `terms`: they are the first factor's head,
    times a head of ones, which keeps every bit, and em_tail returns a tail
    of -0.0, which adds nothing to any value, the sign of zero included."""
    monkeypatch.setattr(series, "em_tail", lambda model, K: (-0.0, 0.0))
    unit = asymptotics.LogPowerSeries(2.0, 0, ((1.0,),))
    terms = tuple(float(t) for t in terms)
    head = series._Factor(lambda K: terms, unit, 0.0, 0.0)
    ones = series._Factor(lambda K: (1.0,) * len(terms), unit, 0.0, 0.0)
    return series._em_sum(0, head, ones).value


class TestExactHeadSum:
    """_em_sum sums its head to math.fsum's bits, the sign of zero included,
    and where fsum raises, it raises fsum's error."""

    def test_random_cancelling_and_near_tie_heads(self, monkeypatch):
        for terms in _random_heads(23, 600):
            assert _packed(_em_head(monkeypatch, terms)) == _packed(math.fsum(terms)), terms

    @pytest.mark.parametrize("terms", [[1.0, 2.0**-53], [2.0**-53, 1.0], [-1.0, -(2.0**-53)],
                                       [1.5, 2.0**-53], [3.0, -(2.0**-52)], [1.0, -1.0]])
    def test_exact_ties_and_exact_zero_are_fsums(self, monkeypatch, terms):
        """A sum exactly on a tie rounds to even, and one exactly 0 is +0.0,
        as fsum has them."""
        assert _packed(_em_head(monkeypatch, terms)) == _packed(math.fsum(terms))

    @pytest.mark.parametrize("terms", [[0.0, 0.0], [-0.0, -0.0, -0.0], [0.0, -0.0],
                                       [2.0**1000, 1.0], [2.0**-901, -(2.0**-950)],
                                       [1e308, 1e308], [1.0, math.inf], [-math.inf, 2.0],
                                       [math.inf, -math.inf], [math.nan, 1.0], [math.inf, math.nan]])
    def test_zeros_and_non_finite_heads_are_fsums(self, monkeypatch, terms):
        """The same value as fsum, or the same exception.  A head fsum sums to
        inf or nan ends, as any sum that is not finite does, in
        NonFiniteTermError."""
        try:
            want = math.fsum(terms)
        except (ValueError, OverflowError) as exc:
            with pytest.raises(type(exc)) as got:
                _em_head(monkeypatch, terms)
            assert type(got.value) is type(exc)
            return
        if math.isfinite(want):
            assert _packed(_em_head(monkeypatch, terms)) == _packed(want)
        else:
            with pytest.raises(NonFiniteTermError):
                _em_head(monkeypatch, terms)
