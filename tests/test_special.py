"""Scalar special functions: values, recurrences, reflection, limit sweeps."""

import math
import time

import mpmath as mp
import pytest

from eulersums import (
    EULER_GAMMA,
    ZETA2,
    ZETA3,
    ZETA4,
    DomainError,
    PoleError,
    digamma,
    gen_harmonic,
    hurwitz_zeta,
    polygamma,
    riemann_zeta,
)

from eulersums import special
from eulersums.series import _harmonic_numbers
from eulersums.special import BERNOULLI_2J

from conftest import REFS, assert_close


class TestGamma:
    def test_negative_half(self):
        assert_close(math.gamma(-0.5), -2.0 * math.sqrt(math.pi), 1e-13)

    def test_half_minus_k(self):
        # Gamma(1/2 - k) = sqrt(pi) (-1)^k 4^k k! / (2k)!
        for k in range(0, 7):
            want = math.sqrt(math.pi) * (-1.0) ** k * 4.0**k * math.factorial(k) / math.factorial(2 * k)
            assert_close(math.gamma(0.5 - k), want, 1e-12)

    def test_factorial(self):
        assert math.gamma(5.0) == 24.0

    def test_poles(self):
        for x in (0.0, -1.0, -7.0):
            with pytest.raises(ValueError):
                math.gamma(x)


class TestDigamma:
    def test_at_one(self):
        assert_close(digamma(1.0), -EULER_GAMMA, 1e-13)

    def test_harmonic_shift(self):
        assert_close(digamma(6.0), 137.0 / 60.0 - EULER_GAMMA, 1e-13)

    def test_seven_halves(self):
        # psi(7/2) = psi(1/2) + 2H_6 - H_3 with psi(1/2) = -gamma - 2 ln 2
        want = -EULER_GAMMA - 2.0 * math.log(2.0) + 2.0 * 49.0 / 20.0 - 11.0 / 6.0
        assert_close(digamma(3.5), want, 1e-12)
        # cross-check by the raw shift psi(z+m) = psi(z) + sum 1/(z+j)
        shift = sum(1.0 / (0.5 + j) for j in range(3))
        assert_close(digamma(3.5), digamma(0.5) + shift, 1e-13)

    def test_pole(self):
        with pytest.raises(PoleError):
            digamma(-2.0)


class TestPolygamma:
    def test_trigamma_one(self):
        assert_close(polygamma(1, 1.0), ZETA2, 1e-12)

    def test_tetragamma_one(self):
        assert_close(polygamma(2, 1.0), -2.0 * ZETA3, 1e-12)

    def test_trigamma_two(self):
        assert_close(polygamma(1, 2.0), ZETA2 - 1.0, 1e-12)

    def test_order_domain(self):
        with pytest.raises(DomainError):
            polygamma(0, 1.0)

    def test_pole(self):
        with pytest.raises(PoleError):
            polygamma(1, -3.0)

    def test_overflow_is_domain_error(self):
        with pytest.raises(DomainError, match="overflows binary64"):
            polygamma(400, 1.0)

    def test_asymptotic_terms_fall(self):
        """From y = 10 + k on, each of the 12 Bernoulli terms
        B_2j (2j+k-1)!/(2j)! y^-(2j+k) is below 0.12 of the one before, so
        the series is summed before its smallest term and needs no cut."""
        worst = max(abs(BERNOULLI_2J[j] / BERNOULLI_2J[j - 1])
                    * (2 * j + k + 1) * (2 * j + k) / ((2 * j + 2) * (2 * j + 1)) / (10.0 + k) ** 2
                    for k in range(1, 171) for j in range(1, len(BERNOULLI_2J)))
        assert worst < 0.12

    @pytest.mark.parametrize("k, x", [(24, 2e-12), (23, -1e-12), (30, 1e-11), (30, -1 + 1e-11)])
    def test_near_pole_overflow_is_domain_error(self, k, x):
        # k!/x^(k+1) past binary64, or x^(k+1) rounded to 0
        with pytest.raises(DomainError, match=rf"polygamma\({k}, {x}\) overflows binary64"):
            polygamma(k, x)

    def test_near_pole_finite_value(self):
        # the largest order at 2e-12 whose terms stay finite: the pole term
        # 23!/x^24 near the top of binary64
        assert polygamma(23, 2e-12) == pytest.approx(math.factorial(23) / 2e-12**24, rel=1e-12)


class TestZeta:
    def test_two(self):
        assert_close(riemann_zeta(2.0), math.pi**2 / 6.0, 1e-15)

    def test_four(self):
        assert_close(riemann_zeta(4.0), math.pi**4 / 90.0, 1e-15)

    def test_three(self):
        assert_close(riemann_zeta(3.0), REFS[("zeta", 3)], 1e-13)

    def test_euler_maclaurin_path_vs_partial_sums(self):
        # independent check: 2e6 direct terms plus integral tail bracket
        s, a = 2.5, 1.25
        n = 2_000_000
        partial = math.fsum((j + a) ** -s for j in range(n))
        tail_lo = (n + a) ** (1 - s) / (s - 1)  # integral below < tail < integral above
        got = hurwitz_zeta(s, a)
        assert partial + tail_lo <= got <= partial + tail_lo + (n + a) ** -s
        assert_close(got, partial + tail_lo + 0.5 * (n + a) ** -s, 1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            riemann_zeta(1.0)
        with pytest.raises(DomainError):
            hurwitz_zeta(2.0, 0.0)


class TestHurwitz:
    def test_reduces_to_zeta(self):
        assert_close(hurwitz_zeta(2.0, 1.0), ZETA2, 1e-13)

    def test_drop_first_term(self):
        assert_close(hurwitz_zeta(2.0, 2.0), ZETA2 - 1.0, 1e-12)

    def test_half_argument(self):
        assert_close(hurwitz_zeta(3.0, 0.5), 7.0 * ZETA3, 1e-12)

    def test_frozen_points(self):
        assert_close(hurwitz_zeta(2.0, 101.0), REFS[("hurwitz", 2, 101)], 1e-13)
        assert_close(hurwitz_zeta(4.0, 51.0), REFS[("hurwitz", 4, 51)], 1e-13)

    @pytest.mark.parametrize("s, a", [(math.nan, 2.0), (math.inf, 2.0), (-math.inf, 2.0),
                                      (2.0, math.nan), (2.0, math.inf)])
    def test_nan_and_infinite_arguments_are_domain_errors(self, s, a):
        with pytest.raises(DomainError):
            hurwitz_zeta(s, a)

    @pytest.mark.parametrize("s, a", [(200.0, 1e-3), (2.0, 1e-300), (1.5, 1e-250)])
    def test_powers_past_binary64_are_domain_errors(self, s, a):
        """a^-s overflows at these points; the error names s and a."""
        with pytest.raises(DomainError, match=rf"hurwitz_zeta\({s}, {a}\)"):
            hurwitz_zeta(s, a)

    @pytest.mark.parametrize("s, a, most", [(57.0, 2.0, 3), (2001.0, 1.0, 1)])
    def test_direct_branch_takes_only_the_terms_its_bound_needs(self, s, a, most):
        """At large s the terms past the first few are below U/4 of the first,
        so the direct branch sums at most `most` of them in place of the
        Euler-Maclaurin branch's 20 + 0.8 s - a, and hurwitz_zeta returns
        their sum."""
        terms = special._direct_terms(s, a, math.ceil(20.0 + 0.8 * s - a))
        assert len(terms) <= most
        assert hurwitz_zeta(s, a) == math.fsum(terms)


class TestHarmonic:
    def test_zero(self):
        assert gen_harmonic(0, 1) == 0.0
        assert gen_harmonic(0, 5) == 0.0

    def test_values(self):
        assert_close(gen_harmonic(4, 1), 25.0 / 12.0, 1e-15)
        assert_close(gen_harmonic(3, 2), 49.0 / 36.0, 1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            gen_harmonic(-1, 1)
        with pytest.raises(DomainError):
            gen_harmonic(3, 0)


class TestHarmonicCache:
    """The series' memoized harmonic-number tables, one per order and split
    K: H_0^(m) .. H_2K^(m), here at the largest K = 1024."""

    def test_build(self):
        for m in (1, 2, 3, 4):
            arr = _harmonic_numbers(m, 1024)
            assert len(arr) == 2049 and arr[0] == 0.0
            assert all(b > a for a, b in zip(arr, arr[1:]))
            # adjacent stored values differ by n^-m up to the entry rounding,
            # which compensation keeps at ~eps * H_n absolute
            for n in (1, 7, 499, 2048):
                assert abs((arr[n] - arr[n - 1]) - float(n) ** -m) <= 5e-15
            for n in (1, 77, 100, 2048):
                assert_close(arr[n], gen_harmonic(n, m), 1e-15)

    def test_bits_of_the_scalar_neumaier_loop(self):
        """The build gives, bit for bit, Neumaier's compensated running sum in
        its two-branch form, with pow for the terms: the one-branch form it
        takes holds for positive terms that never exceed the first, and
        n^m by multiplies is exact for these n and m.  The table of each K
        is the first 2K + 1 entries of the largest."""
        for m in (1, 2, 3):
            s = comp = 0.0
            want = [0.0]
            for n in range(1, 2049):
                term = 1.0 / float(n) ** m
                t = s + term
                comp += (s - t) + term if abs(s) >= abs(term) else (term - t) + s
                s = t
                want.append(s + comp)
            assert [v.hex() for v in _harmonic_numbers(m, 1024)] == [v.hex() for v in want]
            assert _harmonic_numbers(m, 64) == tuple(want[:129])

    def test_readonly(self):
        with pytest.raises(TypeError):
            _harmonic_numbers(1, 64)[3] = 0.0


# ------------------------- invariants and sweeps -----------------------------


@pytest.mark.parametrize("z", [0.3, 1.7, 4.2])
@pytest.mark.parametrize("k", range(0, 7))
def test_polygamma_recurrence(k, z):
    if k == 0:
        lhs = digamma(z + 1.0) - digamma(z)
    else:
        lhs = polygamma(k, z + 1.0) - polygamma(k, z)
    rhs = (-1.0) ** k * math.factorial(k) / z ** (k + 1)
    assert_close(lhs, rhs, 1e-11)


@pytest.mark.parametrize("m", [1, 5, 20])
@pytest.mark.parametrize("z", [0.4, 1.0, 2.7])
def test_digamma_shift(z, m):
    want = math.fsum(1.0 / (z + j) for j in range(m))
    assert_close(digamma(z + m) - digamma(z), want, 1e-12)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("z", [0.4, 1.0, 2.7])
def test_polygamma_shift(z, k):
    m = 12
    want = (-1.0) ** k * math.factorial(k) * math.fsum((z + j) ** -(k + 1) for j in range(m))
    assert_close(polygamma(k, z + m) - polygamma(k, z), want, 1e-12)


@pytest.mark.parametrize("z", [0.1, 0.25, 0.5, 0.75, 1.3])
def test_reflection(z):
    assert_close(math.gamma(z) * math.gamma(1.0 - z) * math.sin(math.pi * z), math.pi, 1e-12)


def test_harmonic_bridge():
    for n in range(0, 101):
        assert_close(gen_harmonic(n, 1), EULER_GAMMA + digamma(n + 1.0), 1e-12)
    for m in (1, 2, 3):
        for n in (0, 3, 50):
            want = riemann_zeta(m + 1.0) + (-1.0) ** m / math.factorial(m) * polygamma(m, n + 1.0)
            assert_close(gen_harmonic(n, m + 1), want, 1e-11)


@pytest.mark.parametrize("k", range(0, 9))
def test_half_integer_identities(k):
    # psi(1/2-k) = psi(1/2+k), and psi(1/2) - psi(1/2-k) = H_k - 2 H_{2k}
    if k > 0:
        assert_close(digamma(0.5 - k), digamma(0.5 + k), 1e-11)
    lhs = digamma(0.5) - digamma(0.5 - k)
    assert_close(lhs, gen_harmonic(k, 1) - 2.0 * gen_harmonic(2 * k, 1), 1e-11)


def _ratio_checks(errs):
    for lo, hi in zip(errs, errs[1:]):
        ratio = lo / hi
        assert 5.0 <= ratio <= 20.0, f"first-order sweep ratio {ratio} outside [5, 20]"


@pytest.mark.parametrize("k", range(0, 5))
def test_gamma_residue_sweep(k):
    want = (-1.0) ** k / math.factorial(k)
    errs = [abs((-k + e + k) * math.gamma(-k + e) - want) for e in (1e-3, 1e-4, 1e-5)]
    _ratio_checks(errs)


@pytest.mark.parametrize("k", range(0, 5))
def test_psi_over_gamma_sweep(k):
    want = (-1.0) ** (k - 1) * math.factorial(k)
    errs = [abs(digamma(-k + e) / math.gamma(-k + e) - want) for e in (1e-3, 1e-4, 1e-5)]
    _ratio_checks(errs)


@pytest.mark.parametrize("k", range(0, 5))
def test_psi_square_limit_sweep(k):
    want = 2.0 * (-1.0) ** (k - 1) * math.factorial(k) * digamma(k + 1.0)
    errs = []
    for e in (1e-3, 1e-4, 1e-5):
        z = -k + e
        psi = digamma(z)
        errs.append(abs((psi * psi - polygamma(1, z)) / math.gamma(z) - want))
    _ratio_checks(errs)


@pytest.mark.parametrize("k", range(0, 5))
def test_psi_cube_limit_sweep(k):
    # The epsilon decade set starts at 1e-2 here: at eps = 1e-5 the psi^3
    # cancellation noise (~|psi|^3 * eps_mach / Gamma ~ 1e-5) swamps the
    # first-order term for small k, breaking the ratio test in binary64.
    want = 3.0 * (-1.0) ** k * math.factorial(k) * (
        ZETA2 + gen_harmonic(k, 2) - digamma(k + 1.0) ** 2
    )
    errs = []
    for e in (1e-2, 1e-3, 1e-4):
        z = -k + e
        psi = digamma(z)
        got = (psi**3 - 3.0 * psi * polygamma(1, z) + polygamma(2, z)) / math.gamma(z)
        errs.append(abs(got - want))
    _ratio_checks(errs)


@pytest.mark.parametrize("x", [1e-13, -1.0 + 1e-13, -2.0000000000001])
def test_psi_next_to_a_pole(x):
    """Only an exact non-positive integer is a pole: a hair from one, psi and
    psi' are large, finite and within an ulp of 40-digit mpmath."""
    with mp.workdps(40):
        for got, k in ((digamma(x), 0), (polygamma(1, x), 1)):
            want = mp.psi(k, mp.mpf(x))
            assert abs(got - want) <= 2.0**-52 * abs(want), (x, k)


@pytest.mark.parametrize("x", [-1e7 - 0.5, -(2.0**52) + 0.5, -1e7 - 0.3, -1024.5, -1025.7])
def test_psi_far_below_zero_reflects(x):
    """Below special._REFLECT_BELOW = -1024 psi and its derivatives reflect
    to 1 - x, so each call returns in milliseconds, not after about -x
    recurrence steps (4.5e15 at -2^52 + 0.5), within 4 ulp of 40-digit
    mpmath: its digamma, differentiated numerically, as its own polygamma
    recurs there too."""
    with mp.workdps(40):
        for k in range(4):
            start = time.perf_counter()
            got = digamma(x) if k == 0 else polygamma(k, x)
            assert time.perf_counter() - start < 0.05, (x, k)
            want = mp.diff(mp.digamma, mp.mpf(x), k)
            assert abs(got - want) <= 4 * 2.0**-52 * abs(want), (x, k)


# psi and psi^(k), k = 1..3, at and above the reflection threshold, with the
# bits the upward recurrence gave them before reflection was added
RECURRED = {
    -1023.7: ("0x1.298bf185d7931p+2", "0x1.e2828f0178dcbp+3", "-0x1.1359a54f35cb1p+6",
              "0x1.8082ad52221aep+9"),
    -1000.25: ("0x1.419a667a2a72fp+3", "0x1.3bcfb4d1a2539p+4", "0x1.f019b55087b7ep+6",
               "0x1.85a2e8c28e5ddp+10"),
    -2.5: ("0x1.1a68793defc14p+0", "0x1.3141822e1697ap+3", "-0x1.bb342bf188e0ep-4",
           "0x1.857ee9a1bdbc1p+7"),
}


@pytest.mark.parametrize("x", RECURRED)
def test_psi_from_the_threshold_up_keeps_its_bits(x):
    got = [digamma(x)] + [polygamma(k, x) for k in (1, 2, 3)]
    assert tuple(v.hex() for v in got) == RECURRED[x]


def test_constants():
    assert ZETA2 == pytest.approx(math.pi**2 / 6.0, rel=1e-15)
    assert ZETA4 == pytest.approx(math.pi**4 / 90.0, rel=1e-15)
    assert_close(EULER_GAMMA, -digamma(1.0), 1e-15)
