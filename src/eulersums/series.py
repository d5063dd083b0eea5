"""Direct summation of the variant Euler harmonic sums and their relatives.

These evaluators are the oracles the closed forms are verified against.
Each slow series is split at K = 10^3: terms up to K are summed exactly, and
the tail is an Euler-Maclaurin estimate driven by the asymptotic log-power
expansion of the term function.  Reaching 1e-10 on sums like
sum H_k / (k+1)^2  by brute force would take ~1e10 terms; the split gets there
in 10^3.  The exact head sum is math.fsum's value, bit for bit, without a
10^3-term fsum: _certified_sum splits each term at one power of 2, sums the
high parts exactly and the low parts within a bound, both in numpy, and
returns the rounded total where the bound proves it, in any summation order.
Where it cannot (a sum near a tie, one that cancels below about 1e-5 of its
largest term, or terms outside its range), fsum sums the terms.  Each term
is a list of factors (_Factor), each written once with both its head values
at k = 0..K and its 1/t expansion, so the head and the tail model come from
the same list; a sum from k = 1 reads the heads from entry 1.  A factor
depends only on its own parameters (the order of a harmonic number, n or x
of a binomial, the power and shift of a denominator), so each is built once
per process, head values and tail model included, and shared by every sum
that uses it; so is each product of tail models a sum forms from them, by
_product.  A warm sum then costs one pass over its factors, a few array
operations on the head and one em_tail call, whose model holds its
coefficients flat.  Every harmonic number H_k^(order) comes from one
memoized compensated table per order, and its tail from one constructor,
ap.harmonic_lp.  _cache.cache_clear() drops
these memo tables together with the jets' and em_tail's weights.  Only the two
zeta-value series of EX3, whose terms fall geometrically with a proven ratio,
are summed term by term, by _sum_geometric, each term's zeta value computed
once per process by special's memo table.  At an integer x the two binomial
base series end at k = x, and _finite_binomial sums them exactly in Python
ints, rounding once, up to a bound on its work.  Every order and index is
checked by special.check_int, which returns it as an int (an integral float
sums as the int), and every real parameter by special.check_above: the
checks the closed forms share.  The shifted families, variants 3, 3h and 4,
take any finite p > -1, where every denominator p + n + k, k >= 1, is
positive; at p = -1/2, n = 0, variant 3h is the half-shifted example EX4.
"""

from __future__ import annotations

import math
import sys
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from . import asymptotics as ap
from .special import _U, DomainError, check_above, check_int, clear_memos, hurwitz_zeta, memo
from .summation import NonFiniteTermError, SumResult, em_tail

K_CROSSOVER = 1_000

# Orders kept in each tail model past its leading decay s0, up to t^-(s0 + _DEPTH).
# The model is the 1/t expansion of the term, and the shifted power
# (c + t)^-s in it falls from order j to j + 1 by c (s + j) / ((j + 1) t), c
# being its shift (p + n, n + 1, p or 1/2; 1/binom(n+t, t) and the harmonic
# numbers fall faster).  The bound em_tail reports is the tail integral of
# the last kept order, which is below the tail by about
#     (s0 - 1) / (s0 + _DEPTH - 1) * prod_{j < _DEPTH} c (s + j) / ((j + 1) K),
# and it must stay below the head's rounding bound, at least
# 5 _U |value| = 5.5e-16 |value|, for n, m <= 10 and p <= 20.  Each order
# gains a factor of about K / c = 50 at c = 20.  Each unit of s costs
# tail/value a factor of K and the product at most (s + _DEPTH) / s, so the
# worst cases have s <= 2 and the smallest s0:
#   lhs_binomial_shifted(x=-0.9, p=20, m=1): s = 2, s0 = 2.1,
#       tail/value = 0.012: 145 _U |value| at depth 7, 2.9 _U at depth 8;
#   lhs_central_binom(p=20, m=0): s = 1, s0 = 3/2, tail/value = 0.20:
#       150 _U at depth 7, 2.6 _U at depth 8.
# Hence depth 8.  test_em_oracles checks the reported bound against 5 _U
# |value| for every parameter set it pins.
_DEPTH = 8

# Head rounding is counted in units of _U, to first order: 1 per rounded
# +, -, *, /; 2 per pow; a base rounded r times and raised to the power e adds
# r e; a compensated sum of positive terms adds 1 to the most its terms are
# rounded; a difference a - b adds (err a + err b) / |a - b|.  Each factor
# constructor below counts its own head; _em_sum adds 1 per * or / that joins
# the factors.  _U = 2^-53 is special's.

# Everything the oracles build on first use (the factors below, their
# products, the harmonic tables, _ks) and the closed forms' psi tuples and
# jets are special.memo tables.  _cache.cache_clear() empties all of them, so
# the next call builds each piece again; perfbench resets a process through
# this name before every timed pass.
_cache = SimpleNamespace(cache_clear=clear_memos)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@memo
def _ks() -> np.ndarray:
    """k = 0..K as floats, read-only."""
    return _read_only(np.arange(0.0, K_CROSSOVER + 1.0))


class _Factor(NamedTuple):
    """One factor of a series term.  `head` holds its values at k = 0..K,
    read-only; where the factor has a pole at k = 0 (H_{k-1}, k^-s) entry 0
    is that infinity, so a sum from k = 0 over it ends in NonFiniteTermError.
    `tail` is its expansion in 1/t, built _DEPTH orders past its leading
    power t^-tail.s0.  `rounding + rounding_per_k k` bounds the
    relative rounding error of its value at k, in units of _U; `divides` says
    the term divides by it.  `s_rounding` bounds, in units of _U times the
    model's last exponent, how far the expansion's exponents were rounded.

    A factor depends on its constructor's arguments alone, so each
    constructor below is memoized (special.memo): its head and its tail
    model are built once per process, read-only (a LogPowerSeries holds
    tuple rows), and every sum that shares them only reads them."""

    head: np.ndarray
    tail: ap.LogPowerSeries
    rounding: float
    rounding_per_k: float = 0.0
    divides: bool = False
    s_rounding: float = 0.0


# _certified_sum certifies heads whose largest |term| lies in this range, so
# that its split point sigma and its bound stay normal binary64 numbers.
_CERTIFIED_RANGE = (2.0**-900, 2.0**1000)


def _certified_sum(terms: np.ndarray, mags: np.ndarray) -> float | None:
    """math.fsum(terms), bit for bit, from vectorized sums, or None where it
    cannot prove that; mags = |terms|.

    After Rump, Ogita and Oishi, "Accurate floating-point summation, part I",
    SIAM J. Sci. Comput. 31 (2008), section 3 (ExtractVector).  With n terms,
    the largest |term| M below 2^e and sigma = 2^(e + bitlength(n) + 2),
    each q = (sigma + t) - sigma is a multiple of _U sigma, and r = t - q is
    exact with |r| <= _U sigma.  Every partial sum of the q is a multiple of
    _U sigma below sigma, so their sum tau is exact in any order.  The sum s
    of the r is within gamma_(n-1) n _U sigma < b = 4 n^2 _U^2 sigma of
    theirs in any order too, so numpy's summation order cannot matter; b is
    a product of powers of 2 and n^2 < 2^40, so it is exact.  So the q are
    formed in one array, sigma added and taken away in place, and tau and s
    are one numpy reduction each, in whatever order numpy adds.  The sum of
    the terms lies in [tau + s - b, tau + s + b].  Rounding is monotone, so
    where fsum rounds both ends to one float, that float is the rounded sum,
    which is what fsum(terms) returns.

    None where the ends round apart: a sum within b of a rounding boundary,
    such as a tie, or one that cancels below about 128 n^3 _U M (1.4e-5 M at
    n = 10^3), where b exceeds half its ulp.  None too for n >= 2^20 or M
    outside _CERTIFIED_RANGE, 0, inf and nan included."""
    n = len(terms)
    most = float(np.maximum.reduce(mags, initial=0.0))
    if not (_CERTIFIED_RANGE[0] < most < _CERTIFIED_RANGE[1] and n < 1 << 20):
        return None
    sigma = math.ldexp(1.0, math.frexp(most)[1] + n.bit_length() + 2)
    q = np.add(sigma, terms)
    np.subtract(q, sigma, out=q)
    tau, s = float(np.add.reduce(q)), float(np.add.reduce(np.subtract(terms, q)))
    b = 4.0 * n * n * _U * _U * sigma
    low = math.fsum((tau, s, -b))
    return low if low == math.fsum((tau, s, b)) else None


@memo
def _product(a: ap.LogPowerSeries, b: ap.LogPowerSeries) -> ap.LogPowerSeries:
    """a * b, kept by the operands' identity (LogPowerSeries has no __eq__).
    Each is a memoized factor's tail or product, and the table holds its
    keys, so no id is reused while it is one; a rebuilt factor is a new key."""
    return a * b


def _em_sum(lo: int, *factors: _Factor) -> SumResult:
    """sum_{k>=lo} of the product of `factors`, taken left to right: the head
    k <= K exactly, the rest by em_tail on the product of their tails, each
    partial product kept by _product for every sum that shares it.  Each
    tail keeps _DEPTH orders past its own leading one, and so does the
    product, up to t^-(model.s0 + model.depth).  The head's sum is
    math.fsum's, bit for bit: _certified_sum's where it proves it (every
    head of the default grid), fsum's own where it returns None, so every
    value and every exception is fsum's.

    One pass over the factors forms the head's terms, the tail model and the
    rounding counts; every count is an integer-valued float, so the totals
    are exact in any order.  The estimate adds the em_tail error, the head's
    rounding (the factors' own plus 1 per * or /, weighted by |term| in the
    array of magnitudes, once the certificate has read it) and the two final
    roundings.  A model whose exponents were rounded, by up to s_rounding,
    also adds what that moves the tail: |tail| s_rounding (ln K + 1/(s0 - 1)),
    the s-derivative of int_K^inf t^-s dt relative to it; s0 is the model's
    leading decay, as the products that carry s_rounding lead with
    1/Gamma(-x) != 0.  A sum that is
    not finite raises NonFiniteTermError; whether the estimate is small enough
    is for the caller to judge (identities.verify, through EvalConfig.converged)."""
    first = factors[0]
    model, terms = first.tail, first.head[lo:]
    roundings, per_k, s_rounding = first.rounding, first.rounding_per_k, first.s_rounding
    for f in factors[1:]:
        model = _product(model, f.tail)
        terms = terms / f.head[lo:] if f.divides else terms * f.head[lo:]
        roundings += f.rounding + 1.0
        per_k += f.rounding_per_k
        s_rounding += f.s_rounding
    if per_k:
        roundings = per_k * _ks()[lo:] + roundings
    s_rounding = s_rounding * _U * (model.s0 + model.depth)

    mags = np.abs(terms)
    exact = _certified_sum(terms, mags)
    if exact is None:  # fsum reads the same floats in order, without a list
        exact = math.fsum(memoryview(terms))
    tail, err = em_tail(model, K_CROSSOVER)
    if s_rounding:
        err += abs(tail) * s_rounding * (math.log(K_CROSSOVER) + 1.0 / (model.s0 - 1.0))
    value = exact + tail
    head_err = float(np.add.reduce(np.multiply(roundings, mags, out=mags)))
    tail_estimate = err + _U * (head_err + abs(exact) + abs(value))
    if not (math.isfinite(value) and math.isfinite(tail_estimate)):
        raise NonFiniteTermError(f"the series sums to {value} with error {tail_estimate}, "
                                 "outside binary64")
    return SumResult(value, tail_estimate, K_CROSSOVER)


# ------------------------------- the factors --------------------------------
#
# Each head is computed with its factor and read, like the tail, by every sum
# that shares the factor.  Tails are built here, _DEPTH orders past their
# leading one, by the asymptotics constructors, looked up as ap.<name> at call
# time.


def _running_neumaier(terms: np.ndarray) -> np.ndarray:
    """[0, s_1 + c_1, s_2 + c_2, ...], read-only: Neumaier's compensated
    running sum s_i = s_(i-1) + t_i, c_i = c_(i-1) + ((s_(i-1) - s_i) + t_i).
    That form of the error term needs |s_(i-1)| >= |t_i|, which holds for
    positive terms that never exceed the first (and at i = 1 both forms give
    0).  cumsum adds left to right, as the scalar loop does, so every s_i and
    c_i is that loop's, bit for bit."""
    s = np.cumsum(terms)
    prev = np.concatenate(([0.0], s[:-1]))
    return _read_only(np.concatenate(([0.0], s + np.cumsum((prev - s) + terms))))


@memo
def _harmonic_numbers(order: int) -> np.ndarray:
    """H_0^(order) .. H_2K^(order), read-only: the central-binomial sums read
    H_2k."""
    return _running_neumaier(1.0 / np.arange(1.0, 2 * K_CROSSOVER + 1.0) ** order)


@memo
def _harmonic(order: int = 1, prev: bool = False) -> _Factor:
    """H_k^(order), or H_{k-1}^(order) with prev (-inf at k = 0), read from
    _harmonic_numbers.  Its compensated sum adds 1 to its terms' rounding:
    1/n and 1/n^2 round once (n^2 is exact below 2^26), and 1/n^order past
    that rounds three times (the pow, 2, and the /).  Hence 2 for orders 1
    and 2, 4 above."""
    h = _harmonic_numbers(order)
    if prev:
        h = _read_only(np.concatenate(([-np.inf], h[:K_CROSSOVER])))
    tail = ap.harmonic_lp(order, _DEPTH, prev)
    return _Factor(h[: K_CROSSOVER + 1], tail, 2.0 if order <= 2 else 4.0)


@memo
def _harmonic_square_diff(prev: bool = False) -> _Factor:
    """H_k^2 - H_k^(2), or H_{k-1}^2 - H_{k-1}^(2) with prev: the
    difference's rounding peaks at k = 2, at 15."""
    h, h2 = _harmonic(prev=prev), _harmonic(2, prev)
    tail = h.tail * h.tail + h2.tail.scaled(-1.0)
    return _Factor(_read_only(h.head**2 - h2.head), tail, 15.0)


@memo
def _central_harmonic_diff() -> _Factor:
    """H_k - 2 H_2k: the difference peaks as k grows, at 7 roundings."""
    h = _harmonic_numbers(1)
    head = _read_only(h[: K_CROSSOVER + 1] - 2.0 * h[::2])
    return _Factor(head, ap.central_harmonic_diff_lp(_DEPTH), 7.0)


@memo
def _inv_binomial(n: int) -> _Factor:
    """1/binom(n+k, k) = n!/((k+1)...(k+n)) = n! Gamma(k + 1) / Gamma(k + n + 1):
    the head takes n ratios i/(k+i), each a / and a *, and the tail is the
    gamma-ratio expansion times n!."""
    head = np.ones(K_CROSSOVER + 1)
    for i in range(1, n + 1):
        head *= i / (_ks() + i)
    tail = ap.gamma_ratio_lp(1.0, n + 1.0, _DEPTH).scaled(float(math.factorial(n)))
    return _Factor(_read_only(head), tail, 2.0 * n)


@memo
def _signed_binomial(x: float) -> _Factor:
    """(-1)^k binom(x, k) = Gamma(k - x) / (Gamma(-x) Gamma(k + 1)), falling
    like k^(-x-1); at x = -1/2 it is binom(2k, k)/4^k.  The head is the exact
    first term binom(x, 0) = 1 and the running product of the ratios
    (k - 1 - x)/k, each rounded 3 times (- x, / k, *); the tail is the
    gamma-ratio expansion over Gamma(-x), whose exponents, 1 + x + j plus
    the other factors' own, are rounded up to 3 times.  At a half-integer x
    both k - 1 - x and the exponents are exact: 2 roundings per k and none in
    the exponents.  Past x ~ 158 the tail model's coefficients leave
    binary64, and past x ~ 172 so does 1/Gamma(-x): both end in
    NonFiniteTermError."""
    g = math.gamma(-x)
    if g == 0.0:
        raise NonFiniteTermError(f"1/Gamma({-x}) overflows binary64: x = {x} is too large")
    k = _ks()[1:]
    head = np.concatenate(([1.0], np.cumprod((k - 1.0 - x) / k)))
    tail = ap.gamma_ratio_lp(-x, 1.0, _DEPTH).scaled(1.0 / g)
    if (2.0 * x).is_integer():
        return _Factor(_read_only(head), tail, 0.0, 2.0)
    return _Factor(_read_only(head), tail, 0.0, 3.0, s_rounding=3.0)


@memo
def _power(s: int, shift: float | tuple[float, ...] = 0.0, *,
           times_k: bool = False, divides: bool = True) -> _Factor:
    """(c + k)^s, or k (c + k)^s with times_k, which the term divides by; with
    divides=False the head is (c + k)^-s and the term multiplies by it.

    `shift` is c either as a number whose sum with k is exact (an integer or
    a half) or as a tuple of real addends (p, or p and n), summed left to
    right and then added to k, each + rounded once.  The pow adds 2 and its
    base's roundings times s, times_k 1.  At large s the pow overflows to
    inf, and the term becomes 0, which it would underflow to anyway; k^-s is
    +inf at k = 0."""
    if isinstance(shift, tuple):
        c, base_roundings = sum(shift[1:], shift[0]), len(shift)
    else:
        c, base_roundings = shift, 0

    k = _ks()
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        head = (c + k) ** (s if divides else -float(s))
        if times_k:  # at k = 0, 0 or, where c^s overflowed, nan: the term's pole either way
            head = k * head
    tail = ap.recip_power_shift(c, float(s), _DEPTH)
    if times_k:  # k^-1 (c + k)^-s: the same coefficients, each one order down
        tail = ap.LogPowerSeries(tail.s0 + 1.0, tail.depth, tail.rows)
    return _Factor(_read_only(head), tail, 2.0 + base_roundings * s + times_k,
                   divides=divides)


# ----------------------- the four variant families --------------------------


def lhs_variant1(n: int, m: int) -> SumResult:
    """sum_{k>=0} H_k / ((n+k+1)^(m+1) binom(n+k,k))."""
    n, m = check_int("n", n, 0), check_int("m", m, 1)
    return _em_sum(1, _harmonic(), _inv_binomial(n), _power(m + 1, n + 1.0))


def lhs_variant2(n: int, m: int) -> SumResult:
    """sum_{k>=0} (H_k^2 - H_k^(2)) / ((n+k+1)^(m+1) binom(n+k,k))."""
    n, m = check_int("n", n, 0), check_int("m", m, 1)
    return _em_sum(1, _harmonic_square_diff(), _inv_binomial(n), _power(m + 1, n + 1.0))


def lhs_alt(n: int, m: int) -> SumResult:
    """sum_{k>=0} (-1)^(n-1) / ((n+k+1)^(m+1) binom(n+k,k)).

    The sign factor is constant in k and multiplies the whole sum.
    """
    n, m = check_int("n", n, 0), check_int("m", m, 1)
    return _em_sum(0, _inv_binomial(n), _power(m + 1, n + 1.0)).scaled((-1.0) ** (n - 1))


def _check_shift(p: float, n: int, e: int) -> None:
    """DomainError naming p unless p > -1 is finite and the first term's
    denominator (p + n + 1)^e, the least one, is at least 2^-1000, so that
    the head's terms and their rounding bounds stay inside binary64.  Only
    a negative p with n = 0 puts it below 1."""
    check_above("p", p, -1.0)
    if p < 0.0 and (p + n + 1.0) ** e < 2.0**-1000:
        raise DomainError(f"p = {p} puts (p + {n} + 1)^{e} below 2^-1000")


def lhs_variant3(p: float, n: int, m: int) -> SumResult:
    """sum_{k>=1} (-1)^n / (k (p+n+k)^(m+1) binom(n+k,k)), for finite p > -1."""
    n, m = check_int("n", n, 0), check_int("m", m, 0)
    _check_shift(p, n, m + 1)
    res = _em_sum(1, _inv_binomial(n), _power(m + 1, (p, n), times_k=True))
    return res.scaled((-1.0) ** n)


def lhs_variant3h(p: float, n: int, m: int) -> SumResult:
    """sum_{k>=1} (-1)^n H_{k-1} / (k (p+n+k)^(m+1) binom(n+k,k)), for finite
    p > -1; at p = -1/2, n = 0 it is the half-shifted example's series."""
    n, m = check_int("n", n, 0), check_int("m", m, 0)
    _check_shift(p, n, m + 1)
    res = _em_sum(1, _inv_binomial(n), _power(m + 1, (p, n), times_k=True),
                  _harmonic(prev=True))
    return res.scaled((-1.0) ** n)


def lhs_variant4(p: float, n: int, m: int) -> SumResult:
    """sum_{k>=1} (H_{k-1}^2 - H_{k-1}^(2)) / (k (p+n+k)^m binom(n+k,k)), for
    finite p > -1."""
    n, m = check_int("n", n, 0), check_int("m", m, 1)
    _check_shift(p, n, m)
    return _em_sum(1, _inv_binomial(n), _power(m, (p, n), times_k=True),
                   _harmonic_square_diff(prev=True))


def lhs_central_binom(p: float, m: int) -> SumResult:
    """sum_{k>=0} (H_k - 2 H_{2k}) binom(2k,k) / (4^k (p+k)^(m+1)), with
    binom(2k,k)/4^k the signed binomial at x = -1/2."""
    check_above("p", p, 0.0)
    m = check_int("m", m, 0)
    return _em_sum(1, _central_harmonic_diff(), _signed_binomial(-0.5), _power(m + 1, (p,)))


# --------------------- binomial-coefficient base series ---------------------
#
# At non-integer x both base series split at K like the others, with the
# signed binomial as a factor.  Integer x >= 0 ends the series at k = x, and
# _finite_binomial sums it exactly.  _WORK_CAP caps its work, in the units of
# its bound: the slowest sums it accepts take about 50 ms on a 2-vCPU x86-64.
_WORK_CAP = 5 * 10**10


def _named(x: float, p: float, m: int) -> str:
    return f"x = {x}, p = {p} and m = {m}" if p else f"x = {x} and m = {m}"


def _finite_binomial(x: float, p: float, m: int, e: int, lo: int) -> SumResult:
    """sum_{k=lo}^{n} (-1)^(k-lo) binom(n, k) / (p + k)^e at the integer
    n = x, exact in Python ints and rounded once: p = P/Q, a binary64 being
    a dyadic rational, each denominator is (P + k Q)^e, and the int true
    division num Q^e / den rounds correctly, so the estimate is that one
    rounding.  Errors name x, p and m, or x and m at p = 0, the base series.
    den ends below b (n + 1) bits, b = e bitlength(P + n Q), and each step
    multiplies by d (b bits) and binom(n, k) (n bits), so (n + 1)^2 b (b + n)
    bounds the work: past _WORK_CAP it is a DomainError before any summing,
    as is a value past binary64 or below its normal numbers.  At lo = 0 and
    p > 0 each (p + k)^e >= 1 for k >= 1, so |sum| >= p^-e - (2^n - 1), and
    p^-e >= 2^1024 + 2^n puts the sum past binary64 before any summing too."""
    n = int(x)
    P, Q = p.as_integer_ratio()
    b = e * (P + n * Q).bit_length()
    if (n + 1) ** 2 * b * (b + n) > _WORK_CAP:
        raise DomainError(f"{_named(x, p, m)} put the exact finite sum past its work cap")
    if lo == 0 and Q**e >= (2**1024 + 2**n) * P**e:
        raise DomainError(f"{_named(x, p, m)} put the finite sum past binary64")
    c, num, den = math.comb(n, lo), 0, 1
    for k in range(lo, n + 1):
        d = (P + k * Q) ** e
        num, den = num * d + c * den, den * d
        c = -c * (n - k) // (k + 1)
    try:
        value = num * Q**e / den
    except OverflowError:
        raise DomainError(f"{_named(x, p, m)} put the finite sum past binary64") from None
    if 0.0 < abs(value) < sys.float_info.min:
        raise DomainError(f"{_named(x, p, m)} put the finite sum below the normal numbers")
    return SumResult(value, _U * abs(value), n + 1 - lo)


def lhs_base_binomial(x: float, m: int) -> SumResult:
    """sum_{k>=1} (-1)^(k-1) binom(x,k) / k^m, exact at an integer x."""
    check_above("x", x, -1.0)
    m = check_int("m", m, 1)
    if float(x).is_integer():
        return _finite_binomial(x, 0.0, m, m, 1)
    # (-1)^(k-1) = -(-1)^k
    return _em_sum(1, _signed_binomial(x), _power(m, divides=False)).scaled(-1.0)


def lhs_binomial_shifted(x: float, p: float, m: int) -> SumResult:
    """sum_{k>=0} (-1)^k binom(x,k) / (p+k)^(m+1), exact at an integer x."""
    check_above("x", x, -1.0)
    check_above("p", p, 0.0)
    m = check_int("m", m, 0)
    if float(x).is_integer():
        return _finite_binomial(x, p, m, m + 1, 0)
    return _em_sum(0, _signed_binomial(x), _power(m + 1, (p,), divides=False))


# ----------------------------- Euler sums -----------------------------------


def lhs_linear_euler(p: int, q: int) -> SumResult:
    """S(p, q) = sum_{n>=1} H_n^(p) / n^q."""
    p, q = check_int("p", p, 1), check_int("q", q, 2)
    return _em_sum(1, _harmonic(p), _power(q))


def lhs_quadratic_euler(q: int) -> SumResult:
    """S(1^2; q) = sum_{n>=1} H_n^2 / n^q."""
    q = check_int("q", q, 2)
    return _em_sum(1, _harmonic(), _harmonic(), _power(q))


def quadratic_minus_linear(q: int) -> SumResult:
    """sum_{k>=1} (H_k^2 - H_k^(2)) / k^q = S(1^2; q) - S(2, q)."""
    q = check_int("q", q, 2)
    return _em_sum(1, _harmonic_square_diff(), _power(q))


# ------------------------ zeta-tail example series --------------------------

# hurwitz_zeta(s, a) is within this many _U of zeta(s, a) at the (s, a) the
# two series reach: integer s >= 2, a = 2 or 1 < a < 2.  The worst measured,
# against 30-digit mpmath on a = 1 + p for p on a 0.001 grid and s = 2..80,
# 100, 200 and 1000, is 3.25 _U at (12, 1.879) on the Euler-Maclaurin branch
# and 1.96 _U at (23, 1.16) on the direct branch; test_series checks it.
_HURWITZ_ROUNDING = 4.0

# A series with r <= 1/2 at least halves its terms at every step.  A first
# term is below 2^1024, so within 1024 + 1074 halvings the terms fall below
# 2^-1074, the least binary64, round to 0 and stop the loop: no series of
# finite terms that keeps its ratio bound reaches this cap.
_GEOMETRIC_CAP = 2100


def _sum_geometric(term: Callable[[int], float], j0: int, r: float, rounding: float,
                   rounding_per_j: float) -> SumResult:
    """sum_{j>=j0} term(j) for positive terms with t_{j+1} <= r t_j.

    Terms are taken until the bound on the rest, t_J r / (1 - r), is below
    _U/4 of the first term, and so of the sum, then summed exactly by fsum.
    `rounding + rounding_per_j j` bounds term j's relative error in units of
    _U.  The estimate adds the bound on the rest, the terms' errors and the
    final rounding.  A term that is not finite raises NonFiniteTermError."""
    terms: list[float] = []
    err = 0.0
    for j in range(j0, j0 + _GEOMETRIC_CAP):
        t = term(j)
        if not math.isfinite(t):
            raise NonFiniteTermError(f"term {j} of the series is {t}")
        terms.append(t)
        err += (rounding + rounding_per_j * j) * t
        rest = t * r / (1.0 - r)
        if rest <= 0.25 * _U * terms[0]:
            break
    value = math.fsum(terms)
    tail_estimate = rest + _U * (err + value)
    return SumResult(value, tail_estimate, len(terms))


def zeta_tail_sum(m: int) -> SumResult:
    """sum_{j>=2} (zeta(m+j) - 1), each term evaluated as zeta(m+j, 2) so no
    cancellation occurs for large j.  Each k^-(s+1) <= k^-s / 2 for k >= 2,
    so zeta(s+1, 2) <= zeta(s, 2) / 2: r = 1/2."""
    m = check_int("m", m, 0)
    return _sum_geometric(lambda j: hurwitz_zeta(m + float(j), 2.0), 2, 0.5,
                          _HURWITZ_ROUNDING, 0.0)


def zeta_power_series(p: float, m: int) -> SumResult:
    """sum_{j>=0} p^j zeta(m+j+2, p+1), valid for 0 < p < 1.  Each
    (k + p + 1)^-1 <= 1/(p + 1), so p zeta(s+1, p+1) <= p/(p+1) zeta(s, p+1):
    r = p/(p+1) < 1/2.  Term j adds the pow and the * to hurwitz_zeta's
    error, and the rounded a = p + 1 moves zeta(s, a) by up to s _U, s =
    m + j + 2."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must be in (0, 1), got {p}")
    m = check_int("m", m, 0)
    a = p + 1.0
    return _sum_geometric(lambda j: p ** float(j) * hurwitz_zeta(m + float(j) + 2.0, a), 0,
                          p / a, _HURWITZ_ROUNDING + 3.0 + (m + 2.0), 1.0)
