"""Direct summation of the variant Euler harmonic sums and their relatives.

These evaluators are the oracles the closed forms are verified against.
Each slow series is split at a K of its own: terms up to K are summed
exactly, and the tail is an Euler-Maclaurin estimate driven by the
asymptotic log-power expansion of the term function.  Reaching 1e-10 on
sums like  sum H_k / (k+1)^2  by brute force would take ~1e10 terms; the
split gets there in 64.  The expansions are asymptotic in c/t, c the largest
scale among the term's factors (the shift of a power, n of a reciprocal
binomial, |x| + 1 of a signed binomial), so _split picks K from that scale,
on a short ladder that starts at 64, and _tail_model gives each sum the
fewest orders, on the ladder _RUNGS up to _DEPTH, whose truncation bound at
that K is at most _U/16 of its head sum: the split and the expansion order
are chosen together (Johansson, Numer. Algorithms 69, 2015, section 2).  The
exact head sum is math.fsum's value.  Each term is a list of factors
(_Factor), each written once with both its head values at k = 0..K and its
1/t expansion, so the head and the tail model come from the same list; a sum
from k = lo reads the heads from entry lo.  A factor depends only on its
own parameters (the order of a harmonic number, n or x of a binomial, the
power and shift of a denominator), so each is built once per process, tail
model included, and shared by every sum that uses it; its head is built
once per split K, as a tuple of Python floats.  Each product of tail models
a sum forms from them is built once too, by _product, at one of the depths
_BUILDS, and so is each sum's layout of its heads, by _layout, and its tail
model, by _tail_model, which cuts the least build that holds its depth:
coefficient q of a product reads orders <= q alone, so the cut has the bits
of a build at that depth.  A warm sum then costs one pass over its factors' heads, two
fsums and one em_tail call, whose model holds its coefficients flat.  Every
harmonic-type head, H_k^(order), H_k^2 - H_k^(2) and H_k - 2 H_2k, is one
compensated running sum of terms of one sign, _running_sum, so no head
subtracts two rounded values; the tail of H_k^(order) comes from one
constructor, ap.harmonic_lp.
Powers are IEEE multiplies, so every head has the same bits on every CPU.
_cache.cache_clear() drops these memo tables together with the jets' and
em_tail's weights.  Only the two zeta-value series of EX3, whose terms fall
geometrically with a proven ratio, are summed term by term, by
_sum_geometric, each term's zeta value computed once per process by
special's memo table.  At an integer x the two binomial base series end at
k = x, and _finite_binomial sums them exactly in Python ints, rounding once,
up to a bound on its work.  Every order and index is checked by
special.check_int, which returns it as an int (an integral float sums as the
int), and every real parameter by special.check_above: the checks the
closed forms share.  The shifted families, variants 3, 3h and 4, take any
finite p > -1, where every denominator p + n + k, k >= 1, is positive; at
p = -1/2, n = 0, variant 3h is the half-shifted example EX4.
"""

from __future__ import annotations

import math
import operator
import sys
from functools import partial
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, NamedTuple

from . import asymptotics as ap
from .special import _U, LN2, DomainError, check_above, check_int, clear_memos, hurwitz_zeta, memo
from .summation import NonFiniteTermError, SumResult, em_tail, em_truncation

# Orders a tail model may keep past its leading decay s0, up to
# t^-(s0 + depth), and the splits a sum may take.  The model is the 1/t
# expansion of the term, and its order j + 1 is about c (s + j) / ((j + 1) t)
# of order j, c being the largest scale among the term's factors.  The bound
# em_tail reports is the tail integral of the last kept order, which is below
# the tail by about
#     (s0 - 1) / (s0 + depth - 1) * prod_{j < depth} c (s + j) / ((j + 1) K),
# and it must stay below the head's rounding bound, at least
# 5 _U |value| = 5.5e-16 |value|.  _split gives each sum the least K on the
# ladder _SPLITS with c <= K / _SPLIT_RATIO, and the last one past that, and
# _tail_model the least depth on _RUNGS at which that bound is at most _U/16
# of the head sum, else _DEPTH, the most the factors are built with: a
# product builds at 12, 16 or 20 orders (_BUILDS) and a sum reads the least
# of those that holds the rung it tries.  At depth 20 the worst bound
# measured at the edge of the splits (K = 64, c = 8, every family with a
# shift or n at n = 0..10, m = 0..12) is 0.005 _U |value|, for variant 4 at
# n = 0, m = 5, and it passes 5 _U only past c = K / 6.4: _DEPTH is the
# fallback where no lower rung meets the rule.  Each unit of s costs
# tail/value a factor of about K / c, so the worst cases have the smallest s.  The 472 sums of the default grid take depths 8 (97 of them),
# 10 (184), 12 (161) and 14 (30); the 2171 of test_em_oracles' parameter
# sets 8 to 16, none 20.  test_em_oracles checks the rule, the reported
# bound and the first omitted Euler-Maclaurin correction, against
# 5 _U |value|, for every parameter set it pins.
_DEPTH = 20
_RUNGS = (8, 10, 12, 14, 16, _DEPTH)
_BUILDS = (12, 16, _DEPTH)
_SPLITS = (64, 128, 256, 512, 1024)
_SPLIT_RATIO = 8.0

_MOST = int(sys.float_info.max)  # the largest int that converts to a finite float

# Head rounding is counted in units of _U, to first order: 1 per rounded
# +, -, *, /; a power b^s taken by multiplies adds s - 1, whatever the order
# of its products (Higham, Accuracy and Stability of Numerical Algorithms,
# Lemma 3.1), and a base rounded r times adds r s; a compensated running sum
# of terms of one sign adds 1 to the most its terms are rounded; a product by
# 2 or -2 adds nothing.  Each factor constructor below counts its own head;
# _em_sum adds 1 per * or / that joins the factors.  _U = 2^-53 is
# special's.

# Everything the oracles build on first use (the factors below, their heads,
# their products) and the closed forms' psi tuples and
# jets are special.memo tables.  _cache.cache_clear() empties all of them, so
# the next call builds each piece again; perfbench resets a process through
# this name before every timed pass.
_cache = SimpleNamespace(cache_clear=clear_memos)


def _split(scale: float) -> int:
    """The split K for a sum whose factors' largest expansion scale is `scale`."""
    return next((K for K in _SPLITS if _SPLIT_RATIO * scale <= K), _SPLITS[-1])


def _ipow(b: float, s: int) -> float:
    """b^s for an integer s >= 1 by binary powering: IEEE multiplies only, so
    the same bits on every CPU, s - 1 roundings, and an overflow that is
    inf, not an OverflowError."""
    out = 1.0
    while True:
        if s & 1:
            out *= b
        s >>= 1
        if not s:
            return out
        b *= b


@memo
def _head(values: Callable[..., Iterable[float]], args: tuple, K: int) -> tuple[float, ...]:
    """values(*args, K), a factor's head at k = 0..K, as a tuple: built once
    per factor and split K, and read-only."""
    return tuple(values(*args, K))


class _Factor(NamedTuple):
    """One factor of a series term.  `head(K)` holds its values at k = 0..K
    (_head, with the factor's values function and parameters bound);
    where the factor has a pole at k = 0 (H_{k-1}) entry 0 is that
    infinity, so a sum from k = 0 over it ends in NonFiniteTermError.  `tail`
    is its expansion in 1/t, built _DEPTH orders past its leading power
    t^-tail.s0 (_inv_binomial keeps fewer past n = 140, where binary64
    cannot hold its coefficients), and `scale` the c of that expansion's
    c/t, from which _split picks K.  `rounding + rounding_per_k k` bounds the
    relative rounding error of its value at k, in units of _U; `divides`
    says the term divides by it.  `s_rounding` bounds, in units of _U times the model's last
    exponent, how far the expansion's exponents were rounded.

    A factor depends on its constructor's arguments alone, so each
    constructor below is memoized (special.memo): its tail model is built
    once per process, read-only (a LogPowerSeries holds tuple rows), and
    every sum that shares it only reads it, as it reads the heads."""

    head: Callable[[int], tuple[float, ...]]
    tail: ap.LogPowerSeries
    scale: float
    rounding: float
    rounding_per_k: float = 0.0
    divides: bool = False
    s_rounding: float = 0.0


@memo
def _product(a: ap.LogPowerSeries, b: ap.LogPowerSeries, depth: int) -> ap.LogPowerSeries:
    """a * b built at most `depth` orders deep, kept by the operands'
    identity (LogPowerSeries has no __eq__) and the depth.  Each operand is
    a memoized factor's tail or product, and the table holds its keys, so no
    id is reused while it is one; a rebuilt factor is a new key."""
    return a * b.truncated(depth)


def _chain(tails: tuple[ap.LogPowerSeries, ...], depth: int) -> ap.LogPowerSeries:
    """The product of `tails`, left to right, each partial product built at
    most `depth` orders deep by _product, for every sum that shares it."""
    model = tails[0]
    for tail in tails[1:]:
        model = _product(model, tail, depth)
    return model


@memo
def _layout(lo: int, factors: tuple[_Factor, ...]) -> tuple:
    """The part of _em_sum that depends on its factors alone, built once per
    sum: (K, first, joins, tails, roundings, per_k, s_rounding).  K is _split
    of the factors' largest scale; first the first factor's head from
    k = lo; joins the operator (* or /) and head from k = lo of each factor
    that joins it; tails the factors' tail models, for _tail_model; the rest
    the rounding counts.  Every count is an integer-valued float, so the
    totals are exact in any order."""
    K = _split(max(f.scale for f in factors))
    first = factors[0]
    roundings, per_k, s_rounding = first.rounding, first.rounding_per_k, first.s_rounding
    joins = []
    for f in factors[1:]:
        joins.append((operator.truediv if f.divides else operator.mul, f.head(K)[lo:]))
        roundings += f.rounding + 1.0
        per_k += f.rounding_per_k
        s_rounding += f.s_rounding
    return (K, first.head(K)[lo:], tuple(joins), tuple(f.tail for f in factors), roundings,
            per_k, s_rounding)


@memo
def _tail_model(tails: tuple[ap.LogPowerSeries, ...], K: int, exact: float) -> ap.LogPowerSeries:
    """The product of `tails` at the least depth on _RUNGS whose truncation
    bound at x = K + 1, the one em_tail reports, is at most _U/16 of |exact|,
    the head sum, or at the most orders the tails hold, up to _DEPTH.  A
    rung reads the least depth on _BUILDS that holds it, and a model cut
    there has the bits of one built at the rung (LogPowerSeries.truncated)."""
    top = min(_DEPTH, *(t.depth for t in tails))
    bound = _U / 16.0 * abs(exact)
    for d in [r for r in _RUNGS if r < top] + [top]:
        model = _chain(tails, min(top, next(b for b in _BUILDS if b >= d)))
        if d == top or em_truncation(model, d, K) <= bound:
            return model.truncated(d)


def _em_sum(lo: int, *factors: _Factor) -> SumResult:
    """sum_{k>=lo} of the product of `factors`, taken left to right: the head
    k <= K exactly, by math.fsum, the rest by em_tail on the product of their
    tails.  _layout gives K and the heads, and _tail_model, once the head
    is summed, the tail model, up to t^-(model.s0 + model.depth).

    The estimate adds the em_tail error, the head's rounding (the factors'
    own plus 1 per * or /, weighted by |term|) and the two final roundings.
    A model whose exponents were rounded, by up to s_rounding _U times the
    last kept exponent, also adds what that moves the tail:
    |tail| s_rounding (ln K + 1/(s0 - 1)), the s-derivative of
    int_K^inf t^-s dt relative to it; s0 is the model's leading decay, as the
    products that carry s_rounding lead with 1/Gamma(-x) != 0.  A sum that
    is not finite, a term that divides by 0 included, raises
    NonFiniteTermError; a head that fsum cannot sum raises fsum's error.
    Whether the estimate is small enough is for the caller to judge
    (identities.verify, through EvalConfig.converged)."""
    K, terms, joins, tails, roundings, per_k, s_rounding = _layout(lo, factors)
    for op, head in joins:
        terms = map(op, terms, head)
    try:
        terms = list(terms)
    except ZeroDivisionError:
        raise NonFiniteTermError("a term of the series divides by 0") from None

    exact = math.fsum(terms)
    if per_k:
        mags = list(map(abs, terms))
        head_err = roundings * math.fsum(mags)
        head_err += per_k * math.fsum(map(operator.mul, range(lo, K + 1), mags))
    else:
        head_err = roundings * math.fsum(map(abs, terms))
    model = _tail_model(tails, K, exact)
    tail, err = em_tail(model, K)
    if s_rounding:
        s_rounding = s_rounding * _U * (model.s0 + model.depth)
        err += abs(tail) * s_rounding * (math.log(K) + 1.0 / (model.s0 - 1.0))
    value = exact + tail
    tail_estimate = err + _U * (head_err + abs(exact) + abs(value))
    if not (math.isfinite(value) and math.isfinite(tail_estimate)):
        raise NonFiniteTermError(f"the series sums to {value} with error {tail_estimate}, "
                                 "outside binary64")
    return SumResult(value, tail_estimate, K)


# ------------------------------- the factors --------------------------------
#
# Each head is computed with its factor, once per split K, and read, like the
# tail, by every sum that shares the factor.  Tails are built here, _DEPTH
# orders past their leading one, by the asymptotics constructors, looked up
# as ap.<name> at call time.


def _running_sum(terms: Iterable[float]) -> Iterator[float]:
    """0, then each partial sum of `terms` by Neumaier's compensated running
    sum s_i = s_(i-1) + t_i, c_i = c_(i-1) + ((s_(i-1) - s_i) + t_i), entry
    i being s_i + c_i (Higham, Accuracy and Stability, 4.3).  That form of
    the error term is exact where |s_(i-1)| >= |t_i|, as it is for terms of
    one sign that never exceed the sum before them, and where s_(i-1) = 0.
    Entry i reads the terms up to i alone, so the heads of every K agree
    where they overlap.  Every harmonic-type head is one such sum."""
    s = c = 0.0
    yield s
    for t in terms:
        new = s + t
        c += (s - new) + t
        s = new
        yield s + c


def _harmonic_values(order: int, prev: bool, K: int) -> Iterable[float]:
    h = _running_sum(1.0 / _ipow(float(i), order) for i in range(1, K + 1 - prev))
    return (-math.inf, *h) if prev else h


@memo
def _harmonic(order: int = 1, prev: bool = False) -> _Factor:
    """H_k^(order), or H_{k-1}^(order) with prev (-inf at k = 0), its head
    the _running_sum of 1/i^order, one place on with prev.  The running sum
    adds 1 to its terms' rounding: 1/i^order rounds once where i^order is
    exact, as it is for every i <= 1024 at order <= 4 (1024^4 = 2^40), and
    at most order times past that (order - 1 multiplies and the /).  Hence
    2 up to order 4, order + 1 above."""
    tail = ap.harmonic_lp(order, _DEPTH, prev)
    return _Factor(partial(_head, _harmonic_values, (order, prev)), tail, 0.0,
                   2.0 if order <= 4 else order + 1.0)


def _harmonic_square_diff_values(prev: bool, K: int) -> Iterable[float]:
    h = _harmonic().head(K)
    d = _running_sum(2.0 * h[j - 1] / j for j in range(1, K + 1 - prev))
    return (math.inf, *d) if prev else d


@memo
def _harmonic_square_diff(prev: bool = False) -> _Factor:
    """H_k^2 - H_k^(2) = 2 sum_{j<=k} H_(j-1)/j, or H_{k-1}^2 - H_{k-1}^(2)
    with prev (inf at k = 0, the limit there): the _running_sum of the
    terms 2 H_(j-1)/j >= 0, each read from _harmonic's head (2 roundings)
    and divided once (2 H_(j-1) is exact), so 3, and the sum adds 1: 4.
    The tail is the same difference of H_t's and H_t^(2)'s tails."""
    h, h2 = _harmonic(prev=prev), _harmonic(2, prev)
    tail = h.tail * h.tail + h2.tail.scaled(-1.0)
    return _Factor(partial(_head, _harmonic_square_diff_values, (prev,)), tail, 0.0, 4.0)


def _central_harmonic_diff_values(K: int) -> Iterable[float]:
    return _running_sum(-2.0 / (2.0 * j - 1.0) for j in range(1, K + 1))


@memo
def _central_harmonic_diff() -> _Factor:
    """H_k - 2 H_2k = -2 sum_{j<=k} 1/(2j - 1): the _running_sum of the terms
    -2/(2j - 1), all of one sign, each rounded once (2j - 1 and the factor
    -2 are exact), and the sum adds 1: 2."""
    return _Factor(partial(_head, _central_harmonic_diff_values, ()),
                   ap.central_harmonic_diff_lp(_DEPTH), 0.0, 2.0)


def _inv_binomial_values(n: int, K: int) -> Iterable[float]:
    for k in range(K + 1):
        v = 1.0
        for i in range(1, n + 1):
            v *= i / (k + i)
        yield v


@memo
def _inv_binomial(n: int) -> _Factor:
    """1/binom(n+k, k) = n!/((k+1)...(k+n)): the head takes n ratios
    i/(k+i), each a / and a *.  The tail, on the scale n, is
    t^-n sum_j (-1)^j n! h_j(1..n) t^-j, h_j the complete homogeneous
    polynomial of degree j, each coefficient exact in Python ints and
    rounded once.  The coefficients grow with j, and the tail keeps those
    binary64 holds: all _DEPTH + 1 up to n = 140 and fewer past it.  From
    n = 171 on, n! itself leaves binary64: a DomainError naming n."""
    if math.factorial(n) > _MOST:
        raise DomainError(f"n = {n} puts n! past binary64")
    h = [1] + [0] * _DEPTH
    for i in range(1, n + 1):
        for j in range(1, _DEPTH + 1):
            h[j] += i * h[j - 1]
    coeffs = [math.factorial(n) * hj for hj in h]
    row = [float((-1) ** j * c) for j, c in enumerate(coeffs) if c <= _MOST]
    tail = ap.LogPowerSeries(float(n), len(row) - 1, [row])
    return _Factor(partial(_head, _inv_binomial_values, (n,)), tail, float(n), 2.0 * n)


def _signed_binomial_values(x: float, K: int) -> Iterable[float]:
    v = 1.0
    yield v
    for k in range(1, K + 1):
        v *= (k - 1.0 - x) / k
        yield v


@memo
def _signed_binomial(x: float) -> _Factor:
    """(-1)^k binom(x, k) = Gamma(k - x) / (Gamma(-x) Gamma(k + 1)), falling
    like k^(-x-1); at x = -1/2 it is binom(2k, k)/4^k.  The head is the exact
    first term binom(x, 0) = 1 and the running product of the ratios
    (k - 1 - x)/k, each rounded 3 times (- x, / k, *); the tail is the
    gamma-ratio expansion over Gamma(-x), on the scale |x| + 1, whose
    exponents, 1 + x + j plus the other factors' own, are rounded up to 3
    times.  At a half-integer x both k - 1 - x and the exponents are exact:
    2 roundings per k and none in the exponents.  Past x ~ 158 the tail
    model's coefficients leave binary64, and past x ~ 172 so does
    1/Gamma(-x): both end in NonFiniteTermError."""
    g = math.gamma(-x)
    if g == 0.0:
        raise NonFiniteTermError(f"1/Gamma({-x}) overflows binary64: x = {x} is too large")
    head = partial(_head, _signed_binomial_values, (x,))
    tail = ap.gamma_ratio_lp(-x, 1.0, _DEPTH).scaled(1.0 / g)
    if (2.0 * x).is_integer():
        return _Factor(head, tail, abs(x) + 1.0, 0.0, 2.0)
    return _Factor(head, tail, abs(x) + 1.0, 0.0, 3.0, s_rounding=3.0)


def _power_values(s: int, c: float, times_k: bool, K: int) -> Iterable[float]:
    if times_k:  # at k = 0, 0 or, where c^s overflowed, nan: the term's pole either way
        return (k * _ipow(c + k, s) for k in range(K + 1))
    return (_ipow(c + k, s) for k in range(K + 1))


@memo
def _power(s: int, shift: float | tuple[float, ...] = 0.0, *, times_k: bool = False) -> _Factor:
    """(c + k)^s, or k (c + k)^s with times_k, which the term divides by.

    `shift` is c either as a number whose sum with k is exact (an integer or
    a half) or as a tuple of real addends (p, or p and n), summed left to
    right and then added to k, each + rounded once.  The power, by
    multiplies, adds s - 1 and its base's roundings times s, times_k 1, and
    its expansion's scale is |c|.  At large s the power overflows to inf,
    and the term becomes 0, which it would underflow to anyway; where it
    underflows to 0 the term divides by 0 and is not finite."""
    if isinstance(shift, tuple):
        c, base_roundings = sum(shift[1:], shift[0]), len(shift)
    else:
        c, base_roundings = shift, 0
    c = float(c)
    tail = ap.recip_power_shift(c, float(s), _DEPTH)
    if times_k:  # k^-1 (c + k)^-s: the same coefficients, each one order down
        tail = ap.LogPowerSeries(tail.s0 + 1.0, tail.depth, tail.rows)
    return _Factor(partial(_head, _power_values, (s, c, times_k)), tail, abs(c),
                   s - 1.0 + base_roundings * s + times_k, divides=True)


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


def _check_shift(p: float, n: int, e: int, k: int) -> None:
    """DomainError naming p unless p > -1 is finite and the denominator
    (p + n + k)^e of the first term the sum reads, the least one, is at least
    2^-1000, so that the head's terms and their rounding bounds stay inside
    binary64.  Only a negative p with n = 0 and k = 1 puts it below 1."""
    check_above("p", p, -1.0)
    if p + n + k < 1.0 and _ipow(p + n + k, e) < 2.0**-1000:
        raise DomainError(f"p = {p} puts (p + {n} + {k})^{e} below 2^-1000")


def lhs_variant3(p: float, n: int, m: int) -> SumResult:
    """sum_{k>=1} (-1)^n / (k (p+n+k)^(m+1) binom(n+k,k)), for finite p > -1."""
    n, m = check_int("n", n, 0), check_int("m", m, 0)
    _check_shift(p, n, m + 1, 1)
    res = _em_sum(1, _inv_binomial(n), _power(m + 1, (p, n), times_k=True))
    return res.scaled((-1.0) ** n)


def lhs_variant3h(p: float, n: int, m: int) -> SumResult:
    """sum_{k>=1} (-1)^n H_{k-1} / (k (p+n+k)^(m+1) binom(n+k,k)), for finite
    p > -1; at p = -1/2, n = 0 it is the half-shifted example's series.  The
    sum starts at k = 2, as H_0 = 0 makes the k = 1 term exactly 0."""
    n, m = check_int("n", n, 0), check_int("m", m, 0)
    _check_shift(p, n, m + 1, 2)
    res = _em_sum(2, _inv_binomial(n), _power(m + 1, (p, n), times_k=True),
                  _harmonic(prev=True))
    return res.scaled((-1.0) ** n)


def lhs_variant4(p: float, n: int, m: int) -> SumResult:
    """sum_{k>=1} (H_{k-1}^2 - H_{k-1}^(2)) / (k (p+n+k)^m binom(n+k,k)), for
    finite p > -1.  The sum starts at k = 3, as H_0 = 0 and H_1^2 = H_1^(2)
    make the terms at k = 1 and 2 exactly 0."""
    n, m = check_int("n", n, 0), check_int("m", m, 1)
    _check_shift(p, n, m, 3)
    return _em_sum(3, _inv_binomial(n), _power(m, (p, n), times_k=True),
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
# its bound.  Over 25 sums with n = 3 to 2500, e = 1 to 3e5 and p = 0 or
# 0.1 to 3, the time per unit of work was 2.2e-10 to 6.2e-10 ms, 4.6e-10 at
# the median, on a 2-vCPU x86-64 under CPython 3.11: a sum at the cap takes
# 26 to 74 ms, about 55 ms at the median.
_WORK_CAP = 1.2e11

# CPython multiplies by schoolbook while the shorter operand has at most 70
# digits of 30 bits, and by Karatsuba past that.
_KARATSUBA_BITS = 70 * 30
_LOG2_3 = math.log2(3.0)


def _mul_work(bits: float) -> float:
    """The work of multiplying a long int by one of `bits` bits, per bit of
    the long one: `bits` by schoolbook, and past _KARATSUBA_BITS 3
    half-size products per halving, C (bits / C)^(log2 3 - 1) with
    C = _KARATSUBA_BITS (a longer operand is cut into pieces of that size)."""
    if bits <= _KARATSUBA_BITS:
        return bits
    return _KARATSUBA_BITS ** (2.0 - _LOG2_3) * bits ** (_LOG2_3 - 1.0)


def _named(x: float, p: float, m: int) -> str:
    return f"x = {x}, p = {p} and m = {m}" if p else f"x = {x} and m = {m}"


def _finite_binomial(x: float, p: float, m: int, e: int, lo: int) -> SumResult:
    """sum_{k=lo}^{n} (-1)^(k-lo) binom(n, k) / (p + k)^e at the integer
    n = x, exact in Python ints and rounded once: p = P/Q, a binary64 being
    a dyadic rational, each denominator is (P + k Q)^e, and the int true
    division num Q^e / den rounds correctly, so the estimate is that one
    rounding.  Errors name x, p and m, or x and m at p = 0, the base series.
    den ends at about D = e sum_k log2(P + k Q) bits, taken by lgamma, and
    each of the t = n + 1 - lo steps multiplies num and den, at most D bits,
    by d (D / t bits on average) and den by binom(n, k) (at most n bits), so
    D t (2 _mul_work(D / t) + _mul_work(n)) bounds the work, _mul_work being
    concave: past _WORK_CAP, or past lgamma's range, it is a DomainError
    before any summing, as is a value past binary64 or below its normal
    numbers.  At lo = 0 and p > 0 each (p + k)^e >= 1 for k >= 1, so
    |sum| >= p^-e - (2^n - 1), and p^-e >= 2^1024 + 2^n puts the sum past
    binary64 before any summing too."""
    n = int(x)
    P, Q = p.as_integer_ratio()
    t = max(n + 1 - lo, 1)
    try:
        bits = e * (t * math.log2(Q) + (math.lgamma(p + n + 1) - math.lgamma(p + lo)) / LN2)
    except OverflowError:  # n past lgamma's range
        bits = math.inf
    if bits * t * (2.0 * _mul_work(bits / t) + _mul_work(n)) > _WORK_CAP:
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
    return _em_sum(1, _signed_binomial(x), _power(m)).scaled(-1.0)


def lhs_binomial_shifted(x: float, p: float, m: int) -> SumResult:
    """sum_{k>=0} (-1)^k binom(x,k) / (p+k)^(m+1), exact at an integer x."""
    check_above("x", x, -1.0)
    check_above("p", p, 0.0)
    m = check_int("m", m, 0)
    if float(x).is_integer():
        return _finite_binomial(x, p, m, m + 1, 0)
    return _em_sum(0, _signed_binomial(x), _power(m + 1, (p,)))


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
