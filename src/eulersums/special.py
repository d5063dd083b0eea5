"""Scalar special functions: ln Gamma, digamma, polygamma, zeta, harmonic numbers.

Everything here is a pure function of binary64 inputs.  Accuracy targets:
ln_gamma 1e-13 relative, digamma 1e-12, polygamma 1e-11.  Hurwitz zeta is
within series._HURWITZ_ROUNDING = 4 units of 2^-53, relative, of 30-digit
mpmath at every (s, a) measured: s = 2..80, 100, 200 and 1000 at a = 1 + p,
p on a 0.001 grid.  It has two branches: where the Euler-Maclaurin split holds
enough terms (large s), the fewest direct terms whose remainder is bounded by
2^-55 a^-s; elsewhere the direct terms up to that split plus the
Euler-Maclaurin tail.
The digamma/polygamma evaluators use upward recurrence to a large argument
followed by the Bernoulli asymptotic series; negative non-integer arguments
are reached by the same recurrence run from below, which is an exact identity
rather than an analytic continuation.  memo keeps the results of the package's
parameter-only builders (series factors, the products of their tail models
and their harmonic-number tables, psi-derivative tuples, ln Gamma and
gamma-ratio jets, the closed forms' harmonic-number tuples, the registry
rows' declared parameters, the Hurwitz and so the Riemann zeta values) in
bounded tables that clear_memos empties.
gen_harmonic keeps nothing: the closed forms read its fsums through their
memoized tuples.
"""

from __future__ import annotations

import functools
import math
from typing import Callable


class DomainError(ValueError):
    """Argument outside the domain an operation supports."""


class PoleError(DomainError):
    """Argument sits exactly on a pole."""


# ------------------- parameter-only values, built once ----------------------

# The most results one memo table keeps; past it the least recently used goes.
# One pass over the default grid builds 163 distinct series factors, 90
# distinct ln Gamma jets from 93 psi-derivative tuples, 125 gamma-ratio jets
# for its 500 gamma_ratio_jet calls and 15 harmonic-number tuples from 45
# fsums; one over the closed_form benchmark builds 288 psi-derivative tuples,
# 284 ln Gamma jets, 440 gamma-ratio jets for 1760 calls and 33
# harmonic-number tuples from 198 fsums, which it reads 3520 times.  A grid
# pass asks for 794 tail-model products, 412 distinct (adaptive: 24); the
# closed_form benchmark's untimed series values need 1382, so that table
# evicts, and an evicted product is built again.  A grid pass asks for 263
# zeta values, 94 distinct (s, a); an adaptive pass 254, 90 distinct, as the
# EX3 zeta-value series at m and m + 1 share all their terms but one.
MEMO_SIZE = 1024

_MEMOS: list = []


def memo(fn: Callable) -> Callable:
    """fn with its results kept by its exact arguments, typed so that the
    arguments 1 and 1.0 (whose results may differ in the last bit) are kept
    apart; the items of a tuple argument compare by value.  Every caller
    shares a kept result, so no caller may be able to change it: the jets and
    harmonic-number tuples are tuples of floats, the series factors frozen
    records holding read-only arrays, their tail models and the products of
    those tuple rows.  clear_memos() empties every table made here."""
    kept = functools.lru_cache(maxsize=MEMO_SIZE, typed=True)(fn)
    _MEMOS.append(kept)
    return kept


def clear_memos() -> None:
    """Empty every memo table, so each value is built again on its next use."""
    for kept in _MEMOS:
        kept.cache_clear()


# Mathematical constants to full binary64 precision.
EULER_GAMMA = 0.5772156649015328606
ZETA2 = 1.6449340668482264365  # pi^2/6
ZETA3 = 1.2020569031595942854
ZETA4 = 1.0823232337111381916  # pi^4/90
LN2 = 0.6931471805599453094
SQRT_PI = 1.7724538509055160273

_U = 2.0**-53  # the unit roundoff of binary64

# Bernoulli numbers B_2, B_4, ..., B_24 (exact rationals rounded to binary64).
BERNOULLI_2J = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
    854513.0 / 138.0,
    -236364091.0 / 2730.0,
)

# B_0, B_1, ..., B_25 with B_1 = -1/2: the odd ones past B_1 vanish.
_BERNOULLI = (1.0, -0.5) + tuple(v for b in BERNOULLI_2J for v in (b, 0.0))


def bernoulli_poly(n: int, a: float) -> float:
    """Bernoulli polynomial B_n(a) = sum_k binom(n, k) B_k a^(n-k), for
    0 <= n <= 25 (the numbers in BERNOULLI_2J)."""
    if not 0 <= n < len(_BERNOULLI):
        raise DomainError(f"bernoulli_poly requires 0 <= n < {len(_BERNOULLI)}, got {n}")
    return math.fsum(math.comb(n, k) * _BERNOULLI[k] * a ** (n - k) for k in range(n + 1))


def _is_nonpositive_integer(x: float) -> bool:
    """Exactly 0, -1, -2, ...: next to a pole the recurrence is exact enough."""
    return x <= 0.0 and float(x).is_integer()


def ln_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0."""
    if x <= 0.0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def digamma(x: float) -> float:
    """psi(x) for real x off the poles 0, -1, -2, ...

    For x below the asymptotic threshold the recurrence
    psi(x) = psi(x+1) - 1/x is applied upward (also from negative x), then
    psi is evaluated from the ln x - 1/(2x) - sum B_{2j}/(2j x^{2j}) series.
    """
    if _is_nonpositive_integer(x):
        raise PoleError(f"digamma pole at x = {x}")
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    s = math.log(x) - 0.5 * inv
    term = inv2
    for j, b in enumerate(BERNOULLI_2J, start=1):
        s -= b / (2 * j) * term
        term *= inv2
    return s + acc


def polygamma(k: int, x: float) -> float:
    """psi^(k)(x) for k >= 1 and real x off the poles.

    Shifts upward with psi^(k)(x) = psi^(k)(x+1) - (-1)^k k!/x^(k+1) until
    the argument y >= 10 + k, then adds the 12 Bernoulli terms of the
    asymptotic series.  There each term is below the one before by about
    ((2j + k + 1) / (2 pi y))^2 < 0.12, so none lies past the smallest.  The
    order-dependent threshold keeps the truncation floor below 1e-13
    relative through k ~ 16; a flat threshold of 10 degrades to ~1e-10 by
    k = 16.  If k!, a power or a recurrence term k!/y^(k+1) leaves binary64
    (k! does from k = 171; y^(k+1) underflows to 0 near a pole),
    DomainError.
    """
    if k < 1:
        raise DomainError(f"polygamma requires k >= 1, got {k}")
    if _is_nonpositive_integer(x):
        raise PoleError(f"polygamma pole at x = {x}")
    threshold = 10.0 + k
    sign = -1.0 if k % 2 == 0 else 1.0  # (-1)^(k+1)
    try:
        fact_k = math.factorial(k)
        acc = 0.0
        y = x
        while y < threshold:
            acc += sign * fact_k / y ** (k + 1)
            y += 1.0
        inv = 1.0 / y
        s = math.factorial(k - 1) * inv**k + 0.5 * fact_k * inv ** (k + 1)
        for j, b in enumerate(BERNOULLI_2J, start=1):
            s += b * math.factorial(2 * j + k - 1) / math.factorial(2 * j) * inv ** (2 * j + k)
        out = sign * s + acc
    except (OverflowError, ZeroDivisionError):  # ZeroDivisionError: y^(k+1) rounded to 0
        out = math.inf
    if math.isinf(out):
        raise DomainError(f"polygamma({k}, {x}) overflows binary64")
    return out


def _direct_terms(s: float, a: float, most: int) -> list[float] | None:
    """The terms (j + a)^-s, j < N, for the fewest N with
    (N + a)^-s (1 + (N + a)/(s - 1)) <= _U/4 a^-s, or None if N > most.

    The left side is f(N) plus the integral of f from N, f(j) = (j + a)^-s,
    which bounds the remainder sum_{j>=N} f(j); and a^-s <= zeta(s, a).  It
    falls as N grows, so one test at N = most says whether N <= most.  That
    test reads the ratio (a / (most + a))^s, which only underflows where it is
    negligible, in place of a^-s, which may leave binary64 (a^-s = 0 would
    pass it at any N)."""
    x = most + a
    if (a / x) ** s * (1.0 + x / (s - 1.0)) > 0.25 * _U:
        return None
    terms = []
    t = a ** -s
    limit = 0.25 * _U * t
    j = 0
    while t * (1.0 + (j + a) / (s - 1.0)) > limit:
        terms.append(t)
        j += 1
        t = (j + a) ** -s
    return terms


def hurwitz_zeta(s: float, a: float) -> float:
    """zeta(s, a) = sum_{j>=0} 1/(j+a)^s for 1 < s < inf, 0 < a < inf.

    Two branches, both summing their direct terms with fsum:
    - direct: when _direct_terms finds N no larger than the Euler-Maclaurin
      split below, the sum of its N terms; the remainder it drops is
      below (N + a)^-s (1 + (N + a)/(s - 1)) <= _U/4 a^-s <= _U/4 zeta(s, a).
      There the split x is so small that the corrections would diverge (at
      s = 56, a = 2, x = 4 they add about 4e-12 relative), so none are added.
    - Euler-Maclaurin: N = 20 + 0.8 s - a direct terms, then the tail is the
      integral plus boundary plus Bernoulli corrections to order 8.  The split
      grows with s so the correction series keeps a ~(s/(2 pi N))^2 per-term
      decay.
    Both are within 4 _U of zeta(s, a) at every (s, a) the tests measure
    (series._HURWITZ_ROUNDING).  A direct term or their sum that leaves
    binary64 (a^-s does at a small enough a) is a DomainError.  Each (s, a)
    is computed once per process: the checks run on every call, and the
    value is kept by _hurwitz_zeta's memo table.
    """
    if not 1.0 < s < math.inf:
        raise DomainError(f"hurwitz_zeta requires 1 < s < inf, got s = {s}")
    if not 0.0 < a < math.inf:
        raise DomainError(f"hurwitz_zeta requires 0 < a < inf, got a = {a}")
    return _hurwitz_zeta(s, a)


@memo
def _hurwitz_zeta(s: float, a: float) -> float:
    """hurwitz_zeta past its domain checks, kept by memo.  A DomainError it
    raises (a direct term or their sum past binary64) is not kept."""
    n_direct = max(0, int(math.ceil(20.0 + 0.8 * s - a)))
    try:  # the powers (j + a)^-s, and their fsum, may leave binary64 at a small a
        terms = _direct_terms(s, a, n_direct)
        if terms is not None:
            return math.fsum(terms)
        direct = math.fsum((j + a) ** -s for j in range(n_direct))
    except OverflowError:
        raise DomainError(f"hurwitz_zeta({s}, {a}) overflows binary64") from None
    x = n_direct + a  # tail is sum over j >= n_direct of (j + a)^(-s)
    tail = x ** (1.0 - s) / (s - 1.0) + 0.5 * x**-s
    # Bernoulli corrections: + sum_j B_2j/(2j)! (s)_{2j-1} x^{-s-2j+1}
    rising = s  # (s)_1
    fact = 1.0
    xp = x ** (-s - 1.0)
    corr = 0.0
    for j in range(1, 9):
        fact *= (2 * j - 1) * (2 * j)  # (2j)!
        corr += BERNOULLI_2J[j - 1] / fact * rising * xp
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        xp /= x * x
    return direct + tail + corr


def riemann_zeta(s: float) -> float:
    """zeta(s) for s > 1."""
    if s == 2.0:
        return ZETA2
    if s == 3.0:
        return ZETA3
    if s == 4.0:
        return ZETA4
    return hurwitz_zeta(s, 1.0)


def gen_harmonic(n: int, m: int) -> float:
    """H_n^(m) = sum_{k=1..n} k^-m; H_0^(m) = 0."""
    if n < 0:
        raise DomainError(f"gen_harmonic requires n >= 0, got {n}")
    if m < 1:
        raise DomainError(f"gen_harmonic requires m >= 1, got {m}")
    return math.fsum(k**-m if m > 1 else 1.0 / k for k in range(1, n + 1))
