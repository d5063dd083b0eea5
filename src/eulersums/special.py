"""Scalar special functions: gamma, digamma, polygamma, zeta, harmonic numbers.

Everything here is a pure function of binary64 inputs.  Accuracy targets:
ln_gamma 1e-13 relative, digamma 1e-12, polygamma 1e-11, Hurwitz zeta 1e-12.
The digamma/polygamma evaluators use upward recurrence to a large argument
followed by the Bernoulli asymptotic series; negative non-integer arguments
are reached by the same recurrence run from below, which is an exact identity
rather than an analytic continuation.  memo keeps the results of the package's
parameter-only builders (series factors, psi-derivative tuples, ln Gamma and
psi jets, harmonic numbers) in bounded tables that clear_memos empties.
gen_harmonic, and harmonic through it, checks its arguments on every call and
keeps each fsum by its exact (n, m): the closed forms' finite sums ask for a
few dozen distinct harmonic numbers tens of thousands of times.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class DomainError(ValueError):
    """Argument outside the domain an operation supports."""


class PoleError(DomainError):
    """Argument sits exactly on a pole."""


# Mathematical constants to full binary64 precision.
EULER_GAMMA = 0.5772156649015328606
ZETA2 = 1.6449340668482264365  # pi^2/6
ZETA3 = 1.2020569031595942854
ZETA4 = 1.0823232337111381916  # pi^4/90
LN2 = 0.6931471805599453094
SQRT_PI = 1.7724538509055160273

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


_INT_TOL = 1e-12


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.5 and abs(x - round(x)) < _INT_TOL


def ln_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0."""
    if x <= 0.0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def gamma(x: float) -> float:
    """Gamma(x) for any non-pole real x; negative arguments go through reflection."""
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma pole at x = {x}")
    return math.gamma(x)


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
    x >= 10 + k, then sums the Bernoulli asymptotic series truncated at its
    smallest term (at most 12 Bernoulli terms).  The order-dependent
    threshold keeps the truncation floor below 1e-13 relative through
    k ~ 16; a flat threshold of 10 degrades to ~1e-10 by k = 16.  If k! or
    a power overflows binary64 (k! does from k = 171), DomainError.
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
        prev = math.inf
        for j, b in enumerate(BERNOULLI_2J, start=1):
            t = b * math.factorial(2 * j + k - 1) / math.factorial(2 * j) * inv ** (2 * j + k)
            if abs(t) > prev:
                break
            s += t
            prev = abs(t)
    except OverflowError:
        raise DomainError(f"polygamma({k}, {x}) overflows binary64") from None
    return sign * s + acc


def hurwitz_zeta(s: float, a: float) -> float:
    """zeta(s, a) = sum_{j>=0} 1/(j+a)^s for s > 1, a > 0, by Euler-Maclaurin.

    Direct terms are taken until j + a is comfortably inside the asymptotic
    regime, then the tail is the integral plus boundary plus Bernoulli
    corrections to order 8.  The split point grows with s so the correction
    series keeps a ~(s/(2 pi N))^2 per-term decay.
    """
    if s <= 1.0:
        raise DomainError(f"hurwitz_zeta requires s > 1, got s = {s}")
    if a <= 0.0:
        raise DomainError(f"hurwitz_zeta requires a > 0, got a = {a}")
    n_direct = max(0, int(math.ceil(20.0 + 0.8 * s - a)))
    direct = math.fsum((j + a) ** -s for j in range(n_direct))
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


def harmonic(n: int) -> float:
    """H_n, exact partial sum with compensated accumulation; H_0 = 0."""
    return gen_harmonic(n, 1)


def gen_harmonic(n: int, m: int) -> float:
    """H_n^(m) = sum_{k=1..n} k^-m; H_0^(m) = 0."""
    if n < 0:
        raise DomainError(f"gen_harmonic requires n >= 0, got {n}")
    if m < 1:
        raise DomainError(f"gen_harmonic requires m >= 1, got {m}")
    return _gen_harmonic(n, m)


@dataclass(frozen=True)
class HarmonicCache:
    """Read-only table of H_n, H_n^(2), H_n^(3) for n = 0..n_max."""

    n_max: int
    h1: np.ndarray
    h2: np.ndarray
    h3: np.ndarray

    @classmethod
    def build(cls, n_max: int) -> "HarmonicCache":
        if n_max < 0:
            raise DomainError(f"HarmonicCache requires n_max >= 0, got {n_max}")
        n = np.arange(1.0, n_max + 1.0)
        return cls(n_max, _running_neumaier(1.0 / n), _running_neumaier(1.0 / n**2),
                   _running_neumaier(1.0 / n**3))


def _running_neumaier(terms: np.ndarray) -> np.ndarray:
    """[0, s_1 + c_1, s_2 + c_2, ...], read-only: Neumaier's compensated
    running sum s_i = s_(i-1) + t_i, c_i = c_(i-1) + ((s_(i-1) - s_i) + t_i).
    That form of the error term needs |s_(i-1)| >= |t_i|, which holds for
    positive terms that never exceed the first (and at i = 1 both forms give
    0).  cumsum adds left to right, as the scalar loop does, so every s_i and
    c_i is that loop's, bit for bit."""
    s = np.cumsum(terms)
    prev = np.concatenate(([0.0], s[:-1]))
    out = np.concatenate(([0.0], s + np.cumsum((prev - s) + terms)))
    out.setflags(write=False)
    return out


# ------------------- parameter-only values, built once ----------------------

# The most results one memo table keeps; past it the least recently used goes.
# One pass over the default grid builds 163 distinct series factors, 114
# distinct ln Gamma jets from 115 psi-derivative tuples and 15 harmonic
# numbers; one over the closed_form benchmark builds 347 psi-derivative tuples,
# 380 jets and 33 harmonic numbers, which it reads 32120 times.
MEMO_SIZE = 1024

_MEMOS: list = []


def memo(fn: Callable) -> Callable:
    """fn with its results kept by its exact arguments, typed so that the
    arguments 1 and 1.0 (whose results may differ in the last bit) are kept
    apart; the items of a tuple argument compare by value.  Every caller
    shares a kept result, so it must be immutable.  clear_memos() empties
    every table made here."""
    kept = functools.lru_cache(maxsize=MEMO_SIZE, typed=True)(fn)
    _MEMOS.append(kept)
    return kept


def clear_memos() -> None:
    """Empty every memo table, so each value is built again on its next use."""
    for kept in _MEMOS:
        kept.cache_clear()


@memo
def _gen_harmonic(n: int, m: int) -> float:
    return math.fsum(k**-m if m > 1 else 1.0 / k for k in range(1, n + 1))
