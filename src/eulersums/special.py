"""Scalar special functions: digamma, polygamma, zeta, harmonic numbers.

Everything here is a pure function of binary64 inputs.  Accuracy targets:
digamma 1e-12, polygamma 1e-11 (ln Gamma is math.lgamma).  Hurwitz zeta is
within series._HURWITZ_ROUNDING = 4 units of 2^-53, relative, of 30-digit
mpmath at every (s, a) measured: s = 2..80, 100, 200 and 1000 at a = 1 + p,
p on a 0.001 grid.  It has two branches: where the Euler-Maclaurin split holds
enough terms (large s), the fewest direct terms whose remainder is bounded by
2^-55 a^-s; elsewhere the direct terms up to that split plus the
Euler-Maclaurin tail.
The digamma/polygamma evaluators use upward recurrence to a large argument
followed by the Bernoulli asymptotic series; negative non-integer arguments
are reached by the same recurrence run from below, which is an exact identity
rather than an analytic continuation, and those below -1024 by reflection to
1 - x, which takes no steps.  memo keeps the results of the package's
parameter-only builders (series factors, their heads, the products of their
tail models, each sum's layout of them and its tail model, their
harmonic-number tables, the Euler-Maclaurin weights and the monomials they
are assembled from,
psi-derivative tuples, ln Gamma and gamma-ratio jets, the closed forms'
harmonic-number tuples, the registry rows' declared parameters, the Hurwitz
and so the Riemann zeta values) in bounded tables that clear_memos empties.
gen_harmonic keeps nothing: the closed forms read its fsums through their
memoized tuples.  check_int (an order or index) and check_above (a real),
beside DomainError, are the one way every public function refuses a bad
argument; a memo table checks inside itself, as it keeps no raised error.
"""

from __future__ import annotations

import functools
import math
from typing import Callable


class DomainError(ValueError):
    """Argument outside the domain an operation supports."""


class PoleError(DomainError):
    """Argument sits exactly on a pole."""


def check_int(name: str, v: float, least: int, most: float = math.inf) -> int:
    """v as an int, so that an integral float such as 2.0 gives the int's
    bits; DomainError naming `name` unless v is an integer in least..most.
    Every public function checks its orders and indices here."""
    if not (v >= least and v % 1 == 0):
        raise DomainError(f"{name} must be an integer >= {least}, got {v}")
    if v > most:
        raise DomainError(f"{name} must be <= {most}, got {v}")
    return int(v)


def check_above(name: str, v: float, least: float) -> float:
    """v, or DomainError naming `name` unless v is finite and greater than least."""
    if not least < v < math.inf:
        raise DomainError(f"{name} must be finite and > {least:g}, got {v}")
    return v


# ------------------- parameter-only values, built once ----------------------

# The most results one memo table keeps; past it the least recently used goes.
# One pass over the default grid builds 163 distinct series factors, 117
# distinct heads (each at K = 64; factors whose shifts add up to the same c
# share one), 2 harmonic-number tables, 400 sum layouts and 400 tail models
# for its 472 sums, 94 Euler-Maclaurin weight tables from 101 monomials, 62
# psi-derivative tuples, 49 ln Gamma jets, 25 gamma-ratio jets (one per base
# point) for its 500 gamma_ratio_jet calls and 15 harmonic-number tuples from
# 45 fsums; one over the closed_form benchmark builds 114 psi-derivative
# tuples, 92 ln Gamma jets, 44 gamma-ratio jets for 1760 calls and 33
# harmonic-number tuples from 198 fsums, which it reads 3520 times.  A grid
# pass asks for 1650 tail-model products, at the depths its sums try, 468
# distinct (adaptive: 24); the closed_form benchmark's untimed series values
# ask for 4089, 1530 distinct, from 1359 sum layouts and tail models, so
# those three tables evict, and an evicted entry is built again: a second
# such pass builds 1340 products, 1359 layouts and 1359 tail models again,
# and no weights.  A grid pass asks for 263 zeta values, 94 distinct (s, a);
# an adaptive pass 254, 90 distinct, as the EX3 zeta-value series at m and
# m + 1 share all their terms but one.
MEMO_SIZE = 1024

_MEMOS: list = []


def memo(fn: Callable) -> Callable:
    """fn with its results kept by its exact arguments, typed so that the
    arguments 1 and 1.0 (whose results may differ in the last bit) are kept
    apart; the items of a tuple argument compare by value.  Every caller
    shares a kept result, so no caller may be able to change it: the jets,
    harmonic-number tuples and series heads are tuples of floats, the series
    factors frozen records, the sum layouts tuples of those, and their tail
    models and the products of those tuple rows.  clear_memos() empties every table made here."""
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
    n = check_int("n", n, 0, len(_BERNOULLI) - 1)
    return math.fsum(math.comb(n, k) * _BERNOULLI[k] * a ** (n - k) for k in range(n + 1))


def _is_nonpositive_integer(x: float) -> bool:
    """Exactly 0, -1, -2, ...: next to a pole the recurrence is exact enough."""
    return x <= 0.0 and float(x).is_integer()


# Below this x digamma and polygamma reflect rather than recur upward, which
# takes about -x steps: 0.8 s at x = -1e7, and about 4.5e15 steps at
# -2^52 + 0.5, the least finite x off the poles.  From it up they recur as
# they always have, in at most 1034 + k steps, and keep their bits.
_REFLECT_BELOW = -1024.0


def _cot_term(k: int, x: float) -> float:
    """pi^(k+1) cot^(k)(pi x), for the reflection
    psi^(k)(x) = (-1)^k psi^(k)(1 - x) - pi^(k+1) cot^(k)(pi x).

    cot^(k) = P_k(cot), P_0(c) = c, P_(k+1)(c) = -(1 + c^2) P_k'(c), in
    Python ints; the nonzero coefficients of P_k all have the sign (-1)^k and
    the parity of k + 1, so Horner on c^2 adds terms of one sign.
    cot(pi x) = cot(pi r) with r = x - round(x), exact, and for |r| > 1/4 it
    is tan(pi (1/2 - |r|)) with the sign of r, 1/2 - |r| exact too, so that
    it is exactly 0 at a half-integer."""
    r = x - round(x)
    if abs(r) <= 0.25:
        c = 1.0 / math.tan(math.pi * r)
    else:
        c = math.copysign(math.tan(math.pi * (0.5 - abs(r))), r)
    poly = [0, 1]
    for _ in range(k):
        deriv = [i * a for i, a in enumerate(poly)][1:]
        poly = [0] * (len(deriv) + 2)
        for i, a in enumerate(deriv):
            poly[i] -= a
            poly[i + 2] -= a
    odd = (k + 1) % 2
    acc, c2 = 0.0, c * c
    for a in reversed(poly[odd::2]):
        acc = acc * c2 + a
    return math.pi ** (k + 1) * (acc * c if odd else acc)


def digamma(x: float) -> float:
    """psi(x) for real x off the poles 0, -1, -2, ...

    For x below the asymptotic threshold the recurrence
    psi(x) = psi(x+1) - 1/x is applied upward (also from negative x), then
    psi is evaluated from the ln x - 1/(2x) - sum B_{2j}/(2j x^{2j}) series.
    Below _REFLECT_BELOW it reflects instead, to psi(1 - x) - pi cot(pi x).
    A non-finite x is a DomainError."""
    check_above("x", x, -math.inf)
    if _is_nonpositive_integer(x):
        raise PoleError(f"digamma pole at x = {x}")
    if x < _REFLECT_BELOW:
        return digamma(1.0 - x) - _cot_term(0, x)
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
    DomainError, and so is a non-finite x.  Below _REFLECT_BELOW it reflects
    instead, to (-1)^k psi^(k)(1 - x) - pi^(k+1) cot^(k)(pi x): 1 - x is past
    the threshold for every k at which k! / y^(k+1) stays in binary64, and
    (-1)^k (-1)^(k+1) = -1 is the sign of its series.
    """
    k = check_int("k", k, 1)
    check_above("x", x, -math.inf)
    if _is_nonpositive_integer(x):
        raise PoleError(f"polygamma pole at x = {x}")
    threshold = 10.0 + k
    sign = -1.0 if k % 2 == 0 else 1.0  # (-1)^(k+1)
    try:
        fact_k = math.factorial(k)
        acc, y = 0.0, x
        if x < _REFLECT_BELOW:
            acc, y, sign = -_cot_term(k, x), 1.0 - x, -1.0
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
    binary64 (a^-s does at a small enough a) is a DomainError, as is an s
    or an a outside the domain.  The memo table _hurwitz_zeta checks and
    computes each (s, a) once per process; this plain function in front of
    it is what perfbench/tracing.py can time.
    """
    return _hurwitz_zeta(s, a)


@memo
def _hurwitz_zeta(s: float, a: float) -> float:
    """hurwitz_zeta, kept by memo.  A DomainError it raises (a bad s or a,
    a direct term or their sum past binary64) is not kept."""
    check_above("s", s, 1.0)
    check_above("a", a, 0.0)
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
    n, m = check_int("n", n, 0), check_int("m", m, 1)
    return math.fsum(k**-m if m > 1 else 1.0 / k for k in range(1, n + 1))
