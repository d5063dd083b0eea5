"""Series summation engine: the result type the series oracles share, the
convergence test verify applies to it, and Euler-Maclaurin tails.

Every slowly convergent series sums a fixed head and hands its tail model, a
LogPowerSeries, to em_tail, which estimates sum_{k>K} f(k) for a smooth
decreasing tail from its integral, boundary value, and _EM_ORDER Bernoulli
derivative corrections.  At the fixed point x = K + 1 each of these, and the
error estimate's parts, is a linear functional of the model's coefficients,
whose weight on each monomial ln^a t t^-s depends only on a, s, K and the
number of corrections.  _em_monomial builds the weights of one monomial
from its termwise derivatives, and _em_weights lays them out, row after
row, as one flat tuple per functional for each shape (leading decay, depth
and number of ln rows); both are memoized (so
series._cache.cache_clear() drops them), and shapes share every monomial
they have in common: a table at s0 + 1 shares all but one order of each row
with one at s0, and a shallower one all of its orders with a deeper one.
em_truncation reads the same monomials for the truncation bound of a model
cut at any depth, by which series gives each sum its depth.  em_tail reads
the model's coefficients as the flat tuple the model made when it was
built, so no call flattens them, and takes each functional as one fsum of
coefficients times weights.  The oracles only compute: a SumResult carries
a value and its error estimate, and EvalConfig.converged is the one place
that judges it.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

from .asymptotics import LogPowerSeries, log_power_integral
from .special import BERNOULLI_2J, DomainError, check_above, check_int, memo


class NonFiniteTermError(ValueError):
    """A term evaluated to NaN or infinity."""


class NonMonotoneTailError(ValueError):
    """em_tail was handed a tail whose magnitude is not decreasing."""


class EvalConfig:
    """How strictly verify judges a series: a result has converged when its
    value is finite and its tail_estimate is at most rel_tol max(|value|,
    1e-300), so an infinite or NaN value or estimate never has.  rel_tol
    must be positive and finite; it is read-only once checked."""

    __slots__ = ("rel_tol",)

    def __init__(self, rel_tol: float = 1e-10) -> None:
        object.__setattr__(self, "rel_tol", check_above("rel_tol", rel_tol, 0.0))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("EvalConfig is read-only")

    def converged(self, res: SumResult) -> bool:
        return (math.isfinite(res.value)
                and res.tail_estimate <= self.rel_tol * max(abs(res.value), 1e-300))


class SumResult(NamedTuple):
    """Value of a truncated series, a bound on its error, and the number of
    terms summed exactly."""

    value: float
    tail_estimate: float
    terms_used: int

    def scaled(self, c: float) -> "SumResult":
        """The result for c times the series."""
        return SumResult(c * self.value, abs(c) * self.tail_estimate, self.terms_used)


# Bernoulli corrections em_tail takes.  The reported error includes the first
# omitted correction, so no order can hide error; a higher one only shrinks a
# bound that is already far below one ulp.  Correction j is about
# (s + 2j)^2 / (2 pi x)^2 of correction j - 1, under 6e-3 at x = K + 1 = 65,
# the least split, for the oracles' leading decays s <= 22, and
# test_em_oracles checks that the first omitted one stays below 5 U |value|.
# Over the 2171 oracle results pinned in tests/oracle_bits.json, orders 5 and
# 6 give the same values as order 4 (and move 1294 tail estimates, of which
# the omitted correction is a part); order 3 moves 2 values, order 2 moves
# 218 and order 1 moves 644.
_EM_ORDER = 4

_Flat = tuple[float, ...]


def _at(c: list[float], s: float, x: float, lx: float) -> float:
    """sum_i c[i] ln^i x x^-s, by fsum."""
    return math.fsum([v * lx**i * x**-s for i, v in enumerate(c)])


def _diff(c: list[float], s: float) -> tuple[list[float], float]:
    """The derivative of sum_i c[i] ln^i t t^-s: its coefficients
    (i + 1) c[i+1] - s c[i], at t^-(s+1), and s + 1."""
    return [(i + 1) * c[i + 1] - s * v for i, v in enumerate(c[:-1])] + [-s * c[-1]], s + 1.0


@memo
def _em_weights(s0: float, depth: int, n_rows: int, K: int,
                order: int) -> tuple[_Flat, _Flat, _Flat, _Flat, _Flat, int]:
    """What em_tail computes from every model with this leading decay, depth
    and number of ln rows, as weights on its coefficients, at x = K + 1 with
    `order` Bernoulli corrections: (f0, f1, tail, omitted, last, diverges).
    The first four are flat, row after row: each holds at a (depth + 1) + j
    the value, for the monomial ln^a t t^-(s0+j), of f at x and at x + 1, of
    the Euler-Maclaurin tail estimate and of the first omitted correction,
    so that it lines up with the model's rows flattened in order.  last[a]
    is the tail integral of the last kept order, j = depth.  The first
    `diverges` orders have s <= 1 and no tail integral.  Each monomial's
    weights come from _em_monomial, which every table holding that (a, s)
    at this K shares.  It checks K for em_tail."""
    K = check_int("K", K, 0)
    f0, f1, tail, omitted, integral = zip(*[_em_monomial(a, s0 + j, K, order)
                                            for a in range(n_rows) for j in range(depth + 1)])
    return f0, f1, tail, omitted, integral[depth::depth + 1], _diverges(s0, depth)


def _diverges(s0: float, depth: int) -> int:
    return sum(s0 + j <= 1.0 for j in range(depth + 1))


@memo
def _em_monomial(a: int, s: float, K: int,
                 order: int) -> tuple[float, float, float, float, float]:
    """The weights of _em_weights on the one monomial ln^a t t^-s: (f0, f1,
    tail, omitted, integral), integral being its tail integral from x = K + 1
    (0 at s <= 1, where it diverges), from the monomial and its termwise
    derivatives (_diff), each evaluated at x by _at."""
    x = float(K + 1)
    lx = math.log(x)
    c = [0.0] * a + [1.0]
    f0 = _at(c, s, x, lx)
    f1 = _at(c, s, x + 1.0, math.log(x + 1.0))
    integral = log_power_integral(a, s, x) if s > 1.0 else 0.0
    parts = [integral, 0.5 * f0]
    c, s = _diff(c, s)
    fact = 1.0
    for i in range(1, order + 1):
        fact *= (2 * i - 1) * (2 * i)
        parts.append(-(BERNOULLI_2J[i - 1] / fact * _at(c, s, x, lx)))
        c, s = _diff(*_diff(c, s))
    b = BERNOULLI_2J[order] / (fact * (2 * order + 1) * (2 * order + 2))
    return f0, f1, math.fsum(parts), b * _at(c, s, x, lx), integral


def em_truncation(model: LogPowerSeries, depth: int, K: int) -> float:
    """The bound em_tail reports for the orders past `depth` that `model`
    cut there would drop: the tail integral from x = K + 1 of its order
    j = depth, taken with |C|."""
    s = model.s0 + depth
    return math.fsum([abs(row[depth]) * _em_monomial(a, s, K, _EM_ORDER)[4]
                      for a, row in enumerate(model.rows)])


def em_tail(model: LogPowerSeries, K: int) -> tuple[float, float]:
    """Euler-Maclaurin estimate of sum_{k>K} f(k) for the tail model f, with
    an error estimate.

    With x = K+1:  integral_x^inf f  +  f(x)/2  -  sum_{j=1..r} B_2j/(2j)! f^(2j-1)(x),
    r = _EM_ORDER.  The error estimate is the first omitted correction term
    plus a bound on the orders the model dropped.  The expansions are
    asymptotic in c/t, with c the largest shift in their factors, so at
    t >= x the dropped orders are smaller than the last kept one, j = depth,
    by a further factor of about c (s0 + depth) / x; the tail integral of
    that order, taken with |C| so that no cancellation hides it, bounds them.

    Each of these is one fsum of the model's flat coefficients, which the
    model flattened when it was made, times their flat _em_weights: each
    product c w is the same float in any layout, and an fsum does not depend
    on the order of its terms.  Rows that do not hold depth + 1 coefficients
    each, so that the flat rows cannot line up with the weights, raise
    DomainError.  A tail that grows from x to x + 1 raises
    NonMonotoneTailError, and then a nonzero monomial with s <= 1, whose
    integral diverges, DomainError; that scan runs only for models whose
    leading orders reach s <= 1.  So is a K that is not an integer >= 0.
    """
    rows, flat = model.rows, model.flat
    w0, w1, tail, omitted, last, diverges = _em_weights(model.s0, model.depth, len(rows), K,
                                                        _EM_ORDER)
    if len(flat) != len(w0):
        raise DomainError(f"a model of depth {model.depth} needs {model.depth + 1} "
                          "coefficients in each ln row")
    f0, f1 = math.fsum(map(operator.mul, flat, w0)), math.fsum(map(operator.mul, flat, w1))
    if abs(f1) > abs(f0):
        x = float(K + 1)
        raise NonMonotoneTailError(f"tail not decreasing at K={K}: |f({x + 1})| > |f({x})|")
    if diverges:
        for row in rows:
            for j in range(diverges):
                if row[j]:
                    raise DomainError("tail integral diverges for monomial with "
                                      f"s = {model.s0 + j}")
    truncation = math.fsum([abs(row[-1]) * v for row, v in zip(rows, last)])
    return (math.fsum(map(operator.mul, flat, tail)),
            abs(math.fsum(map(operator.mul, flat, omitted))) + truncation)
