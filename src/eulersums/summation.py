"""Series summation engine: the result type the series oracles share, the
convergence test verify applies to it, and Euler-Maclaurin tails.

Every slowly convergent series sums a fixed head and hands its tail model, a
LogPowerSeries, to em_tail, which estimates sum_{k>K} f(k) for a smooth
decreasing tail from its integral, boundary value, and _EM_ORDER Bernoulli
derivative corrections.  At the fixed point x = K + 1 each of these, and the
error estimate's parts, is a linear functional of the model's coefficients,
whose weight on each monomial depends only on the model's leading decay,
depth and ln power.  _em_row builds the weights of one ln row, by termwise
differentiation of a basis model, and _em_weights lays them out, row after
row, as one flat tuple per functional for each shape; both are memoized (so
series._cache.cache_clear() drops them), and tables with more ln rows reuse
the rows of smaller ones.  em_tail reads the model's coefficients as the
flat tuple the model made when it was built, so no call flattens them, and
takes each functional as one fsum of coefficients times weights.  The
oracles only compute: a SumResult carries a value and its error estimate,
and EvalConfig.converged is the one place that judges it.
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
# (s + 2j)^2 / (2 pi x)^2 of correction j - 1, under 3e-5 at x = K + 1 = 1001
# for the oracles' leading decays s <= 22.  Over the 2171 oracle results
# pinned in tests/oracle_bits.json, orders 4 to 6 give the same bits; order 3
# moves 145 tail estimates, order 2 moves 439, and order 1 moves 37 values.
_EM_ORDER = 4

_Flat = tuple[float, ...]


def _columns(model: LogPowerSeries, x: float, lx: float) -> list[float]:
    """The model at x, order by order: column j summed over the ln rows."""
    s0, rows = model.s0, model.rows
    return [math.fsum([row[j] * lx**a * x**-(s0 + j) for a, row in enumerate(rows)])
            for j in range(model.depth + 1)]


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
    `diverges` orders have s <= 1 and no tail integral.  Row a comes from
    _em_row, which tables of every n_rows > a share.  It checks K for em_tail."""
    K = check_int("K", K, 0)
    rows = [_em_row(s0, depth, a, K, order) for a in range(n_rows)]
    f0, f1, tail, omitted = (tuple(v for row in rows for v in row[i]) for i in range(4))
    last = tuple(v for row in rows for v in row[4])
    return f0, f1, tail, omitted, last, _diverges(s0, depth)


def _diverges(s0: float, depth: int) -> int:
    return sum(s0 + j <= 1.0 for j in range(depth + 1))


@memo
def _em_row(s0: float, depth: int, a: int, K: int, order: int) -> tuple:
    """Row a of _em_weights: (f0[a], f1[a], tail[a], omitted[a], (last[a],)),
    the last one empty at depth < 0.  It comes from the basis model whose
    row a is all ones and its derivatives by termwise diff(), which maps
    each order j to itself: column j of each is the monomial (a, j) alone."""
    x = float(K + 1)
    lx, lx1 = math.log(x), math.log(x + 1.0)
    diverges = _diverges(s0, depth)
    basis = [[0.0] * (depth + 1)] * a + [[1.0] * (depth + 1)]
    model = LogPowerSeries(s0, depth, basis)
    f0 = tuple(_columns(model, x, lx))
    f1 = tuple(_columns(model, x + 1.0, lx1))
    integral = [log_power_integral(a, s0 + j, x) if j >= diverges else 0.0
                for j in range(depth + 1)]
    parts = [[w, 0.5 * v] for w, v in zip(integral, f0)]
    deriv = model.diff()
    fact = 1.0
    for i in range(1, order + 1):
        fact *= (2 * i - 1) * (2 * i)
        b = BERNOULLI_2J[i - 1] / fact
        for part, v in zip(parts, _columns(deriv, x, lx)):
            part.append(-(b * v))
        deriv = deriv.diff().diff()
    tail = tuple(math.fsum(part) for part in parts)
    b = BERNOULLI_2J[order] / (fact * (2 * order + 1) * (2 * order + 2))
    omitted = tuple(b * v for v in _columns(deriv, x, lx))
    return f0, f1, tail, omitted, tuple(integral[-1:])


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
