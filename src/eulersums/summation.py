"""Series summation engine: the result type the series oracles share, the
convergence test verify applies to it, and Euler-Maclaurin tails.

Every slowly convergent series sums a fixed head and hands its tail to
em_tail, which estimates sum_{k>K} f(k) for a smooth positive decreasing
tail from its integral, boundary value, and _EM_ORDER Bernoulli derivative
corrections, with the derivatives taken by termwise differentiation of the
tail model.  The oracles only compute: a SumResult carries a value and its
error estimate, and EvalConfig.converged is the one place that judges it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

from .special import BERNOULLI_2J, DomainError


class NonFiniteTermError(ValueError):
    """A term evaluated to NaN or infinity."""


class NonMonotoneTailError(ValueError):
    """em_tail was handed a tail whose magnitude is not decreasing."""


@dataclass(frozen=True)
class EvalConfig:
    """How strictly verify judges a series: a result has converged when its
    tail_estimate is at most rel_tol max(|value|, 1e-300).  rel_tol must be
    positive and finite."""

    rel_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not 0.0 < self.rel_tol < math.inf:
            raise DomainError(f"rel_tol must be positive and finite, got {self.rel_tol}")

    def converged(self, res: SumResult) -> bool:
        return res.tail_estimate <= self.rel_tol * max(abs(res.value), 1e-300)


@dataclass(frozen=True)
class SumResult:
    """Value of a truncated series, a bound on its error, and the number of
    terms summed exactly."""

    value: float
    tail_estimate: float
    terms_used: int

    def scaled(self, c: float) -> "SumResult":
        """The result for c times the series."""
        return SumResult(c * self.value, abs(c) * self.tail_estimate, self.terms_used)


class SmoothTail(Protocol):
    """What em_tail needs from a tail model: values, derivatives, integral,
    and a bound on what the model leaves out."""

    def __call__(self, t: float) -> float: ...

    def diff(self) -> "SmoothTail": ...

    def tail_integral(self, K: float) -> float: ...

    def truncation_bound(self, K: float) -> float: ...


# Bernoulli corrections em_tail takes.  The reported error includes the first
# omitted correction, so no order can hide error; a higher one only shrinks a
# bound that is already far below one ulp.  Correction j is about
# (s + 2j)^2 / (2 pi x)^2 of correction j - 1, under 3e-5 at x = K + 1 = 1001
# for the oracles' leading decays s <= 22.  Over the 2171 oracle results
# pinned in tests/oracle_bits.json, orders 4 to 6 give the same bits; order 3
# moves 145 tail estimates, order 2 moves 439, and order 1 moves 37 values.
_EM_ORDER = 4


def em_tail(term_smooth: SmoothTail, K: int) -> tuple[float, float]:
    """Euler-Maclaurin estimate of sum_{k>K} term(k) with an error estimate.

    With x = K+1:  integral_x^inf f  +  f(x)/2  -  sum_{j=1..r} B_2j/(2j)! f^(2j-1)(x),
    r = _EM_ORDER, each f^(2j-1) taken by termwise diff() of the model.
    The error estimate is the first omitted correction term plus the model's
    truncation_bound at x.
    """
    x = float(K + 1)
    f0 = term_smooth(x)
    f1 = term_smooth(x + 1.0)
    if abs(f1) > abs(f0):
        raise NonMonotoneTailError(f"tail not decreasing at K={K}: |f({x + 1})| > |f({x})|")
    r = _EM_ORDER
    out = term_smooth.tail_integral(x) + 0.5 * f0
    deriv = term_smooth.diff()
    fact = 1.0
    for j in range(1, r + 1):
        fact *= (2 * j - 1) * (2 * j)
        out -= BERNOULLI_2J[j - 1] / fact * deriv(x)
        deriv = deriv.diff().diff()
    err = abs(BERNOULLI_2J[r] / (fact * (2 * r + 1) * (2 * r + 2)) * deriv(x))
    return out, err + term_smooth.truncation_bound(x)
