"""Series summation engine: adaptive direct summation and Euler-Maclaurin tails.

sum_adaptive evaluates terms blockwise (term callables accept numpy arrays),
accumulates each block with exact fsum and combines blocks with Neumaier
compensation, so the reported value is correctly rounded up to a few ulp.
It serves the geometrically convergent zeta-value series only and stops after
three small terms in a row; every slowly convergent series sums a fixed head
and hands its tail to em_tail.
em_tail estimates sum_{k>K} f(k) for a smooth positive decreasing tail from
its integral, boundary value, and Bernoulli derivative corrections, with the
derivatives taken by termwise differentiation of the tail model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from .special import BERNOULLI_2J, DomainError, _neumaier

_BLOCK_START = 256
_BLOCK_CAP = 1 << 18
_CONSECUTIVE_SMALL = 3


class NonFiniteTermError(ValueError):
    """A term evaluated to NaN or infinity."""


class NonMonotoneTailError(ValueError):
    """em_tail was handed a tail whose magnitude is not decreasing."""


@dataclass(frozen=True)
class EvalConfig:
    """Tolerances and truncation limits shared by the series evaluators."""

    rel_tol: float = 1e-10
    max_terms: int = 10**8
    em_order: int = 6

    def __post_init__(self) -> None:
        if self.rel_tol <= 0.0:
            raise DomainError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.max_terms < 1:
            raise DomainError(f"max_terms must be >= 1, got {self.max_terms}")
        if not 1 <= self.em_order <= 11:
            raise DomainError(f"em_order must be in 1..11, got {self.em_order}")


@dataclass(frozen=True)
class SumResult:
    """Value of a truncated series with a tail estimate."""

    value: float
    tail_estimate: float
    terms_used: int
    converged: bool

    def scaled(self, c: float) -> "SumResult":
        """The result for c times the series."""
        return SumResult(c * self.value, abs(c) * self.tail_estimate, self.terms_used,
                         self.converged)


class SmoothTail(Protocol):
    """What em_tail needs from a tail model: values, derivatives, integral,
    and a bound on what the model leaves out."""

    def __call__(self, t: float) -> float: ...

    def diff(self) -> "SmoothTail": ...

    def tail_integral(self, K: float) -> float: ...

    def truncation_bound(self, K: float) -> float: ...


def _tail_bound(k_last: float, vals: np.ndarray) -> float:
    """Estimate of the remaining tail from the trailing terms of a block.

    Uses a per-step geometric ratio when decay is fast, otherwise a power-law
    slope fit t_k ~ k^-s with tail ~ t_K K/(s-1); a slowly varying log factor
    biases s low, which overestimates the tail, so the bound stays safe.
    """
    t_last = abs(float(vals[-1]))
    if t_last == 0.0:
        return 0.0
    lag = min(16, len(vals) - 1)
    if lag < 1:
        return t_last * k_last
    t_prev = abs(float(vals[-1 - lag]))
    if t_prev == 0.0 or np.any(np.diff(np.sign(vals[-lag - 1 :])) != 0):
        return t_last  # alternating: next-term bound
    ratio = (t_last / t_prev) ** (1.0 / lag)
    if ratio >= 1.0:
        return t_last * k_last  # not (yet) decreasing: crude k*t bound
    if ratio < 0.95:
        return 1.25 * t_last * ratio / (1.0 - ratio)
    k_prev = k_last - lag
    s_est = math.log(t_prev / t_last) / math.log(k_last / k_prev)
    if s_est <= 1.001:
        return t_last * k_last
    return 1.25 * t_last * k_last / (s_est - 1.0)


def sum_adaptive(
    term: Callable[[np.ndarray], np.ndarray],
    cfg: EvalConfig,
    k_start: int = 0,
) -> SumResult:
    """Sum term(k) for k >= k_start until the terms and tail bound are below
    rel_tol relative to the running partial sum, or max_terms is hit.

    `term` receives a float64 array of k values and must return the terms
    elementwise.  Identical inputs always produce bit-identical results: the
    block schedule is fixed and accumulation order is deterministic.
    """
    total, comp = 0.0, 0.0
    small_run = 0
    used = 0
    block = _BLOCK_START
    k_next = k_start
    tail = math.inf
    while used < cfg.max_terms:
        n = min(block, cfg.max_terms - used)
        ks = np.arange(k_next, k_next + n, dtype=np.float64)
        vals = np.asarray(term(ks), dtype=np.float64)
        if not np.all(np.isfinite(vals)):
            bad = ks[~np.isfinite(vals)][0]
            raise NonFiniteTermError(f"term({bad}) is not finite")
        total, comp = _neumaier(total, comp, math.fsum(vals.tolist()))
        used += n
        k_next += n
        partial = total + comp
        thresh = cfg.rel_tol * max(abs(partial), 1e-300)
        below = np.abs(vals) <= thresh
        small_run = int(np.argmin(below[::-1])) if not below.all() else small_run + n
        tail = _tail_bound(k_next - 1.0, vals)
        if small_run >= _CONSECUTIVE_SMALL and tail <= thresh:
            return SumResult(partial, tail, used, True)
        block = min(block * 2, _BLOCK_CAP)
    return SumResult(total + comp, tail, used, False)


def em_tail(term_smooth: SmoothTail, K: int, cfg: EvalConfig) -> tuple[float, float]:
    """Euler-Maclaurin estimate of sum_{k>K} term(k) with an error estimate.

    With x = K+1:  integral_x^inf f  +  f(x)/2  -  sum_{j=1..r} B_2j/(2j)! f^(2j-1)(x),
    r = cfg.em_order, each f^(2j-1) taken by termwise diff() of the model.
    The error estimate is the first omitted correction term plus the model's
    truncation_bound at x.
    """
    x = float(K + 1)
    f0 = term_smooth(x)
    f1 = term_smooth(x + 1.0)
    if abs(f1) > abs(f0):
        raise NonMonotoneTailError(f"tail not decreasing at K={K}: |f({x + 1})| > |f({x})|")
    r = cfg.em_order
    out = term_smooth.tail_integral(x) + 0.5 * f0
    deriv = term_smooth.diff()
    fact = 1.0
    for j in range(1, r + 1):
        fact *= (2 * j - 1) * (2 * j)
        out -= BERNOULLI_2J[j - 1] / fact * deriv(x)
        deriv = deriv.diff().diff()
    err = abs(BERNOULLI_2J[r] / (fact * (2 * r + 1) * (2 * r + 2)) * deriv(x))
    return out, err + term_smooth.truncation_bound(x)
