"""Asymptotic log-power expansions for series tails.

A LogPowerSeries is t^-s0 times a polynomial in ln t and 1/t,
sum_{a, j} C[a][j] ln(t)^a t^-j for j = 0..depth, stored densely as one row
of coefficients per power of ln t, and each constructor writes its rows by
formula.  Every slowly convergent series in this package has a tail whose
terms admit such an expansion, on one lattice s0 + j: harmonic numbers of
every order expand, in harmonic_lp, through the Bernoulli series for psi and
its derivatives (s0 = 0), and every binomial-type factor is a gamma ratio
Gamma(t + a) / Gamma(t + b) up to a constant: 1/binom(n+t, t) =
n! Gamma(t+1) / Gamma(t+n+1) (s0 = n), binom(2t, t)/4^t and
(-1)^t binom(x, t).  gamma_ratio_lp expands each as a power t^-s0 times the
exp of the difference of two Stirling series, through the jets' exp
recurrence, jets.jet_exp, and a product takes the jets' Cauchy product,
jets.jet_mul, on every pair of ln rows: the package has one of each.  A
series holds its rows as tuples from the moment it is made, so it is
read-only: every operation reads its operands and builds a new series, and
the series factors and their products can be shared.  It also flattens its
coefficients once, at construction, into one tuple, row after row, which
summation.em_tail reads on every call.  A series keeps the orders
s0 .. s0 + depth, and the integer depth is the only truncation it knows:
each constructor takes the number of orders to keep past its own leading
one, so a product keeps the smaller depth of its operands, and truncated
cuts a series to fewer orders, with the bits a build at that depth would
give wherever coefficient q reads orders <= q alone.  log_power_integral
is the closed-form tail integral int_K^inf ln^a t / t^s dt, from which
summation.em_tail builds its Euler-Maclaurin weights.
"""

from __future__ import annotations

import itertools
import math
from types import MappingProxyType
from typing import Mapping, Sequence

from .jets import jet_exp, jet_mul
from .special import (BERNOULLI_2J, EULER_GAMMA, LN2, DomainError, bernoulli_poly, check_int,
                      riemann_zeta)


class LogPowerSeries:
    """t^-s0 sum_{a, j} C[a][j] ln(t)^a t^-j over the orders j = 0..depth,
    exact up to t^-(s0 + depth).

    `rows[a]` holds C[a][0..depth], kept as a tuple of tuples, and `flat`
    the same coefficients as one tuple, row after row, flattened once here
    for summation.em_tail.  A sum needs one s0 in both operands; a product
    keeps the smaller depth, each counted from its operand's own leading
    order, so a factor built deeper than its partner is cut."""

    __slots__ = ("s0", "depth", "rows", "flat")

    def __init__(self, s0: float, depth: int, rows: Sequence[Sequence[float]]) -> None:
        self.s0, self.depth, self.rows = s0, depth, tuple(map(tuple, rows))
        self.flat = tuple(itertools.chain.from_iterable(self.rows))

    @property
    def terms(self) -> Mapping[tuple[int, float], float]:
        """The nonzero monomials as a read-only {(a, s): c}."""
        return MappingProxyType({(a, self.s0 + j): c for a, row in enumerate(self.rows)
                                 for j, c in enumerate(row) if c})

    def __add__(self, other: "LogPowerSeries") -> "LogPowerSeries":
        if self.s0 != other.s0:
            raise DomainError(f"cannot add series that lead with t^-{self.s0} and t^-{other.s0}")
        n = min(self.depth, other.depth) + 1
        rows = [[u + v for u, v in zip(r1[:n], r2[:n])]
                for r1, r2 in itertools.zip_longest(self.rows, other.rows, fillvalue=[0.0] * n)]
        return LogPowerSeries(self.s0, n - 1, rows)

    def __mul__(self, other: "LogPowerSeries") -> "LogPowerSeries":
        """jets.jet_mul of each pair of ln rows, summed over the pairs in order."""
        n = min(self.depth, other.depth) + 1
        rows: list = [None] * (len(self.rows) + len(other.rows) - 1)
        for a1, r1 in enumerate(self.rows):
            for a2, r2 in enumerate(other.rows):
                prod, out = jet_mul(r1[:n], r2[:n]), rows[a1 + a2]
                rows[a1 + a2] = prod if out is None else [u + v for u, v in zip(out, prod)]
        return LogPowerSeries(self.s0 + other.s0, n - 1, rows)

    def scaled(self, c: float) -> "LogPowerSeries":
        return LogPowerSeries(self.s0, self.depth, [[c * v for v in row] for row in self.rows])

    def truncated(self, depth: int) -> "LogPowerSeries":
        """The orders s0 .. s0 + depth of this series, itself if it keeps no
        more: the same bits as a build at that depth wherever every
        coefficient of order q reads orders <= q alone, as jets.jet_mul's
        and jets.jet_exp's do."""
        if depth >= self.depth:
            return self
        return LogPowerSeries(self.s0, depth, [row[: depth + 1] for row in self.rows])


def log_power_integral(a: int, s: float, K: float) -> float:
    """int_K^inf ln^a t / t^s dt, for s > 1: by parts,
    I(a, s) = K^(1-s)/(s-1) ln^a K + a/(s-1) I(a-1, s)."""
    if s <= 1.0:
        raise DomainError(f"tail integral diverges for monomial with s = {s}")
    acc = 0.0
    lk = math.log(K)
    weight = K ** (1.0 - s) / (s - 1.0)
    for i in range(a, -1, -1):
        acc += weight * lk**i
        weight *= i / (s - 1.0)
    return acc


def harmonic_lp(m: int, depth: int, prev: bool = False) -> LogPowerSeries:
    """H_t^(m) for m >= 1, from psi(t+1) = ln t + 1/(2t) - sum_j B_2j / (2j t^2j):
    gamma + psi(t+1) at m = 1, and with k = m - 1 >= 1 the k-th derivative
    zeta(m) + (-1)^k/k! psi^(k)(t+1) = zeta(m) - t^-k/k + t^-m/2
    - sum_j B_2j (2j)(2j+1)...(2j+k-1) / (2j k!) t^-(2j+k) above, one row on
    the orders t^0 .. t^-(depth+k).  With prev, H_{t-1}^(m) = H_t^(m) - t^-m (exact)."""
    m = check_int("m", m, 1)
    k = m - 1
    row = [0.0] * (depth + k + 2 * len(BERNOULLI_2J) + 1)
    row[0] = EULER_GAMMA if m == 1 else riemann_zeta(float(m))
    row[m] = 0.5 - prev
    for j, b in enumerate(BERNOULLI_2J, start=1):
        row[2 * j + k] = -b * math.prod(range(2 * j, 2 * j + k)) / (2 * j * math.factorial(k))
    if m == 1:
        return LogPowerSeries(0.0, depth, [row[: depth + 1], [1.0] + [0.0] * depth])
    row[k] = -1.0 / k
    return LogPowerSeries(0.0, depth + k, [row[: depth + k + 1]])


def central_harmonic_diff_lp(depth: int) -> LogPowerSeries:
    """H_t - 2 H_{2t} = psi(t+1) - 2 psi(2t+1) - gamma
    = -ln t - gamma - 2 ln 2 - sum_j B_2j (1 - 2^(1-2j)) / (2j t^2j)."""
    row = [0.0] * (depth + 2 * len(BERNOULLI_2J) + 1)
    row[0] = -EULER_GAMMA - 2.0 * LN2
    for j, b in enumerate(BERNOULLI_2J, start=1):
        row[2 * j] = -b * (1.0 - 2.0 ** (1 - 2 * j)) / (2 * j)
    return LogPowerSeries(0.0, depth, [row[: depth + 1], [-1.0] + [0.0] * depth])


def recip_power_shift(c: float, s: float, depth: int) -> LogPowerSeries:
    """(t + c)^(-s) expanded in 1/t: sum_j binom(-s, j) c^j t^(-s-j)."""
    row = []
    coeff = 1.0
    for j in range(depth + 1):
        row.append(coeff)
        coeff *= -(s + j) * c / (j + 1)
    return LogPowerSeries(s, depth, [row])


def gamma_ratio_lp(a: float, b: float, depth: int) -> LogPowerSeries:
    """Gamma(t + a) / Gamma(t + b) = t^(a-b) exp(sum_{n>=1} d_n t^-n) with
    d_n = (-1)^(n+1) (B_{n+1}(a) - B_{n+1}(b)) / (n (n+1)), the difference of
    the Stirling series of ln Gamma(t + a) and ln Gamma(t + b) (Tricomi and
    Erdelyi 1951).  The exp is the jets' recurrence on the coefficients of
    1/t, jets.jet_exp.  The exponent stops at n = 24, the last Bernoulli
    number at hand, and so does its exp: the orders past t^(a-b-24) are
    dropped, which are below the leading one by about
    (max(|a|, |b|)^2 / t)^25 / 25!.
    """
    depth = min(depth, 24)
    exponent = [0.0]
    for n in range(1, depth + 1):
        d = (bernoulli_poly(n + 1, a) - bernoulli_poly(n + 1, b)) / (n * (n + 1))
        exponent.append(d if n % 2 else -d)
    return LogPowerSeries(b - a, depth, [jet_exp(exponent)])


__all__ = [
    "LogPowerSeries",
    "log_power_integral",
    "harmonic_lp",
    "central_harmonic_diff_lp",
    "recip_power_shift",
    "gamma_ratio_lp",
    "EULER_GAMMA",
]
