"""Asymptotic log-power expansions for series tails.

A LogPowerSeries is t^-s0 times a polynomial in ln t and 1/t,
sum_{a, j} C[a][j] ln(t)^a t^-j for j = 0..depth, stored densely as one row
of coefficients per power of ln t.  Every slowly convergent series in this
package has a tail whose terms admit such an expansion, on one lattice
s0 + j: harmonic numbers expand through the Bernoulli series for psi
(s0 = 0), reciprocal binomials are finite products of shifted reciprocals
(s0 = n), and gamma ratios, the binomial and central binomial coefficients
among them, are a power t^-s0 times the exp of the difference of two
Stirling series.  A series keeps the orders s0 .. s0 + depth, and the
integer depth is the only truncation it knows: each constructor takes the
number of orders to keep past its own leading one, so a product keeps the
smaller depth of its operands and no factor is built deeper than the product
can use.  The class supplies point values and termwise derivatives, and
log_power_integral the closed-form tail integral int_K^inf ln^a t / t^s dt,
from which summation.em_tail builds its Euler-Maclaurin weights.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from .special import BERNOULLI_2J, EULER_GAMMA, DomainError, bernoulli_poly, riemann_zeta


def _offset(s0: float, s: float) -> int:
    """The integer j with s0 + j == s; DomainError off that lattice."""
    j = round(s - s0)
    if s0 + j != s:
        raise DomainError(f"exponent {s} is not {s0} plus an integer")
    return j


class LogPowerSeries:
    """t^-s0 sum_{a, j} C[a][j] ln(t)^a t^-j over the orders j = 0..depth,
    exact up to t^-(s0 + depth).

    `rows[a]` holds C[a][0..depth].  Built from monomials,
    LogPowerSeries(depth, {(a, s): c}), every exponent s must be the smallest
    one, s0, plus an integer, and the orders past s0 + depth are dropped.  A
    product keeps the smaller of its operands' depths: each is counted from
    its own leading order, so a factor built deeper than its partner is cut,
    not carried."""

    __slots__ = ("s0", "depth", "rows")

    def __init__(self, depth: int, terms: Mapping[tuple[int, float], float]) -> None:
        s0 = min((s for _a, s in terms), default=0.0)
        rows = [[0.0] * (depth + 1) for _ in range(1 + max((a for a, _s in terms), default=-1))]
        for (a, s), c in terms.items():
            j = _offset(s0, s)
            if j <= depth:
                rows[a][j] += c
        self.s0, self.depth, self.rows = s0, depth, rows

    @classmethod
    def _of(cls, s0: float, depth: int, rows: Sequence[Sequence[float]]) -> "LogPowerSeries":
        out = cls.__new__(cls)
        out.s0, out.depth, out.rows = s0, depth, rows
        return out

    def _monomials(self) -> Iterator[tuple[int, float, float]]:
        """(a, s, c) for every nonzero c ln^a t / t^s."""
        s0 = self.s0
        for a, row in enumerate(self.rows):
            for j, c in enumerate(row):
                if c:
                    yield a, s0 + j, c

    @property
    def terms(self) -> Mapping[tuple[int, float], float]:
        """The nonzero monomials as a read-only {(a, s): c}."""
        return MappingProxyType({(a, s): c for a, s, c in self._monomials()})

    def __repr__(self) -> str:
        return f"LogPowerSeries({self.depth!r}, {dict(self.terms)!r})"

    def __add__(self, other: "LogPowerSeries") -> "LogPowerSeries":
        s0 = min(self.s0, other.s0)
        parts = [(_offset(s0, f.s0), f.rows) for f in (self, other)]
        depth = min(self.depth + parts[0][0], other.depth + parts[1][0])
        rows = [[0.0] * (depth + 1) for _ in range(max(len(self.rows), len(other.rows)))]
        for off, f_rows in parts:
            for row, f_row in zip(rows, f_rows):
                for j, c in enumerate(f_row[: max(depth + 1 - off, 0)]):
                    row[off + j] += c
        return self._of(s0, depth, rows)

    def __mul__(self, other: "LogPowerSeries") -> "LogPowerSeries":
        n = min(self.depth, other.depth) + 1
        rows = [[0.0] * max(n, 0) for _ in range(len(self.rows) + len(other.rows) - 1)]
        for a1, r1 in enumerate(self.rows):
            for a2, r2 in enumerate(other.rows):
                out = rows[a1 + a2]
                for j1 in range(n):
                    c1 = r1[j1]
                    if c1:
                        for j2 in range(n - j1):
                            out[j1 + j2] += c1 * r2[j2]
        return self._of(self.s0 + other.s0, n - 1, rows)

    def frozen(self) -> "LogPowerSeries":
        """The same series with tuple rows, safe to share: every operation
        reads its operands and builds a new series."""
        return self._of(self.s0, self.depth, tuple(map(tuple, self.rows)))

    def scaled(self, c: float) -> "LogPowerSeries":
        return self._of(self.s0, self.depth, [[c * v for v in row] for row in self.rows])

    def plus_const(self, c: float) -> "LogPowerSeries":
        """The series plus c t^0, the constant kept to the same last order."""
        return self + LogPowerSeries(round(self.s0) + self.depth, {(0, 0.0): c})

    def diff(self) -> "LogPowerSeries":
        """Termwise d/dt: C[a][j] ln^a t t^-(s0+j) gives a C[a][j] ln^(a-1) t
        and -(s0+j) C[a][j] ln^a t, both at t^-(s0+j+1): a shift of s0 by one
        and two scalings, at the same depth, so every derivative keeps as many
        orders as the series it came from.
        """
        s0, rows = self.s0, self.rows
        out = []
        for a, row in enumerate(rows):
            new = [-(s0 + j) * c for j, c in enumerate(row)]
            if a + 1 < len(rows):
                new = [(a + 1) * d + v for d, v in zip(rows[a + 1], new)]
            out.append(new)
        return self._of(s0 + 1.0, self.depth, out)

    def __call__(self, t: float) -> float:
        lt, s0 = math.log(t), self.s0
        return math.fsum([c * lt**a * t**-(s0 + j)
                          for a, row in enumerate(self.rows) for j, c in enumerate(row) if c])

    def min_decay(self) -> float:
        return min((s for _a, s, _c in self._monomials()), default=math.inf)


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


def one(depth: int) -> LogPowerSeries:
    return LogPowerSeries(depth, {(0, 0.0): 1.0})


def psi_shifted(scale: float, depth: int) -> LogPowerSeries:
    """Expansion of psi(scale*t + 1) for large t:
    ln(scale) + ln t + 1/(2 scale t) - sum_j B_2j / (2j (scale t)^{2j})."""
    terms = {(0, 0.0): math.log(scale), (1, 0.0): 1.0, (0, 1.0): 0.5 / scale}
    for j, b in enumerate(BERNOULLI_2J, start=1):
        terms[(0, 2.0 * j)] = -b / (2 * j * scale ** (2 * j))
    return LogPowerSeries(depth, terms)


def harmonic_lp(depth: int) -> LogPowerSeries:
    """H_t = gamma + psi(t+1)."""
    return psi_shifted(1.0, depth).plus_const(EULER_GAMMA)


def harmonic_prev_lp(depth: int) -> LogPowerSeries:
    """H_{t-1} = H_t - 1/t (exact)."""
    return harmonic_lp(depth) + LogPowerSeries(depth - 1, {(0, 1.0): -1.0})


def gen_harmonic_lp(m: int, depth: int) -> LogPowerSeries:
    """H_t^(m) = zeta(m) + (-1)^(m-1)/(m-1)! psi^(m-1)(t+1) for m >= 2."""
    if m < 2:
        raise DomainError(f"gen_harmonic_lp requires m >= 2, got {m}")
    d = psi_shifted(1.0, depth)
    for _ in range(m - 1):
        d = d.diff()
    sign = 1.0 if (m - 1) % 2 == 0 else -1.0
    return d.scaled(sign / math.factorial(m - 1)).plus_const(riemann_zeta(float(m)))


def gen_harmonic_prev_lp(m: int, depth: int) -> LogPowerSeries:
    """H_{t-1}^(m) = H_t^(m) - t^-m (exact)."""
    return gen_harmonic_lp(m, depth) + LogPowerSeries(depth - m, {(0, float(m)): -1.0})


def central_harmonic_diff_lp(depth: int) -> LogPowerSeries:
    """H_t - 2 H_{2t} = psi(t+1) - 2 psi(2t+1) - gamma."""
    return (psi_shifted(1.0, depth) + psi_shifted(2.0, depth).scaled(-2.0)).plus_const(-EULER_GAMMA)


def recip_power_shift(c: float, s: float, depth: int) -> LogPowerSeries:
    """(t + c)^(-s) expanded in 1/t: sum_j binom(-s, j) c^j t^(-s-j)."""
    row = []
    coeff = 1.0
    for j in range(depth + 1):
        row.append(coeff)
        coeff *= -(s + j) * c / (j + 1)
    return LogPowerSeries._of(s, depth, [row])


def inv_binomial_lp(n: int, depth: int) -> LogPowerSeries:
    """1 / binom(n+t, t) = n! / ((t+1)(t+2)...(t+n)), each ratio i/(t+i)
    built at the depth the product keeps."""
    out = one(depth)
    for i in range(1, n + 1):
        out = out * recip_power_shift(float(i), 1.0, depth).scaled(float(i))
    return out


def exp_lp(x: LogPowerSeries) -> LogPowerSeries:
    """exp of a series with no constant or log part and min decay >= 1, kept
    to the last order of x."""
    if any(a != 0 or s < 1.0 for (a, s) in x.terms):
        raise DomainError("exp_lp needs a pure power series with decay >= 1")
    out = power = one(round(x.s0) + x.depth)
    for i in range(1, out.depth + 1):
        power = power * x
        out = out + power.scaled(1.0 / math.factorial(i))
    return out


def gamma_ratio_lp(a: float, b: float, depth: int) -> LogPowerSeries:
    """Gamma(t + a) / Gamma(t + b) = t^(a-b) exp(sum_{n>=1} d_n t^-n) with
    d_n = (-1)^(n+1) (B_{n+1}(a) - B_{n+1}(b)) / (n (n+1)), the difference of
    the Stirling series of ln Gamma(t + a) and ln Gamma(t + b) (Tricomi and
    Erdelyi 1951).  The exponent stops at n = 24, the last Bernoulli number at
    hand, and so does its exp: the orders past t^(a-b-24) are dropped, which
    are below the leading one by about (max(|a|, |b|)^2 / t)^25 / 25!.
    """
    depth = min(depth, 24)
    exponent = []
    for n in range(1, depth + 1):
        d = (bernoulli_poly(n + 1, a) - bernoulli_poly(n + 1, b)) / (n * (n + 1))
        exponent.append(d if n % 2 else -d)
    # t^-1 .. t^-depth: depth - 1 orders past its leading one
    ratio = exp_lp(LogPowerSeries._of(1.0, depth - 1, [exponent]))
    return LogPowerSeries._of(b - a, depth, ratio.rows)


__all__ = [
    "LogPowerSeries",
    "log_power_integral",
    "one",
    "psi_shifted",
    "harmonic_lp",
    "harmonic_prev_lp",
    "gen_harmonic_lp",
    "gen_harmonic_prev_lp",
    "central_harmonic_diff_lp",
    "recip_power_shift",
    "inv_binomial_lp",
    "exp_lp",
    "gamma_ratio_lp",
    "EULER_GAMMA",
]
