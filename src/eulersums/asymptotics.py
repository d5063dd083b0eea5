"""Asymptotic log-power expansions for series tails.

A LogPowerSeries is a finite combination  sum_i c_i ln(t)^{a_i} t^{-s_i}
truncated at a decay cap s_cap.  Every slowly convergent series in this
package has a tail whose terms admit such an expansion: harmonic numbers
expand through the Bernoulli series for psi, reciprocal binomials are finite
products of shifted reciprocals, and gamma ratios, the binomial and central
binomial coefficients among them, are a power times the exp of the
difference of two Stirling series.  The class supplies what
Euler-Maclaurin needs: point values, termwise derivatives, the closed-form
tail integral  int_K^inf ln^a t / t^s dt, and a bound on what the truncation
at s_cap dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .special import BERNOULLI_2J, EULER_GAMMA, DomainError, bernoulli_poly, riemann_zeta

_DROP = 1e-300
# Exponents within _S_EPS of the cap count as on it: a cap and an exponent
# built from the same non-dyadic power (x + 1 + m + 5 against (1 + x) + 5 + m)
# can differ by an ulp.  Every other exponent is a multiple of 1/2.
_S_EPS = 1e-9


@dataclass
class LogPowerSeries:
    """sum of c * ln(t)^a * t^(-s) monomials, truncated at s <= s_cap."""

    s_cap: float
    terms: dict[tuple[int, float], float] = field(default_factory=dict)

    def _put(self, a: int, s: float, c: float) -> None:
        if s > self.s_cap + _S_EPS or c == 0.0:
            return
        key = (a, s)
        new = self.terms.get(key, 0.0) + c
        if abs(new) < _DROP:
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    def copy(self) -> "LogPowerSeries":
        out = LogPowerSeries(self.s_cap)
        out.terms = dict(self.terms)
        return out

    def __add__(self, other: "LogPowerSeries") -> "LogPowerSeries":
        out = LogPowerSeries(min(self.s_cap, other.s_cap))
        for (a, s), c in self.terms.items():
            out._put(a, s, c)
        for (a, s), c in other.terms.items():
            out._put(a, s, c)
        return out

    def __mul__(self, other: "LogPowerSeries") -> "LogPowerSeries":
        out = LogPowerSeries(min(self.s_cap, other.s_cap))
        for (a1, s1), c1 in self.terms.items():
            for (a2, s2), c2 in other.terms.items():
                out._put(a1 + a2, s1 + s2, c1 * c2)
        return out

    def scaled(self, c: float) -> "LogPowerSeries":
        out = LogPowerSeries(self.s_cap)
        for (a, s), v in self.terms.items():
            out._put(a, s, c * v)
        return out

    def plus_const(self, c: float) -> "LogPowerSeries":
        out = self.copy()
        out._put(0, 0.0, c)
        return out

    def diff(self) -> "LogPowerSeries":
        """Termwise d/dt: ln^a t^-s  ->  a ln^(a-1) t^(-s-1) - s ln^a t^(-s-1).

        A series exact up to t^-s_cap has a derivative exact up to
        t^-(s_cap+1), so the cap moves up by one and every derivative keeps
        as many orders as the series it came from.
        """
        out = LogPowerSeries(self.s_cap + 1.0)
        for (a, s), c in self.terms.items():
            if a:
                out._put(a - 1, s + 1.0, a * c)
            out._put(a, s + 1.0, -s * c)
        return out

    def __call__(self, t: float) -> float:
        lt = math.log(t)
        return math.fsum(c * lt**a * t**-s for (a, s), c in self.terms.items())

    def tail_integral(self, K: float) -> float:
        """int_K^inf of the expansion; every monomial must have s > 1."""
        vals = []
        lk = math.log(K)
        for (a, s), c in self.terms.items():
            if s <= 1.0:
                raise DomainError(f"tail integral diverges for monomial with s = {s}")
            # I(a, s) = K^(1-s)/(s-1) ln^a K + a/(s-1) I(a-1, s)
            acc = 0.0
            weight = c * K ** (1.0 - s) / (s - 1.0)
            for i in range(a, -1, -1):
                acc += weight * lk**i
                weight *= (i) / (s - 1.0) if i else 0.0
            vals.append(acc)
        return math.fsum(vals)

    def truncation_bound(self, K: float) -> float:
        """Bound on int_K^inf of the monomials dropped above s_cap.

        The expansions here are asymptotic in c/t, with c the largest shift
        in their factors, so at t >= K the dropped monomials are smaller than
        the last kept order (s_cap - 1 < s <= s_cap) by a further factor of
        about c s_cap / K.  The tail integral of that order, taken with |c|
        so no cancellation hides it, bounds them.
        """
        last = LogPowerSeries(self.s_cap)
        for (a, s), c in self.terms.items():
            if s > self.s_cap - 1.0 + _S_EPS:
                last._put(a, s, abs(c))
        return last.tail_integral(K)

    def min_decay(self) -> float:
        return min((s for (_a, s) in self.terms), default=math.inf)


def one(s_cap: float) -> LogPowerSeries:
    out = LogPowerSeries(s_cap)
    out._put(0, 0.0, 1.0)
    return out


def psi_shifted(scale: float, s_cap: float) -> LogPowerSeries:
    """Expansion of psi(scale*t + 1) for large t:
    ln(scale) + ln t + 1/(2 scale t) - sum_j B_2j / (2j (scale t)^{2j})."""
    out = LogPowerSeries(s_cap)
    out._put(0, 0.0, math.log(scale))
    out._put(1, 0.0, 1.0)
    out._put(0, 1.0, 0.5 / scale)
    for j, b in enumerate(BERNOULLI_2J, start=1):
        out._put(0, 2.0 * j, -b / (2 * j * scale ** (2 * j)))
    return out


def harmonic_lp(s_cap: float) -> LogPowerSeries:
    """H_t = gamma + psi(t+1)."""
    return psi_shifted(1.0, s_cap).plus_const(EULER_GAMMA)


def harmonic_prev_lp(s_cap: float) -> LogPowerSeries:
    """H_{t-1} = H_t - 1/t (exact)."""
    out = harmonic_lp(s_cap)
    out._put(0, 1.0, -1.0)
    return out


def gen_harmonic_lp(m: int, s_cap: float) -> LogPowerSeries:
    """H_t^(m) = zeta(m) + (-1)^(m-1)/(m-1)! psi^(m-1)(t+1) for m >= 2."""
    if m < 2:
        raise DomainError(f"gen_harmonic_lp requires m >= 2, got {m}")
    d = psi_shifted(1.0, s_cap)
    for _ in range(m - 1):
        d = d.diff()
    sign = 1.0 if (m - 1) % 2 == 0 else -1.0
    return d.scaled(sign / math.factorial(m - 1)).plus_const(riemann_zeta(float(m)))


def gen_harmonic_prev_lp(m: int, s_cap: float) -> LogPowerSeries:
    """H_{t-1}^(m) = H_t^(m) - t^-m (exact)."""
    out = gen_harmonic_lp(m, s_cap)
    out._put(0, float(m), -1.0)
    return out


def central_harmonic_diff_lp(s_cap: float) -> LogPowerSeries:
    """H_t - 2 H_{2t} = psi(t+1) - 2 psi(2t+1) - gamma."""
    return (psi_shifted(1.0, s_cap) + psi_shifted(2.0, s_cap).scaled(-2.0)).plus_const(-EULER_GAMMA)


def recip_power_shift(c: float, s: float, s_cap: float) -> LogPowerSeries:
    """(t + c)^(-s) expanded in 1/t: sum_j binom(-s, j) c^j t^(-s-j)."""
    out = LogPowerSeries(s_cap)
    coeff = 1.0
    j = 0
    while s + j <= s_cap:
        out._put(0, s + j, coeff)
        coeff *= -(s + j) * c / (j + 1)
        j += 1
    return out


def inv_binomial_lp(n: int, s_cap: float) -> LogPowerSeries:
    """1 / binom(n+t, t) = n! / ((t+1)(t+2)...(t+n))."""
    out = one(s_cap)
    for i in range(1, n + 1):
        out = out * recip_power_shift(float(i), 1.0, s_cap).scaled(float(i))
    return out


def exp_lp(x: LogPowerSeries) -> LogPowerSeries:
    """exp of a series with no constant or log part and min decay >= 1."""
    if any(a != 0 or s < 1.0 for (a, s) in x.terms):
        raise DomainError("exp_lp needs a pure power series with decay >= 1")
    out = one(x.s_cap)
    power = one(x.s_cap)
    i = 1
    while i <= x.s_cap + _S_EPS:
        power = power * x
        if not power.terms:
            break
        out = out + power.scaled(1.0 / math.factorial(i))
        i += 1
    return out


def gamma_ratio_lp(a: float, b: float, s_cap: float) -> LogPowerSeries:
    """Gamma(t + a) / Gamma(t + b) = t^(a-b) exp(sum_{n>=1} d_n t^-n) with
    d_n = (-1)^(n+1) (B_{n+1}(a) - B_{n+1}(b)) / (n (n+1)), the difference of
    the Stirling series of ln Gamma(t + a) and ln Gamma(t + b) (Tricomi and
    Erdelyi 1951).  The exponent stops at n = 24, the last Bernoulli number at
    hand, and so does its exp: the orders past t^(a-b-24) are dropped, which
    are below the leading one by about (max(|a|, |b|)^2 / t)^25 / 25!.
    """
    lead = b - a
    corr = LogPowerSeries(min(s_cap - lead, 24.0))
    for n in range(1, int(corr.s_cap + _S_EPS) + 1):
        d = (bernoulli_poly(n + 1, a) - bernoulli_poly(n + 1, b)) / (n * (n + 1))
        corr._put(0, float(n), d if n % 2 else -d)
    out = LogPowerSeries(s_cap)
    for (_a, s), c in exp_lp(corr).terms.items():
        out._put(0, s + lead, c)
    return out


__all__ = [
    "LogPowerSeries",
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
