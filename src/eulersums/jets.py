"""Truncated Taylor (jet) arithmetic for exact higher derivatives.

A jet is a tuple of normalized coefficients f^(k)(base)/k!, which keeps
magnitudes tame even when raw polygamma derivatives grow factorially; the
base point is the caller's to keep.  gamma_ratio_jet returns the bivariate
jet, a tuple of rows c[a][b] = d_x^a d_z^b f / (a! b!), of the two gamma
ratios

    Gamma(x+1) Gamma(z) / Gamma(x+z)        (BETA_SHIFT0)
    Gamma(x+1) Gamma(z) / Gamma(x+z+1)      (BETA_SHIFT1)

that appear in every closed-form right-hand side, and mixed_partial reads
the derivatives off it.  Division never happens: ratios are assembled as
exp(sum of log-gamma jets), so one exp code path serves everything.  That
path is jet_exp, the exp recurrence on a coefficient list: the first row of
_exp2 takes it, and so does asymptotics.gamma_ratio_lp, whose tail models of
the binomial-type series factors are the exp of a Stirling exponent in 1/t.
jet_mul is likewise the one Cauchy product: _exp2 takes it, and so does
LogPowerSeries.__mul__, on every pair of a product's ln rows.
This module imports nothing from asymptotics.

The closed forms take x-orders 0 to 3 of one ratio at one base point, so
gamma_ratio_jet keeps one jet per (variant, x0, z0, oz), built at x-order
MAX_OX (special.memo), and returns its rows 0..ox.  A truncated Taylor
coefficient of order <= k does not depend on where the series is truncated
(Griewank & Walther, Evaluating Derivatives, 2nd ed., ch. 13), and here row a
of the exp recurrence reads rows <= a only, so the rows keep the bits of a
build at ox.

psi_derivatives keeps the raw tuple (psi(a), psi'(a), ..., psi^(top)(a)) by
its exact (a, top) (special.memo); it is the one source of psi values for
the jets and for the closed forms' Leibniz sums.  ln_gamma_jet divides its
entries by k! and is memoized itself, each tuple kept by its exact
(a, order), so every caller shares it: a polygamma value is computed once per
process.  A memo table keeps no raised DomainError, so a bad a or base point,
nonpositive or not finite, is checked on every call.
series._cache.cache_clear() drops them all, the gamma-ratio jets included.

Every sum here, each coefficient of jet_mul's Cauchy product and of the exp
recurrence, runs left to right on Python floats (recursive summation;
Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 4.2), never
through sum(), which compensates from Python 3.12 on, nor fsum, whose exact
sums flip verdicts at closed-form points within one rounding of tol; so a
jet's bits depend on this code alone, not on the CPU.
"""

from __future__ import annotations

import enum
import math
from typing import Sequence

from .special import DomainError, digamma, ln_gamma, memo, polygamma

MAX_OX = 3
MAX_OZ = 12


def jet_mul(a: Sequence[float], b: Sequence[float]) -> list[float]:
    """Truncated Cauchy product of two equal-length coefficient sequences:
    out[q] = a[0] b[q] + a[1] b[q-1] + ... + a[q] b[0], summed left to right."""
    out = []
    for q in range(len(a)):
        acc = 0.0
        for i in range(q + 1):
            acc += a[i] * b[q - i]
        out.append(acc)
    return out


def jet_exp(c: Sequence[float]) -> tuple[float, ...]:
    """exp of a univariate normalized-coefficient list, or of a power series
    in 1/t: out[k] = sum_{j=1..k} j c[j] out[k-j] / k.  It satisfies
    exp(j) * exp(-j) = 1 to roundoff."""
    out = [math.exp(c[0])]
    for k in range(1, len(c)):
        acc = 0.0
        for j in range(1, k + 1):
            acc += j * c[j] * out[k - j]
        out.append(acc / k)
    return tuple(out)


@memo
def psi_derivatives(a: float, top: int) -> tuple[float, ...]:
    """(psi(a), psi'(a), ..., psi^(top)(a)), kept by the exact (a, top)."""
    return tuple(digamma(a) if k == 0 else polygamma(k, a) for k in range(top + 1))


@memo
def ln_gamma_jet(a: float, order: int) -> tuple[float, ...]:
    """Jet of ln Gamma at a > 0: (lnGamma(a), psi(a), psi'(a)/2!, ...)."""
    if not 0.0 < a < math.inf:
        raise DomainError(f"ln_gamma_jet requires a finite a > 0, got {a}")
    psi = psi_derivatives(a, order - 1)
    return (ln_gamma(a),) + tuple(d / math.factorial(k) for k, d in enumerate(psi, start=1))


# --------------------------- bivariate jets ---------------------------------


class RatioVariant(enum.Enum):
    """Which gamma ratio a bivariate jet expands."""

    BETA_SHIFT0 = 0  # Gamma(x+1) Gamma(z) / Gamma(x+z)
    BETA_SHIFT1 = 1  # Gamma(x+1) Gamma(z) / Gamma(x+z+1)


def _exp2(f: list[list[float]]) -> tuple[tuple[float, ...], ...]:
    """exp of a bivariate jet: univariate exp recurrence in dx over the
    ring of truncated dz-polynomials."""
    g = [jet_exp(f[0])]
    for k in range(1, len(f)):
        row = [0.0] * len(f[0])
        for i in range(1, k + 1):
            row = [r + i * c for r, c in zip(row, jet_mul(f[i], g[k - i]))]
        g.append(tuple(r / k for r in row))
    return tuple(g)


def gamma_ratio_jet(variant: RatioVariant, x0: float, z0: float, ox: int,
                    oz: int) -> tuple[tuple[float, ...], ...]:
    """Bivariate jet of the chosen gamma ratio at (x0, z0): ox + 1 rows of
    oz + 1 coefficients d_x^a d_z^b f(x0, z0) / (a! b!).

    Rows 0..ox of the one jet kept for (variant, x0, z0, oz) (see the module
    docstring).  As that jet is built at x-order MAX_OX, every ox needs psi
    up to order MAX_OX + oz - 1 at w0, and a w0 so small that one of those
    overflows binary64 raises at ox = 0 too: gamma_ratio_jet(BETA_SHIFT0,
    1e-300, 1e-300, 0, 1) needs psi'(2e-300).  No closed form reaches such a
    point, as their w0 = x + 1 or x + p + 1 >= 2^-53.
    """
    if not (0 <= ox <= MAX_OX and 0 <= oz <= MAX_OZ):
        raise DomainError(f"orders ({ox},{oz}) outside supported (<= {MAX_OX}, <= {MAX_OZ})")
    return _ratio_jet(variant, x0, z0, oz)[: ox + 1]


@memo
def _ratio_jet(variant: RatioVariant, x0: float, z0: float,
               oz: int) -> tuple[tuple[float, ...], ...]:
    """The gamma_ratio_jet at (x0, z0) of orders (MAX_OX, oz).

    Built as exp of  lnGamma(x0+1+dx) + lnGamma(z0+dz) - lnGamma(w0+dx+dz)
    with w0 = x0+z0 (+1 for BETA_SHIFT1); the composite (dx+dz)^r term
    spreads over the rectangle with binomial weights.
    """
    shift = 1.0 if variant is RatioVariant.BETA_SHIFT1 else 0.0
    w0 = x0 + z0 + shift
    for arg, name in ((x0 + 1.0, "x0+1"), (z0, "z0"), (w0, "x0+z0+shift")):
        if not 0.0 < arg < math.inf:
            raise DomainError(f"gamma_ratio_jet needs a finite {name} > 0, got {arg}")
    ux = ln_gamma_jet(x0 + 1.0, MAX_OX)
    uz = ln_gamma_jet(z0, oz)
    uw = ln_gamma_jet(w0, MAX_OX + oz)
    return _exp2([[(ux[a] if b == 0 else 0.0) + (uz[b] if a == 0 else 0.0)
                   - uw[a + b] * math.comb(a + b, a) for b in range(oz + 1)]
                  for a in range(MAX_OX + 1)])


def mixed_partial(coeffs: Sequence[Sequence[float]], a: int, b: int) -> float:
    """d_x^a d_z^b of the function a gamma_ratio_jet expands, at its base
    point."""
    ox, oz = len(coeffs) - 1, len(coeffs[0]) - 1
    if not (0 <= a <= ox and 0 <= b <= oz):
        raise DomainError(f"mixed partial ({a},{b}) outside jet orders ({ox},{oz})")
    return coeffs[a][b] * math.factorial(a) * math.factorial(b)
