"""Truncated Taylor (jet) arithmetic for exact higher derivatives.

A jet stores normalized coefficients f^(k)(base)/k!, which keeps magnitudes
tame even when raw polygamma derivatives grow factorially.  The bivariate
Jet2 carries the mixed partials of the two gamma ratios

    Gamma(x+1) Gamma(z) / Gamma(x+z)        (BETA_SHIFT0)
    Gamma(x+1) Gamma(z) / Gamma(x+z+1)      (BETA_SHIFT1)

that appear in every closed-form right-hand side.  Division never happens:
ratios are assembled as exp(sum of log-gamma jets), so one exp code path
serves everything.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .special import DomainError, digamma, ln_gamma, polygamma

MAX_OX = 3
MAX_OZ = 12


class JetMismatchError(ValueError):
    """Operands disagree on base point or truncation order."""


@dataclass(frozen=True)
class Jet1:
    """Univariate jet: coeffs[k] = f^(k)(base)/k!, k = 0..order."""

    base: float
    coeffs: np.ndarray

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def derivative(self, k: int) -> float:
        """f^(k)(base)."""
        if not 0 <= k <= self.order:
            raise DomainError(f"derivative order {k} outside jet order {self.order}")
        return float(self.coeffs[k]) * math.factorial(k)


def _check1(a: Jet1, b: Jet1) -> None:
    if a.base != b.base or a.order != b.order:
        raise JetMismatchError(
            f"jet mismatch: base {a.base} vs {b.base}, order {a.order} vs {b.order}"
        )


def jet_mul(a: Jet1 | "Jet2", b: Jet1 | "Jet2"):
    """Truncated Cauchy product."""
    if isinstance(a, Jet2) and isinstance(b, Jet2):
        _check2(a, b)
        return Jet2(a.x0, a.z0, _conv2(a.coeffs, b.coeffs))
    _check1(a, b)
    return Jet1(a.base, _conv1(a.coeffs, b.coeffs))


def _conv1(ca: np.ndarray, cb: np.ndarray) -> np.ndarray:
    n = len(ca)
    out = np.zeros(n)
    for k in range(n):
        out[k] = np.dot(ca[: k + 1], cb[k::-1])
    return out


def _exp_series1(c: np.ndarray) -> np.ndarray:
    """exp of a univariate normalized-coefficient array."""
    n = len(c)
    out = np.zeros(n)
    out[0] = math.exp(c[0])
    for k in range(1, n):
        out[k] = sum(j * c[j] * out[k - j] for j in range(1, k + 1)) / k
    return out


def jet_exp(a: Jet1 | "Jet2"):
    """exp of a jet; satisfies exp(j) * exp(-j) = 1 to roundoff."""
    if isinstance(a, Jet2):
        return _exp2(a)
    return Jet1(a.base, _exp_series1(a.coeffs))


def ln_gamma_jet(a: float, order: int) -> Jet1:
    """Jet of ln Gamma at a > 0: [lnGamma(a), psi(a), psi'(a)/2!, ...]."""
    if a <= 0.0:
        raise DomainError(f"ln_gamma_jet requires a > 0, got {a}")
    c = np.zeros(order + 1)
    c[0] = ln_gamma(a)
    if order >= 1:
        c[1] = digamma(a)
    for k in range(2, order + 1):
        c[k] = polygamma(k - 1, a) / math.factorial(k)
    return Jet1(a, c)


def psi_jet(a: float, order: int) -> Jet1:
    """Jet of psi at a > 0: coeffs[k] = psi^(k)(a)/k!."""
    if a <= 0.0:
        raise DomainError(f"psi_jet requires a > 0, got {a}")
    c = np.zeros(order + 1)
    c[0] = digamma(a)
    for k in range(1, order + 1):
        c[k] = polygamma(k, a) / math.factorial(k)
    return Jet1(a, c)


# --------------------------- bivariate jets ---------------------------------


class RatioVariant(enum.Enum):
    """Which gamma ratio a Jet2 expands."""

    BETA_SHIFT0 = 0  # Gamma(x+1) Gamma(z) / Gamma(x+z)
    BETA_SHIFT1 = 1  # Gamma(x+1) Gamma(z) / Gamma(x+z+1)


@dataclass(frozen=True)
class Jet2:
    """Bivariate jet: coeffs[a, b] = d_x^a d_z^b f(x0,z0) / (a! b!)."""

    x0: float
    z0: float
    coeffs: np.ndarray

    @property
    def ox(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def oz(self) -> int:
        return self.coeffs.shape[1] - 1


def _check2(a: Jet2, b: Jet2) -> None:
    if (a.x0, a.z0) != (b.x0, b.z0) or a.coeffs.shape != b.coeffs.shape:
        raise JetMismatchError(
            f"jet mismatch: base ({a.x0},{a.z0}) vs ({b.x0},{b.z0}), "
            f"orders {a.coeffs.shape} vs {b.coeffs.shape}"
        )


def _conv2(ca: np.ndarray, cb: np.ndarray) -> np.ndarray:
    na, nb = ca.shape
    out = np.zeros_like(ca)
    for i in range(na):
        for j in range(nb):
            out[i, j] = np.sum(ca[: i + 1, : j + 1] * cb[i::-1, j::-1])
    return out


def _exp2(a: Jet2) -> Jet2:
    """exp of a bivariate jet: univariate exp recurrence in dx over the
    ring of truncated dz-polynomials."""
    ox, oz = a.ox, a.oz
    f = a.coeffs
    g = np.zeros_like(f)
    g[0] = _exp_series1(f[0])
    for k in range(1, ox + 1):
        row = np.zeros(oz + 1)
        for i in range(1, k + 1):
            row += i * _conv1(f[i], g[k - i])
        g[k] = row / k
    return Jet2(a.x0, a.z0, g)


def gamma_ratio_jet(variant: RatioVariant, x0: float, z0: float, ox: int, oz: int) -> Jet2:
    """Bivariate jet of the chosen gamma ratio at (x0, z0).

    Built as exp of  lnGamma(x0+1+dx) + lnGamma(z0+dz) - lnGamma(w0+dx+dz)
    with w0 = x0+z0 (+1 for BETA_SHIFT1); the composite (dx+dz)^r term
    spreads over the rectangle with binomial weights.
    """
    if not (0 <= ox <= MAX_OX and 0 <= oz <= MAX_OZ):
        raise DomainError(f"orders ({ox},{oz}) outside supported (<= {MAX_OX}, <= {MAX_OZ})")
    shift = 1.0 if variant is RatioVariant.BETA_SHIFT1 else 0.0
    w0 = x0 + z0 + shift
    for arg, name in ((x0 + 1.0, "x0+1"), (z0, "z0"), (w0, "x0+z0+shift")):
        if arg <= 0.0:
            raise DomainError(f"gamma_ratio_jet needs {name} > 0, got {arg}")
    ux = ln_gamma_jet(x0 + 1.0, ox).coeffs
    uz = ln_gamma_jet(z0, oz).coeffs
    uw = ln_gamma_jet(w0, ox + oz).coeffs
    log_jet = np.zeros((ox + 1, oz + 1))
    log_jet[:, 0] += ux
    log_jet[0, :] += uz
    for a in range(ox + 1):
        for b in range(oz + 1):
            log_jet[a, b] -= uw[a + b] * math.comb(a + b, a)
    return _exp2(Jet2(x0, z0, log_jet))


def mixed_partial(j: Jet2, a: int, b: int) -> float:
    """d_x^a d_z^b of the expanded function at the base point."""
    if not (0 <= a <= j.ox and 0 <= b <= j.oz):
        raise DomainError(f"mixed partial ({a},{b}) outside jet orders ({j.ox},{j.oz})")
    return float(j.coeffs[a, b]) * math.factorial(a) * math.factorial(b)
