"""Truncated Taylor (jet) arithmetic for exact higher derivatives.

A jet is a plain numpy array of normalized coefficients f^(k)(base)/k!,
which keeps magnitudes tame even when raw polygamma derivatives grow
factorially; the base point is the caller's to keep.  A univariate jet is
1-D.  gamma_ratio_jet returns the 2-D array c[a, b] = d_x^a d_z^b f / (a! b!)
of the two gamma ratios

    Gamma(x+1) Gamma(z) / Gamma(x+z)        (BETA_SHIFT0)
    Gamma(x+1) Gamma(z) / Gamma(x+z+1)      (BETA_SHIFT1)

that appear in every closed-form right-hand side, and mixed_partial reads
the derivatives off it.  Division never happens: ratios are assembled as
exp(sum of log-gamma jets), so one exp code path serves everything.  That
path is _exp_series1, the exp recurrence on a coefficient list: jet_exp and
the first row of _exp2 take it, and so does asymptotics.gamma_ratio_lp, whose
tail models of the binomial-type series factors are the exp of a Stirling
exponent in 1/t.  This module imports nothing from asymptotics.

The closed forms take x-orders 1, 2 and 3 of one ratio at one base point, so
gamma_ratio_jet keeps one read-only jet per (variant, x0, z0, oz) at x-order
MAX_OX (special.memo) and returns its rows 0..ox.  A truncated Taylor
coefficient of order <= k does not depend on where the series is truncated
(Griewank & Walther, Evaluating Derivatives, 2nd ed., ch. 13), and here
row a of the exp recurrence reads rows <= a only, so the rows keep the bits
of a build at ox.  x-order 0 is kept apart: the x-rows need psi at x0 + 1,
a pole at x0 = -1 where the ox = 0 jet is finite.

psi_derivatives keeps the raw tuple (psi(a), psi'(a), ..., psi^(top)(a)) by
its exact (a, top) (special.memo); it is the one source of psi values for
the jets and for the closed forms' Leibniz sums.  ln_gamma_jet and psi_jet
divide its entries by k! and are memoized themselves, each read-only array
kept by its exact (a, order), so every caller shares it: a polygamma value
is computed once per process.  A memo table keeps no raised DomainError, so
a bad a or base point is checked on every call.  series._cache.cache_clear()
drops them all, the gamma-ratio jets included.

A bivariate jet has at most MAX_OZ + 1 = 13 coefficients per row, so
per-call overhead sets its cost.  The kernels make few calls and keep every
bit of the plain loops (one np.dot per coefficient) they replace.  The
Cauchy products of one exp step are one batched np.matmul over zero-padded
Toeplitz gathers, row q holding ca[0..q] and cb[q..0]: on C-contiguous rows
each coefficient is the loop's dot, which OpenBLAS computes as a sequential
fused multiply-add chain up to 15 terms, and trailing zeros add nothing to
it.  The gathers are copies, so a strided operand gets the bits of its
contiguous copy (a strided row would take numpy's other dot loop).  A
closed form that needs one coefficient of a univariate product takes it as
one np.dot (identities.rhs_cor_36).  The exp recurrence sums left to
right on Python floats, never with sum(), which compensates from Python 3.12
on.  The bits are numpy's rather than a correctly rounded fsum's on purpose:
at closed-form points within one rounding of their tolerance, exact dots
flip verdicts, and which side is right needs an error bound on the right
side first.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .special import DomainError, digamma, ln_gamma, memo, polygamma

MAX_OX = 3
MAX_OZ = 12


@memo
def _gather(pairs: int, n: int) -> np.ndarray:
    """Index table into concatenate((ca.ravel(), cb.ravel(), [0.0])) for
    `pairs` stacked n-term products: row q of pair p picks ca[p, 0..q] in
    [0] and cb[p, q..0] in [1], both padded with the trailing zero.
    Read-only; built on first use."""
    p = np.arange(pairs)[:, None, None] * n
    q = np.arange(n)[:, None]
    i = np.arange(n)
    zero = 2 * pairs * n
    idx = np.stack((np.where(i <= q, p + i, zero), np.where(i <= q, pairs * n + p + q - i, zero)))
    idx = idx.reshape(2, pairs * n, n)
    idx.setflags(write=False)
    return idx


def _conv1(ca: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """Truncated Cauchy product along the last axis, of one pair of
    coefficient arrays or of a stack of pairs, at most MAX_OZ + 1 = 13
    coefficients long: padding a row with zeros leaves a sequential dot's
    bits alone, but OpenBLAS sums 16 or more entries over several vector
    accumulators."""
    n = ca.shape[-1]
    rows = np.concatenate((ca.ravel(), cb.ravel(), (0.0,)))[_gather(ca.size // n, n)]
    return np.matmul(rows[0][:, None, :], rows[1][:, :, None]).reshape(ca.shape)


def _exp_series1(c: list[float]) -> list[float]:
    """exp of a univariate normalized-coefficient list, or of a power series
    in 1/t: out[k] = sum_{j=1..k} j c[j] out[k-j] / k."""
    out = [math.exp(c[0])]
    for k in range(1, len(c)):
        acc = 0.0
        for j in range(1, k + 1):
            acc += j * c[j] * out[k - j]
        out.append(acc / k)
    return out


def jet_exp(a: np.ndarray) -> np.ndarray:
    """exp of a univariate jet; satisfies exp(j) * exp(-j) = 1 to roundoff."""
    return np.array(_exp_series1(a.tolist()))


@memo
def psi_derivatives(a: float, top: int) -> tuple[float, ...]:
    """(psi(a), psi'(a), ..., psi^(top)(a)), kept by the exact (a, top)."""
    return tuple(digamma(a) if k == 0 else polygamma(k, a) for k in range(top + 1))


@memo
def ln_gamma_jet(a: float, order: int) -> np.ndarray:
    """Jet of ln Gamma at a > 0: [lnGamma(a), psi(a), psi'(a)/2!, ...]."""
    if a <= 0.0:
        raise DomainError(f"ln_gamma_jet requires a > 0, got {a}")
    psi = psi_derivatives(a, order - 1)
    c = np.array([ln_gamma(a)] + [d / math.factorial(k) for k, d in enumerate(psi, start=1)])
    c.setflags(write=False)
    return c


@memo
def psi_jet(a: float, order: int) -> np.ndarray:
    """Jet of psi at a > 0: c[k] = psi^(k)(a)/k!."""
    if a <= 0.0:
        raise DomainError(f"psi_jet requires a > 0, got {a}")
    c = np.array([d / math.factorial(k) for k, d in enumerate(psi_derivatives(a, order))])
    c.setflags(write=False)
    return c


# --------------------------- bivariate jets ---------------------------------


class RatioVariant(enum.Enum):
    """Which gamma ratio a bivariate jet expands."""

    BETA_SHIFT0 = 0  # Gamma(x+1) Gamma(z) / Gamma(x+z)
    BETA_SHIFT1 = 1  # Gamma(x+1) Gamma(z) / Gamma(x+z+1)


def _exp2(f: np.ndarray) -> np.ndarray:
    """exp of a bivariate jet: univariate exp recurrence in dx over the
    ring of truncated dz-polynomials."""
    g = np.empty_like(f)
    g[0] = _exp_series1(f[0].tolist())
    for k in range(1, f.shape[0]):
        conv = _conv1(f[1 : k + 1], g[k - 1 :: -1])  # f[i] * g[k - i], i = 1..k
        row = np.zeros(f.shape[1])
        for i in range(1, k + 1):
            row += i * conv[i - 1]
        g[k] = row / k
    return g


def gamma_ratio_jet(variant: RatioVariant, x0: float, z0: float, ox: int, oz: int) -> np.ndarray:
    """Bivariate jet of the chosen gamma ratio at (x0, z0): the read-only
    (ox+1) x (oz+1) array of d_x^a d_z^b f(x0, z0) / (a! b!).

    Rows 0..ox of the jet kept for (variant, x0, z0, oz) at x-order MAX_OX,
    or at x-order 0 when ox = 0 (see the module docstring).
    """
    if not (0 <= ox <= MAX_OX and 0 <= oz <= MAX_OZ):
        raise DomainError(f"orders ({ox},{oz}) outside supported (<= {MAX_OX}, <= {MAX_OZ})")
    return _ratio_jet(variant, x0, z0, MAX_OX if ox else 0, oz)[: ox + 1]


@memo
def _ratio_jet(variant: RatioVariant, x0: float, z0: float, ox: int, oz: int) -> np.ndarray:
    """gamma_ratio_jet at exactly (ox, oz), read-only.

    Built as exp of  lnGamma(x0+1+dx) + lnGamma(z0+dz) - lnGamma(w0+dx+dz)
    with w0 = x0+z0 (+1 for BETA_SHIFT1); the composite (dx+dz)^r term
    spreads over the rectangle with binomial weights.
    """
    shift = 1.0 if variant is RatioVariant.BETA_SHIFT1 else 0.0
    w0 = x0 + z0 + shift
    for arg, name in ((x0 + 1.0, "x0+1"), (z0, "z0"), (w0, "x0+z0+shift")):
        if arg <= 0.0:
            raise DomainError(f"gamma_ratio_jet needs {name} > 0, got {arg}")
    ux = ln_gamma_jet(x0 + 1.0, ox)
    uz = ln_gamma_jet(z0, oz)
    uw = ln_gamma_jet(w0, ox + oz)
    diag, weight = _binomial_spread(ox, oz)
    log_jet = np.zeros((ox + 1, oz + 1))
    log_jet[:, 0] += ux
    log_jet[0, :] += uz
    log_jet -= uw[diag] * weight
    g = _exp2(log_jet)
    g.setflags(write=False)
    return g


@memo
def _binomial_spread(ox: int, oz: int) -> tuple[np.ndarray, np.ndarray]:
    """(a + b, comb(a + b, a)) at [a, b]: where (dx + dz)^(a+b) puts its
    weight in the rectangle."""
    diag = np.arange(ox + 1)[:, None] + np.arange(oz + 1)
    weight = np.array([[math.comb(a + b, a) for b in range(oz + 1)] for a in range(ox + 1)],
                      dtype=float)
    diag.setflags(write=False)
    weight.setflags(write=False)
    return diag, weight


def mixed_partial(coeffs: np.ndarray, a: int, b: int) -> float:
    """d_x^a d_z^b of the function a gamma_ratio_jet array expands, at its
    base point."""
    ox, oz = coeffs.shape[0] - 1, coeffs.shape[1] - 1
    if not (0 <= a <= ox and 0 <= b <= oz):
        raise DomainError(f"mixed partial ({a},{b}) outside jet orders ({ox},{oz})")
    return float(coeffs[a, b]) * math.factorial(a) * math.factorial(b)
