"""Direct summation of the variant Euler harmonic sums and their relatives.

These evaluators are the oracles the closed forms are verified against.
Each slow series is split at K = 10^4: terms up to K are summed exactly
(harmonic numbers from a precomputed cache, reciprocal and signed binomials
by incremental ratios), and the tail is an Euler-Maclaurin estimate driven by
the asymptotic log-power expansion of the term function.  Reaching 1e-10 on
sums like  sum H_k / (k+1)^2  by brute force would take ~1e10 terms; the
split gets there in 10^4.  Only the two zeta-value series of EX3, whose terms
fall geometrically, are summed directly by sum_adaptive.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import asymptotics as ap
from .special import DomainError, HarmonicCache, gen_binom, hurwitz_zeta
from .summation import EvalConfig, NonFiniteTermError, SumResult, em_tail, sum_adaptive

K_CROSSOVER = 10_000

# Orders kept in each tail model past its leading decay s0: s_cap = s0 + _DEPTH.
# The model is the 1/t expansion of the term.  From order j to j + 1 it falls
# by about c (s0 + j) / ((j + 1) t), c being the largest shift in its factors
# (n + 1, p + n, p, 1/2 or 1), so at t = K the first dropped order is below the
# term by the product of _DEPTH + 1 such factors, and its share of the sum is
# that times tail/value.  The bound em_tail reports (the last kept order, one
# factor above the dropped ones) must stay below the head's rounding bound,
# which is at least 5 _U |value| = 5.5e-16 |value|, for n, m <= 10, p <= 20.
# Large s0 makes tail/value ~ K^(1 - s0) negligible; the worst case is
# lhs_central_binom(p=20, m=0): s0 = 3/2, c = 20, tail/value ~ 0.06.  Depth 5
# bounds it by 1.9e-16 |value|; depth 4 still gives the same value to 1 ulp
# there but can only vouch for 1.2e-13 |value|.
_DEPTH = 5.0

# Rounding of the head terms, in units of _U, to first order: 1 per rounded
# +, -, *, /; 2 per pow and per cached harmonic number (a compensated sum); a
# base rounded r times and raised to the power e adds r e; a difference a - b
# adds (err a + err b) / |a - b|.  That last one peaks at k = 2 for
# H_k^2 - H_k^(2) and as k grows for H_k - 2 H_2k, giving the budgets below.
_U = 2.0**-53
_R_HSQ = 15.0   # H_k^2 - H_k^(2), its own operations included
_R_HDIFF = 7.0  # H_k - 2 H_2k, likewise

# At large m a head's power overflows to inf and its term becomes 0, which it
# would underflow to anyway; np.errstate(over="ignore") keeps that silent.

DEFAULT_CONFIG = EvalConfig()


@lru_cache(maxsize=1)
def _cache() -> HarmonicCache:
    # central-binomial sums index H_{2k}, so build out to 2K
    return HarmonicCache.build(2 * K_CROSSOVER)


def _em_result(exact_terms: np.ndarray, tail_model: ap.LogPowerSeries, cfg: EvalConfig,
               roundings: float | np.ndarray, s_rounding: float = 0.0) -> SumResult:
    """Exact head plus EM tail.  `roundings` bounds each head term's relative
    rounding error in units of _U (an array where it grows with k); the
    estimate adds those, the two final roundings and the em_tail error.  A
    model whose exponents were rounded, by up to `s_rounding`, also adds what
    that moves the tail: |tail| s_rounding (ln K + 1/(s0 - 1)), the s-derivative
    of int_K^inf t^-s dt relative to it."""
    exact = math.fsum(exact_terms.tolist())
    tail, err = em_tail(tail_model, K_CROSSOVER, cfg)
    if s_rounding:
        err += abs(tail) * s_rounding * (math.log(K_CROSSOVER) + 1.0 / (tail_model.min_decay() - 1.0))
    value = exact + tail
    head_err = float(np.sum(roundings * np.abs(exact_terms)))
    tail_estimate = err + _U * (head_err + abs(exact) + abs(value))
    converged = tail_estimate <= cfg.rel_tol * max(abs(value), 1e-300)
    return SumResult(value, tail_estimate, K_CROSSOVER, converged)


def _inv_binomial_exact(n: int, k: np.ndarray) -> np.ndarray:
    """1/binom(n+k, k) = n!/((k+1)...(k+n)) elementwise."""
    out = np.ones_like(k)
    for i in range(1, n + 1):
        out *= i / (k + i)
    return out


def _check_nm(n: int, m: int, m_min: int) -> None:
    if n < 0 or n != int(n):
        raise DomainError(f"n must be a nonnegative integer, got {n}")
    if m < m_min or m != int(m):
        raise DomainError(f"m must be an integer >= {m_min}, got {m} (series diverges below)")


def _check_p(p: float) -> None:
    if not p > 0.0:
        raise DomainError(f"p must be > 0, got {p}")


# ----------------------- the four variant families --------------------------


def lhs_variant1(n: int, m: int, cfg: EvalConfig = DEFAULT_CONFIG) -> SumResult:
    """sum_{k>=0} H_k / ((n+k+1)^(m+1) binom(n+k,k))."""
    _check_nm(n, m, 1)
    c = _cache()
    k = np.arange(1.0, K_CROSSOVER + 1.0)
    with np.errstate(over="ignore"):
        terms = c.h1[1 : K_CROSSOVER + 1] * _inv_binomial_exact(n, k) / (n + k + 1.0) ** (m + 1)
    s_cap = (m + 1) + n + _DEPTH
    model = (ap.harmonic_lp(s_cap) * ap.inv_binomial_lp(n, s_cap)
             * ap.recip_power_shift(n + 1.0, m + 1.0, s_cap))
    # H_k 2, binomial 2n, pow 2, * and / 1 each
    return _em_result(terms, model, cfg, 2 * n + 6.0)


def lhs_variant2(n: int, m: int, cfg: EvalConfig = DEFAULT_CONFIG) -> SumResult:
    """sum_{k>=0} (H_k^2 - H_k^(2)) / ((n+k+1)^(m+1) binom(n+k,k))."""
    _check_nm(n, m, 1)
    c = _cache()
    k = np.arange(1.0, K_CROSSOVER + 1.0)
    h1 = c.h1[1 : K_CROSSOVER + 1]
    h2 = c.h2[1 : K_CROSSOVER + 1]
    with np.errstate(over="ignore"):
        terms = (h1 * h1 - h2) * _inv_binomial_exact(n, k) / (n + k + 1.0) ** (m + 1)
    s_cap = (m + 1) + n + _DEPTH
    h = ap.harmonic_lp(s_cap)
    numer = h * h + ap.gen_harmonic_lp(2, s_cap).scaled(-1.0)
    model = numer * ap.inv_binomial_lp(n, s_cap) * ap.recip_power_shift(n + 1.0, m + 1.0, s_cap)
    # numerator, binomial 2n, pow 2, * and / 1 each
    return _em_result(terms, model, cfg, 2 * n + 4 + _R_HSQ)


def lhs_alt(n: int, m: int, cfg: EvalConfig = DEFAULT_CONFIG) -> SumResult:
    """sum_{k>=0} (-1)^(n-1) / ((n+k+1)^(m+1) binom(n+k,k)).

    The sign factor is constant in k and multiplies the whole sum.
    """
    _check_nm(n, m, 1)
    k = np.arange(0.0, K_CROSSOVER + 1.0)
    with np.errstate(over="ignore"):
        terms = _inv_binomial_exact(n, k) / (n + k + 1.0) ** (m + 1)
    s_cap = (m + 1) + n + _DEPTH
    model = ap.inv_binomial_lp(n, s_cap) * ap.recip_power_shift(n + 1.0, m + 1.0, s_cap)
    res = _em_result(terms, model, cfg, 2 * n + 3.0)  # binomial 2n, pow 2, / 1
    sign = 1.0 if (n - 1) % 2 == 0 else -1.0
    return SumResult(sign * res.value, res.tail_estimate, res.terms_used, res.converged)


def _variant3_family(p: float, n: int, m: int, power: int,
                     numer_kind: str, cfg: EvalConfig) -> SumResult:
    c = _cache()
    k = np.arange(1.0, K_CROSSOVER + 1.0)
    with np.errstate(over="ignore"):
        base = _inv_binomial_exact(n, k) / (k * (p + n + k) ** power)
    # binomial 2n, pow 2 of a base rounded twice (p + n + k), * and / 1 each
    roundings = 2 * n + 2 * power + 4.0
    s_cap = power + n + 1 + _DEPTH
    t_inv = ap.LogPowerSeries(s_cap, {(0, 1.0): 1.0})
    model = ap.inv_binomial_lp(n, s_cap) * ap.recip_power_shift(p + n, float(power), s_cap) * t_inv
    if numer_kind == "one":
        terms = base
    elif numer_kind == "h_prev":
        terms = base * c.h1[0:K_CROSSOVER]
        roundings += 3  # H_(k-1) 2, * 1
        model = model * ap.harmonic_prev_lp(s_cap)
    else:  # "h_prev_sq"
        h1 = c.h1[0:K_CROSSOVER]
        h2 = c.h2[0:K_CROSSOVER]
        terms = base * (h1 * h1 - h2)
        roundings += _R_HSQ + 1  # numerator, * 1
        hp = ap.harmonic_prev_lp(s_cap)
        model = model * (hp * hp + ap.gen_harmonic_prev_lp(2, s_cap).scaled(-1.0))
    return _em_result(terms, model, cfg, roundings)


def lhs_variant3(p: float, n: int, m: int, cfg: EvalConfig = DEFAULT_CONFIG) -> SumResult:
    """sum_{k>=1} (-1)^n / (k (p+n+k)^(m+1) binom(n+k,k))."""
    _check_p(p)
    _check_nm(n, m, 0)
    res = _variant3_family(p, n, m, m + 1, "one", cfg)
    sign = 1.0 if n % 2 == 0 else -1.0
    return SumResult(sign * res.value, res.tail_estimate, res.terms_used, res.converged)


def lhs_variant3h(p: float, n: int, m: int, cfg: EvalConfig = DEFAULT_CONFIG) -> SumResult:
    """sum_{k>=1} (-1)^n H_{k-1} / (k (p+n+k)^(m+1) binom(n+k,k))."""
    _check_p(p)
    _check_nm(n, m, 0)
    res = _variant3_family(p, n, m, m + 1, "h_prev", cfg)
    sign = 1.0 if n % 2 == 0 else -1.0
    return SumResult(sign * res.value, res.tail_estimate, res.terms_used, res.converged)


def lhs_variant4(p: float, n: int, m: int, cfg: EvalConfig = DEFAULT_CONFIG) -> SumResult:
    """sum_{k>=1} (H_{k-1}^2 - H_{k-1}^(2)) / (k (p+n+k)^m binom(n+k,k))."""
    _check_p(p)
    _check_nm(n, m, 1)
    return _variant3_family(p, n, m, m, "h_prev_sq", cfg)


def lhs_central_binom(p: float, m: int, cfg: EvalConfig = DEFAULT_CONFIG) -> SumResult:
    """sum_{k>=0} (H_k - 2 H_{2k}) binom(2k,k) / (4^k (p+k)^(m+1))."""
    _check_p(p)
    if m < 0:
        raise DomainError(f"m must be >= 0, got {m}")
    c = _cache()
    k = np.arange(1, K_CROSSOVER + 1)
    kf = k.astype(np.float64)
    cb = np.cumprod((2.0 * kf - 1.0) / (2.0 * kf))  # binom(2k,k)/4^k
    with np.errstate(over="ignore"):
        terms = (c.h1[k] - 2.0 * c.h1[2 * k]) * cb / (p + kf) ** (m + 1)
    s_cap = (m + 1) + 0.5 + _DEPTH
    # binom(2t, t)/4^t = Gamma(t + 1/2) / (sqrt(pi) Gamma(t + 1))
    model = (ap.central_harmonic_diff_lp(s_cap)
             * ap.gamma_ratio_lp(0.5, 1.0, s_cap).scaled(1.0 / math.sqrt(math.pi))
             * ap.recip_power_shift(p, m + 1.0, s_cap))
    # numerator; binom(2k,k)/4^k, a running product rounded 2k times by term k;
    # pow 2 of a base rounded once (p + k); * and / 1 each
    return _em_result(terms, model, cfg, _R_HDIFF + 2.0 * kf + (m + 1) + 4)


def half_shift_series(m: int, cfg: EvalConfig = DEFAULT_CONFIG) -> SumResult:
    """sum_{k>=1} H_{k-1} / (k (k - 1/2)^(m+1)); every denominator is positive."""
    if m < 0:
        raise DomainError(f"m must be >= 0, got {m}")
    c = _cache()
    k = np.arange(1.0, K_CROSSOVER + 1.0)
    with np.errstate(over="ignore"):
        terms = c.h1[0:K_CROSSOVER] / (k * (k - 0.5) ** (m + 1))
    s_cap = (m + 2) + _DEPTH
    t_inv = ap.LogPowerSeries(s_cap, {(0, 1.0): 1.0})
    model = ap.harmonic_prev_lp(s_cap) * ap.recip_power_shift(-0.5, m + 1.0, s_cap) * t_inv
    return _em_result(terms, model, cfg, 6.0)  # H_(k-1) 2, pow 2, * and / 1 each


# --------------------- binomial-coefficient base series ---------------------
#
# (-1)^k binom(x, k) = Gamma(k - x) / (Gamma(-x) Gamma(k + 1)) falls like
# k^(-x-1), so at non-integer x both base series split at K like the others:
# the head by the incremental ratio from binom(x, 0) = 1, the tail model by
# the gamma-ratio expansion.  Integer x >= 0 ends the series at k = x.


def _signed_binom_terms(x: float) -> np.ndarray:
    """(-1)^k binom(x, k) for k = 0..K: the exact first term times the running
    product of the ratios (k - 1 - x)/k."""
    k = np.arange(1.0, K_CROSSOVER + 1.0)
    out = np.empty(K_CROSSOVER + 1)
    out[0] = gen_binom(x, 0.0)
    out[1:] = out[0] * np.cumprod((k - 1.0 - x) / k)
    return out


def _binomial_series(x: float, factor: ap.LogPowerSeries, factor_terms: np.ndarray,
                     cfg: EvalConfig, roundings: np.ndarray) -> SumResult:
    """sum_k (-1)^k binom(x, k) f(k) over the k of factor_terms, the last of
    0..K, and past K: f is given by those head values and by its expansion
    `factor`, whose cap the tail model keeps.  Past x ~ 149 the tail model's
    derivatives leave binary64, and past x ~ 172 so does 1/Gamma(-x): both
    end in NonFiniteTermError."""
    g = math.gamma(-x)
    if g == 0.0:
        raise NonFiniteTermError(f"1/Gamma({-x}) overflows binary64: x = {x} is too large")
    model = ap.gamma_ratio_lp(-x, 1.0, factor.s_cap).scaled(1.0 / g) * factor
    terms = _signed_binom_terms(x)[K_CROSSOVER + 1 - len(factor_terms):] * factor_terms
    # each exponent, 1 + x + j + f's own, is rounded up to three times
    res = _em_result(terms, model, cfg, roundings, 3 * _U * factor.s_cap)
    if not (math.isfinite(res.value) and math.isfinite(res.tail_estimate)):
        raise NonFiniteTermError(f"the tail model of the binomial series at x = {x} "
                                 "overflows binary64")
    return res


def lhs_base_binomial(x: float, m: int, cfg: EvalConfig = DEFAULT_CONFIG) -> SumResult:
    """sum_{k>=1} (-1)^(k-1) binom(x,k) / k^m."""
    if not x > -1.0:
        raise DomainError(f"x must be > -1, got {x}")
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    if float(x).is_integer():
        n = int(x)
        val = math.fsum(
            (-1.0) ** (k - 1) * math.comb(n, k) / float(k) ** m for k in range(1, n + 1)
        )
        return SumResult(val, 0.0, n, True)
    k = np.arange(1.0, K_CROSSOVER + 1.0)
    factor = ap.LogPowerSeries(x + 1.0 + m + _DEPTH, {(0, float(m)): -1.0})
    # the running product, rounded 3 times per ratio (- x, / k, *); pow 2, * 1
    return _binomial_series(x, factor, -(k ** -float(m)), cfg, 3.0 * k + 3.0)


def lhs_binomial_shifted(x: float, p: float, m: int, cfg: EvalConfig = DEFAULT_CONFIG) -> SumResult:
    """sum_{k>=0} (-1)^k binom(x,k) / (p+k)^(m+1)."""
    if not x > -1.0:
        raise DomainError(f"x must be > -1, got {x}")
    _check_p(p)
    if m < 0:
        raise DomainError(f"m must be >= 0, got {m}")
    if float(x).is_integer():
        n = int(x)
        val = math.fsum(
            (-1.0) ** k * math.comb(n, k) / (p + k) ** (m + 1) for k in range(0, n + 1)
        )
        return SumResult(val, 0.0, n + 1, True)
    k = np.arange(0.0, K_CROSSOVER + 1.0)
    factor = ap.recip_power_shift(p, m + 1.0, x + 2.0 + m + _DEPTH)
    # the running product, 3 per ratio; pow 2 of a base rounded once (p + k); * 1
    return _binomial_series(x, factor, (p + k) ** -float(m + 1), cfg, 3.0 * k + m + 4.0)


# ----------------------------- Euler sums -----------------------------------


def lhs_linear_euler(p: int, q: int, cfg: EvalConfig = DEFAULT_CONFIG) -> SumResult:
    """S(p, q) = sum_{n>=1} H_n^(p) / n^q."""
    if p < 1:
        raise DomainError(f"p must be >= 1, got {p}")
    if q < 2:
        raise DomainError(f"q must be >= 2, got {q}")
    c = _cache()
    k = np.arange(1.0, K_CROSSOVER + 1.0)
    roundings = 5.0  # cached H_k^(p) 2, pow 2, / 1
    if p == 1:
        hp = c.h1[1 : K_CROSSOVER + 1]
    elif p == 2:
        hp = c.h2[1 : K_CROSSOVER + 1]
    elif p == 3:
        hp = c.h3[1 : K_CROSSOVER + 1]
    else:
        hp = np.cumsum(k ** -float(p))
        roundings = k + 4.0  # a running sum, rounded k - 1 times by term k, after pow 2
    with np.errstate(over="ignore"):
        terms = hp / k**q
    s_cap = q + _DEPTH
    numer = ap.harmonic_lp(s_cap) if p == 1 else ap.gen_harmonic_lp(p, s_cap)
    model = numer * ap.LogPowerSeries(s_cap, {(0, float(q)): 1.0})
    return _em_result(terms, model, cfg, roundings)


def lhs_quadratic_euler(q: int, cfg: EvalConfig = DEFAULT_CONFIG) -> SumResult:
    """S(1^2; q) = sum_{n>=1} H_n^2 / n^q."""
    if q < 2:
        raise DomainError(f"q must be >= 2, got {q}")
    c = _cache()
    k = np.arange(1.0, K_CROSSOVER + 1.0)
    h1 = c.h1[1 : K_CROSSOVER + 1]
    with np.errstate(over="ignore"):
        terms = h1 * h1 / k**q
    s_cap = q + _DEPTH
    h = ap.harmonic_lp(s_cap)
    model = h * h * ap.LogPowerSeries(s_cap, {(0, float(q)): 1.0})
    return _em_result(terms, model, cfg, 8.0)  # H_k^2 5, pow 2, / 1


def quadratic_minus_linear(q: int, cfg: EvalConfig = DEFAULT_CONFIG) -> SumResult:
    """sum_{k>=1} (H_k^2 - H_k^(2)) / k^q = S(1^2; q) - S(2, q)."""
    if q < 2:
        raise DomainError(f"q must be >= 2, got {q}")
    c = _cache()
    k = np.arange(1.0, K_CROSSOVER + 1.0)
    h1 = c.h1[1 : K_CROSSOVER + 1]
    h2 = c.h2[1 : K_CROSSOVER + 1]
    with np.errstate(over="ignore"):
        terms = (h1 * h1 - h2) / k**q
    s_cap = q + _DEPTH
    h = ap.harmonic_lp(s_cap)
    numer = h * h + ap.gen_harmonic_lp(2, s_cap).scaled(-1.0)
    model = numer * ap.LogPowerSeries(s_cap, {(0, float(q)): 1.0})
    return _em_result(terms, model, cfg, _R_HSQ + 3)  # numerator, pow 2, / 1


# ------------------------ zeta-tail example series --------------------------


def zeta_tail_sum(m: int, cfg: EvalConfig = DEFAULT_CONFIG) -> SumResult:
    """sum_{j>=2} (zeta(m+j) - 1), each term evaluated as zeta(m+j, 2) so no
    cancellation occurs for large j."""
    if m < 0:
        raise DomainError(f"m must be >= 0, got {m}")

    def term(js: np.ndarray) -> np.ndarray:
        return np.array([hurwitz_zeta(m + float(j), 2.0) for j in js])

    return sum_adaptive(term, cfg, k_start=2)


def zeta_power_series(p: float, m: int, cfg: EvalConfig = DEFAULT_CONFIG) -> SumResult:
    """sum_{j>=0} p^j zeta(m+j+2, p+1), valid for 0 < p < 1."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must be in (0, 1), got {p}")
    if m < 0:
        raise DomainError(f"m must be >= 0, got {m}")

    def term(js: np.ndarray) -> np.ndarray:
        return np.array([p ** float(j) * hurwitz_zeta(m + float(j) + 2.0, p + 1.0) for j in js])

    return sum_adaptive(term, cfg, k_start=0)
