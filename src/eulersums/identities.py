"""Closed-form evaluators for the variant-sum identities and the harness
pairing them with the direct-summation oracles.

REGISTRY holds one row per identity: its parameters, the signature and
formula `euler-sums list` prints, its grid points, and the function that
evaluates the left side (series oracle) and the right side (finite harmonic
sums plus mixed partials of gamma-ratio jets, or pure zeta/polygamma
expressions).  verify, default_grid and the CLI read only that row.

Six theorems (THM_ALT_T25, THM_V1_31, THM_V2_33, THM_V3_37, THM_V3H_39,
THM_V4_311) share one shape: a finite binomial-harmonic sum
sum_k (-1)^k C(n,k) w(k)/(c+k)^s, which _finite_sum evaluates, plus the
x-partials of one gamma-ratio jet, which _x_partials reads.  Each writes out
its own weight and final combination: passing points sit within one rounding
of tol, so reordering either could flip a verdict.  The weights and
combinations index the harmonic numbers H_0^(r) .. H_n^(r) of one memoized
tuple per (n, r), _harmonics, each entry gen_harmonic's fsum.

Two of the closed forms are easy to mis-state and are pinned against the
oracles:

  * the cubic family (THM_V4_311 / COR_312) needs z-derivative order m-1,
    not m, next to the 1/(m-1)! factor;
  * COR_310's leading term carries 1/p^(m+1) like every other term of its
    sum (a slip there is invisible at p = 1).

Each row's sides are its family's: a worked example that instances a
statement calls that statement's series and closed form.  EX4_HALF is
COR_310 at p = -1/2, lhs_variant3h(-0.5, 0, m) against rhs_cor_310(-0.5, m).
The unscaled variant of its zeta form (leading term without the
(-1/2)^-(m+1) factor) disagrees with the series, so each report carries that
variant's value and a mismatch flag next to the corrected comparison.

Both sides check a parameter of one kind the same way: every order and
index through special.check_int, which returns the int that the closed
form then uses, and a real x, p or tol through special.check_above (here
inside _check_p, whose power-range rule is the closed forms' own; in
rhs_thm_e15 and rhs_thm_35, before the jet, as their series do; and in the
THM_V3_37, THM_V3H_39 and THM_V4_311 rows: their series take p > -1, so the
theorems' p > 0 is checked before the series run).  A bad argument is a
DomainError naming it, on either side, never one naming a jet's base point.
"""

from __future__ import annotations

import enum
import itertools
import math
import sys
from types import MappingProxyType
from typing import Any, Callable, Iterable, KeysView, Mapping, NamedTuple

from .jets import (
    MAX_OZ,
    RatioVariant,
    gamma_ratio_jet,
    jet_exp,
    jet_mul,
    ln_gamma_jet,
    mixed_partial,
    psi_derivatives,
)
from .series import (
    lhs_alt,
    lhs_base_binomial,
    lhs_binomial_shifted,
    lhs_central_binom,
    lhs_linear_euler,
    lhs_quadratic_euler,
    lhs_variant1,
    lhs_variant2,
    lhs_variant3,
    lhs_variant3h,
    lhs_variant4,
    quadratic_minus_linear,
    zeta_power_series,
    zeta_tail_sum,
)
from .special import (
    EULER_GAMMA,
    LN2,
    SQRT_PI,
    ZETA2,
    ZETA4,
    DomainError,
    check_above,
    check_int,
    digamma,
    gen_harmonic,
    memo,
    riemann_zeta,
)
from .summation import EvalConfig, SumResult


class IdentityId(enum.Enum):
    # Members are singletons and compare by identity, so they hash by it too:
    # a REGISTRY lookup then skips enum.Enum.__hash__, a Python-level call.
    __hash__ = object.__hash__

    THM_BASE_E15 = "THM_BASE_E15"
    THM_ALT_T25 = "THM_ALT_T25"
    THM_V1_31 = "THM_V1_31"
    COR_EULER_32 = "COR_EULER_32"
    THM_V2_33 = "THM_V2_33"
    COR_34 = "COR_34"
    THM_BASE_35 = "THM_BASE_35"
    COR_CENTRAL_36 = "COR_CENTRAL_36"
    THM_V3_37 = "THM_V3_37"
    COR_38 = "COR_38"
    THM_V3H_39 = "THM_V3H_39"
    COR_310 = "COR_310"
    THM_V4_311 = "THM_V4_311"
    COR_312 = "COR_312"
    EX1_AUYEUNG = "EX1_AUYEUNG"
    EX2_CENTRAL = "EX2_CENTRAL"
    EX3_GOLDBACH = "EX3_GOLDBACH"
    EX4_HALF = "EX4_HALF"


class VerifyReport(NamedTuple):
    """One left/right comparison.  It passes when the series converged and
    rel_err = |lhs - rhs| / max(|lhs|, |rhs|) is at most tol, however small
    the two sides are (rel_err is 0 when both are 0).  verify gives each
    report its own `extra` dict; the default is an empty read-only mapping,
    so that no report can change another's."""

    id: IdentityId
    params: dict[str, Any]
    lhs: float
    rhs: float
    abs_err: float
    rel_err: float
    passed: bool
    lhs_terms: int
    converged: bool = True
    extra: Mapping[str, Any] = MappingProxyType({})


# -------------------------- finite-sum helpers ------------------------------


@memo
def _harmonics(n: int, order: int) -> tuple[float, ...]:
    """(H_0^(order), ..., H_n^(order)), each entry gen_harmonic's fsum."""
    return tuple(gen_harmonic(j, order) for j in range(n + 1))


def _cubic_weight(n: int) -> Callable[[int], float]:
    """k -> H_n^3 + 2H_n^(3) + 3H_n H_n^(2) minus the same at index n-k.  The
    sum is taken left to right, so the n-part, its first three terms, is
    computed once with the same bits."""
    h, h2, h3 = _harmonics(n, 1), _harmonics(n, 2), _harmonics(n, 3)
    top = h[n] ** 3 + 2 * h3[n] + 3 * h[n] * h2[n]
    return lambda k: top - h[n - k] ** 3 - 2 * h3[n - k] - 3 * h[n - k] * h2[n - k]


def _sign(j: int) -> float:
    return 1.0 if j % 2 == 0 else -1.0


def _finite_sum(n: int, lo: int, c: float, e: int, weight: Callable[[int], float]) -> float:
    """sum_{k=lo}^n (-1)^k C(n,k) weight(k) / (c + k)^e, each term rounded as
    written, (-1)^k / (c + k)^e * C(n,k) * weight(k), and the terms summed
    exactly by fsum.  The sign and the integer C(n,k) are carried from one k
    to the next, exactly.  c = 0.0 gives the powers float(k)^e.  Negating a
    term negates every rounding in it and fsum is odd, so -_finite_sum is
    bit for bit the sum whose sign is (-1)^(k-1), but for the sign of an
    exact zero."""
    terms = []
    sign, binom = _sign(lo), math.comb(n, lo)
    for k in range(lo, n + 1):
        terms.append(sign / (c + k) ** e * binom * weight(k))
        sign, binom = -sign, binom * (n - k) // (k + 1)
    return math.fsum(terms)


def _x_partials(variant: RatioVariant, x0: float, z0: float, ox: int, oz: int) -> list[float]:
    """d_x^a d_z^oz of the gamma ratio at (x0, z0) for a = 1..ox, from one jet."""
    j = gamma_ratio_jet(variant, x0, z0)
    return [mixed_partial(j, a, oz) for a in range(1, ox + 1)]


def _leibniz(l: int, f: list[float], g: list[float]) -> float:
    """(f g)^(l) from the derivatives f[j] = f^(j) and g[j] = g^(j):
    sum_{j=0}^l C(l,j) f[j] g[l-j], the terms summed exactly by fsum."""
    return math.fsum(math.comb(l, j) * f[j] * g[l - j] for j in range(l + 1))


def _at_zero(p: float, e: int, c: list[float]) -> float:
    """sum_l (-1)^l c[l] / (l! p^(e-l)) over the entries of c, each term
    rounded as written and summed left to right."""
    out = 0.0
    for l, cl in enumerate(c):
        out += _sign(l) / (math.factorial(l) * p ** (e - l)) * cl
    return out


_MIN_NORMAL = sys.float_info.min


def _check_p(p: float, e: int, n: int | None = None) -> None:
    """DomainError naming p unless the closed form can divide by its powers:
    with n, the finite sum's (p + k)^e for k = 0..n, which needs p > 0;
    without, the zeta form's p^1 .. p^e, which needs p nonzero and > -1.
    Either set of powers lies between p^e and its other end, (p + n)^e or
    p, so those must be normal binary64 numbers; the series on the other
    side takes any finite p > -1."""
    check_above("p", p, -1.0 if n is None else 0.0)
    if p == 0.0:
        raise DomainError(f"p must be nonzero, got {p}")
    try:
        least = abs(p**e)
        most = abs((p + n) ** e) if n else least
    except OverflowError:
        least, most = _MIN_NORMAL, math.inf
    if least < _MIN_NORMAL:
        raise DomainError(f"p = {p} puts p^{e} outside binary64")
    if most == math.inf:
        raise DomainError(f"p = {p} puts {f'(p + {n})' if n else 'p'}^{e} outside binary64")


# ------------------------- closed-form right sides ---------------------------


def rhs_thm_e15(x: float, m: int) -> float:
    """(-1)^m/m! d^m/dz^m Gamma(x+1)Gamma(z)/Gamma(z+x) at z=1."""
    check_above("x", x, -1.0)
    m = check_int("m", m, 1, MAX_OZ)
    j = gamma_ratio_jet(RatioVariant.BETA_SHIFT0, x, 1.0)
    return _sign(m) / math.factorial(m) * mixed_partial(j, 0, m)


def rhs_thm_t25(n: int, m: int) -> float:
    """Finite binomial-harmonic sum minus the first x-partial of the ratio."""
    n, m = check_int("n", n, 0), check_int("m", m, 1, MAX_OZ)
    h = _harmonics(n, 1)
    fs = -_finite_sum(n, 1, 0.0, m, lambda k: h[n] - h[n - k])
    (f1,) = _x_partials(RatioVariant.BETA_SHIFT0, float(n), 1.0, 1, m)
    return fs - _sign(m) / math.factorial(m) * f1


def rhs_thm_31(n: int, m: int) -> float:
    """Variant-1 closed form: quadratic-harmonic finite sum plus F1/F2 terms."""
    n, m = check_int("n", n, 0), check_int("m", m, 1, MAX_OZ)
    h, h2 = _harmonics(n, 1), _harmonics(n, 2)
    fs = -_finite_sum(n, 1, 0.0, m, lambda k: h[n - k] ** 2 + h2[n - k] - h2[n] - h[n] ** 2)
    f1, f2 = _x_partials(RatioVariant.BETA_SHIFT0, float(n), 1.0, 2, m)
    smn = _sign(m + n)
    return (_sign(n) / 2.0 * fs
            - smn / (2.0 * math.factorial(m)) * f2
            + smn * h[n] / math.factorial(m) * f1)


def _zetas(top: int) -> list[float]:
    """[nan, nan, zeta(2), ..., zeta(top)], each riemann_zeta value read once:
    the zeta polynomials read zeta(s) at an integer s as z[s], so one call
    takes each value once however many of its products use it.  It always
    holds zeta(2..4)."""
    return [math.nan, math.nan] + [riemann_zeta(float(s)) for s in range(2, max(top, 4) + 1)]


def rhs_cor_32(m: int) -> float:
    """m zeta(m+1) - sum_{k=1}^{m-2} zeta(k+1) zeta(m-k)  (= 2 sum H_k/(k+1)^m)."""
    m = check_int("m", m, 2)
    z = _zetas(m - 1)
    return m * riemann_zeta(m + 1.0) - math.fsum(z[k + 1] * z[m - k] for k in range(1, m - 1))


def rhs_thm_33(n: int, m: int) -> float:
    """Variant-2 closed form: cubic-harmonic finite sum plus F1/F2/F3 combination."""
    n, m = check_int("n", n, 0), check_int("m", m, 1, MAX_OZ)
    h, h2 = _harmonics(n, 1), _harmonics(n, 2)
    fs = -_finite_sum(n, 1, 0.0, m, _cubic_weight(n))
    f1, f2, f3 = _x_partials(RatioVariant.BETA_SHIFT0, float(n), 1.0, 3, m)
    return (_sign(n - 1) / 3.0 * fs
            + _sign(m + n) / math.factorial(m)
            * ((h[n] ** 2 + h2[n]) * f1 - h[n] * f2 + f3 / 3.0))


def rhs_cor_34(m: int) -> float:
    """Zeta-polynomial value of sum (H_k^2 - H_k^(2))/(k+1)^(m+1), simplified form."""
    m = check_int("m", m, 1)
    z = _zetas(m + 1)
    out = (m + 1) * (m + 2) / 3.0 * riemann_zeta(m + 3.0)
    out -= math.fsum((j + 1) * z[j + 2] * z[m + 1 - j] for j in range(1, m))
    out += _zeta_double_sum(m, z)
    return out


def _zeta_double_sum(m: int, z: list[float]) -> float:
    """The double sum rhs_cor_34 and rhs_cor_34a share, from their z = _zetas(m + 1)."""
    return math.fsum(
        (m - l) * z[m - l + 1] * math.fsum(z[j + 1] * z[l - j + 1] for j in range(1, l))
        for l in range(1, m)
    ) / m if m > 1 else 0.0


def rhs_cor_34a(m: int) -> float:
    """Zeta-polynomial value of the k-power form sum (H_k^2 - H_k^(2))/k^(m+1)."""
    m = check_int("m", m, 1)
    z = _zetas(m + 1)
    out = (m + 2) * (m + 4) / 3.0 * riemann_zeta(m + 3.0) - ZETA2 * z[m + 1]
    out -= 2.0 * math.fsum(z[j + 1] * z[m + 2 - j] for j in range(2, m + 1))
    out -= math.fsum(j * z[j + 2] * z[m + 1 - j] for j in range(1, m))
    out += _zeta_double_sum(m, z)
    return out


def rhs_thm_35(x: float, p: float, m: int) -> float:
    """(-1)^m/m! d^m/ds^m Gamma(x+1)Gamma(s)/Gamma(x+s+1) at s=p."""
    check_above("x", x, -1.0)
    check_above("p", p, 0.0)
    m = check_int("m", m, 0, MAX_OZ)
    j = gamma_ratio_jet(RatioVariant.BETA_SHIFT1, x, p)
    return _sign(m) / math.factorial(m) * mixed_partial(j, 0, m)


def rhs_cor_36(p: float, m: int) -> float:
    """sqrt(pi) (-1)^m/m! d^m/ds^m [Gamma(s)/Gamma(s+1/2) (psi(1/2)-psi(s+1/2))] at s=p.

    Both factors are s-jets at s0 = p; the shifted-argument jets share the
    same normalized coefficients as jets at p+1/2, only rebased.
    """
    m = check_int("m", m, 0)
    check_above("p", p, 0.0)
    ratio = jet_exp([u - v for u, v in zip(ln_gamma_jet(p, m), ln_gamma_jet(p + 0.5, m))])
    delta = [-(d / math.factorial(k)) for k, d in enumerate(psi_derivatives(p + 0.5, m))]
    delta[0] += digamma(0.5)
    return SQRT_PI * _sign(m) * jet_mul(ratio, delta)[m]


def rhs_thm_37(p: float, n: int, m: int) -> float:
    """Shifted finite sum minus the first x-partial of the shifted ratio."""
    n, m = check_int("n", n, 0), check_int("m", m, 0, MAX_OZ)
    _check_p(p, m + 1, n)
    h = _harmonics(n, 1)
    fs = _finite_sum(n, 0, p, m + 1, lambda k: h[n] - h[n - k])
    (g1,) = _x_partials(RatioVariant.BETA_SHIFT1, float(n), p, 1, m)
    return fs - _sign(m) / math.factorial(m) * g1


def rhs_cor_38(p: float, m: int) -> float:
    """gamma/p^(m+1) + p^-(m+1) sum_{j=0}^m (-1)^j p^j/j! psi^(j)(p+1)."""
    m = check_int("m", m, 0)
    _check_p(p, m + 1)
    pg = psi_derivatives(p + 1.0, m)
    acc = EULER_GAMMA + pg[0]
    pj = 1.0
    for jx in range(1, m + 1):
        pj *= -p
        acc += pj / math.factorial(jx) * pg[jx]
    return acc / p ** (m + 1)


def rhs_thm_39(p: float, n: int, m: int) -> float:
    """Half the quadratic finite sum plus (G2 - 2 H_n G1)/(2 m!) partials."""
    n, m = check_int("n", n, 0), check_int("m", m, 0, MAX_OZ)
    _check_p(p, m + 1, n)
    h, h2 = _harmonics(n, 1), _harmonics(n, 2)
    top = h[n] ** 2 + h2[n]  # the weight's n-part, summed first
    fs = _finite_sum(n, 0, p, m + 1, lambda k: top - h[n - k] ** 2 - h2[n - k])
    g1, g2 = _x_partials(RatioVariant.BETA_SHIFT1, float(n), p, 2, m)
    return 0.5 * fs + _sign(m) / (2.0 * math.factorial(m)) * (g2 - 2.0 * h[n] * g1)


def rhs_cor_310(p: float, m: int) -> float:
    """(1/2) sum_{l=0}^m (-1)^l/(l! p^(m-l+1)) h^(l)(p), where
    h(s) = (gamma+psi(s+1))^2 + zeta(2) - psi'(s+1).

    Every term carries the p^-(m-l+1) factor, including l = 0; dropping it
    from the leading term reproduces the series only at p = 1.
    """
    m = check_int("m", m, 0)
    _check_p(p, m + 1)
    pg = psi_derivatives(p + 1.0, m + 1)
    h = [(EULER_GAMMA + pg[0]) ** 2 + ZETA2 - pg[1]]
    h += [2.0 * EULER_GAMMA * pg[l] - pg[l + 1] + _leibniz(l, pg, pg) for l in range(1, m + 1)]
    return 0.5 * _at_zero(p, m + 1, h)


def rhs_thm_311(p: float, n: int, m: int) -> float:
    """Cubic finite sum plus the three x-partials of the shifted ratio at
    z-order m-1 (the order that pairs with the 1/(m-1)! factor)."""
    n, m = check_int("n", n, 0), check_int("m", m, 1, MAX_OZ + 1)
    _check_p(p, m, n)
    h, h2 = _harmonics(n, 1), _harmonics(n, 2)
    fs = _finite_sum(n, 0, p, m, _cubic_weight(n))
    g1, g2, g3 = _x_partials(RatioVariant.BETA_SHIFT1, float(n), p, 3, m - 1)
    smn = _sign(m + n)
    return (_sign(n) / 3.0 * fs
            + smn / math.factorial(m - 1)
            * ((h[n] ** 2 + h2[n]) * g1 - h[n] * g2 + g3 / 3.0))


def rhs_cor_312(p: float, m: int) -> float:
    """-(1/3) sum_{l=0}^{m-1} (-1)^l/(l! p^(m-l)) g^(l)(p), with g the cubic
    psi polynomial and g^(l) its Leibniz expansion (all psi arguments at p+1)."""
    m = check_int("m", m, 1)
    _check_p(p, m)
    pg = psi_derivatives(p + 1.0, m + 1)
    sq = [_leibniz(k, pg, pg) for k in range(m)]  # (psi^2)^(k), read twice
    g = [-EULER_GAMMA**3 - 3.0 * EULER_GAMMA * ZETA2 - 2.0 * riemann_zeta(3.0)
         - 3.0 * (EULER_GAMMA**2 + ZETA2) * pg[0]
         + 3.0 * EULER_GAMMA * pg[1] - pg[2]
         + 3.0 * pg[0] * pg[1] - 3.0 * EULER_GAMMA * pg[0] ** 2 - pg[0] ** 3]
    g += [-3.0 * (EULER_GAMMA**2 + ZETA2) * pg[l]
          + 3.0 * EULER_GAMMA * pg[l + 1] - pg[l + 2]
          + 3.0 * _leibniz(l, pg[1:], pg)
          - 3.0 * EULER_GAMMA * sq[l]
          - _leibniz(l, sq, pg) for l in range(1, m)]
    return -_at_zero(p, m, g) / 3.0


def ex4_stated_zeta_form(m: int) -> float:
    """The unscaled variant of the half-shifted example's zeta form.

    Its leading term 2 log^2 2 - zeta(2) lacks the (-1/2)^-(m+1) factor that
    rhs_cor_310 applies, so this value disagrees with the series; it is kept
    for the mismatch diagnostics in EX4 reports.
    """
    m = check_int("m", m, 0)
    z = _zetas(m + 2)
    out = 2.0 * LN2**2 - ZETA2
    tail = 0.0
    for l in range(1, m + 1):
        brace = ((l + 1) * (1.0 - 2.0 ** (l + 2)) * z[l + 2]
                 + 4.0 * LN2 * (2.0 ** (l + 1) - 1.0) * z[l + 1]
                 + math.fsum((2.0 ** (j + 1) - 1.0) * (2.0 ** (l - j + 1) - 1.0)
                             * z[j + 1] * z[l - j + 1] for j in range(1, l)))
        tail += _sign(l) * 2.0**-l * brace
    return out + _sign(m + 1) * 2.0**m * tail


# ------------------------------ the inventory --------------------------------

Sides = Callable[..., tuple[SumResult, float]]


class Identity(NamedTuple):
    """One statement of the paper, described once.

    `sides(**params)` sums the series, then evaluates the closed form, and
    returns (series result, closed-form value); its parameters are the
    statement's, with a default where the statement fixes one.  A
    worked example made of several statements maps each value of its
    `selector` parameter to such a function, the first being the default.
    `grid` holds the points default_grid checks; `extra(lhs, tol, **params)`,
    if set, adds diagnostics to the report.
    """

    signature: str
    formula: str
    sides: Sides | dict[str, Sides]
    grid: list[dict[str, Any]]
    selector: str | None = None
    extra: Callable[..., dict[str, Any]] | None = None

    def bind(self, ident: IdentityId, params: dict[str, Any]) -> tuple[Sides, dict[str, Any]]:
        """The function for `params`, and `params` completed with defaults in
        the order records print them: the selector, then the defaults in
        declared order, then the rest of `params`.  DomainError for a missing
        or unknown parameter or sub-form; the checks are two set differences,
        and the message listing every bad name is built only when one fails."""
        sides, full = self.sides, {}
        if self.selector is not None:
            choice = params.get(self.selector, next(iter(self.sides)))
            if choice not in self.sides:
                raise DomainError(f"unknown {ident.value} {self.selector} {choice!r}; "
                                  f"expected one of {'/'.join(self.sides)}")
            sides, full = self.sides[choice], {self.selector: choice}
        required, defaults, names = _declared(sides)
        missing, unknown = required - params.keys(), params.keys() - names
        unknown.discard(self.selector)
        if missing or unknown:
            raise DomainError(f"{ident.value} params={self.signature}: " + ", ".join(
                [f"missing {name!r}" for name in names if name in missing]
                + [f"unknown {name!r}" for name in params if name in unknown]))
        full.update(defaults)
        return sides, {**full, **params}


@memo
def _declared(sides: Sides) -> tuple[frozenset[str], tuple[tuple[str, Any], ...], KeysView[str]]:
    """The parameters `sides` takes: the names without a default, the
    (name, default) pairs, and every name, the last two in declared order.
    They are read off the function's code and defaults, as a row's functions
    take positional-or-keyword parameters only."""
    names = sides.__code__.co_varnames[:sides.__code__.co_argcount]
    defaults = sides.__defaults__ or ()
    split = len(names) - len(defaults)
    return frozenset(names[:split]), tuple(zip(names[split:], defaults)), dict.fromkeys(names).keys()


def _axes(**axes: Iterable[Any]) -> list[dict[str, Any]]:
    """Every combination of the axes, the last one varying fastest."""
    return [dict(zip(axes, combo)) for combo in itertools.product(*axes.values())]


def _ex4_stated_form(lhs: float, tol: float, m: int) -> dict[str, Any]:
    """The unscaled zeta form's value and whether it matches the series."""
    stated = ex4_stated_zeta_form(m)
    return {"stated_zeta_form": stated,
            "stated_matches": abs(stated - lhs) <= tol * max(abs(lhs), 1.0)}


P_GRID = (0.5, 1.0, 1.5, 2.5)
N_GRID = (0, 1, 2, 3, 4)
_X_GRID = tuple(float(n) for n in N_GRID)
_M1 = range(1, 6)  # m in 1..5 where the statement needs m >= 1
_M0 = range(0, 5)  # m in 0..4 where m >= 0 is allowed

# Each row's functions look lhs_*, rhs_* and the other evaluators up by their
# module-global names at call time, so a wrapper installed on this module's
# attributes sees every call.
REGISTRY: dict[IdentityId, Identity] = {
    IdentityId.THM_BASE_E15: Identity(
        "(x > -1, m >= 1)",
        "sum (-1)^(k-1) C(x,k)/k^m = (-1)^m/m! d^m_z R0(x,z)|z=1",
        lambda x, m: (lhs_base_binomial(x, m), rhs_thm_e15(x, m)),
        _axes(x=_X_GRID, m=_M1)),
    IdentityId.THM_ALT_T25: Identity(
        "(n >= 0, m >= 1)",
        "sum (-1)^(n-1)/((n+k+1)^(m+1) C(n+k,k)) = finite - dx d^m_z R0",
        lambda n, m: (lhs_alt(n, m), rhs_thm_t25(n, m)),
        _axes(n=N_GRID, m=_M1)),
    IdentityId.THM_V1_31: Identity(
        "(n >= 0, m >= 1)",
        "sum H_k/((n+k+1)^(m+1) C(n+k,k)) = finite + {F1,F2} terms",
        lambda n, m: (lhs_variant1(n, m), rhs_thm_31(n, m)),
        _axes(n=N_GRID, m=_M1)),
    IdentityId.COR_EULER_32: Identity(
        "(m >= 2)",
        "2 sum H_k/(k+1)^m = m z(m+1) - sum z(k+1) z(m-k)",
        # the series takes m - 1, so m is checked first, as given
        lambda m: (lhs_variant1(0, check_int("m", m, 2) - 1).scaled(2.0), rhs_cor_32(m)),
        _axes(m=range(2, 6))),
    IdentityId.THM_V2_33: Identity(
        "(n >= 0, m >= 1)",
        "sum (H_k^2-H_k^(2))/((n+k+1)^(m+1) C(n+k,k)) = finite + {F1,F2,F3}",
        lambda n, m: (lhs_variant2(n, m), rhs_thm_33(n, m)),
        _axes(n=N_GRID, m=_M1)),
    IdentityId.COR_34: Identity(
        "(m >= 1)",
        "sum (H_k^2-H_k^(2))/(k+1)^(m+1) = zeta polynomial",
        lambda m: (lhs_variant2(0, m), rhs_cor_34(m)),
        _axes(m=_M1)),
    IdentityId.THM_BASE_35: Identity(
        "(x > -1, p > 0, m >= 0)",
        "sum (-1)^k C(x,k)/(p+k)^(m+1) = (-1)^m/m! d^m_s R1(x,s)|s=p",
        lambda x, p, m: (lhs_binomial_shifted(x, p, m), rhs_thm_35(x, p, m)),
        [{"x": x, "p": p, "m": m} for p in P_GRID for x in _X_GRID for m in _M0]),
    IdentityId.COR_CENTRAL_36: Identity(
        "(p > 0, m >= 0)",
        "sum (H_k-2H_2k) C(2k,k)/(4^k (p+k)^(m+1)) = sqrt(pi) psi-ratio deriv",
        lambda p, m: (lhs_central_binom(p, m), rhs_cor_36(p, m)),
        _axes(p=P_GRID, m=_M0)),
    IdentityId.THM_V3_37: Identity(
        "(p > 0, n >= 0, m >= 0)",
        "sum (-1)^n/(k (p+n+k)^(m+1) C(n+k,k)) = finite - dx d^m_s R1",
        # the series takes p > -1, so the theorem's p > 0 is checked first
        lambda p, n, m: (lhs_variant3(check_above("p", p, 0.0), n, m), rhs_thm_37(p, n, m)),
        _axes(p=P_GRID, n=N_GRID, m=_M0)),
    IdentityId.COR_38: Identity(
        "(p > -1, p != 0, m >= 0)",
        "sum 1/(k (p+k)^(m+1)) = gamma/p^(m+1) + psi-series",
        lambda p, m: (lhs_variant3(p, 0, m), rhs_cor_38(p, m)),
        _axes(p=P_GRID, m=_M0)),
    IdentityId.THM_V3H_39: Identity(
        "(p > 0, n >= 0, m >= 0)",
        "sum (-1)^n H_(k-1)/(k (p+n+k)^(m+1) C(n+k,k)) = finite + (G2-2H_n G1)/2",
        # the series takes p > -1, so the theorem's p > 0 is checked first
        lambda p, n, m: (lhs_variant3h(check_above("p", p, 0.0), n, m), rhs_thm_39(p, n, m)),
        _axes(p=P_GRID, n=N_GRID, m=_M0)),
    IdentityId.COR_310: Identity(
        "(p > -1, p != 0, m >= 0)",
        "sum H_(k-1)/(k (p+k)^(m+1)) = 1/2 sum_l (-1)^l h^(l)(p)/(l! p^(m-l+1))",
        lambda p, m: (lhs_variant3h(p, 0, m), rhs_cor_310(p, m)),
        _axes(p=P_GRID, m=_M0)),
    IdentityId.THM_V4_311: Identity(
        "(p > 0, n >= 0, m >= 1)",
        "sum (H_(k-1)^2-H_(k-1)^(2))/(k (p+n+k)^m C(n+k,k)) = finite + {G1,G2,G3}",
        # the series takes p > -1, so the theorem's p > 0 is checked first
        lambda p, n, m: (lhs_variant4(check_above("p", p, 0.0), n, m), rhs_thm_311(p, n, m)),
        _axes(p=P_GRID, n=N_GRID, m=_M1)),
    IdentityId.COR_312: Identity(
        "(p > -1, p != 0, m >= 1)",
        "sum (H_(k-1)^2-H_(k-1)^(2))/(k (p+k)^m) = -1/3 sum_l (-1)^l g^(l)(p)/(l! p^(m-l))",
        lambda p, m: (lhs_variant4(p, 0, m), rhs_cor_312(p, m)),
        _axes(p=P_GRID, m=_M1)),
    IdentityId.EX1_AUYEUNG: Identity(
        "(which in quadratic/linear/difference)",
        "S(1^2;2) = 17/4 z(4);  S(2,2) = 7/4 z(4);  difference = 5/2 z(4)",
        {"quadratic": lambda: (lhs_quadratic_euler(2), 17.0 / 4.0 * ZETA4),
         "linear": lambda: (lhs_linear_euler(2, 2), 7.0 / 4.0 * ZETA4),
         "difference": lambda: (quadratic_minus_linear(2), 5.0 / 2.0 * ZETA4)},
        _axes(which=("quadratic", "linear", "difference")),
        selector="which"),
    IdentityId.EX2_CENTRAL: Identity(
        "(which in unit/half)",
        "sum (2H_2k-H_k) C(2k,k)/((k+1) 4^(k+1)) = 1;  half-shift = pi (4 ln^2 2 - pi^2/6)",
        {"unit": lambda: (lhs_central_binom(1.0, 0).scaled(-0.25), 1.0),
         "half": lambda: (lhs_central_binom(0.5, 1).scaled(-1.0),
                              math.pi * (4.0 * LN2**2 - math.pi**2 / 6.0))},
        _axes(which=("unit", "half")),
        selector="which"),
    IdentityId.EX3_GOLDBACH: Identity(
        "(form zeta-tail[m]/psi-series[p]/power-series[p,m])",
        "sum_(j>=2) (z(m+j)-1) = m+1 - sum z(k+1)   (m=0: Goldbach value 1)",
        {"zeta-tail": lambda m=0: (
            zeta_tail_sum(m),
            m + 1.0 - math.fsum(riemann_zeta(k + 1.0) for k in range(1, m + 1))),
         "psi-series": lambda p=0.5: (
            lhs_variant3(p, 0, 0).scaled(p), EULER_GAMMA + digamma(p + 1.0)),
         "power-series": lambda p=0.4, m=1: (zeta_power_series(p, m), rhs_cor_38(p, m))},
        [{"form": "zeta-tail", "m": m} for m in range(4)]
        + [{"form": "psi-series", "p": 0.5}, {"form": "power-series", "p": 0.4, "m": 1}],
        selector="form"),
    IdentityId.EX4_HALF: Identity(
        "(m in 0..)",
        "sum H_(k-1)/(k (k-1/2)^(m+1)) vs half-shifted closed form",
        lambda m=0: (lhs_variant3h(-0.5, 0, m), rhs_cor_310(-0.5, m)),
        _axes(m=(0, 1)),
        extra=_ex4_stated_form),
}


DEFAULT_CONFIG = EvalConfig()


def verify(ident: IdentityId, params: dict[str, Any], tol: float,
           cfg: EvalConfig = DEFAULT_CONFIG) -> VerifyReport:
    """Evaluate both sides of one identity instance and compare at tol; the
    series counts as converged when cfg says so.  A missing or unknown
    parameter, or a tol that is not finite and > 0, is a DomainError.
    The sides take bind's completed parameters as they are, less the
    selector where the row has one; the report keeps all of them."""
    check_above("tol", tol, 0.0)
    row = REGISTRY[ident]
    sides, full = row.bind(ident, params)
    args = full
    if row.selector is not None:
        args = {name: v for name, v in full.items() if name != row.selector}
    res, rhs = sides(**args)
    converged = cfg.converged(res)
    lhs = res.value
    abs_err = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs))
    rel_err = abs_err / scale if scale > 0.0 else 0.0
    extra = row.extra(lhs, tol, **args) if row.extra else {}
    return VerifyReport(ident, full, lhs, rhs, abs_err, rel_err, rel_err <= tol and converged,
                        res.terms_used, converged, extra)


def default_grid() -> list[tuple[IdentityId, dict[str, Any]]]:
    """The full verification grid, every row's points in IdentityId order: n
    in 0..4, m in each identity's range intersected with 1..5 (0..4 where
    m >= 0 is allowed), p in the 4-point set, and the worked examples."""
    return [(ident, dict(params)) for ident in IdentityId for params in REGISTRY[ident].grid]

