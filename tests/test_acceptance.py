"""Acceptance suite: the ten exit criteria, each printed as one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import time

import mpmath as mp

from eulersums import (
    EULER_GAMMA,
    IdentityId,
    ZETA2,
    ZETA3,
    ZETA4,
    digamma,
    gen_harmonic,
    lhs_central_binom,
    lhs_linear_euler,
    lhs_quadratic_euler,
    lhs_variant1,
    polygamma,
    riemann_zeta,
    rhs_cor_310,
    rhs_cor_312,
    rhs_cor_32,
    rhs_cor_34,
    rhs_cor_38,
    rhs_thm_31,
    rhs_thm_311,
    rhs_thm_33,
    rhs_thm_35,
    rhs_thm_37,
    rhs_thm_39,
    verify,
)
from eulersums.identities import P_GRID, default_grid
from eulersums.jets import RatioVariant, gamma_ratio_jet, mixed_partial
from eulersums.series import quadratic_minus_linear, zeta_tail_sum
from eulersums.summation import EvalConfig
from eulersums.special import LN2

from conftest import rel_err

mp.mp.dps = 30


def _line(num: int, ok: bool, desc: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_euler_1775():
    t0 = time.perf_counter()
    lhs = lhs_variant1(0, 1)
    rhs = rhs_thm_31(0, 1)
    elapsed = time.perf_counter() - t0
    ok = (EvalConfig().converged(lhs)
          and rel_err(lhs.value, ZETA3) <= 1e-9
          and rel_err(rhs, ZETA3) <= 1e-9
          and elapsed < 5.0)
    _line(1, ok, f"sum H_k/(k+1)^2 = zeta(3) both routes (1e-9, {elapsed:.2f}s)")


def test_criterion_2_classical_euler_sums():
    t0 = time.perf_counter()
    worst = 0.0
    for m in range(2, 9):
        oracle = 2.0 * lhs_variant1(0, m - 1).value
        worst = max(worst, rel_err(oracle, rhs_cor_32(m)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 30.0
    _line(2, ok, f"2 sum H_k/(k+1)^m vs zeta polynomial, m=2..8 (worst {worst:.1e}, {elapsed:.1f}s)")


def test_criterion_3_auyeung_values():
    errs = [
        rel_err(lhs_quadratic_euler(2).value, 17.0 / 4.0 * ZETA4),
        rel_err(lhs_linear_euler(2, 2).value, 7.0 / 4.0 * ZETA4),
        rel_err(quadratic_minus_linear(2).value, 5.0 / 2.0 * ZETA4),
    ]
    ok = max(errs) <= 1e-8
    _line(3, ok, f"S(1^2;2), S(2,2), difference sum (worst {max(errs):.1e} <= 1e-8)")


def test_criterion_4_central_binomial():
    unit = -lhs_central_binom(1.0, 0).value / 4.0
    half = -lhs_central_binom(0.5, 1).value
    want_half = math.pi * (4.0 * LN2**2 - math.pi**2 / 6.0)
    ok = rel_err(unit, 1.0) <= 1e-9 and rel_err(half, want_half) <= 1e-9
    _line(4, ok, f"central-binomial sums: 1 and pi(4 ln^2 2 - pi^2/6) (1e-9)")


def test_criterion_5_zeta_tails():
    goldbach = zeta_tail_sum(0).value
    ok = abs(goldbach - 1.0) <= 1e-12
    worst = 0.0
    for m in range(0, 4):
        want = m + 1.0 - math.fsum(riemann_zeta(k + 1.0) for k in range(1, m + 1))
        worst = max(worst, rel_err(zeta_tail_sum(m).value, want))
    ok = ok and worst <= 1e-11
    _line(5, ok, f"Goldbach value (1e-12) and zeta-tail family m=0..3 (worst {worst:.1e})")


def test_criterion_6_full_grid():
    t0 = time.perf_counter()
    grid = default_grid()
    failures = []
    for ident, params in grid:
        rep = verify(ident, params, 1e-7)
        if not rep.passed:
            failures.append((ident.value, params))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 600.0
    _line(6, ok, f"full grid: {len(grid)} instances at 1e-7, {len(failures)} failures, {elapsed:.1f}s")


def test_criterion_7_degeneracy_chains():
    worst = 0.0
    for p in P_GRID:
        for m in range(0, 5):
            worst = max(worst, rel_err(rhs_thm_37(p, 0, m), rhs_cor_38(p, m)))
            worst = max(worst, rel_err(rhs_thm_39(p, 0, m), rhs_cor_310(p, m)))
            worst = max(worst, rel_err(rhs_thm_35(0.0, p, m), p ** -(m + 1)))
        for m in range(1, 6):
            worst = max(worst, rel_err(rhs_thm_311(p, 0, m), rhs_cor_312(p, m)))
    for m in range(1, 6):
        worst = max(worst, rel_err(rhs_thm_31(0, m), rhs_cor_32(m + 1) / 2.0))
        worst = max(worst, rel_err(rhs_thm_33(0, m), rhs_cor_34(m)))
    ok = worst <= 1e-10
    _line(7, ok, f"six n=0/x=0 reductions across the grid (worst {worst:.1e} <= 1e-10)")


def _fd_mixed_mp(variant: RatioVariant, x0: float, z0: float, a: int, b: int) -> float:
    """Central difference at h = 1e-4 in 50-digit arithmetic (independent of
    the jet code; dividing by h^7 eats ~27 digits, so binary64 or even
    30-digit arithmetic would drown the stencil in roundoff)."""
    with mp.workdps(50):
        h = mp.mpf("1e-4")
        shift = 1 if variant is RatioVariant.BETA_SHIFT1 else 0

        def f(i: int, j: int) -> mp.mpf:
            x = mp.mpf(x0) + i * h
            z = mp.mpf(z0) + j * h
            return mp.gamma(x + 1) * mp.gamma(z) / mp.gamma(x + z + shift)

        total = mp.mpf(0)
        for i in range(a + 1):
            for j in range(b + 1):
                w = (-1) ** (i + j) * math.comb(a, i) * math.comb(b, j)
                total += w * f(a - 2 * i, b - 2 * j)
        return float(total / (2 * h) ** (a + b))


def test_criterion_8_jet_correctness():
    worst_fd = 0.0
    for variant in (RatioVariant.BETA_SHIFT0, RatioVariant.BETA_SHIFT1):
        for (x0, z0) in ((0.0, 1.0), (2.0, 1.0), (1.0, 1.5), (0.0, 0.5)):
            jet = gamma_ratio_jet(variant, x0, z0)
            for a in range(0, 4):
                for b in range(0, 5):
                    exact = mixed_partial(jet, a, b)
                    fd = _fd_mixed_mp(variant, x0, z0, a, b)
                    err = abs(fd - exact) / max(abs(exact), 1.0)
                    worst_fd = max(worst_fd, err)
    worst_e21 = 0.0
    for z in (1.0, 2.0, 2.5):
        jet = gamma_ratio_jet(RatioVariant.BETA_SHIFT0, 0.0, z)
        want = (digamma(z) ** 2 + 2.0 * EULER_GAMMA * digamma(z) - polygamma(1, z)
                + EULER_GAMMA**2 + math.pi**2 / 6.0)
        worst_e21 = max(worst_e21, abs(mixed_partial(jet, 2, 0) - want) / max(abs(want), 1.0))
    ok = worst_fd <= 1e-5 and worst_e21 <= 1e-10
    _line(8, ok, f"finite differences (worst {worst_fd:.1e} <= 1e-5) and the "
                 f"second-x-derivative formula (worst {worst_e21:.1e} <= 1e-10)")


def test_criterion_9_special_function_suite():
    def close(got, want, tol):
        # near-zero targets compare absolutely (the 0 = 0 bridge cases)
        if abs(want) < 1e-12:
            return abs(got - want) <= tol
        return rel_err(got, want) <= tol

    checks = []
    # polygamma recurrence
    for k in range(0, 7):
        for z in (0.3, 1.7, 4.2):
            lhs = (digamma(z + 1) - digamma(z)) if k == 0 else (polygamma(k, z + 1) - polygamma(k, z))
            checks.append(close(lhs, (-1.0) ** k * math.factorial(k) / z ** (k + 1), 1e-11))
    # reflection
    for z in (0.1, 0.25, 0.5, 0.75, 1.3):
        reflected = math.gamma(z) * math.gamma(1 - z) * math.sin(math.pi * z)
        checks.append(rel_err(reflected, math.pi) <= 1e-12)
    # shifts
    for z in (0.4, 2.7):
        checks.append(rel_err(digamma(z + 20) - digamma(z),
                              math.fsum(1.0 / (z + j) for j in range(20))) <= 1e-12)
    # harmonic bridge
    for n in range(0, 101):
        checks.append(close(gen_harmonic(n, 1), EULER_GAMMA + digamma(n + 1.0), 1e-12))
    for m in (1, 2):
        for n in (0, 5, 40):
            want = riemann_zeta(m + 1.0) + (-1.0) ** m / math.factorial(m) * polygamma(m, n + 1.0)
            checks.append(close(gen_harmonic(n, m + 1), want, 1e-11))
    # half-integer identities
    for k in range(0, 9):
        got = digamma(0.5) - digamma(0.5 - k)
        want = gen_harmonic(k, 1) - 2.0 * gen_harmonic(2 * k, 1)
        checks.append(abs(got - want) <= 1e-11 * max(1.0, abs(want)))
    # first-order limit sweeps (ratio about 10 per decade, factor-2 slack)
    def sweep_ok(values_fn, want, eps_set):
        errs = [abs(values_fn(e) - want) for e in eps_set]
        return all(5.0 <= lo / hi <= 20.0 for lo, hi in zip(errs, errs[1:]))

    decades = (1e-3, 1e-4, 1e-5)
    for k in range(0, 5):
        checks.append(sweep_ok(lambda e, k=k: (e) * math.gamma(-k + e),
                               (-1.0) ** k / math.factorial(k), decades))
        checks.append(sweep_ok(lambda e, k=k: digamma(-k + e) / math.gamma(-k + e),
                               (-1.0) ** (k - 1) * math.factorial(k), decades))
        checks.append(sweep_ok(
            lambda e, k=k: (digamma(-k + e) ** 2 - polygamma(1, -k + e)) / math.gamma(-k + e),
            2.0 * (-1.0) ** (k - 1) * math.factorial(k) * digamma(k + 1.0), decades))
        checks.append(sweep_ok(
            lambda e, k=k: (digamma(-k + e) ** 3
                            - 3.0 * digamma(-k + e) * polygamma(1, -k + e)
                            + polygamma(2, -k + e)) / math.gamma(-k + e),
            3.0 * (-1.0) ** k * math.factorial(k)
            * (ZETA2 + gen_harmonic(k, 2) - digamma(k + 1.0) ** 2),
            (1e-2, 1e-3, 1e-4)))  # binary64 noise floor at 1e-5 for the cubic combo
    ok = all(checks)
    _line(9, ok, f"special-function invariants: {sum(checks)}/{len(checks)} checks")


def test_criterion_10_half_shifted_example():
    reports = [verify(IdentityId.EX4_HALF, {"m": m}, 1e-8) for m in (0, 1)]
    corrected_ok = all(r.passed for r in reports)
    flagged = all(r.extra.get("stated_matches") is False and "stated_zeta_form" in r.extra
                  for r in reports)
    ok = corrected_ok and flagged
    _line(10, ok, "half-shifted example matches the p=-1/2 closed form at 1e-8 and the "
                  "published zeta form's scaling mismatch is flagged, not hidden")
