"""Closed-form right sides, the verify harness, and cross-identity chains."""

import functools
import inspect
import math
from fractions import Fraction

import pytest

from eulersums import (
    IdentityId,
    ZETA2,
    ZETA3,
    ZETA4,
    DomainError,
    digamma,
    polygamma,
    riemann_zeta,
    rhs_cor_310,
    rhs_cor_312,
    rhs_cor_32,
    rhs_cor_34,
    rhs_cor_34a,
    rhs_cor_36,
    rhs_cor_38,
    rhs_thm_31,
    rhs_thm_311,
    rhs_thm_33,
    rhs_thm_35,
    rhs_thm_37,
    rhs_thm_39,
    rhs_thm_e15,
    rhs_thm_t25,
    verify,
)
from eulersums.identities import (
    P_GRID,
    REGISTRY,
    Identity,
    VerifyReport,
    _cubic_weight,
    _declared,
    _finite_sum,
    _harmonics,
    _zeta_double_sum,
    _zetas,
    default_grid,
    ex4_stated_zeta_form,
)
from eulersums.special import LN2
from eulersums.summation import EvalConfig

from conftest import REFS, assert_close


class TestBaseForms:
    def test_e15_integer(self):
        assert_close(rhs_thm_e15(2.0, 1), 1.5, 1e-12)

    def test_e15_x_zero_vanishes(self):
        for m in (1, 2, 3):
            assert abs(rhs_thm_e15(0.0, m)) < 1e-13

    def test_t25_partial_fractions(self):
        assert_close(rhs_thm_t25(1, 1), 2.0 - ZETA2, 1e-12)

    def test_t25_n_zero(self):
        assert_close(rhs_thm_t25(0, 1), -ZETA2, 1e-12)

    def test_thm35_single_term(self):
        for p, m in ((1.5, 2), (2.5, 0)):
            assert_close(rhs_thm_35(0.0, p, m), p ** -(m + 1), 1e-12)
        assert_close(rhs_thm_35(1.0, 1.0, 0), 0.5, 1e-13)


def _cor34_unsimplified(m):
    """rhs_cor_34 before the algebraic simplification of its zeta products."""
    out = ZETA2 * riemann_zeta(m + 1.0) + (m + 1) * (m + 2) / 3.0 * riemann_zeta(m + 3.0)
    out -= math.fsum(
        (j + 1) * (j + 2) * riemann_zeta(3.0 + j) * riemann_zeta(float(m - j))
        for j in range(0, m - 1)
    ) / m
    out -= math.fsum(
        (j + 1) * (m - j) * riemann_zeta(j + 2.0) * riemann_zeta(float(m + 1 - j))
        for j in range(0, m)
    ) / m
    return out + _zeta_double_sum(m, _zetas(m + 1))


class TestVariantClosedForms:
    def test_thm31_euler(self):
        assert_close(rhs_thm_31(0, 1), ZETA3, 1e-12)
        assert_close(rhs_thm_31(0, 2), ZETA4 / 4.0, 1e-12)

    def test_cor32_values(self):
        assert_close(rhs_cor_32(2), 2.0 * ZETA3, 1e-13)
        assert_close(rhs_cor_32(3), 3.0 * ZETA4 - ZETA2**2, 1e-13)
        assert_close(rhs_cor_32(4), 4.0 * riemann_zeta(5.0) - 2.0 * ZETA2 * ZETA3, 1e-13)

    def test_cor34_values(self):
        assert_close(rhs_cor_34(1), 2.0 * ZETA4, 1e-13)
        assert_close(rhs_cor_34a(1), 2.5 * ZETA4, 1e-13)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_cor34_simplification_consistency(self, m):
        # The two forms are algebraically identical.  Both combine ~30-sized
        # zeta products into values as small as 6e-5 (m = 8), so binary64
        # limits the achievable agreement to ~1e-12 absolute / ~1e-10
        # relative (measured: 3.6e-15 absolute, 5.9e-11 relative at m = 8);
        # the tolerances reflect that cancellation floor.
        pre, post = _cor34_unsimplified(m), rhs_cor_34(m)
        assert abs(pre - post) <= 1e-12
        assert abs(pre - post) / abs(post) <= 1e-9

    def test_cor36_values(self):
        # p=1, m=0 reduces to -4 (four times the unit-sum example value)
        assert_close(rhs_cor_36(1.0, 0), -4.0, 1e-12)
        assert_close(rhs_cor_36(2.0, 0), -32.0 / 9.0, 1e-12)
        want = -math.pi * (4.0 * LN2**2 - math.pi**2 / 6.0)
        assert_close(rhs_cor_36(0.5, 1), want, 1e-11)

    @pytest.mark.parametrize("p", [0.5, 1.5, 2.0])
    def test_cor36_order_one_psi_form(self, p):
        # the m=1 closed form written out in psi functions
        want = -(
            math.gamma(0.5) * math.gamma(p) / math.gamma(p + 0.5)
            * ((digamma(p) - digamma(p + 0.5)) * (digamma(0.5) - digamma(p + 0.5))
               - polygamma(1, p + 0.5))
        )
        assert_close(rhs_cor_36(p, 1), want, 1e-11)

    def test_cor38_values(self):
        assert_close(rhs_cor_38(1.0, 0), 1.0, 1e-13)
        assert_close(rhs_cor_38(0.5, 3), REFS[("cor38", 0.5, 3)], 1e-12)

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_cor38_zeta_tail_consistency(self, m):
        # at p = 1 the psi series collapses to m+1 - sum zeta(k+1)
        want = m + 1.0 - math.fsum(riemann_zeta(k + 1.0) for k in range(1, m + 1))
        assert_close(rhs_cor_38(1.0, m), want, 1e-12)

    def test_thm39_and_cor310(self):
        assert_close(rhs_thm_39(1.0, 0, 0), 1.0, 1e-12)
        assert_close(rhs_cor_310(1.0, 0), 1.0, 1e-13)
        assert_close(rhs_cor_310(1.0, 1), 3.0 - ZETA2 - ZETA3, 1e-13)
        assert_close(rhs_cor_310(0.5, 0), REFS[("cor310", 0.5, 0)], 1e-13)

    def test_thm311_and_cor312(self):
        assert_close(rhs_thm_311(1.0, 0, 1), 2.0, 1e-12)
        assert_close(rhs_cor_312(1.0, 1), 2.0, 1e-13)

    def test_domain_guards(self):
        for fn, args in (
            (rhs_thm_e15, (1.0, 0)),
            (rhs_cor_32, (1,)),
            (rhs_thm_311, (1.0, 0, 0)),
            (rhs_cor_310, (0.0, 1)),
            (rhs_cor_38, (0.0, 1)),
            (rhs_cor_38, (-1.0, 1)),
            (rhs_cor_38, (-1.5, 1)),
            (rhs_cor_36, (-1.0, 0)),
        ):
            with pytest.raises(DomainError):
                fn(*args)
        for fn, args in (
            # p out of the domain the series have
            (rhs_thm_37, (0.0, 1, 2)), (rhs_thm_39, (0.0, 1, 2)), (rhs_thm_311, (0.0, 1, 2)),
            (rhs_thm_311, (-2.0, 3, 1)),
            # a power of p that underflows to zero
            (rhs_cor_38, (1e-300, 2)), (rhs_cor_310, (1e-200, 3)), (rhs_cor_312, (1e-200, 3)),
            (rhs_thm_37, (1e-300, 1, 3)), (rhs_thm_39, (1e-300, 1, 3)),
            (rhs_thm_311, (1e-300, 1, 3)),
            # and one that overflows
            (rhs_cor_38, (1e200, 2)), (rhs_thm_37, (1e200, 1, 2)), (rhs_cor_310, (1e200, 2)),
        ):
            with pytest.raises(DomainError, match=r"\bp\b"):
                fn(*args)

    @pytest.mark.parametrize("fn, args", [
        (rhs_thm_e15, (2.5,)), (rhs_thm_t25, (3,)), (rhs_thm_31, (3,)), (rhs_thm_33, (3,)),
        (rhs_thm_35, (2.5, 1.0)), (rhs_thm_37, (1.0, 3)), (rhs_thm_39, (1.0, 3)),
        (rhs_thm_311, (1.0, 3))])
    def test_jet_forms_name_m_past_the_last_jet_order(self, fn, args):
        # each reads z-order m of a gamma-ratio jet, which keeps orders up to
        # MAX_OZ = 12; THM_V4_311 reads z-order m - 1
        last = 13 if fn is rhs_thm_311 else 12
        assert math.isfinite(fn(*args, last))
        with pytest.raises(DomainError, match=r"\bm\b"):
            fn(*args, last + 1)


class TestDegeneracyChains:
    """n = 0 / x = 0 reductions across the (p, m) grid, 1e-10 relative."""

    @pytest.mark.parametrize("p", P_GRID)
    @pytest.mark.parametrize("m", range(0, 5))
    def test_thm37_reduces_to_cor38(self, p, m):
        assert_close(rhs_thm_37(p, 0, m), rhs_cor_38(p, m), 1e-10)

    @pytest.mark.parametrize("p", P_GRID)
    @pytest.mark.parametrize("m", range(0, 5))
    def test_thm39_reduces_to_cor310(self, p, m):
        assert_close(rhs_thm_39(p, 0, m), rhs_cor_310(p, m), 1e-10)

    @pytest.mark.parametrize("p", P_GRID)
    @pytest.mark.parametrize("m", range(1, 6))
    def test_thm311_reduces_to_cor312(self, p, m):
        assert_close(rhs_thm_311(p, 0, m), rhs_cor_312(p, m), 1e-10)

    @pytest.mark.parametrize("m", range(1, 6))
    def test_thm31_reduces_to_cor32(self, m):
        assert_close(rhs_thm_31(0, m), rhs_cor_32(m + 1) / 2.0, 1e-10)

    @pytest.mark.parametrize("m", range(1, 6))
    def test_thm33_reduces_to_cor34(self, m):
        assert_close(rhs_thm_33(0, m), rhs_cor_34(m), 1e-10)

    @pytest.mark.parametrize("p", P_GRID)
    @pytest.mark.parametrize("m", range(0, 5))
    def test_thm35_x_zero_power(self, p, m):
        assert_close(rhs_thm_35(0.0, p, m), p ** -(m + 1), 1e-10)


class TestVerifyHarness:
    def test_euler_identity_passes_tight(self):
        rep = verify(IdentityId.THM_V1_31, {"n": 0, "m": 1}, 1e-9)
        assert rep.passed
        assert_close(rep.lhs, ZETA3, 1e-9)
        assert_close(rep.rhs, ZETA3, 1e-9)

    def test_goldbach_passes_very_tight(self):
        rep = verify(IdentityId.EX3_GOLDBACH, {"form": "zeta-tail", "m": 0}, 1e-11)
        assert rep.passed
        assert rep.lhs == pytest.approx(1.0, abs=1e-11)

    def test_variant2_grid_point(self):
        rep = verify(IdentityId.THM_V2_33, {"n": 2, "m": 2}, 1e-7)
        assert rep.passed

    def test_zero_sides_pass(self):
        rep = verify(IdentityId.THM_BASE_E15, {"x": 0.0, "m": 2}, 1e-14)
        assert rep.passed
        assert rep.lhs == rep.rhs == 0.0
        assert rep.rel_err == 0.0

    def test_tiny_wrong_rhs_fails(self):
        # |rhs| < 1e-12 and 79% off the series: no absolute-error pass
        rep = verify(IdentityId.THM_V2_33, {"n": 10, "m": 10}, 1e-7)
        assert abs(rep.rhs) < 1e-12 and rep.rel_err > 0.5
        assert rep.converged and not rep.passed

    def test_report_fields_consistent(self):
        rep = verify(IdentityId.COR_38, {"p": 1.5, "m": 1}, 1e-7)
        assert rep.abs_err == abs(rep.lhs - rep.rhs)
        assert rep.rel_err == rep.abs_err / max(abs(rep.lhs), abs(rep.rhs))
        assert rep.passed == (rep.rel_err <= 1e-7)
        assert rep.lhs_terms > 0 and rep.converged

    def test_unattainable_tolerance_fails(self):
        rep = verify(IdentityId.COR_38, {"p": 1.5, "m": 1}, 1e-30)
        assert not rep.passed

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        with pytest.raises(DomainError, match="tol must be finite and > 0"):
            verify(IdentityId.COR_38, {"p": 1.5, "m": 1}, tol)


class TestRegistry:
    def test_one_row_per_identity_in_order(self):
        assert list(REGISTRY) == list(IdentityId)

    @pytest.mark.parametrize("ident", list(IdentityId))
    def test_missing_or_unknown_param_is_domain_error(self, ident):
        point = REGISTRY[ident].grid[0]
        for name in point:
            dropped = {k: v for k, v in point.items() if k != name}
            if ident.value.startswith("EX"):
                # a worked example fixes a default for each of its parameters,
                # and its first grid point is those defaults
                assert verify(ident, dropped, 1e-7).params == point
            else:
                with pytest.raises(DomainError, match=f"missing '{name}'"):
                    verify(ident, dropped, 1e-7)
        foreign = next(k for k in ("x", "n", "p", "m") if k not in point)
        with pytest.raises(DomainError, match=f"unknown '{foreign}'"):
            verify(ident, {**point, foreign: 1}, 1e-7)

    def test_unknown_sub_form(self):
        with pytest.raises(DomainError, match="expected one of zeta-tail/psi-series/power-series"):
            verify(IdentityId.EX3_GOLDBACH, {"form": "nope"}, 1e-7)


def _reference_bind(row, ident, params):
    """Identity.bind as it was written before its set-difference check: the
    declared parameters read from the signature, every bad name listed."""
    sides, full = row.sides, {}
    if row.selector is not None:
        choice = params.get(row.selector, next(iter(row.sides)))
        if choice not in row.sides:
            raise DomainError(f"unknown {ident.value} {row.selector} {choice!r}; "
                              f"expected one of {'/'.join(row.sides)}")
        sides, full = row.sides[choice], {row.selector: choice}
    declared = {p.name: p.default for p in inspect.signature(sides).parameters.values()}
    none = inspect.Parameter.empty
    bad = [f"missing {name!r}" for name, d in declared.items() if d is none and name not in params]
    bad += [f"unknown {name!r}" for name in params
            if name not in declared and name != row.selector]
    if bad:
        raise DomainError(f"{ident.value} params={row.signature}: {', '.join(bad)}")
    full.update((name, d) for name, d in declared.items() if d is not none)
    return sides, {**full, **params}


def _bind_outcome(fn, ident, params):
    """(sides, the completed parameters as ordered pairs), or the error's text."""
    try:
        sides, full = fn(REGISTRY[ident], ident, dict(params))
    except DomainError as exc:
        return str(exc)
    return sides, list(full.items())


_SELECTOR_POINTS = [
    (IdentityId.EX1_AUYEUNG, {}), (IdentityId.EX1_AUYEUNG, {"which": "linear"}),
    (IdentityId.EX2_CENTRAL, {}), (IdentityId.EX2_CENTRAL, {"which": "half"}),
    (IdentityId.EX3_GOLDBACH, {}), (IdentityId.EX3_GOLDBACH, {"m": 2}),
    (IdentityId.EX3_GOLDBACH, {"form": "psi-series"}),
    (IdentityId.EX3_GOLDBACH, {"p": 0.3, "form": "psi-series"}),
    (IdentityId.EX3_GOLDBACH, {"form": "power-series"}),
    (IdentityId.EX3_GOLDBACH, {"m": 2, "form": "power-series"}),
    (IdentityId.EX4_HALF, {}), (IdentityId.EX4_HALF, {"m": 1}),
]

_BAD_POINTS = [
    (IdentityId.THM_V4_311, {"p": 1.0}),
    (IdentityId.THM_V4_311, {"q": 1, "p": 1.0, "n": 1, "m": 1, "x": 2.0}),
    (IdentityId.THM_V4_311, {"x": 2.0, "m": 1}),
    (IdentityId.EX1_AUYEUNG, {"which": "cubic"}),
    (IdentityId.EX1_AUYEUNG, {"which": "linear", "m": 2}),
    (IdentityId.EX3_GOLDBACH, {"form": "zeta-tail", "p": 0.5}),
    (IdentityId.EX4_HALF, {"form": "zeta-tail"}),
    (IdentityId.COR_EULER_32, {"which": "linear"}),
]


class TestBind:
    """Identity.bind gives what it gave when it read the signature on every
    call: the same function, the same parameters in the same key order, and
    the same error text."""

    def test_every_grid_point(self):
        for ident, params in default_grid():
            assert (_bind_outcome(Identity.bind, ident, params)
                    == _bind_outcome(_reference_bind, ident, params)), (ident, params)

    @pytest.mark.parametrize("ident, params", _SELECTOR_POINTS + _BAD_POINTS)
    def test_selectors_defaults_and_errors(self, ident, params):
        assert (_bind_outcome(Identity.bind, ident, params)
                == _bind_outcome(_reference_bind, ident, params))

    def test_key_order(self):
        # the selector first, then the defaults in declared order, then the rest
        _, full = REGISTRY[IdentityId.EX3_GOLDBACH].bind(
            IdentityId.EX3_GOLDBACH, {"m": 2, "form": "power-series"})
        assert list(full.items()) == [("form", "power-series"), ("p", 0.4), ("m", 2)]
        _, full = REGISTRY[IdentityId.EX3_GOLDBACH].bind(IdentityId.EX3_GOLDBACH, {"m": 2})
        assert list(full.items()) == [("form", "zeta-tail"), ("m", 2)]
        _, full = REGISTRY[IdentityId.THM_V4_311].bind(
            IdentityId.THM_V4_311, {"m": 1, "n": 0, "p": 0.5})
        assert list(full.items()) == [("m", 1), ("n", 0), ("p", 0.5)]

    def test_messages(self):
        def text(ident, params):
            return _bind_outcome(Identity.bind, ident, params)

        sig = REGISTRY[IdentityId.THM_V4_311].signature
        assert text(IdentityId.THM_V4_311, {"p": 1.0}) == (
            f"THM_V4_311 params={sig}: missing 'n', missing 'm'")
        assert text(IdentityId.THM_V4_311, {"x": 2.0, "m": 1}) == (
            f"THM_V4_311 params={sig}: missing 'p', missing 'n', unknown 'x'")
        assert text(IdentityId.EX1_AUYEUNG, {"which": "cubic"}) == (
            "unknown EX1_AUYEUNG which 'cubic'; expected one of quadratic/linear/difference")

    @pytest.mark.parametrize("ident", list(IdentityId))
    def test_declared_reads_what_the_signature_gives(self, ident):
        """_declared reads each function's code and defaults, not
        inspect.signature: for every row and sub-form, the same names without
        a default, the same (name, default) pairs and the same names, in
        declared order."""
        row = REGISTRY[ident]
        for sides in row.sides.values() if row.selector else [row.sides]:
            declared = list(inspect.signature(sides).parameters.values())
            none = inspect.Parameter.empty
            required, defaults, names = _declared(sides)
            assert required == frozenset(p.name for p in declared if p.default is none)
            assert defaults == tuple((p.name, p.default) for p in declared if p.default is not none)
            assert list(names) == [p.name for p in declared]

    def test_verify_reports_the_bound_parameters(self):
        rep = verify(IdentityId.EX3_GOLDBACH, {"m": 1, "form": "power-series"}, 1e-7)
        assert list(rep.params.items()) == [("form", "power-series"), ("p", 0.4), ("m", 1)]


def test_reports_share_no_extra_dict():
    """A report built without `extra` gets an empty read-only mapping, so no
    report can change another's; verify gives each report its own dict."""
    fields = (IdentityId.COR_34, {"m": 1}, 1.0, 1.0, 0.0, 0.0, True, 1000)
    first, second = VerifyReport(*fields), VerifyReport(*fields)
    assert first.extra == {} and first.converged is True
    with pytest.raises(TypeError):
        first.extra["note"] = 1
    assert second.extra == {}
    reports = [verify(IdentityId.COR_34, {"m": 1}, 1e-7) for _ in range(2)]
    assert reports[0].extra == {} and reports[0].extra is not reports[1].extra


def _example_reports(cfg: EvalConfig = EvalConfig()) -> list:
    """verify at tol 1e-8 over the grid points of the worked-example rows."""
    return [verify(ident, params, 1e-8, cfg) for ident, params in default_grid()
            if ident.value.startswith("EX")]


class TestExampleSuite:
    def test_all_pass_and_ex4_flagged(self):
        reports = _example_reports()
        assert len(reports) >= 13
        for rep in reports:
            assert rep.passed, f"{rep.id} {rep.params}: rel_err={rep.rel_err}"
        ex4 = [r for r in reports if r.id is IdentityId.EX4_HALF]
        assert len(ex4) == 2
        for rep in ex4:
            # harness must surface the published form's mismatch, not hide it
            assert "stated_zeta_form" in rep.extra
            assert rep.extra["stated_matches"] is False

    def test_judged_by_the_given_config(self):
        strict = EvalConfig(rel_tol=1e-30)
        reports = _example_reports(strict)
        want = []
        for r in reports:
            row = REGISTRY[r.id]
            sides, full = row.bind(r.id, r.params)
            series, _ = sides(**{k: v for k, v in full.items() if k != row.selector})
            want.append(strict.converged(series))
        assert [r.converged for r in reports] == want
        assert not all(want)

    def test_auyeung_values(self):
        rep = verify(IdentityId.EX1_AUYEUNG, {"which": "quadratic"}, 1e-8)
        assert rep.passed
        assert_close(rep.rhs, 17.0 / 4.0 * ZETA4, 1e-15)

    def test_ex4_stated_form_is_off_by_scaling(self):
        # the stated leading term lacks (-1/2)^-(m+1); at m = 0 even the sign flips
        lhs = REFS[("cor310", -0.5, 0)]
        stated = ex4_stated_zeta_form(0)
        assert stated < 0.0 < lhs
        assert_close(-2.0 * stated, lhs, 1e-12)


def _exact_h(n, order):
    return sum((Fraction(1, k**order) for k in range(1, n + 1)), Fraction(0))


def _weight(expr):
    """n -> the weight k -> expr(h, h2, n, k), on the harmonic-number tuples
    h = _harmonics(n, 1) and h2 = _harmonics(n, 2) the closed forms read."""
    return lambda n: functools.partial(expr, _harmonics(n, 1), _harmonics(n, 2), n)


# The finite sums' weights are P(n) - P(n - k) for a polynomial P in harmonic
# numbers; `parts` lists P's terms, on floats or on exact Fractions.  Each
# weight is (n -> its float value as the closed forms write it, the sign it
# puts on P(n) - P(n - k), the parts of P).
_WEIGHTS = {
    "order 1": (_weight(lambda h, h2, n, k: h[n] - h[n - k]), 1, lambda h1, h2, h3: [h1]),
    "order 2": (_weight(lambda h, h2, n, k: h[n] ** 2 + h2[n] - h[n - k] ** 2 - h2[n - k]), 1,
                lambda h1, h2, h3: [h1**2, h2]),
    "order 2, reversed": (_weight(lambda h, h2, n, k: h[n - k] ** 2 + h2[n - k] - h2[n] - h[n] ** 2),
                          -1, lambda h1, h2, h3: [h1**2, h2]),
    "order 3": (_cubic_weight, 1, lambda h1, h2, h3: [h1**3, 2 * h3, 3 * h1 * h2]),
}


class TestFiniteSum:
    """_finite_sum against exact rationals, within a running error bound."""

    @pytest.mark.parametrize("name", _WEIGHTS)
    @pytest.mark.parametrize("shift", [None, 0.5, 1.0, 2.5])
    def test_within_running_error_bound(self, name, shift):
        weight_of, sign, parts = _WEIGHTS[name]
        u = 2.0**-53
        for n in range(11):
            weight = weight_of(n)
            exact_p = {j: parts(*(_exact_h(j, r) for r in (1, 2, 3))) for j in range(n + 1)}
            float_p = {j: parts(*(float(_exact_h(j, r)) for r in (1, 2, 3))) for j in range(n + 1)}
            for m in (1, 4):
                if shift is None:  # sum_{k=1}^n (-1)^k C(n,k) w(k) / k^m
                    lo, e, base_roundings = 1, m, 0
                    power, exact_power = (lambda k: float(k) ** m), (lambda k: Fraction(k) ** m)
                else:  # sum_{k=0}^n (-1)^k C(n,k) w(k) / (p + k)^(m+1)
                    lo, e, base_roundings = 0, m + 1, 1
                    power = lambda k: (shift + k) ** (m + 1)  # noqa: E731
                    exact_power = lambda k: (Fraction(shift) + k) ** (m + 1)  # noqa: E731
                got = _finite_sum(n, lo, 0.0 if shift is None else shift, e, weight)
                exact = sum((Fraction((-1) ** k * math.comb(n, k) * sign)
                             * (sum(exact_p[n]) - sum(exact_p[n - k])) / exact_power(k)
                             for k in range(lo, n + 1)), Fraction(0))
                # Each harmonic number is within 3 u of its value and each part
                # of P within 8 u, so with the additions that join the parts a
                # weight is within 16 u of the sum of its parts' absolute
                # values, A.  The term then takes the pow (2 u), its rounded
                # base raised to the power e, the / and the *.
                bound = 0.0
                for k in range(lo, n + 1):
                    a = math.fsum(abs(v) for v in float_p[n] + float_p[n - k])
                    scale = math.comb(n, k) / abs(power(k))
                    bound += scale * (16.0 * a + (4.0 + base_roundings * e) * abs(weight(k)))
                bound = u * (bound + abs(got))
                assert abs(Fraction(got) - exact) <= Fraction(bound), (n, m)


# The zeta polynomials as they were written before each took its zeta values
# once per call, nested calls to riemann_zeta and all.
def _nested_cor_32(m):
    return m * riemann_zeta(m + 1.0) - math.fsum(
        riemann_zeta(k + 1.0) * riemann_zeta(float(m - k)) for k in range(1, m - 1))


def _nested_double_sum(m):
    return math.fsum(
        (m - l) * riemann_zeta(float(m - l + 1))
        * math.fsum(riemann_zeta(j + 1.0) * riemann_zeta(float(l - j + 1)) for j in range(1, l))
        for l in range(1, m)
    ) / m if m > 1 else 0.0


def _nested_cor_34(m):
    out = (m + 1) * (m + 2) / 3.0 * riemann_zeta(m + 3.0)
    out -= math.fsum(
        (j + 1) * riemann_zeta(j + 2.0) * riemann_zeta(float(m + 1 - j)) for j in range(1, m))
    out += _nested_double_sum(m)
    return out


def _nested_cor_34a(m):
    out = (m + 2) * (m + 4) / 3.0 * riemann_zeta(m + 3.0) - ZETA2 * riemann_zeta(m + 1.0)
    out -= 2.0 * math.fsum(
        riemann_zeta(j + 1.0) * riemann_zeta(float(m + 2 - j)) for j in range(2, m + 1))
    out -= math.fsum(
        j * riemann_zeta(j + 2.0) * riemann_zeta(float(m + 1 - j)) for j in range(1, m))
    out += _nested_double_sum(m)
    return out


def _nested_ex4(m):
    out = 2.0 * LN2**2 - ZETA2
    tail = 0.0
    for l in range(1, m + 1):
        brace = ((l + 1) * (1.0 - 2.0 ** (l + 2)) * riemann_zeta(l + 2.0)
                 + 4.0 * LN2 * (2.0 ** (l + 1) - 1.0) * riemann_zeta(l + 1.0)
                 + math.fsum(
                     (2.0 ** (j + 1) - 1.0) * (2.0 ** (l - j + 1) - 1.0)
                     * riemann_zeta(j + 1.0) * riemann_zeta(float(l - j + 1))
                     for j in range(1, l)))
        tail += (-1.0) ** l * 2.0**-l * brace
    return out + (-1.0) ** (m + 1) * 2.0**m * tail


class TestBitForBitRewrites:
    """Closed forms rewritten for speed give the bits of their earlier forms."""

    @pytest.mark.parametrize("new, old, least", [
        (rhs_cor_32, _nested_cor_32, 2), (rhs_cor_34, _nested_cor_34, 1),
        (rhs_cor_34a, _nested_cor_34a, 1), (ex4_stated_zeta_form, _nested_ex4, 0)])
    def test_zeta_values_once_per_call(self, new, old, least):
        for m in range(least, 41):
            assert new(m).hex() == old(m).hex(), m

    def test_zetas(self):
        for top in (1, 4, 9):
            z = _zetas(top)
            assert len(z) == max(top, 4) + 1 and math.isnan(z[0]) and math.isnan(z[1])
            assert z[2:] == [riemann_zeta(float(s)) for s in range(2, len(z))]

    def test_finite_sum_against_the_callable_form(self):
        def callable_form(n, lo, power, weight):
            return math.fsum((1.0 if k % 2 == 0 else -1.0) / power(k) * math.comb(n, k) * weight(k)
                             for k in range(lo, n + 1))

        for n in range(13):
            h, h2, h3 = _harmonics(n, 1), _harmonics(n, 2), _harmonics(n, 3)
            cubic = _cubic_weight(n)
            written_out = (lambda k: h[n] ** 3 + 2 * h3[n] + 3 * h[n] * h2[n]  # noqa: E731
                           - h[n - k] ** 3 - 2 * h3[n - k] - 3 * h[n - k] * h2[n - k])
            assert [cubic(k).hex() for k in range(n + 1)] == [written_out(k).hex()
                                                             for k in range(n + 1)]
            for e in (1, 2, 5, 11):
                got = _finite_sum(n, 1, 0.0, e, cubic)
                assert got.hex() == callable_form(n, 1, lambda k: float(k) ** e, written_out).hex()
                for c in (0.5, 1.0, 2.5, 0.1):
                    got = _finite_sum(n, 0, c, e, cubic)
                    want = callable_form(n, 0, lambda k: (c + k) ** e, written_out)
                    assert got.hex() == want.hex(), (n, e, c)
