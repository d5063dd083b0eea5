"""One parameter contract for the whole public API.

Every function eulersums exports, and bernoulli_poly, harmonic_lp and
psi_derivatives, refuse a bad argument the same way, through
special.check_int and special.check_above:
- an order or index given as an integral float (2.0) gives the int call's
  bits;
- an order that is negative, non-integral, not finite or past its most is a
  DomainError naming it;
- a real that is not finite, or not above its bound, is a DomainError
  naming it;
- a memo table keeps none of those errors, so each is raised on every call.

The rhs_* closed forms are held to the same contract by the
test_right_sides_* tests in test_jets.py.  mixed_partial is exempt: it reads
orders its callers have checked (see its docstring).
"""

import inspect
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import eulersums
from eulersums import identities, special
from eulersums.asymptotics import LogPowerSeries, harmonic_lp, recip_power_shift
from eulersums.identities import IdentityId
from eulersums.jets import RatioVariant, psi_derivatives
from eulersums.special import DomainError, bernoulli_poly

INF = math.inf

# name -> (function, a valid call's arguments, the orders with their
# (least, most), the reals with (the name their message gives, their bound)).
CONTRACT = {
    "bernoulli_poly": (bernoulli_poly, {"n": 5, "a": 0.3}, {"n": (0, 25)}, {}),
    "default_grid": (identities.default_grid, {}, {}, {}),
    "digamma": (special.digamma, {"x": 2.5}, {}, {"x": ("x", -INF)}),
    "em_tail": (eulersums.em_tail, {"model": recip_power_shift(0.5, 2.0, 6), "K": 1000},
                {"K": (0, INF)}, {}),
    "EvalConfig": (eulersums.EvalConfig, {"rel_tol": 1e-10}, {}, {"rel_tol": ("rel_tol", 0.0)}),
    "gamma_ratio_jet": (eulersums.gamma_ratio_jet,
                        {"variant": RatioVariant.BETA_SHIFT1, "x0": 1.0, "z0": 1.5},
                        {}, {"x0": ("x0+1", -1.0), "z0": ("z0", 0.0)}),
    "gen_harmonic": (special.gen_harmonic, {"n": 3, "m": 2}, {"n": (0, INF), "m": (1, INF)}, {}),
    "harmonic_lp": (harmonic_lp, {"m": 2, "depth": 8, "prev": False}, {"m": (1, INF)}, {}),
    "hurwitz_zeta": (special.hurwitz_zeta, {"s": 2.5, "a": 0.5}, {},
                     {"s": ("s", 1.0), "a": ("a", 0.0)}),
    # a coefficient list has no domain
    "jet_exp": (eulersums.jet_exp, {"c": (0.1, 0.2, 0.3)}, {}, {}),
    "lhs_alt": (eulersums.lhs_alt, {"n": 1, "m": 2}, {"n": (0, INF), "m": (1, INF)}, {}),
    "lhs_base_binomial": (eulersums.lhs_base_binomial, {"x": 2.5, "m": 2}, {"m": (1, INF)},
                          {"x": ("x", -1.0)}),
    "lhs_binomial_shifted": (eulersums.lhs_binomial_shifted, {"x": 2.5, "p": 0.5, "m": 1},
                             {"m": (0, INF)}, {"x": ("x", -1.0), "p": ("p", 0.0)}),
    "lhs_central_binom": (eulersums.lhs_central_binom, {"p": 0.5, "m": 1}, {"m": (0, INF)},
                          {"p": ("p", 0.0)}),
    "lhs_linear_euler": (eulersums.lhs_linear_euler, {"p": 2, "q": 3},
                         {"p": (1, INF), "q": (2, INF)}, {}),
    "lhs_quadratic_euler": (eulersums.lhs_quadratic_euler, {"q": 3}, {"q": (2, INF)}, {}),
    "lhs_variant1": (eulersums.lhs_variant1, {"n": 1, "m": 2}, {"n": (0, INF), "m": (1, INF)}, {}),
    "lhs_variant2": (eulersums.lhs_variant2, {"n": 1, "m": 2}, {"n": (0, INF), "m": (1, INF)}, {}),
    "lhs_variant3": (eulersums.lhs_variant3, {"p": 0.5, "n": 1, "m": 1},
                     {"n": (0, INF), "m": (0, INF)}, {"p": ("p", -1.0)}),
    "lhs_variant3h": (eulersums.lhs_variant3h, {"p": 0.5, "n": 1, "m": 1},
                      {"n": (0, INF), "m": (0, INF)}, {"p": ("p", -1.0)}),
    "lhs_variant4": (eulersums.lhs_variant4, {"p": 0.5, "n": 1, "m": 1},
                     {"n": (0, INF), "m": (1, INF)}, {"p": ("p", -1.0)}),
    "ln_gamma_jet": (eulersums.ln_gamma_jet, {"a": 2.5, "order": 4}, {"order": (0, INF)},
                     {"a": ("a", 0.0)}),
    "polygamma": (special.polygamma, {"k": 2, "x": 2.5}, {"k": (1, INF)}, {"x": ("x", -INF)}),
    "psi_derivatives": (psi_derivatives, {"a": 2.5, "top": 4}, {"top": (0, INF)},
                        {"a": ("a", -INF)}),
    "riemann_zeta": (special.riemann_zeta, {"s": 2.5}, {}, {"s": ("s", 1.0)}),
    "verify": (identities.verify, {"ident": IdentityId.COR_38, "params": {"p": 1.5, "m": 1},
                                   "tol": 1e-7, "cfg": identities.DEFAULT_CONFIG},
               {}, {"tol": ("tol", 0.0)}),
}


def _exported():
    """The functions eulersums exports, memoized ones included, and the
    class whose constructor checks an argument."""
    return {name for name, obj in vars(eulersums).items()
            if callable(obj) and not inspect.isclass(obj) or obj is eulersums.EvalConfig}


def test_the_contract_covers_the_public_api():
    rhs = {name for name in _exported() if name.startswith("rhs_")}
    assert _exported() - rhs - {"mixed_partial"} | {
        "bernoulli_poly", "harmonic_lp", "psi_derivatives"} == set(CONTRACT)
    for name, (fn, valid, _, _) in CONTRACT.items():
        assert list(inspect.signature(fn).parameters) == list(valid), name


def _bits(v):
    """v with every float as its hex, recursively."""
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, (tuple, list)):
        return [_bits(u) for u in v]
    if isinstance(v, LogPowerSeries):
        return [_bits(v.s0), v.depth, _bits(v.rows)]
    return v


def _bad_orders(least, most):
    bad = [least - 1, float(least - 1), least + 0.5, math.nan, INF, -INF]
    return bad + ([most + 1, float(most + 1)] if most < INF else [])


def _bad_reals(bound):
    return [math.nan, INF, -INF] + ([bound, bound - 1.0] if bound > -INF else [])


_ORDERS = [(name, key) for name, row in CONTRACT.items() for key in row[2]]
_REALS = [(name, key) for name, row in CONTRACT.items() for key in row[3]]


@pytest.mark.parametrize("name, key", _ORDERS, ids=[f"{n}-{k}" for n, k in _ORDERS])
def test_an_integral_float_order_gives_the_int_bits(name, key):
    fn, valid, orders, _ = CONTRACT[name]
    want = _bits(fn(**valid))
    assert _bits(fn(**{**valid, key: float(valid[key])})) == want
    assert _bits(fn(**{**valid, **{k: float(valid[k]) for k in orders}})) == want


@pytest.mark.parametrize("name, key", _ORDERS, ids=[f"{n}-{k}" for n, k in _ORDERS])
def test_a_bad_order_is_named_on_every_call(name, key):
    fn, valid, orders, _ = CONTRACT[name]
    special.clear_memos()
    for v in _bad_orders(*orders[key]):
        for _ in range(2):
            with pytest.raises(DomainError, match=f"^{key} must be "):
                fn(**{**valid, key: v})
    assert all(table.cache_info().currsize == 0 for table in special._MEMOS)


@pytest.mark.parametrize("name, key", _REALS, ids=[f"{n}-{k}" for n, k in _REALS])
def test_a_bad_real_is_named_on_every_call(name, key):
    fn, valid, _, reals = CONTRACT[name]
    named, bound = reals[key]
    special.clear_memos()
    for v in _bad_reals(bound):
        for _ in range(2):
            with pytest.raises(DomainError, match=f"^{re.escape(named)} must be finite and > "):
                fn(**{**valid, key: v})
    assert all(table.cache_info().currsize == 0 for table in special._MEMOS)


# Calls that returned a value (nan, or H_3 for gen_harmonic(3, nan)) or
# raised an error naming a jet's base point instead of the parameter.
_ONCE_ACCEPTED = [(special.digamma, (math.nan,), "x"), (special.polygamma, (2, math.nan), "x"),
                  (special.gen_harmonic, (3, math.nan), "m"),
                  (identities.rhs_thm_35, (0.5, -1.0, 1), "p")]


@pytest.mark.parametrize("fn, args, key", _ONCE_ACCEPTED)
def test_a_call_once_accepted_is_refused_by_name(fn, args, key):
    with pytest.raises(DomainError, match=f"^{key} must be "):
        fn(*args)


# Calls whose integral float order raised TypeError, with the int call.
_FLOAT_ORDERS = [
    (special.gen_harmonic, (3.0, 2), (3, 2)), (special.polygamma, (2.0, 2.0), (2, 2.0)),
    (bernoulli_poly, (2.0, 0.3), (2, 0.3)), (harmonic_lp, (2.0, 8), (2, 8)),
    (eulersums.ln_gamma_jet, (2.0, 2.0), (2.0, 2)), (psi_derivatives, (2.0, 2.0), (2.0, 2))]


@pytest.mark.parametrize("fn, args, want", _FLOAT_ORDERS)
def test_a_float_order_once_a_type_error_gives_the_int_bits(fn, args, want):
    assert _bits(fn(*args)) == _bits(fn(*want))


_MINUS_INF = """
import math, time
from eulersums import DomainError, digamma, polygamma
for call in (lambda: digamma(-math.inf), lambda: polygamma(1, -math.inf)):
    t0 = time.perf_counter()
    try:
        call()
    except DomainError as exc:
        print(f"{time.perf_counter() - t0:.3f} {exc}")
"""


def test_minus_infinity_is_refused_at_once():
    """digamma and polygamma once ran their upward recurrence from -inf,
    which never ends; each call runs in a process that a timeout ends."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", _MINUS_INF], capture_output=True, text=True,
                         env=env, timeout=60, check=True).stdout.splitlines()
    assert len(out) == 2
    for line in out:
        seconds, message = line.split(" ", 1)
        assert float(seconds) < 1.0
        assert message == "x must be finite and > -inf, got -inf"
