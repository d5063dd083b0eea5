"""The split-at-K oracles: tail model against the term it expands, values
against 30-digit references, and the default grid's LHS bits.

Every oracle that ends in em_tail sums its first K terms exactly and hands a
LogPowerSeries for the rest, both built from one list of series factors.
Here the model captured on its way into em_tail is evaluated at t = K + 1 and
compared with that term computed directly by mpmath, and oracle_bits.json pins
every oracle's result bit for bit.
"""

import json
import math
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import mpmath as mp
import pytest

from eulersums import identities, series
from eulersums.series import K_CROSSOVER
from eulersums.summation import EvalConfig, em_tail

from conftest import tail_integral, truncation_bound

mp.mp.dps = 30
ULP = 2.0**-52
P_SET = (0.1, 0.5, 2.5, 20.0)
X_SET = (-0.9, -0.5, 0.5, 2.5, 7.5)
NM = range(11)


def _h(t, order=1):
    """H_t^(order) for t > 0, cached per working precision: mp.diff raises it
    and must not be handed a value computed at a lower one."""
    return _h_at(t, order, mp.mp.prec)


@lru_cache(maxsize=None)
def _h_at(t, order, prec):
    return mp.harmonic(t) if order == 1 else mp.zeta(order) - mp.zeta(order, t + 1)


def _inv_binom(n, t):
    return 1 / mp.binomial(n + t, t)


# oracle name -> (parameter tuples, exact term at integer t, without the sign
# an oracle puts in front of its whole series)
ORACLES = {
    "lhs_variant1": ([(n, m) for n in NM for m in NM if m >= 1],
                     lambda t, n, m: _h(t) * _inv_binom(n, t) / mp.mpf(n + t + 1) ** (m + 1)),
    "lhs_variant2": ([(n, m) for n in NM for m in NM if m >= 1],
                     lambda t, n, m: (_h(t) ** 2 - _h(t, 2)) * _inv_binom(n, t)
                     / mp.mpf(n + t + 1) ** (m + 1)),
    "lhs_alt": ([(n, m) for n in NM for m in NM if m >= 1],
                lambda t, n, m: _inv_binom(n, t) / mp.mpf(n + t + 1) ** (m + 1)),
    "lhs_variant3": ([(p, n, m) for p in P_SET for n in NM for m in NM],
                     lambda t, p, n, m: _inv_binom(n, t) / (t * (mp.mpf(p) + n + t) ** (m + 1))),
    # and at p = -1/2, n = 0, the half-shifted example EX4_HALF
    "lhs_variant3h": ([(p, n, m) for p in P_SET for n in NM for m in NM]
                      + [(-0.5, 0, m) for m in NM],
                      lambda t, p, n, m: _h(t - 1) * _inv_binom(n, t)
                      / (t * (mp.mpf(p) + n + t) ** (m + 1))),
    "lhs_variant4": ([(p, n, m) for p in P_SET for n in NM for m in NM if m >= 1],
                     lambda t, p, n, m: (_h(t - 1) ** 2 - _h(t - 1, 2)) * _inv_binom(n, t)
                     / (t * (mp.mpf(p) + n + t) ** m)),
    "lhs_central_binom": ([(p, m) for p in P_SET for m in NM],
                          lambda t, p, m: (_h(t) - 2 * _h(2 * t)) * mp.binomial(2 * t, t)
                          / mp.mpf(4) ** t / (mp.mpf(p) + t) ** (m + 1)),
    "lhs_linear_euler": ([(p, q) for p in range(1, 11) for q in range(2, 11)],
                         lambda t, p, q: _h(t, p) / mp.mpf(t) ** q),
    "lhs_quadratic_euler": ([(q,) for q in range(2, 11)],
                            lambda t, q: _h(t) ** 2 / mp.mpf(t) ** q),
    "quadratic_minus_linear": ([(q,) for q in range(2, 11)],
                               lambda t, q: (_h(t) ** 2 - _h(t, 2)) / mp.mpf(t) ** q),
    "lhs_base_binomial": ([(x, m) for x in X_SET for m in NM if m >= 1],
                          lambda t, x, m: (-1) ** t * mp.binomial(x, t) / mp.mpf(t) ** m),
    "lhs_binomial_shifted": ([(x, p, m) for x in X_SET for p in P_SET for m in NM],
                             lambda t, x, p, m: (-1) ** t * mp.binomial(x, t)
                             / (mp.mpf(p) + t) ** (m + 1)),
}


@pytest.fixture
def tail_models(monkeypatch):
    """Run an oracle and return the tail model it handed to em_tail."""
    seen = []

    def capture(model, K):
        seen.append(model)
        return 0.0, 0.0

    monkeypatch.setattr(series, "em_tail", capture)

    def run(name, *params):
        seen.clear()
        getattr(series, name)(*params)
        (model,) = seen
        return model

    return run


@pytest.mark.parametrize("name", ORACLES)
def test_tail_model_is_the_head_term(tail_models, name):
    params_list, exact_term = ORACLES[name]
    t = K_CROSSOVER + 1
    x = float(t)
    for params in params_list:
        model = tail_models(name, *params)
        want = float(exact_term(t, *params))
        # a few ulp of rounding, plus what the depth cut may leave out relative
        # to the tail: the bound em_tail itself reports
        depth_bound = truncation_bound(model, x) / abs(tail_integral(model, x))
        # exponents off the multiples of 1/2 (x + 1 + m at x = -0.9) are rounded,
        # each by up to 3 U times the last exponent s0 + depth, and t^-s moves
        # by that times ln t
        rounded = any((2 * s) % 1 for _a, s in model.terms)
        s_bound = 1.5 * ULP * (model.s0 + model.depth) * math.log(x) if rounded else 0.0
        assert abs(model(x) - want) <= (8 * ULP + depth_bound + s_bound) * abs(want), (name, params)


def test_every_tail_model_is_built_at_the_depth(tail_models):
    """Depth is the one truncation a tail model knows: every model a pinned
    oracle hands to em_tail keeps series._DEPTH orders past its leading one."""
    for name, (params_list, _) in ORACLES.items():
        for params in params_list:
            assert tail_models(name, *params).depth == series._DEPTH, (name, params)


@pytest.mark.parametrize("name", ORACLES)
def test_depth_argument(monkeypatch, name):
    """The argument for series._DEPTH, checked: at t = K + 1 the bound em_tail
    reports for the orders the tail model drops stays below 5 U |value|, the
    least head rounding bound, for every parameter set."""
    models = []

    def capture(model, K):
        models.append(model)
        return em_tail(model, K)

    monkeypatch.setattr(series, "em_tail", capture)
    for params in ORACLES[name][0]:
        models.clear()
        value = getattr(series, name)(*params).value
        (model,) = models
        assert truncation_bound(model, K_CROSSOVER + 1.0) <= 5 * series._U * abs(value), \
            (name, params)


FROM_ZERO = ("lhs_variant1", "lhs_variant2", "lhs_alt", "lhs_central_binom")


# past this many terms _reference hands the rest to Euler-Maclaurin
DIRECT_TERMS = 4000


def _reference(name, params):
    """30-digit sum of the oracle's unsigned series, stopped once the rest is
    out of reach: every extreme series decays at least like k^-11, so the
    terms after k add less than term_k * k / 10.  A series still short of
    that after DIRECT_TERMS terms gets the rest from _em_rest."""
    _, exact_term = ORACLES[name]
    k = 0 if name in FROM_ZERO else 1
    total = mp.mpf(0)
    while k < DIRECT_TERMS:
        term = exact_term(k, *params)
        total += term
        if k and abs(term) * k < mp.mpf(10) ** -22 * abs(total):
            return total
        k += 1
    return total + _em_rest(lambda t: exact_term(t, *params), k)


def _em_rest(f, n, order=8):
    """sum_{k>=n} f(k) for a term f smooth in real t, by Euler-Maclaurin in
    mpmath: the integral by quadrature and the derivatives by mp.diff, so
    nothing is shared with the oracles' log-power tail models.  At
    n = DIRECT_TERMS the first omitted correction is below the 30 digits."""
    out = mp.quad(f, [n, 2 * n, 8 * n, mp.inf]) + f(n) / 2
    for j in range(1, order + 1):
        out -= mp.bernoulli(2 * j) / mp.factorial(2 * j) * mp.diff(f, n, 2 * j - 1)
    return out


# (oracle, parameters, the sign the oracle puts in front of its series)
EXTREMES = [("lhs_variant1", (10, 10), 1), ("lhs_variant2", (10, 10), 1),
            ("lhs_alt", (10, 10), -1), ("lhs_variant3h", (-0.5, 0, 10), 1),
            ("lhs_linear_euler", (10, 10), 1), ("lhs_quadratic_euler", (10,), 1),
            ("quadratic_minus_linear", (10,), 1)]
EXTREMES += [(name, (p, 10, 10), 1) for name in ("lhs_variant3", "lhs_variant3h", "lhs_variant4")
             for p in (0.1, 20.0)]
EXTREMES += [("lhs_central_binom", (p, 10), 1) for p in (0.1, 20.0)]


@pytest.mark.parametrize("name, params, sign", EXTREMES)
def test_extreme_values_within_tail_estimate(name, params, sign):
    res = getattr(series, name)(*params)
    want = float(sign * _reference(name, params))
    assert EvalConfig().converged(res)
    assert abs(res.value - want) <= res.tail_estimate


# every EM oracle at m = 400 (q = 400 for the Euler sums), where the heads'
# powers overflow to inf, and its first nonzero term: the next one is smaller
# by (2/3)^400 or less
LARGE_M = [("lhs_variant1", (0, 400), 2.0**-401), ("lhs_variant2", (0, 400), 3.0**-401),
           ("lhs_alt", (0, 400), -1.0), ("lhs_variant3", (1.0, 0, 400), 2.0**-401),
           ("lhs_variant3h", (1.0, 0, 400), 0.5 * 3.0**-401),
           ("lhs_variant4", (1.0, 0, 400), 4.0**-400 / 3.0),
           ("lhs_central_binom", (1.0, 400), -(2.0**-401)),
           ("lhs_variant3h", (-0.5, 0, 400), 0.5 * 1.5**-401),
           ("lhs_linear_euler", (1, 400), 1.0),
           ("lhs_quadratic_euler", (400,), 1.0), ("quadratic_minus_linear", (400,), 2.0**-400),
           ("lhs_base_binomial", (0.5, 400), 0.5), ("lhs_binomial_shifted", (0.5, 1.0, 400), 1.0)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, params, want", LARGE_M)
def test_large_m_heads_overflow_quietly(name, params, want):
    res = getattr(series, name)(*params)
    assert EvalConfig().converged(res)
    assert res.value == pytest.approx(want, rel=1e-14)


def _beta_reference(name, params):
    """30 digits from the beta integral sum_{k>=0} (-1)^k binom(x,k)/(p+k) =
    B(p, x+1), differentiated in p by mpmath.  Its m-th derivative times
    (-1)^m/m! is the shifted series; removing the k = 0 term 1/p and letting
    p -> 0 leaves the base series as (-1)^m/m! times the m-th derivative of
    p B(p, x+1) = Gamma(p+1) Gamma(x+1) / Gamma(p+x+1) at p = 0."""
    if name == "lhs_base_binomial":
        x, m = params
        p, f = 0, lambda q: mp.gamma(q + 1) * mp.gamma(x + 1) / mp.gamma(q + x + 1)
    else:
        x, p, m = params
        f = lambda q: mp.beta(q, x + 1)
    return (-1) ** m * mp.diff(f, p, m) / mp.factorial(m)


# the two points that stopped at the 10^8-term cap before the binomial series
# had a tail model, and x = -0.99 and -0.999, whose terms fall like k^-1.01 and
# k^-1.001: there the rounding of the model's exponent moves the tail by more
# than the head's rounding, and the estimate must cover it
BINOMIAL_POINTS = [("lhs_base_binomial", (x, 1)) for x in (-0.5, -0.99, -0.999)]
BINOMIAL_POINTS += [("lhs_binomial_shifted", (x, 1.0, 0)) for x in (-0.5, -0.99, -0.999)]


@pytest.mark.parametrize("name, params", BINOMIAL_POINTS)
def test_binomial_values_within_tail_estimate(name, params):
    res = getattr(series, name)(*params)
    assert EvalConfig().converged(res)
    assert abs(res.value - float(_beta_reference(name, params))) <= res.tail_estimate


@lru_cache(maxsize=1)
def _oracle_bits():
    return json.loads((Path(__file__).parent / "oracle_bits.json").read_text())["oracles"]


@pytest.mark.parametrize("name", ORACLES)
def test_oracle_bits(name):
    """Every ORACLES parameter set, bit for bit in value and tail_estimate and
    exactly in terms_used and in converged at the default EvalConfig, as
    pinned in oracle_bits.json.
    repin_fixtures.py rewrites it only after checking every moved value
    against a 30-digit reference."""
    params_list, _ = ORACLES[name]
    got = []
    for params in params_list:
        res = getattr(series, name)(*params)
        got.append([list(params), res.value.hex(), res.tail_estimate.hex(),
                    EvalConfig().converged(res), res.terms_used])
    assert got == _oracle_bits()[name]


_LOAD_ORDER = """
import json, sys
if sys.argv[1] == "before":
    import numpy
from eulersums import series
if sys.argv[1] == "after":
    import numpy
assert series.np is sys.modules["numpy"] is numpy
for name, params in json.loads(sys.argv[2]).items():
    res = getattr(series, name)(*params)
    print(name, res.value.hex(), res.tail_estimate.hex())
"""


def _first_oracle_bits(order):
    """The first pinned oracle_bits.json entry of each oracle, computed in a
    fresh interpreter that imports numpy before or after eulersums."""
    first = {name: entries[0][0] for name, entries in _oracle_bits().items()}
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", _LOAD_ORDER, order, json.dumps(first)],
                         capture_output=True, text=True, env=env, check=True)
    return out.stdout.splitlines()


def test_numpy_loaded_before_or_after_gives_the_pinned_bits():
    """series loads numpy lazily, or reuses a numpy already imported: either
    way every oracle gives its pinned value and estimate."""
    pinned = [f"{name} {entries[0][1]} {entries[0][2]}" for name, entries in _oracle_bits().items()]
    assert _first_oracle_bits("before") == pinned
    assert _first_oracle_bits("after") == pinned


_BLOCKED = """
import importlib.abc, os, sys
if sys.argv[1] == "finder":
    class Blocked(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name.partition(".")[0] == "numpy":
                raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    sys.meta_path.insert(0, Blocked())
else:  # no numpy on the path at all
    sys.path[:] = [p for p in sys.path if not os.path.isdir(os.path.join(p or ".", "numpy"))]
try:
    import eulersums
except ModuleNotFoundError as exc:
    print(exc.name, exc)
"""


@pytest.mark.parametrize("how", ["finder", "path"])
def test_a_missing_numpy_fails_the_import(how):
    """numpy is found at import, so a missing numpy fails `import eulersums`,
    not the first sum."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", _BLOCKED, how], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout == "numpy No module named 'numpy'\n"


def test_default_grid_lhs_bits():
    """The LHS of every default_grid() point, bit for bit, as pinned in
    grid_lhs.json (rewritten only by repin_fixtures.py)."""
    fixture = json.loads((Path(__file__).parent / "grid_lhs.json").read_text())["points"]
    grid = identities.default_grid()
    assert [(ident.value, params) for ident, params in grid] == [(n, p) for n, p, _ in fixture]
    got = [identities.verify(ident, params, 1e-8).lhs.hex() for ident, params in grid]
    assert got == [float.fromhex(h).hex() for _, _, h in fixture]
