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
from functools import lru_cache
from pathlib import Path

import mpmath as mp
import pytest

from eulersums import identities, series
from eulersums.summation import EvalConfig, em_tail

from conftest import omitted_correction, tail_integral, truncation_bound, value_at

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
    """Run an oracle and return the tail model it handed to em_tail and the
    split K it handed with it."""
    seen = []

    def capture(model, K):
        seen.append((model, K))
        return 0.0, 0.0

    monkeypatch.setattr(series, "em_tail", capture)

    def run(name, *params):
        seen.clear()
        getattr(series, name)(*params)
        (model_and_split,) = seen
        return model_and_split

    return run


@pytest.mark.parametrize("name", ORACLES)
def test_tail_model_is_the_head_term(tail_models, name):
    params_list, exact_term = ORACLES[name]
    for params in params_list:
        model, K = tail_models(name, *params)
        x = float(K + 1)
        want = float(exact_term(K + 1, *params))
        # a few ulp of rounding, plus what the depth cut may leave out relative
        # to the tail: the bound em_tail itself reports
        depth_bound = truncation_bound(model, x) / abs(tail_integral(model, x))
        # exponents off the multiples of 1/2 (x + 1 + m at x = -0.9) are rounded,
        # each by up to 3 U times the last exponent s0 + depth, and t^-s moves
        # by that times ln t
        rounded = any((2 * s) % 1 for _a, s in model.terms)
        s_bound = 1.5 * ULP * (model.s0 + model.depth) * math.log(x) if rounded else 0.0
        bound = (8 * ULP + depth_bound + s_bound) * abs(want)
        assert abs(value_at(model, x) - want) <= bound, (name, params)


def test_every_tail_model_is_built_at_the_depth(monkeypatch):
    """Depth is the one truncation a tail model knows, and each sum takes the
    least rung of series._RUNGS at which the bound em_tail reports for the
    dropped orders is at most U/16 of the head sum, or series._DEPTH: every
    model a pinned oracle hands to em_tail is at most that deep, meets the
    rule at its depth and fails it at every lower rung."""
    seen = []
    real = series._tail_model

    def capture(tails, K, exact):
        model = real(tails, K, exact)
        seen.append((model, K, exact))
        return model

    monkeypatch.setattr(series, "_tail_model", capture)
    for name, (params_list, _) in ORACLES.items():
        for params in params_list:
            seen.clear()
            getattr(series, name)(*params)
            ((model, K, exact),) = seen
            x, bound = K + 1.0, series._U / 16 * abs(exact)
            assert model.depth in series._RUNGS, (name, params)
            assert (model.depth == series._DEPTH
                    or truncation_bound(model, x) <= bound), (name, params)
            for rung in series._RUNGS[:series._RUNGS.index(model.depth)]:
                assert truncation_bound(model.truncated(rung), x) > bound, (name, params, rung)


@pytest.fixture
def em_calls(monkeypatch):
    """Run an oracle and return its value with the (model, K) of its em_tail
    call, which still computes."""
    seen = []

    def capture(model, K):
        seen.append((model, K))
        return em_tail(model, K)

    monkeypatch.setattr(series, "em_tail", capture)

    def run(name, *params):
        seen.clear()
        value = getattr(series, name)(*params).value
        (model_and_split,) = seen
        return value, model_and_split

    return run


@pytest.mark.parametrize("name", ORACLES)
def test_depth_argument(em_calls, name):
    """The argument for series._DEPTH and the splits, checked: at t = K + 1,
    K the split each sum took, the bound em_tail reports for the orders the
    tail model drops stays below 5 U |value|, the least head rounding bound,
    for every parameter set."""
    for params in ORACLES[name][0]:
        value, (model, K) = em_calls(name, *params)
        assert K in series._SPLITS, (name, params)
        assert truncation_bound(model, K + 1.0) <= 5 * series._U * abs(value), (name, params)


@pytest.mark.parametrize("name", ORACLES)
def test_first_omitted_correction(em_calls, name):
    """With the split as low as x = K + 1 = 65, the first Euler-Maclaurin
    correction em_tail leaves out stays below 5 U |value| too, for every
    parameter set."""
    for params in ORACLES[name][0]:
        value, (model, K) = em_calls(name, *params)
        assert omitted_correction(model, K + 1.0) <= 5 * series._U * abs(value), (name, params)


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


def test_default_grid_lhs_bits():
    """The LHS of every default_grid() point, bit for bit, as pinned in
    grid_lhs.json (rewritten only by repin_fixtures.py)."""
    fixture = json.loads((Path(__file__).parent / "grid_lhs.json").read_text())["points"]
    grid = identities.default_grid()
    assert [(ident.value, params) for ident, params in grid] == [(n, p) for n, p, _ in fixture]
    got = [identities.verify(ident, params, 1e-8).lhs.hex() for ident, params in grid]
    assert got == [float.fromhex(h).hex() for _, _, h in fixture]
