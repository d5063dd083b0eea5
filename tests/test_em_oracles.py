"""The split-at-K oracles: tail model against the term it expands, values
against 30-digit references, and the default grid's LHS bits.

Every oracle that ends in em_tail sums its first K terms exactly and hands a
LogPowerSeries for the rest.  Nothing in the code ties the two together, so
here the model captured on its way into em_tail is evaluated at t = K + 1 and
compared with that term computed directly by mpmath.
"""

import json
from functools import lru_cache
from pathlib import Path

import mpmath as mp
import pytest

from eulersums import identities, series
from eulersums.series import K_CROSSOVER

mp.mp.dps = 30
ULP = 2.0**-52
P_SET = (0.1, 0.5, 2.5, 20.0)
NM = range(11)


@lru_cache(maxsize=None)
def _h(t, order=1):
    """H_t^(order) for a positive integer t."""
    return mp.harmonic(t) if order == 1 else mp.zeta(order) - mp.zeta(order, t + 1)


def _inv_binom(n, t):
    return 1 / mp.binomial(n + t, t)


# oracle name -> (parameter tuples, exact unsigned term at integer t)
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
    "lhs_variant3h": ([(p, n, m) for p in P_SET for n in NM for m in NM],
                      lambda t, p, n, m: _h(t - 1) * _inv_binom(n, t)
                      / (t * (mp.mpf(p) + n + t) ** (m + 1))),
    "lhs_variant4": ([(p, n, m) for p in P_SET for n in NM for m in NM if m >= 1],
                     lambda t, p, n, m: (_h(t - 1) ** 2 - _h(t - 1, 2)) * _inv_binom(n, t)
                     / (t * (mp.mpf(p) + n + t) ** m)),
    "lhs_central_binom": ([(p, m) for p in P_SET for m in NM],
                          lambda t, p, m: (_h(t) - 2 * _h(2 * t)) * mp.binomial(2 * t, t)
                          / mp.mpf(4) ** t / (mp.mpf(p) + t) ** (m + 1)),
    "half_shift_series": ([(m,) for m in NM],
                          lambda t, m: _h(t - 1) / (t * (t - mp.mpf(0.5)) ** (m + 1))),
    "lhs_linear_euler": ([(p, q) for p in range(1, 11) for q in range(2, 11)],
                         lambda t, p, q: _h(t, p) / mp.mpf(t) ** q),
    "lhs_quadratic_euler": ([(q,) for q in range(2, 11)],
                            lambda t, q: _h(t) ** 2 / mp.mpf(t) ** q),
    "quadratic_minus_linear": ([(q,) for q in range(2, 11)],
                               lambda t, q: (_h(t) ** 2 - _h(t, 2)) / mp.mpf(t) ** q),
}


@pytest.fixture
def tail_models(monkeypatch):
    """Run an oracle and return the tail model it handed to em_tail."""
    seen = []

    def capture(model, K, cfg):
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
        depth_bound = model.truncation_bound(x) / abs(model.tail_integral(x))
        assert abs(model(x) - want) <= (8 * ULP + depth_bound) * abs(want), (name, params)


FROM_ZERO = ("lhs_variant1", "lhs_variant2", "lhs_alt", "lhs_central_binom")


def _reference(name, params):
    """30-digit sum of the oracle's unsigned series, stopped once the rest is
    out of reach: every extreme series decays at least like k^-11, so the
    terms after k add less than term_k * k / 10."""
    _, exact_term = ORACLES[name]
    k = 0 if name in FROM_ZERO else 1
    total = mp.mpf(0)
    while True:
        term = exact_term(k, *params)
        total += term
        if k and abs(term) * k < mp.mpf(10) ** -22 * abs(total):
            return total
        k += 1


# (oracle, parameters, the sign the oracle puts in front of its series)
EXTREMES = [("lhs_variant1", (10, 10), 1), ("lhs_variant2", (10, 10), 1),
            ("lhs_alt", (10, 10), -1), ("half_shift_series", (10,), 1),
            ("lhs_linear_euler", (10, 10), 1), ("lhs_quadratic_euler", (10,), 1),
            ("quadratic_minus_linear", (10,), 1)]
EXTREMES += [(name, (p, 10, 10), 1) for name in ("lhs_variant3", "lhs_variant3h", "lhs_variant4")
             for p in (0.1, 20.0)]
EXTREMES += [("lhs_central_binom", (p, 10), 1) for p in (0.1, 20.0)]


@pytest.mark.parametrize("name, params, sign", EXTREMES)
def test_extreme_values_within_tail_estimate(name, params, sign):
    res = getattr(series, name)(*params)
    want = float(sign * _reference(name, params))
    assert res.converged
    assert abs(res.value - want) <= res.tail_estimate


def test_default_grid_lhs_bits():
    """The LHS of every default_grid() point, bit for bit, as recorded in
    grid_lhs.json before the tail models were cut to binary64 depth."""
    fixture = json.loads((Path(__file__).parent / "grid_lhs.json").read_text())["points"]
    grid = identities.default_grid()
    assert [(ident.value, params) for ident, params in grid] == [(n, p) for n, p, _ in fixture]
    got = [identities.verify(ident, params, 1e-8).lhs.hex() for ident, params in grid]
    assert got == [float.fromhex(h).hex() for _, _, h in fixture]
