"""The parameter-only memo tables: the series factors (each with its tail
model) and the ln Gamma / psi jets are built once per process, give the same
bits cold and warm, are dropped by series._cache.cache_clear(), stay within
special.MEMO_SIZE and cannot be written through."""

import inspect
import itertools
import json
from pathlib import Path

import pytest

from eulersums import asymptotics, identities, jets, series
from eulersums.identities import REGISTRY, default_grid
from eulersums.special import MEMO_SIZE, DomainError, HarmonicCache

TESTS = Path(__file__).parent


@pytest.fixture(autouse=True)
def cold():
    """Every test starts, and leaves the next test, with nothing built."""
    series._cache.cache_clear()
    yield
    series._cache.cache_clear()


def _grid_pass(points):
    """lhs, rhs and the lhs tail_estimate of each point, as hex, through the
    registry row verify uses."""
    out = []
    for ident, params in points:
        row = REGISTRY[ident]
        sides, full = row.bind(ident, params)
        res, rhs = sides(**{k: v for k, v in full.items() if k != row.selector})
        out.append((res.value.hex(), float(rhs).hex(), res.tail_estimate.hex()))
    return out


def test_grid_cold_and_warm_bits():
    """Cold (every table empty), then warm in the opposite order, so each
    point reads what the other pass built: the same bits, and the pinned
    LHS bits of grid_lhs.json."""
    grid = default_grid()
    first = _grid_pass(grid)
    second = _grid_pass(grid[::-1])[::-1]
    assert first == second
    pinned = json.loads((TESTS / "grid_lhs.json").read_text())["points"]
    assert [lhs for lhs, _, _ in first] == [float.fromhex(h).hex() for _, _, h in pinned]


_AXES = {"x": (0.0, 2.0, 2.5, 10.0), "n": (0, 3, 10), "p": (0.5, 1.0, 2.5),
         "m": (0, 1, 2, 5, 10)}
RHS = [name for name in dir(identities) if name.startswith("rhs_")]


def _rhs_pass():
    out = []
    for name in RHS:
        fn = getattr(identities, name)
        for args in itertools.product(*(_AXES[p] for p in inspect.signature(fn).parameters)):
            try:
                out.append((name, args, float(fn(*args)).hex()))
            except DomainError as exc:
                out.append((name, args, str(exc)))
    return out


def test_closed_forms_cold_and_warm_bits():
    first = _rhs_pass()
    assert sum(v.startswith(("0x", "-0x")) for _, _, v in first) > 300
    assert _rhs_pass() == first


def _counting(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_clear_drops_the_factor_memo(monkeypatch):
    series.lhs_variant1(1, 1)
    calls = _counting(monkeypatch, asymptotics, "harmonic_lp")
    series.lhs_variant1(1, 1)
    assert calls == []
    series._cache.cache_clear()
    series.lhs_variant1(1, 1)
    assert len(calls) == 1


def test_clear_drops_the_jet_memo(monkeypatch):
    identities.rhs_thm_e15(1.0, 2)
    calls = _counting(monkeypatch, jets, "polygamma")
    identities.rhs_thm_e15(1.0, 2)
    assert calls == []
    series._cache.cache_clear()
    identities.rhs_thm_e15(1.0, 2)
    assert calls


def test_closed_forms_leave_the_harmonic_cache_unbuilt(monkeypatch):
    builds = _counting(monkeypatch, HarmonicCache, "build")
    for name in RHS:
        fn = getattr(identities, name)
        fn(*[_AXES[p][2] for p in inspect.signature(fn).parameters])
    assert builds == []
    series.lhs_variant1(1, 1)
    assert len(builds) == 1


def test_memo_stays_within_its_bound():
    for i in range(MEMO_SIZE + 10):
        jets.ln_gamma_jet(1.0 + i / 64.0, 2)
    info = jets._ln_gamma_jet.cache_info()
    assert info.maxsize == MEMO_SIZE
    assert info.currsize == MEMO_SIZE


def test_factor_memo_stays_within_its_bound():
    for i in range(MEMO_SIZE + 10):
        series.lhs_variant3(0.5 + i / 64.0, 0, 1)
    assert series._power.cache_info().currsize == MEMO_SIZE


def test_keys_are_exact():
    """1 and 1.0 are two keys, so a hit never returns another argument's jet."""
    assert type(jets.ln_gamma_jet(2.0, 3).base) is float
    assert type(jets.ln_gamma_jet(2, 3).base) is int
    assert jets._ln_gamma_jet.cache_info().currsize == 2


def test_memoized_jets_are_read_only():
    for jet in (jets.ln_gamma_jet(2.5, 4), jets.psi_jet(2.5, 4)):
        with pytest.raises(ValueError):
            jet.coeffs[1] = 0.0
    assert jets.ln_gamma_jet(2.5, 4).coeffs[1] != 0.0


def test_memoized_tail_models_are_read_only():
    for factor in (series._harmonic(), series._inv_binomial(2), series._power(3, 1.0)):
        with pytest.raises(TypeError):
            factor.tail.rows[0][0] = 0.0



def test_memoized_heads_are_kept_and_read_only():
    from_one = (series._harmonic(), series._harmonic(4), series._harmonic_square_diff())
    from_zero = (series._inv_binomial(2), series._power(3, 1.0), series._signed_binomial(0.5))
    for lo, factors in ((1, from_one + from_zero), (0, from_zero)):
        for factor in factors:
            head = factor.head(lo)
            assert factor.head(lo) is head
            assert len(head) == series.K_CROSSOVER + 1 - lo
            with pytest.raises(ValueError):
                head[0] = 0.0
