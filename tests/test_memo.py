"""The parameter-only memo tables: the series factors (each with its tail
model and its head), the psi tuples, the ln Gamma and gamma-ratio jets, the
harmonic-number tables, the closed forms' harmonic-number tuples and the
Hurwitz zeta values are
built once per process, give the same bits cold and warm, are dropped by
series._cache.cache_clear(), stay within special.MEMO_SIZE and cannot be
written through."""

import cProfile
import inspect
import itertools
import json
import math
import pstats
import random
from pathlib import Path

import pytest

from eulersums import asymptotics, identities, jets, series, special, summation
from eulersums.identities import REGISTRY, IdentityId, default_grid
from eulersums.special import MEMO_SIZE, DomainError

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


def test_closed_forms_alone_give_the_shared_bits():
    """A point computed alone, with every table empty, gets the bits it gets
    in a pass where other points built the jets and harmonic numbers it
    reads: sharing does not depend on call order."""
    shared = _rhs_pass()
    for name, args, want in shared:
        series._cache.cache_clear()
        try:
            got = float(getattr(identities, name)(*args)).hex()
        except DomainError as exc:
            got = str(exc)
        assert got == want, (name, args)


def test_clear_drops_the_ratio_jets_and_harmonic_tuples():
    _rhs_pass()
    tables = (jets._ratio_jet, identities._harmonics)
    assert all(table.cache_info().currsize > 0 for table in tables)
    series._cache.cache_clear()
    assert all(table.cache_info().currsize == 0 for table in tables)


def test_ratio_jets_and_harmonic_tuples_stay_within_the_bound():
    for i in range(MEMO_SIZE + 10):
        jets.gamma_ratio_jet(jets.RatioVariant.BETA_SHIFT0, 1.0 + i / 64.0, 1.0)
        identities._harmonics(1, i + 1)
    for table in (jets._ratio_jet, identities._harmonics):
        info = table.cache_info()
        assert info.maxsize == MEMO_SIZE
        assert info.currsize == MEMO_SIZE


def test_harmonic_tuples_hold_gen_harmonic():
    for n, order in itertools.product(range(12), (1, 2, 3)):
        assert identities._harmonics(n, order) == tuple(
            special.gen_harmonic(j, order) for j in range(n + 1))


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


def test_closed_forms_leave_the_harmonic_cache_unbuilt():
    """No rhs_* builds a harmonic-number table; the first series that needs
    one builds it."""
    for name in RHS:
        fn = getattr(identities, name)
        fn(*[_AXES[p][2] for p in inspect.signature(fn).parameters])
    assert series._harmonic_numbers.cache_info().currsize == 0
    series.lhs_variant1(1, 1)
    assert series._harmonic_numbers.cache_info().currsize == 1


def test_clear_empties_every_memo_table_and_the_next_pass_rebuilds_them():
    """series._cache.cache_clear(), which perfbench calls before every timed
    pass, leaves every special.memo table empty, the summed k and the
    harmonic tables included, and the next grid pass builds them again with
    the same bits."""
    grid = default_grid()
    first = _grid_pass(grid)
    tables = {order: series._harmonic_numbers(order, 64) for order in (1, 2)}
    head = series._power(3, 1.0).head(64)
    assert identities._declared.cache_info().currsize > 0
    series._cache.cache_clear()
    assert identities._declared.cache_info().currsize == 0
    assert series._head.cache_info().currsize == 0
    assert series._harmonic_numbers.cache_info().currsize == 0
    assert all(kept.cache_info().currsize == 0 for kept in special._MEMOS)
    assert _grid_pass(grid) == first
    for order, table in tables.items():
        rebuilt = series._harmonic_numbers(order, 64)
        assert rebuilt is not table and rebuilt == table
    rebuilt = series._power(3, 1.0).head(64)
    assert rebuilt is not head and rebuilt == head


def test_memo_stays_within_its_bound():
    for i in range(MEMO_SIZE + 10):
        jets.ln_gamma_jet(1.0 + i / 64.0, 2)
    info = jets.ln_gamma_jet.cache_info()
    assert info.maxsize == MEMO_SIZE
    assert info.currsize == MEMO_SIZE


def test_factor_memo_stays_within_its_bound():
    for i in range(MEMO_SIZE + 10):
        series.lhs_variant3(0.5 + i / 64.0, 0, 1)
    assert series._power.cache_info().currsize == MEMO_SIZE


def test_keys_are_exact():
    """1 and 1.0 are two keys, so a hit never returns another argument's jet."""
    from_float, from_int = jets.ln_gamma_jet(2.0, 3), jets.ln_gamma_jet(2, 3)
    assert from_float is not from_int
    assert from_float is jets.ln_gamma_jet(2.0, 3) and from_int is jets.ln_gamma_jet(2, 3)
    assert jets.ln_gamma_jet.cache_info().currsize == 2


def test_memoized_jets_are_read_only():
    for jet in (jets.ln_gamma_jet(2.5, 4), jets.psi_derivatives(2.5, 4)):
        assert type(jet) is tuple and len(jet) == 5
        with pytest.raises(TypeError):
            jet[1] = 0.0
    assert jets.ln_gamma_jet(2.5, 4)[1] != 0.0


@pytest.mark.parametrize("a", [0.5, 1.0, 3.5, 11.25])
def test_jets_divide_the_psi_derivatives(a):
    """ln Gamma jets are the kept psi values over k!, bit for bit, and those
    are digamma's and polygamma's."""
    psi = jets.psi_derivatives(a, 12)
    assert psi == (special.digamma(a),) + tuple(special.polygamma(k, a) for k in range(1, 13))
    lg = jets.ln_gamma_jet(a, 13)
    assert lg == (math.lgamma(a),) + tuple(d / math.factorial(k + 1) for k, d in enumerate(psi))
    assert jets.ln_gamma_jet(a, 0) == (math.lgamma(a),)


def test_repeated_psi_closed_forms_call_no_polygamma(monkeypatch):
    """The corollaries' Leibniz sums read the kept psi values: a second call
    evaluates no polygamma and gives the same bits."""
    points = [(identities.rhs_cor_38, 0.5, 6), (identities.rhs_cor_310, 2.5, 7),
              (identities.rhs_cor_312, 1.0, 8)]
    first = [fn(p, m).hex() for fn, p, m in points]
    calls = []
    real = special.polygamma

    def spy(*args):
        calls.append(args)
        return real(*args)

    for mod in (special, jets, identities):
        monkeypatch.setattr(mod, "polygamma", spy, raising=False)
    assert [fn(p, m).hex() for fn, p, m in points] == first
    assert calls == []


def test_memoized_tail_models_are_read_only():
    for factor in (series._harmonic(), series._inv_binomial(2), series._power(3, 1.0)):
        with pytest.raises(TypeError):
            factor.tail.rows[0][0] = 0.0


def _verify_grid():
    for ident, params in default_grid():
        identities.verify(ident, params, 1e-7)


def test_a_cold_grid_pass_keeps_one_jet_per_base_point():
    """The grid's right sides read 25 base points of the two gamma ratios at
    125 (base point, z-order) pairs, and every z-order reads the one jet
    kept for its base point."""
    series._cache.cache_clear()
    _verify_grid()
    assert jets._ratio_jet.cache_info().currsize == 25


def test_a_warm_grid_pass_builds_no_product(monkeypatch):
    """A cold pass builds each distinct product of tail models once, fewer
    than the sums ask for (470 built for 1650 asked today, two of the built
    being _harmonic_square_diff's H_t^2, as each rung _tail_model tries asks
    again), and a warm pass builds none, nor any sum's layout."""
    built = _counting(monkeypatch, asymptotics.LogPowerSeries, "__mul__")
    asked = _counting(monkeypatch, series, "_product")
    _verify_grid()
    assert 0 < len(built) < len(asked)
    built.clear()
    layouts = series._layout.cache_info().misses
    _verify_grid()
    assert built == []
    assert series._layout.cache_info().misses == layouts


def test_a_warm_grid_pass_calls_no_enum_hash():
    """IdentityId and jets.RatioVariant hash by identity, so the REGISTRY
    lookups and the _ratio_jet memo keys of a warm grid pass never call the
    Python-level enum.Enum.__hash__; names, values and lookups by name stay."""
    _verify_grid()
    profile = cProfile.Profile()
    profile.runcall(_verify_grid)
    called = {(Path(path).name, func) for path, _line, func in pstats.Stats(profile).stats}
    assert ("enum.py", "__hash__") not in called
    assert ("identities.py", "verify") in called
    assert IdentityId["COR_34"] is IdentityId("COR_34") is IdentityId.COR_34
    assert {IdentityId.COR_34: 1}[IdentityId["COR_34"]] == 1
    assert hash(jets.RatioVariant.BETA_SHIFT1) == object.__hash__(jets.RatioVariant.BETA_SHIFT1)


def test_clear_drops_the_products():
    series.lhs_variant3h(0.5, 1, 2)
    assert series._product.cache_info().currsize == 2
    series._cache.cache_clear()
    assert series._product.cache_info().currsize == 0


def test_memoized_products_are_read_only_and_keep_their_bits(monkeypatch):
    """Every product a grid pass keeps has tuple rows, is the same series on
    every request, and has the bits of a fresh left-to-right a * b cut to its
    depth."""
    kept = []
    real = series._product

    def spy(a, b, depth):
        out = real(a, b, depth)
        kept.append((a, b, depth, out))
        return out

    monkeypatch.setattr(series, "_product", spy)
    _verify_grid()
    assert len({id(out) for *_, out in kept}) < len(kept)
    for a, b, depth, out in kept:
        assert out is real(a, b, depth)
        assert type(out.rows) is tuple and all(type(r) is tuple for r in out.rows)
        fresh = a * b
        assert (out.s0, out.depth) == (fresh.s0, min(fresh.depth, depth))
        assert [[v.hex() for v in r] for r in out.rows] == [[v.hex() for v in r[:depth + 1]]
                                                           for r in fresh.rows]


def test_tail_models_are_the_deepest_products_cut(monkeypatch):
    """Every tail model a grid pass hands to em_tail, built at the depth d its
    sum chose, has the bits of the first d + 1 orders of the product of its
    factors' tails at series._DEPTH, taken left to right without the memo."""
    seen = []
    real = series._tail_model

    def spy(tails, K, exact):
        model = real(tails, K, exact)
        seen.append((tails, model))
        return model

    monkeypatch.setattr(series, "_tail_model", spy)
    _verify_grid()
    assert {model.depth for _, model in seen} >= {8, 10, 12, 14}
    for tails, model in seen:
        deepest = tails[0].truncated(series._DEPTH)
        for tail in tails[1:]:
            deepest = deepest * tail
        assert deepest.depth == series._DEPTH and model.s0 == deepest.s0
        assert [[v.hex() for v in r] for r in model.rows] == [
            [v.hex() for v in r[:model.depth + 1]] for r in deepest.rows]


def test_a_cold_grid_pass_stays_within_its_work(monkeypatch):
    """One cold default_grid() pass, every memo table empty, takes at most
    95337 jet_mul multiply-adds (q + 1 for coefficient q of each product of
    ln rows) and builds at most 101 Euler-Maclaurin monomials, the counts
    since each sum's tail model takes its own depth: a deterministic guard
    on the cold path, whose time no tier-1 test can pin (194502 multiply-adds
    when every model kept 20 orders)."""
    madds = []
    real = asymptotics.jet_mul

    def counted(a, b):
        madds.append(len(a) * (len(a) + 1) // 2)
        return real(a, b)

    monkeypatch.setattr(asymptotics, "jet_mul", counted)
    _verify_grid()
    assert sum(madds) <= 95337
    assert summation._em_monomial.cache_info().misses <= 101


def test_memoized_heads_are_kept_and_read_only():
    """Every head holds k = 0..K, a tuple built once per factor and split K;
    where the factor has a pole at k = 0, entry 0 is that infinity."""
    builds = (lambda: series._harmonic(), lambda: series._harmonic(4, True),
              lambda: series._harmonic_square_diff(True), series._central_harmonic_diff,
              lambda: series._inv_binomial(2), lambda: series._power(3, 1.0),
              lambda: series._power(2, (0.5, 1), times_k=True),
              lambda: series._signed_binomial(0.5))
    for build in builds:
        for K in series._SPLITS:
            head = build().head(K)
            assert build().head(K) is head
            assert type(head) is tuple and len(head) == K + 1
            with pytest.raises(TypeError):
                head[1] = 0.0
    assert series._harmonic(prev=True).head(64)[0] == -math.inf


def _fresh_harmonic(n, m):
    return math.fsum(k**-m if m > 1 else 1.0 / k for k in range(1, n + 1))


def test_harmonic_numbers_keep_their_bits():
    rng = random.Random(11)
    ns = [0, 1, 2, 3, 10, 999, 1000, 2000] + rng.sample(range(2001), 40)
    for n, m in itertools.product(ns, range(1, 6)):
        want = _fresh_harmonic(n, m).hex()
        assert special.gen_harmonic(n, m).hex() == want, (n, m)
        assert special.gen_harmonic(n, m).hex() == want, (n, m)


@pytest.mark.parametrize("n,m", [(-1, 1), (-1, 2), (3, 0), (-2, -1)])
def test_harmonic_domain_errors_are_not_kept(n, m):
    for _ in range(2):
        with pytest.raises(DomainError):
            special.gen_harmonic(n, m)


def _zetas():
    return ([special.riemann_zeta(s).hex() for s in range(2, 81)]
            + [special.hurwitz_zeta(float(s), a).hex() for a in (2.0, 1.4) for s in range(2, 81)])


def test_zeta_values_keep_their_bits():
    """Each zeta value is computed once, with the bits of the kernel left
    unkept, and read back with the same bits; riemann_zeta's s = 2, 3, 4 are
    constants, the rest read the table at a = 1."""
    cold = _zetas()
    assert special._hurwitz_zeta.cache_info().currsize == 76 + 2 * 79
    kernel = special._hurwitz_zeta.__wrapped__
    assert cold == ([special.riemann_zeta(s).hex() for s in (2, 3, 4)]
                    + [kernel(s, 1.0).hex() for s in range(5, 81)]
                    + [kernel(float(s), a).hex() for a in (2.0, 1.4) for s in range(2, 81)])
    assert _zetas() == cold
    assert special._hurwitz_zeta.cache_info().currsize == 76 + 2 * 79


def test_zeta_tails_read_shared_terms_with_the_same_bits():
    """zeta_tail_sum(m) and zeta_tail_sum(m + 1) share all their terms but
    one: run ascending from empty tables and descending warm, every value and
    tail_estimate is the same."""
    def tails(ms):
        return {m: (r.value.hex(), r.tail_estimate.hex(), r.terms_used)
                for m in ms for r in [series.zeta_tail_sum(m)]}

    up = tails(range(61))
    info = special._hurwitz_zeta.cache_info()
    assert info.hits > info.misses
    assert tails(range(60, -1, -1)) == up


@pytest.mark.parametrize("s,a", [(1.0, 2.0), (float("nan"), 2.0), (2.0, 0.0), (2.0, math.inf),
                                 (2.0, 1e-300)])
def test_zeta_domain_errors_are_not_kept(s, a):
    """A bad s or a, or a value past binary64, is refused on every call and
    leaves the table as it was."""
    for _ in range(2):
        with pytest.raises(DomainError):
            special.hurwitz_zeta(s, a)
    assert special._hurwitz_zeta.cache_info().currsize == 0


def test_zeta_table_stays_within_the_bound():
    for i in range(MEMO_SIZE + 10):
        special.hurwitz_zeta(2.0 + i / 64.0, 2.0)
    info = special._hurwitz_zeta.cache_info()
    assert info.maxsize == MEMO_SIZE
    assert info.currsize == MEMO_SIZE
