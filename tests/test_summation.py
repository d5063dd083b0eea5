"""Summation engine: the convergence test, tail models, Euler-Maclaurin."""

import math
from fractions import Fraction

import mpmath as mp
import pytest

from eulersums import (DomainError, EvalConfig, SumResult, em_tail, hurwitz_zeta, identities, jets,
                       series, summation)
from eulersums.asymptotics import (
    LogPowerSeries,
    central_harmonic_diff_lp,
    gamma_ratio_lp,
    harmonic_lp,
    log_power_integral,
    recip_power_shift,
)
from eulersums.special import BERNOULLI_2J, MEMO_SIZE, ZETA3, bernoulli_poly
from eulersums.summation import NonMonotoneTailError

from conftest import assert_close, row, tail_integral, truncation_bound
from test_em_oracles import ORACLES

mp.mp.dps = 30
ULP = 2.0**-52


def _omitted_correction(model, x):
    """|B_2(r+1) / (2r+2)! f^(2r+1)(x)|, r = _EM_ORDER: the first Euler-Maclaurin
    correction em_tail leaves out."""
    r = summation._EM_ORDER
    deriv = model
    for _ in range(2 * r + 1):
        deriv = deriv.diff()
    return abs(BERNOULLI_2J[r] / math.factorial(2 * r + 2) * deriv(x))


def _reference_em_tail(model, K):
    """em_tail computed directly: each derivative of the model is a series of
    its own, by termwise diff(), evaluated at x = K + 1.  em_tail applies the
    same functionals as weights tabulated once per model shape."""
    x = float(K + 1)
    f0 = model(x)
    f1 = model(x + 1.0)
    if abs(f1) > abs(f0):
        raise NonMonotoneTailError(f"tail not decreasing at K={K}: |f({x + 1})| > |f({x})|")
    r = summation._EM_ORDER
    out = tail_integral(model, x) + 0.5 * f0
    deriv = model.diff()
    fact = 1.0
    for j in range(1, r + 1):
        fact *= (2 * j - 1) * (2 * j)
        out -= BERNOULLI_2J[j - 1] / fact * deriv(x)
        deriv = deriv.diff().diff()
    err = abs(BERNOULLI_2J[r] / (fact * (2 * r + 1) * (2 * r + 2)) * deriv(x))
    return out, err + truncation_bound(model, x)


class TestEvalConfig:
    def test_defaults(self):
        cfg = EvalConfig()
        assert cfg.rel_tol == 1e-10

    def test_validation(self):
        for rel_tol in (0.0, -1e-10, math.nan, math.inf):
            with pytest.raises(DomainError):
                EvalConfig(rel_tol=rel_tol)

    def test_read_only(self):
        cfg = EvalConfig(rel_tol=1e-8)
        with pytest.raises(AttributeError):
            cfg.rel_tol = math.nan
        assert cfg.rel_tol == 1e-8

    def test_converged(self):
        cfg = EvalConfig(rel_tol=1e-10)
        assert cfg.converged(SumResult(2.0, 2e-10, 1))
        assert not cfg.converged(SumResult(2.0, 2.1e-10, 1))
        assert cfg.converged(SumResult(-2.0, 2e-10, 1))
        # a value of 0 is judged against 1e-300, not against 0
        assert cfg.converged(SumResult(0.0, 0.0, 1))
        assert not cfg.converged(SumResult(0.0, 1e-300, 1))

    @pytest.mark.parametrize("value, estimate", [(math.inf, math.inf), (math.nan, 0.0),
                                                 (1.0, math.nan), (-math.inf, 0.0)])
    def test_not_finite_is_not_converged(self, value, estimate):
        # inf <= 1e-10 * inf holds, so the value's finiteness is checked first
        assert not EvalConfig().converged(SumResult(value, estimate, 1))


class TestLogPowerSeries:
    def test_eval_and_diff(self):
        f = LogPowerSeries(2.0, 8, [row(8), row(8, 1.0)])  # ln t / t^2
        t = 7.0
        assert_close(f(t), math.log(t) / t**2, 1e-14)
        df = f.diff()
        assert_close(df(t), (1.0 - 2.0 * math.log(t)) / t**3, 1e-14)

    def test_tail_integral(self):
        K = 50.0
        assert_close(log_power_integral(0, 3.0, K), K**-2.0 / 2.0, 1e-14)
        want = (math.log(K) + 1.0) / K  # int ln t/t^2 = (ln K + 1)/K
        assert_close(log_power_integral(1, 2.0, K), want, 1e-14)
        with pytest.raises(DomainError):
            log_power_integral(0, 1.0, K)

    def test_truncation_bound_is_last_kept_order(self):
        # em_tail's error is the first omitted correction plus the tail
        # integral of the last kept order, taken with |C|
        f = LogPowerSeries(2.5, 2, [[1.0, 0.5, 0.0], [0.0, 0.0, -2.0]])
        K = 50
        x = K + 1.0
        last = 2.0 * log_power_integral(1, 4.5, x)
        assert truncation_bound(f, x) == last
        assert em_tail(f, K)[1] == pytest.approx(_omitted_correction(f, x) + last, rel=4 * ULP)
        g = LogPowerSeries(2.0, 3, [row(3, 1.0)])  # its last order is 0
        assert truncation_bound(g, x) == 0.0
        assert em_tail(g, K)[1] == pytest.approx(_omitted_correction(g, x), rel=4 * ULP)
        # a derivative keeps as many orders as the series it came from
        assert f.diff().depth == f.depth

    def test_sum_needs_one_leading_order(self):
        # a sum adds coefficients order by order, so both operands lead with one s0
        f = LogPowerSeries(2.0, 3, [row(3, 1.0)])
        assert (f + f.scaled(2.0)).rows == (tuple(row(3, 3.0)),)
        with pytest.raises(DomainError):
            f + LogPowerSeries(3.0, 3, [row(3, 1.0)])
        with pytest.raises(DomainError):
            f + LogPowerSeries(2.5, 3, [row(3, 0.5)])

    def test_product(self):
        f = LogPowerSeries(1.0, 9, [row(9), row(9, 2.0)])
        g = LogPowerSeries(2.0, 8, [row(8), row(8, 3.0)])
        h = f * g
        t = 5.0
        assert_close(h(t), 6.0 * math.log(t) ** 2 / t**3, 1e-14)

    @pytest.mark.parametrize("unit", [[1.0, 0.0, 0.0, 0.0, 0.0], [1.0, -0.0, 0.0, -0.0, -0.0]])
    @pytest.mark.parametrize("other, copied", [
        ([0.5, -0.0, 3.0, -2.5e-300, 0.0], True),
        ([-0.0, -0.0, 1e308, -1e308, 5e-324], True),
        ([1.0, 0.0, 0.0, 0.0, 0.0], True),
        ([1e308, 1e308, 0.0, 0.0, 0.0], True),  # finite, though its float sum is not
        ([1.0, math.inf, 0.0, 2.0, 1.0], False),
        ([-math.inf, 0.0, 0.0, 0.0, 0.0], False),
        ([math.nan, 1.0, 0.0, 0.0, 0.0], False),
    ])
    def test_unit_row_products_keep_the_jet_mul_bits(self, unit, other, copied):
        """Every pair of ln rows takes jet_mul, a unit ln row [1, 0, ..., 0]
        (H_t's ln t row) too.  Times a finite row that product is the row
        plus 0.0, -0.0 turned to +0.0; times a row that is not finite,
        jet_mul's 0 * inf is nan.  Checked with the unit row on either side
        and as the second ln row of a two-row model."""
        first = [0.25, -1.5, 0.0, 2.0, 3.0]
        h = LogPowerSeries(0.0, 4, [first, unit])
        g = LogPowerSeries(2.0, 4, [other])
        for got, want in (
                ((h * g).rows, [jets.jet_mul(first, other), jets.jet_mul(unit, other)]),
                ((g * h).rows, [jets.jet_mul(other, first), jets.jet_mul(other, unit)])):
            assert [[v.hex() for v in r] for r in got] == [[v.hex() for v in r] for r in want]
        copy = [(v + 0.0).hex() for v in other]
        assert ([v.hex() for v in jets.jet_mul(unit, other)] == copy) is copied
        assert ([v.hex() for v in jets.jet_mul(other, unit)] == copy) is copied


class TestAsymptoticModels:
    """The tail expansions against directly computed quantities at t = 400."""

    T = 400

    def test_harmonic(self):
        h = math.fsum(1.0 / k for k in range(1, self.T + 1))
        assert_close(harmonic_lp(1, 14)(float(self.T)), h, 1e-14)

    @staticmethod
    def _gen_harmonic(n, m):
        """H_n^(m) from 30-digit mpmath."""
        return float(mp.fsum(mp.mpf(k) ** -m for k in range(1, n + 1)))

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_gen_harmonic(self, m):
        assert_close(harmonic_lp(m, 14)(float(self.T)), self._gen_harmonic(self.T, m), 1e-14)

    @pytest.mark.parametrize("m", [1, 2, 4, 5])
    def test_prev(self, m):
        assert_close(harmonic_lp(m, 14, prev=True)(float(self.T)),
                     self._gen_harmonic(self.T - 1, m), 1e-14)

    def test_central_binomial(self):
        cb = 1.0
        for i in range(1, self.T + 1):
            cb *= (2 * i - 1) / (2.0 * i)
        model = gamma_ratio_lp(0.5, 1.0, 13).scaled(1.0 / math.sqrt(math.pi))
        assert_close(model(float(self.T)), cb, 1e-13)

    def test_central_harmonic_diff(self):
        hk = math.fsum(1.0 / k for k in range(1, self.T + 1))
        h2k = math.fsum(1.0 / k for k in range(1, 2 * self.T + 1))
        assert_close(central_harmonic_diff_lp(14)(float(self.T)), hk - 2.0 * h2k, 1e-13)

    def test_inv_binomial(self):
        n = 3
        t = float(self.T)
        want = math.factorial(n) / ((t + 1) * (t + 2) * (t + 3))
        assert_close(series._inv_binomial(n).tail(t), want, 1e-13)

    @pytest.mark.parametrize("n", range(11))
    def test_inv_binomial_rows(self, n):
        """1/((t+1)...(t+n)) = t^-n sum_j (-1)^j h_j(1..n) t^-j, with h_j the
        complete homogeneous polynomial, here in Python integers: the
        gamma-ratio tail keeps n! times each to 16 u."""
        tail = series._inv_binomial(n).tail
        h = [1] + [0] * tail.depth  # h_j of the empty set
        for i in range(1, n + 1):
            for j in range(1, tail.depth + 1):
                h[j] += i * h[j - 1]
        assert tail.s0 == n and len(tail.rows) == 1
        for j, (got, hj) in enumerate(zip(tail.rows[0], h)):
            want = (-1) ** j * math.factorial(n) * hj
            assert abs(Fraction(got) - want) <= 16 * 2.0**-53 * abs(want), (n, j)

    def test_recip_power_shift(self):
        f = recip_power_shift(2.5, 3.0, 13)
        assert_close(f(float(self.T)), (self.T + 2.5) ** -3.0, 1e-13)


class TestGammaRatio:
    """gamma_ratio_lp and the Bernoulli polynomials its exponent is built from."""

    @pytest.mark.parametrize("n", range(26))
    def test_bernoulli_poly(self, n):
        for a in (-50.5, -7.5, -0.9, -0.5, 0.0, 0.1, 0.5, 0.99, 1.0, 2.5):
            # each term binom(n, k) B_k a^(n-k) is rounded a few times before
            # the exact fsum, so the error is relative to their absolute sum
            scale = math.fsum(abs(math.comb(n, k) * float(mp.bernoulli(k)) * a ** (n - k))
                              for k in range(n + 1))
            assert abs(bernoulli_poly(n, a) - mp.bernpoly(n, a)) <= 4 * ULP * scale, a

    def test_bernoulli_poly_domain(self):
        for n in (-1, 26):
            with pytest.raises(DomainError):
                bernoulli_poly(n, 0.5)

    @pytest.mark.parametrize("a, b", [(-0.5, 1.0), (0.9, 1.0), (-7.5, 1.0), (2.5, 0.5), (1.0, -0.3)])
    def test_values(self, a, b):
        t = mp.mpf(400)
        want = mp.gamma(t + a) / mp.gamma(t + b)
        assert abs(gamma_ratio_lp(a, b, 12)(400.0) - want) <= 8 * ULP * abs(want)

    def test_order_on_the_cap_is_kept(self):
        # a signed-binomial factor leads with t^-(1 + x): at this x,
        # (1 + x + 8) - (1 + x) rounds to just below 8, yet depth 8 keeps the
        # order at t^-(1 + x + 8), rounded the same way
        x = -0.1215851027611018
        assert (1 + x + 8) - (1.0 + x) < 8.0
        ratio = gamma_ratio_lp(-x, 1.0, 8)
        assert len(ratio.terms) == 9
        assert max(s for _a, s in ratio.terms) == 1 + x + 8

    @pytest.mark.parametrize("top", [3.0, 7.5, 16.5, 20.0])
    def test_central_binomial_is_the_half_case(self, top):
        """binom(2t, t)/4^t = Gamma(t + 1/2) / (sqrt(pi) Gamma(t + 1)), against
        its Stirling form exp(sum_j d_j t^(1-2j)) / sqrt(pi t) with
        d_j = B_2j (2^(1-2j) - 2) / (2j (2j-1)), coefficient by coefficient
        down to t^-top; the reference takes the exact B_2j and the Taylor
        coefficients of mpmath's exp at 40 digits.  B_{n+1}(1/2) and
        B_{n+1}(1) are sums that cancel to a few ulp of their largest term,
        which is what the tolerance allows for."""
        depth = math.floor(top - 0.5)  # orders past the leading t^-1/2
        with mp.workdps(40):
            d = {2 * j - 1: mp.bernoulli(2 * j) * (mp.mpf(2) ** (1 - 2 * j) - 2)
                 / (2 * j * (2 * j - 1))
                 for j in range(1, len(BERNOULLI_2J) + 1) if 2 * j - 1 <= top}
            corr = mp.taylor(lambda u: mp.exp(mp.fsum(c * u**k for k, c in d.items())), 0, depth)
            want = {(0, 0.5 + j): float(c / mp.sqrt(mp.pi)) for j, c in enumerate(corr)}
        got = gamma_ratio_lp(0.5, 1.0, depth).scaled(1.0 / math.sqrt(math.pi))
        assert got.terms.keys() == want.keys()
        for key, c in want.items():
            assert abs(got.terms[key] - c) <= 1e-12 * abs(c), key


class TestEmTail:
    def test_inverse_square(self):
        f = LogPowerSeries(2.0, 12, [row(12, 1.0)])
        tail, err = em_tail(f, 100)
        assert_close(tail, hurwitz_zeta(2.0, 101.0), 1e-12)
        assert err < 1e-20

    def test_inverse_fourth(self):
        f = LogPowerSeries(4.0, 12, [row(12, 1.0)])
        tail, _ = em_tail(f, 50)
        assert_close(tail, hurwitz_zeta(4.0, 51.0), 1e-13)

    def test_harmonic_tail_reaches_double_zeta3(self):
        # partial sum of H_k/k^2 to 1e3 plus the smooth-tail estimate
        K = 1000
        h = 0.0
        partial = 0.0
        for k in range(1, K + 1):
            h += 1.0 / k
            partial += h / k**2
        model = harmonic_lp(1, 14) * LogPowerSeries(2.0, 12, [row(12, 1.0)])
        tail, _ = em_tail(model, K)
        assert_close(partial + tail, 2.0 * ZETA3, 1e-9)

    @pytest.mark.parametrize("order", range(1, 12))
    def test_every_em_order_against_exact_tails(self, order, monkeypatch):
        # sum_{k>K} 1/k^2 and a log-power tail, whose exact values are Hurwitz
        # zeta values and s-derivatives: sum ln^a k / k^s = (-1)^a zeta^(a)(s, K+1).
        # The reported error covers the tail at every order the Bernoulli table
        # reaches, not only at the fixed _EM_ORDER: that is why the order can
        # be fixed low without hiding error.
        monkeypatch.setattr(summation, "_EM_ORDER", order)
        cases = [
            (LogPowerSeries(2.0, 38, [row(38, 1.0)]), 100, mp.zeta(2, 101)),
            (LogPowerSeries(2.5, 37, [row(37), row(37, 0.0, -0.3), row(37, 1.0)]), 50,
             mp.zeta(2.5, 51, 2) + 0.3 * mp.zeta(3.5, 51, 1)),
        ]
        for model, K, exact in cases:
            tail, err = em_tail(model, K)
            assert abs(tail - float(exact)) <= err + 4 * ULP * float(exact)
            assert err <= 1e-8 * float(exact)

    def test_non_monotone_rejected(self):
        grows = LogPowerSeries(0.0, 5, [row(5), row(5), row(5, 1.0)])  # ln^2 t
        with pytest.raises(NonMonotoneTailError):
            em_tail(grows, 100)


@pytest.fixture(scope="module")
def oracle_models():
    """(model, K) of every em_tail call that the pinned oracle parameter sets
    (tests/oracle_bits.json) and the default grid's points make."""
    seen = []
    real = series.em_tail

    def capture(model, K):
        seen.append((model, K))
        return real(model, K)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series, "em_tail", capture)
        for name, (params_list, _) in ORACLES.items():
            for params in params_list:
                getattr(series, name)(*params)
        for ident, params in identities.default_grid():
            identities.verify(ident, params, 1e-8)
    return seen


class TestEmWeights:
    """em_tail's tabulated weights: the same tail and error as the direct
    computation, read-only, bounded and dropped with the other memo tables."""

    def test_every_oracle_model_against_the_reference(self, oracle_models):
        assert len(oracle_models) > 2171
        for model, K in oracle_models:
            got, want = em_tail(model, K), _reference_em_tail(model, K)
            for g, w in zip(got, want):
                assert abs(g - w) <= 8 * ULP * abs(w), (model, K, got, want)

    def test_divergent_orders_must_be_zero(self):
        # after the monotone check, a nonzero order with s <= 1 is an error;
        # a zero one on the same lattice is left out
        with pytest.raises(DomainError):
            em_tail(LogPowerSeries(1.0, 5, [row(5, 1.0, 1.0)]), 100)
        zero_first = LogPowerSeries(1.0, 5, [row(5, 0.0, 1.0)])
        assert zero_first.s0 == 1.0
        assert em_tail(zero_first, 100) == em_tail(LogPowerSeries(2.0, 5, [row(5, 1.0)]), 100)

    def test_divergent_order_in_a_later_ln_row(self):
        # ln t / t^(1/2) falls at x = 101, so the monotone check passes and the
        # scan finds the nonzero s = 1/2 monomial in ln row 1
        model = LogPowerSeries(0.5, 5, [row(5, 0.0, 1.0), row(5, 1.0)])
        with pytest.raises(DomainError,
                           match=r"^tail integral diverges for monomial with s = 0\.5$"):
            em_tail(model, 100)

    def test_flat_is_the_rows_flattened_once(self, oracle_models):
        for model, _ in oracle_models:
            assert model.flat == tuple(c for r in model.rows for c in r)
        f = LogPowerSeries(2.0, 2, [[1.0, 0.5, 0.25], [0.0, 2.0, 0.0]])
        assert f.flat == (1.0, 0.5, 0.25, 0.0, 2.0, 0.0)
        for derived in (f * f, f + f, f.scaled(3.0), f.diff()):
            assert derived.flat == tuple(c for r in derived.rows for c in r)
        with pytest.raises(TypeError):
            f.flat[0] = 2.0  # read-only, as the rows are

    def test_rows_must_line_up_with_the_weights(self):
        # the weights are flat, depth + 1 per ln row: a short row is refused
        # rather than read against the next row's weights
        with pytest.raises(DomainError):
            em_tail(LogPowerSeries(2.0, 3, [[1.0, 0.5]]), 100)
        with pytest.raises(DomainError):
            em_tail(LogPowerSeries(2.0, 3, [row(3, 1.0), [1.0, 0.5, 0.25]]), 100)

    def test_shapes_are_shared(self, oracle_models):
        shapes = {(m.s0, m.depth, len(m.rows), K) for m, K in oracle_models}
        assert len(shapes) < len(oracle_models) / 4

    def test_rows_are_built_once_per_ln_power(self):
        """Tables with 3, 1 and 2 ln rows at one decay, depth and K build
        three rows between them, and a table holds what it holds alone."""
        alone = summation._em_weights(2.0, 12, 2, 100, summation._EM_ORDER)
        series._cache.cache_clear()
        tables = [summation._em_weights(2.0, 12, n, 100, summation._EM_ORDER) for n in (3, 1, 2)]
        assert summation._em_row.cache_info().misses == 3
        assert tables[2] == alone
        assert all(table[0][0] is tables[0][0][0] for table in tables)
        series._cache.cache_clear()

    def test_tables_are_read_only(self):
        """Each functional is one flat tuple of floats, row after row, as
        long as the model's rows flattened; none can be written."""
        weights = summation._em_weights(2.0, 12, 2, 100, summation._EM_ORDER)
        assert isinstance(weights, tuple)
        *tables, last, _diverges = weights
        assert len(tables) == 4
        for flat in tables:
            assert isinstance(flat, tuple) and len(flat) == 2 * 13
            assert all(isinstance(w, float) for w in flat)
            with pytest.raises(TypeError):
                flat[0] = 0.0
        assert isinstance(last, tuple) and len(last) == 2
        with pytest.raises(TypeError):
            last[0] = 0.0

    def test_tables_stay_within_the_memo_bound(self):
        series._cache.cache_clear()
        for i in range(MEMO_SIZE + 10):
            s = 2.0 + i / 64.0
            em_tail(LogPowerSeries(s, 1, [row(1, 1.0)]), 100)
        info = summation._em_weights.cache_info()
        assert info.maxsize == MEMO_SIZE
        assert info.currsize == MEMO_SIZE
        series._cache.cache_clear()

    def test_clear_drops_the_tables(self):
        em_tail(LogPowerSeries(2.0, 1, [row(1, 1.0)]), 100)
        assert summation._em_weights.cache_info().currsize > 0
        series._cache.cache_clear()
        assert summation._em_weights.cache_info().currsize == 0


def test_sum_result_is_frozen():
    r = SumResult(1.0, 0.0, 1)
    with pytest.raises(AttributeError):
        r.value = 2.0


def test_sum_result_fields_and_scaled():
    r = SumResult(2.0, 1e-16, 7)
    assert (r.value, r.tail_estimate, r.terms_used) == (2.0, 1e-16, 7)
    assert r.scaled(-0.5) == SumResult(-1.0, 5e-17, 7)
    assert repr(r) == "SumResult(value=2.0, tail_estimate=1e-16, terms_used=7)"
