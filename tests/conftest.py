"""Shared fixtures and frozen reference values.

REFS holds high-precision reference values computed once with 40-digit
arithmetic from the independent route for each quantity: series values from
mixed partials of gamma ratios evaluated by arbitrary-precision numerical
differentiation, cross-checked against integral representations and raw
1e7-term partial sums.  They are frozen here so the test run itself stays
fast and hermetic.
"""

import math

from eulersums.asymptotics import LogPowerSeries, log_power_integral

# (family, params...) -> value; 22 significant digits (rounds to nearest binary64)
REFS = {
    ("v1", 0, 1): 1.2020569031595942854,
    ("v1", 0, 2): 0.270580808427784547879,
    ("v1", 1, 1): 0.1530090299921792781278,
    ("v1", 2, 2): 0.009020751875359931731668,
    ("v1", 3, 2): 0.003207082833374529720739,
    ("v1", 2, 3): 0.001960090806971547064113,
    ("v2", 0, 1): 2.164646467422276383032,
    ("v2", 0, 2): 0.1931023199788874689313,
    ("v2", 2, 1): 0.02808641086985176688467,
    ("v2", 2, 2): 0.003920181613943094128226,
    ("v2", 3, 4): 2.363945005557936187774e-05,
    ("t25", 0, 1): -1.644934066848226436472,
    ("t25", 1, 1): 0.3550659331517735635276,
    ("t25", 1, 2): 0.1530090299921792781278,
    ("t25", 2, 1): -0.1449340668482264364724,
    ("t25", 3, 2): 0.01834175206310169217861,
    ("e15", 0.5, 2): 0.5433832387483951751929,
    ("e15", 2.5, 1): 1.680372305546776047832,
    ("e15", 0.5, 1): 0.6137056388801093811655,
    ("e15", 3.5, 3): 3.029610159741735319956,
    ("t35", 0.5, 1.0, 1): 0.8535815370311840318881,
    ("t35", 2.5, 0.5, 2): 7.371443671868772218263,
    ("t35", 1.5, 2.5, 3): 0.01660618805710381961921,
    ("cor36", 0.5, 1): -0.869837855632015081619,
    ("cor36", 1.5, 2): -0.1142117362548722958047,
    ("cor36", 2.5, 1): -0.2815370958898199560205,
    ("cor36", 1.0, 1): -0.5852181544310789058277,
    ("v3", 1.0, 2, 1): 0.02576271845799859524994,
    ("v3", 0.5, 1, 0): -0.2928369259376319362237,
    ("v3", 2.5, 3, 2): -0.001070046583534127329766,
    ("v3", 1.5, 0, 1): 0.2421491872872994446102,
    ("v3h", 1.0, 1, 1): -0.02222900171596697005418,
    ("v3h", 0.5, 2, 0): 0.04038794453150893462814,
    ("v3h", 2.5, 1, 2): -0.001968295078096719550901,
    ("v4", 0.5, 0, 2): 0.1633692251021789423162,
    ("v4", 1.5, 2, 1): 0.02330976296890981179609,
    ("v4", 2.5, 1, 3): 0.001059443842556472866087,
    ("cor310", 0.5, 0): 1.086766477496790350386,
    ("cor310", 0.5, 2): 0.05537155776174535253995,
    ("cor310", 2.5, 1): 0.08736777164201638785471,
    ("cor310", -0.5, 0): 1.368056078023647174276,
    ("cor310", -0.5, 1): 0.4105075604727925573485,
    ("cor310", -0.5, 2): 0.2015917452196483779317,
    ("cor38", 0.4, 1): 0.660553025653610855703,
    ("cor38", 0.5, 3): 0.2135823179215298866378,
    ("F", 1, 1, 0): -1.644934066848226436472,
    ("F", 2, 1, 0): 2.404113806319188570799,
    ("F", 3, 1, 0): -6.493939402266829149096,
    ("F", 3, 1, 2): -0.118939402266829149096,
    ("F", 2, 3, 1): 0.7333669011944367130674,
    ("G", 1, 2, 1, 0.5): -0.5178831139670946413068,
    ("G", 3, 0, 2, 2.5): -0.0428945617250843883007,
    ("zeta", 3): 1.2020569031595942854,
    ("hurwitz", 2, 101): 0.009950166663333571395246,
    ("hurwitz", 4, 51): 2.58773312011367551406e-06,
}


def rel_err(got: float, want: float) -> float:
    scale = max(abs(got), abs(want))
    return abs(got - want) / scale if scale else 0.0


def assert_close(got: float, want: float, tol: float) -> None:
    if abs(want) < 1e-12:
        assert abs(got - want) <= tol, f"got {got!r}, want {want!r} (abs tol {tol})"
    else:
        assert rel_err(got, want) <= tol, (
            f"got {got!r}, want {want!r} (rel err {rel_err(got, want):.3e} > {tol})"
        )


GAMMA = 0.5772156649015328606
LN_SQRT_PI = 0.5 * math.log(math.pi)


def row(depth: int, *coeffs: float) -> list[float]:
    """A LogPowerSeries row of depth + 1 coefficients: `coeffs` on the first
    orders, zeros after them."""
    return list(coeffs) + [0.0] * (depth + 1 - len(coeffs))


def tail_integral(model: LogPowerSeries, K: float) -> float:
    """int_K^inf of the model; every monomial must have s > 1."""
    return math.fsum([c * log_power_integral(a, s, K) for (a, s), c in model.terms.items()])


def truncation_bound(model: LogPowerSeries, K: float) -> float:
    """int_K^inf of the model's last kept order, j = depth, taken with |C|:
    the part of em_tail's error estimate that bounds the orders the model
    dropped."""
    s = model.s0 + model.depth
    return math.fsum([abs(row[-1]) * log_power_integral(a, s, K)
                      for a, row in enumerate(model.rows) if row and row[-1]])
