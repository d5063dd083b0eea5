"""The four benchmark workloads: their points, the calls that are timed and the
correctness check applied to every output.

Every workload has a canonical point order; the seed only permutes it.  An
in-process point is one public call (``identities.verify`` or one ``rhs_*``
closed form); a cli point is one ``euler-sums`` subprocess.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Any

from eulersums import identities, series
from eulersums.identities import IdentityId, default_grid
from eulersums.summation import EvalConfig

TOL = 1e-7
CFG = EvalConfig()
NAMES = ("grid", "closed_form", "adaptive", "cli")


def check(lhs: float, rhs: float, converged: bool) -> bool:
    """The benchmark's verdict, independent of the program's: both sides finite,
    the series converged, and |lhs - rhs| / max(|lhs|, |rhs|) <= TOL with no
    absolute-error fallback near zero."""
    if not (converged and math.isfinite(lhs) and math.isfinite(rhs)):
        return False
    scale = max(abs(lhs), abs(rhs))
    return scale == 0.0 or abs(lhs - rhs) / scale <= TOL


@dataclass(frozen=True)
class Point:
    ident: IdentityId
    params: dict[str, Any]
    rhs: str = ""  # closed_form: the rhs_* function timed at this point

    @functools.cached_property
    def key(self) -> str:
        return f"{self.ident.value} {json.dumps(self.params, sort_keys=True)}"


def first_per_identity(points: list[Point]) -> list[Point]:
    """The first point of each identity (closed form) in canonical order: the
    points whose cold call pays every lazy set-up the workload touches."""
    seen: dict[str, Point] = {}
    for pt in points:
        seen.setdefault(pt.rhs or pt.ident.value, pt)
    return list(seen.values())


def reset_lazy_state() -> None:
    """Drop the lazily built HarmonicCache so the next pass builds it again."""
    cached = getattr(series, "_cache", None)
    if hasattr(cached, "cache_clear"):
        cached.cache_clear()


# --------------------------------- grid -------------------------------------


class VerifyWorkload:
    """Each point is one identities.verify call; the check reads its lhs/rhs."""

    def __init__(self, points: list[Point]) -> None:
        self.points = points

    def prepare(self) -> None:
        pass

    def call(self, pt: Point) -> Any:
        return identities.verify(pt.ident, pt.params, TOL, CFG)

    def judge(self, pt: Point, out: Any) -> tuple[bool, bool | None]:
        """(benchmark verdict, program verdict) for one output."""
        if isinstance(out, Exception):
            return False, None
        return check(out.lhs, out.rhs, out.converged), out.passed


def grid_points() -> list[Point]:
    return [Point(ident, params) for ident, params in default_grid()]


# ------------------------------ closed_form ---------------------------------

_XS = [float(v) for v in range(11)]
_NS = list(range(11))
_PS = [0.5, 1.0, 2.5]

# (closed form, identity, parameter axes).  m runs from each signature's
# minimum to 10, except in the three x/n-p families whose denominator carries
# (.)^(m+1), where it stops at 9 so every x/n-p family has 330 points.  n and
# m up to 10 reach the cancellation region of the finite binomial-harmonic
# sums, which the default grid (n <= 4, m <= 5) stays out of.
CLOSED_FORMS: tuple[tuple[str, IdentityId, dict[str, list]], ...] = (
    ("rhs_thm_e15", IdentityId.THM_BASE_E15, {"x": _XS, "m": list(range(1, 11))}),
    ("rhs_thm_t25", IdentityId.THM_ALT_T25, {"n": _NS, "m": list(range(1, 11))}),
    ("rhs_thm_31", IdentityId.THM_V1_31, {"n": _NS, "m": list(range(1, 11))}),
    ("rhs_cor_32", IdentityId.COR_EULER_32, {"m": list(range(2, 11))}),
    ("rhs_thm_33", IdentityId.THM_V2_33, {"n": _NS, "m": list(range(1, 11))}),
    ("rhs_cor_34", IdentityId.COR_34, {"m": list(range(1, 11))}),
    ("rhs_thm_35", IdentityId.THM_BASE_35, {"x": _XS, "p": _PS, "m": list(range(0, 10))}),
    ("rhs_cor_36", IdentityId.COR_CENTRAL_36, {"p": _PS, "m": list(range(0, 11))}),
    ("rhs_thm_37", IdentityId.THM_V3_37, {"p": _PS, "n": _NS, "m": list(range(0, 10))}),
    ("rhs_cor_38", IdentityId.COR_38, {"p": _PS, "m": list(range(0, 11))}),
    ("rhs_thm_39", IdentityId.THM_V3H_39, {"p": _PS, "n": _NS, "m": list(range(0, 10))}),
    ("rhs_cor_310", IdentityId.COR_310, {"p": _PS, "m": list(range(0, 11))}),
    ("rhs_thm_311", IdentityId.THM_V4_311, {"p": _PS, "n": _NS, "m": list(range(1, 11))}),
    ("rhs_cor_312", IdentityId.COR_312, {"p": _PS, "m": list(range(1, 11))}),
)


def closed_form_points() -> list[Point]:
    pts = []
    for rhs, ident, axes in CLOSED_FORMS:
        for combo in itertools.product(*axes.values()):
            pts.append(Point(ident, dict(zip(axes, combo)), rhs))
    return pts


class ClosedFormWorkload(VerifyWorkload):
    """Each point is one rhs_* call, checked against the series value that
    identities.verify computes for the same point before timing starts."""

    def prepare(self) -> None:
        self.ref: dict[str, Any] = {}
        for pt in self.points:
            try:
                self.ref[pt.key] = identities.verify(pt.ident, pt.params, TOL, CFG)
            except Exception as exc:  # no reference: the point fails the check
                self.ref[pt.key] = exc

    def call(self, pt: Point) -> Any:
        return getattr(identities, pt.rhs)(**pt.params)

    def judge(self, pt: Point, out: Any) -> tuple[bool, bool | None]:
        ref = self.ref[pt.key]
        if isinstance(ref, Exception):
            return False, None
        if isinstance(out, Exception):
            return False, ref.passed
        return check(ref.lhs, out, ref.converged), ref.passed


# ------------------------------- adaptive -----------------------------------


def adaptive_points() -> list[Point]:
    """Non-integer x sends THM_BASE_E15 and THM_BASE_35 through sum_adaptive;
    the EX3 forms sum Hurwitz zeta values.  x = -0.5 holds the two points
    that run to the max_terms cap; listing it last keeps them out of the
    one-point-per-identity smoke set."""
    pts = []
    for x in (2.5, 0.5, -0.5):
        pts += [Point(IdentityId.THM_BASE_E15, {"x": x, "m": m}) for m in range(1, 5)]
        pts += [Point(IdentityId.THM_BASE_35, {"x": x, "p": 1.0, "m": m}) for m in range(0, 4)]
    pts += [Point(IdentityId.EX3_GOLDBACH, {"form": "zeta-tail", "m": m}) for m in range(4)]
    pts.append(Point(IdentityId.EX3_GOLDBACH, {"form": "power-series", "p": 0.4, "m": 1}))
    return pts


def inprocess(name: str, smoke: bool = False) -> VerifyWorkload:
    """An in-process workload; `smoke` keeps one point per identity (closed
    form), the smallest set that still reaches every layer."""
    kinds = {"grid": (VerifyWorkload, grid_points),
             "closed_form": (ClosedFormWorkload, closed_form_points),
             "adaptive": (VerifyWorkload, adaptive_points)}
    kind, points = kinds[name]
    return kind(first_per_identity(points()) if smoke else points())


# ---------------------------------- cli -------------------------------------

VERIFY_ALL = "verify --all"


def cli_invocations(smoke: bool = False) -> list[tuple[str, list[str]]]:
    """`verify --all` at the default --jobs, then one `eval` per identity at the
    identity's first default-grid point (only the first in a smoke run):
    (label, argv after the program name)."""
    evals = []
    for pt in first_per_identity(grid_points()):
        argv = ["eval", pt.ident.value]
        for key, val in pt.params.items():
            argv += [f"--{key}", str(val)]
        evals.append((f"eval {pt.key}", argv))
    return [(VERIFY_ALL, ["verify", "--all"])] + evals[: 1 if smoke else None]


def judge_cli(label: str, returncode: int, stdout: str) -> tuple[bool, int, int]:
    """(invocation ok, records passing the check, records whose `pass` field
    disagrees with the check).  An invocation fails on a nonzero exit code, a
    missing or unparsable record, or any record failing the check."""
    lines = stdout.splitlines()
    expected = len(default_grid()) if label == VERIFY_ALL else 1
    passed = disagree = 0
    for line in lines:
        try:
            rec = json.loads(line)
            ok = check(float(rec["lhs"]), float(rec["rhs"]), bool(rec["converged"]))
        except (ValueError, KeyError, TypeError):
            continue
        passed += ok
        disagree += rec.get("pass") != ok
    return returncode == 0 and len(lines) == expected and passed == expected, passed, disagree


# Bindings each workload must reach in a traced pass.  A binding that exists
# but never fires means a wrapper sits in a namespace the call does not look
# the name up from.
EXERCISED: dict[str, tuple[str, ...]] = {
    "grid": ("identities.verify", "identities.lhs_variant1", "series.em_tail",
             "asymptotics.LogPowerSeries.__mul__", "asymptotics.LogPowerSeries.jet",
             "asymptotics.harmonic_lp", "identities.gamma_ratio_jet", "jets.polygamma",
             "special.HarmonicCache.build"),
    "closed_form": tuple(f"identities.{rhs}" for rhs, _, _ in CLOSED_FORMS) + (
        "identities.gamma_ratio_jet", "identities.mixed_partial", "identities.harmonic",
        "identities.polygamma", "jets.polygamma"),
    "adaptive": ("identities.verify", "identities.lhs_base_binomial",
                 "identities.lhs_binomial_shifted", "identities.zeta_tail_sum",
                 "series.sum_adaptive", "series.gen_binom", "series.hurwitz_zeta"),
    "cli": ("cli.main", "cli.cmd_verify", "cli.cmd_eval", "cli.verify",
            "identities.lhs_variant1", "series.em_tail", "identities.gamma_ratio_jet",
            "special.HarmonicCache.build"),
}
