"""Re-pin grid_lhs.json, oracle_bits.json and rhs_bits.json to what the
oracles and the closed forms compute now.

    PYTHONPATH=src python tests/repin_fixtures.py            # check, then write
    PYTHONPATH=src python tests/repin_fixtures.py --dry-run  # check only

A change to the tail models or to the split point K may move pinned values
by an ulp or so, and a change to the rounding count may move tail estimates.
Before anything is written, every oracle result whose value or tail_estimate
moved must lie within its own tail_estimate of a 30-digit mpmath reference
(test_em_oracles._reference, _beta_reference for the binomial series, or
test_series.ZETA_REFERENCES for the two zeta-value series), and no oracle's
converged flag, EvalConfig().converged of its result, may change.  A moved
grid value is checked through the oracle calls identities.verify makes for
it.  If any check fails the script writes nothing and exits 1.  It prints the
number of moved values and the largest move in ulp, how many of the moved
values it checks moved closer to their reference and how many farther (a
grid value counts where it is the value of the one oracle call behind it),
and the number of moved tail estimates with the range of new/old.  A result
the fixtures did not pin (a parameter set added to test_em_oracles.ORACLES,
a point added to the grid) is not a move: it is checked against its
reference all the same, and counted as added.  The 30-digit references take a few seconds each.

rhs_bits.json pins every closed form over test_jets._AXES and the right side
of every default_grid() point.  The closed forms carry no error bound to
check a moved value against, so their bits are re-pinned unchecked; the
script prints how many moved and the largest move in ulp, a change between a
value and an exception counting as a move by inf ulp.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import mpmath as mp

HERE = Path(__file__).parent
sys.path.insert(0, str(HERE))

import test_em_oracles as T  # noqa: E402
import test_jets  # noqa: E402
import test_series  # noqa: E402
from eulersums import identities, series  # noqa: E402
from eulersums.summation import EvalConfig  # noqa: E402

GRID = HERE / "grid_lhs.json"
BITS = HERE / "oracle_bits.json"
RHS = HERE / "rhs_bits.json"

GRID_ABOUT = ("LHS of every default_grid() point through identities.verify at tol 1e-8 and the "
              "default EvalConfig, as float.hex; written by tests/repin_fixtures.py, which checks "
              "every moved value against a 30-digit reference, so any other change to these bits "
              "is a change of result.")
BITS_ABOUT = ("Every parameter set of test_em_oracles.ORACLES through its series oracle at the "
              "default EvalConfig: [params, value as float.hex, tail_estimate as float.hex, "
              "converged, terms_used]; written by tests/repin_fixtures.py, which checks every moved "
              "value against a 30-digit reference, so any other change here is a change of result.")
RHS_ABOUT = ("Every rhs_* closed form over test_jets._AXES as [name, args, float.hex of the value or "
             "the exception's class name], and the right side of every default_grid() point as "
             "[identity, params, float.hex]; written by tests/repin_fixtures.py, so any other change "
             "to these bits is a change of result.")


def reference(name: str, params: tuple) -> mp.mpf:
    """The oracle's value to 30 digits, with the sign it puts in front of its
    series."""
    if name in test_series.ZETA_REFERENCES:
        return test_series.ZETA_REFERENCES[name](*params)
    if name in ("lhs_base_binomial", "lhs_binomial_shifted"):
        return T._beta_reference(name, params)
    sign = 1
    if name == "lhs_alt":
        sign = (-1) ** (params[0] - 1)
    elif name in ("lhs_variant3", "lhs_variant3h"):
        sign = (-1) ** params[1]
    return sign * T._reference(name, params)


def check(name: str, params: tuple, res, old: float | None = None,
          toward: list[int] | None = None) -> str | None:
    """Why `res` is not within its tail_estimate of the reference, or None.
    Given the value `old` that res.value moved from, `toward` gets 1 if the
    move took it closer to the reference, -1 if farther and 0 if neither."""
    ref = reference(name, params)
    err = abs(res.value - ref)
    if old is not None:
        was = abs(old - ref)
        toward.append((err < was) - (err > was))
    if err <= res.tail_estimate:
        return None
    return (f"{name}{params}: value {res.value!r} is {float(err):.3g} off, "
            f"tail_estimate {res.tail_estimate:.3g}")


def move(old: float, new: float) -> tuple[float, float]:
    """How far a pinned value moved: in ulp of the old value, and relative."""
    return abs(new - old) / math.ulp(old), abs(new - old) / abs(old) if old else math.inf


def repin_oracles(moves: list[tuple[float, float]], estimates: list[float], toward: list[int],
                  problems: list[str], added: list[str]) -> dict[str, list]:
    """The oracles' bits.  A result whose value or tail_estimate moved, or
    that was not pinned, is checked against its reference; `estimates` gets
    new/old of each moved tail_estimate, and `toward` how each moved value
    moved (check)."""
    pinned = json.loads(BITS.read_text())["oracles"]
    out = {}
    for name, (params_list, _) in T.ORACLES.items():
        rows = []
        was = {json.dumps(row[0]): row for row in pinned.get(name, [])}
        for params in params_list:
            res = getattr(series, name)(*params)
            converged = EvalConfig().converged(res)
            rows.append([list(params), res.value.hex(), res.tail_estimate.hex(), converged,
                         res.terms_used])
            old = was.get(json.dumps(rows[-1][0]))
            if old is None:
                added.append(f"{name}{params}")
                problems.append(check(name, params, res))
                continue
            if old[3] != converged:
                problems.append(f"{name}{params}: converged went from {old[3]} to {converged}")
            moved = old[1] != rows[-1][1]
            if moved:
                moves.append(move(float.fromhex(old[1]), res.value))
            if old[2] != rows[-1][2]:
                estimates.append(res.tail_estimate / float.fromhex(old[2]))
            if old[1:3] != rows[-1][1:3]:
                problems.append(check(name, params, res,
                                      float.fromhex(old[1]) if moved else None, toward))
        out[name] = rows
    return out


def repin_grid(moves: list[tuple[float, float]], estimates: list[float], toward: list[int],
               problems: list[str], added: list[str]) -> list[list]:
    """The grid's LHS bits (it pins no estimates, so `estimates` stays
    empty).  Every series oracle identities.verify calls is wrapped, so a
    moved or added value can be checked through the calls behind it; a
    moved value that is the value of the one call behind it adds to
    `toward`."""
    calls = []

    def recording(name, fn):
        def wrapper(*args):
            res = fn(*args)
            calls.append((name, args, res))
            return res
        return wrapper

    originals = {name: getattr(identities, name)
                 for name in (*T.ORACLES, *test_series.ZETA_REFERENCES)}
    pinned = {json.dumps(point[:2]): point[2] for point in json.loads(GRID.read_text())["points"]}
    out = []
    try:
        for name, fn in originals.items():
            setattr(identities, name, recording(name, fn))
        for ident, params in identities.default_grid():
            calls.clear()
            lhs = identities.verify(ident, params, 1e-8).lhs
            out.append([ident.value, params, lhs.hex()])
            was = pinned.get(json.dumps(out[-1][:2]))
            if was == out[-1][2]:
                continue
            old = None
            if was is None:
                added.append(f"{ident.value} {params}")
            else:
                moves.append(move(float.fromhex(was), lhs))
                if len(calls) == 1 and calls[0][2].value == lhs:
                    old = float.fromhex(was)
            if not calls:
                problems.append(f"{ident.value} {params}: changed without an oracle call to check")
            problems.extend(check(name, args, res, old, toward) for name, args, res in calls)
    finally:
        for name, fn in originals.items():
            setattr(identities, name, fn)
    dropped = pinned.keys() - {json.dumps(point[:2]) for point in out}
    problems.extend(f"default_grid() no longer lists {point}" for point in sorted(dropped))
    return out


def repin_rhs(moves: list[tuple[float, float]], estimates: list[float], toward: list[int],
              problems: list[str], added: list[str]) -> dict[str, list]:
    """The closed forms' bits, unchecked (so `estimates`, `toward` and
    `problems` stay empty).  A point the fixture did not list is added, not
    moved."""
    out = {"rhs": test_jets._right_sides(), "grid": test_jets._grid_right_sides()}
    pinned = json.loads(RHS.read_text())
    for part, rows in out.items():
        old = {json.dumps(row[:2]): row[2] for row in pinned[part]}
        for row in rows:
            was = old.get(json.dumps(row[:2]))
            if was is None:
                added.append(f"{part} {row[:2]}")
                continue
            if was == row[2]:
                continue
            try:
                moves.append(move(float.fromhex(was), float.fromhex(row[2])))
            except ValueError:  # an exception's class name on either side
                moves.append((math.inf, math.inf))
    return out


def dump_rhs(pins: dict[str, list]) -> str:
    blocks = ",\n".join(f" {json.dumps(part)}: [\n" + ",\n".join("  " + json.dumps(r) for r in rows)
                        + "\n ]" for part, rows in pins.items())
    return f'{{"about": {json.dumps(RHS_ABOUT)},\n{blocks}}}\n'


def dump_grid(points: list[list]) -> str:
    lines = ",\n".join("  " + json.dumps(p) for p in points)
    return f'{{"about": {json.dumps(GRID_ABOUT)},\n "points": [\n{lines}\n]}}\n'


def dump_bits(oracles: dict[str, list]) -> str:
    blocks = ",\n".join(f"  {json.dumps(name)}: [\n" + ",\n".join("   " + json.dumps(r) for r in rows)
                        + "\n  ]" for name, rows in oracles.items())
    return f'{{"about": {json.dumps(BITS_ABOUT)},\n "oracles": {{\n{blocks}\n }}}}\n'


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dry-run", action="store_true", help="check, but write nothing")
    args = parser.parse_args(argv)
    problems, texts = [], {}
    for label, path, repin, dump in (("oracle", BITS, repin_oracles, dump_bits),
                                     ("grid", GRID, repin_grid, dump_grid),
                                     ("right-side", RHS, repin_rhs, dump_rhs)):
        moves, estimates, toward, added = [], [], [], []
        texts[path] = dump(repin(moves, estimates, toward, problems, added))
        ulp = max((u for u, _ in moves), default=0.0)
        rel = max((r for _, r in moves), default=0.0)
        spread = f", new/old {min(estimates):.3g} to {max(estimates):.3g}" if estimates else ""
        closer = (f" ({toward.count(1)} of {len(toward)} checked moved closer to the reference, "
                  f"{toward.count(-1)} farther)" if toward else "")
        print(f"{path.name}: {len(moves)} {label} values moved, the largest by {ulp:.3g} ulp "
              f"({rel:.3g} relative){closer}; {len(estimates)} tail estimates moved{spread}; "
              f"{len(added)} added")
    problems = [p for p in problems if p]
    if problems:
        print("\n".join(problems))
        print("nothing written")
        return 1
    if not args.dry_run:
        for path, text in texts.items():
            path.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
