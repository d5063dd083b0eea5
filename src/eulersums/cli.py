"""Command-line front end: list identities, evaluate sides, verify, sweep.

Output records are JSON objects (one per line for streams) with every real
serialized at 17 significant digits, so parsing a record back reproduces the
binary64 values exactly.  Exit codes: 0 success / all passed, 1 verification
failures, 2 parameter or domain errors, 3 non-convergence.  Arithmetic that
leaves binary64 (an ArithmeticError, such as a closed form's p ** k
underflowing to zero at p = 1e-300) is a domain error too: one `error:` line
on stderr and exit 2, never a traceback.  Grids and sweeps run in the process
that parsed them; `--jobs` is still accepted and ignored.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from typing import Any

from .identities import (DEFAULT_CONFIG, REGISTRY, IdentityId, VerifyReport, _axes, default_grid,
                         verify)
from .special import DomainError, check_above
from .summation import EvalConfig

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_DOMAIN = 2
EXIT_NOT_CONVERGED = 3

DEFAULT_TOL = 1e-7
CSV_HEADER = ["id", "n", "m", "p", "lhs", "rhs", "abs_err", "rel_err", "terms", "converged"]


def _fmt(x: Any) -> Any:
    """17-significant-digit float serialization; round-trips binary64 exactly."""
    if isinstance(x, float):
        return format(x, ".17g")
    return x


def _json_value(val: Any) -> str:
    """One JSON value, dispatched on the exact type so that the common ones
    skip json.dumps; a float gets 17 significant digits."""
    kind = type(val)
    if kind is float:
        return format(val, ".17g")
    if kind is bool:
        return "true" if val else "false"
    if kind is int:
        return repr(val)
    if kind is dict:
        return _json_record(val)
    return json.dumps(val)


def _json_record(obj: dict[str, Any]) -> str:
    """Flat-dict JSON writer with controlled float formatting."""
    return "{" + ", ".join(f'"{key}": {_json_value(val)}' for key, val in obj.items()) + "}"


def _ndjson(records: list[dict[str, Any]]) -> str:
    return "".join(_json_record(rec) + "\n" for rec in records)


def record_from_report(rep: VerifyReport, wall_ms: float, side: str = "both") -> dict[str, Any]:
    rec: dict[str, Any] = {"id": rep.id.value, "params": dict(rep.params)}
    if side in ("both", "lhs"):
        rec["lhs"] = rep.lhs
    if side in ("both", "rhs"):
        rec["rhs"] = rep.rhs
    if side == "both":
        rec.update(abs_err=rep.abs_err, rel_err=rep.rel_err)
        rec["pass"] = rep.passed
    rec.update(lhs_terms=rep.lhs_terms, converged=rep.converged)
    for key, val in rep.extra.items():
        rec[key] = val
    rec["wall_ms"] = wall_ms
    return rec


def _parse_identity(name: str) -> IdentityId:
    try:
        return IdentityId[name.upper()]
    except KeyError:
        raise DomainError(
            f"unknown identity {name!r}; run `euler-sums list` for the inventory"
        ) from None


def _parse_range(key: str, text: str) -> list[float]:
    """Accept '0..3' (integer bounds, inclusive), '0.5,1,2', or a single
    number, as the values of the --key axis."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return [float(v) for v in range(int(lo), int(hi) + 1)]
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError:
        rule = "range a..b takes integer bounds" if ".." in text else "takes numbers"
        raise DomainError(f"--{key} {rule}, got {text}") from None


def _collect_params(args: argparse.Namespace) -> dict[str, Any]:
    return {key: getattr(args, key) for key in ("n", "m", "p", "x", "which", "form")
            if getattr(args, key) is not None}


# ------------------------------- commands -----------------------------------


def cmd_list(args: argparse.Namespace) -> int:
    needle = (args.filter or "").lower()
    for ident, row in REGISTRY.items():
        line = f"{ident.value:16s} params={row.signature:40s} :: {row.formula}"
        if needle in line.lower():
            print(line)
    return EXIT_OK


def _verify_timed(ident: IdentityId, params: dict, tol: float, cfg: EvalConfig) -> tuple[VerifyReport, float]:
    t0 = time.perf_counter()
    rep = verify(ident, params, tol, cfg)
    return rep, (time.perf_counter() - t0) * 1e3


def cmd_eval(args: argparse.Namespace) -> int:
    ident = _parse_identity(args.identity)
    tol = check_above("--tol", args.tol, 0.0)
    cfg = EvalConfig(check_above("--rel-tol", args.rel_tol, 0.0))
    rep, ms = _verify_timed(ident, _collect_params(args), tol, cfg)
    print(_json_record(record_from_report(rep, ms, side=args.side)))
    if not rep.converged:
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _grid_for(args: argparse.Namespace) -> list[tuple[IdentityId, dict[str, Any]]]:
    if args.all:
        return default_grid()
    ident = _parse_identity(args.identity)
    explicit = _collect_params(args)
    if explicit:
        return [(ident, explicit)]
    return [(ident, dict(params)) for params in REGISTRY[ident].grid]


def _run_grid(grid, tol: float, cfg: EvalConfig) -> list[dict]:
    return [record_from_report(*_verify_timed(ident, params, tol, cfg)) for ident, params in grid]


def cmd_verify(args: argparse.Namespace) -> int:
    tol = check_above("--tol", args.tol, 0.0)
    cfg = EvalConfig(check_above("--rel-tol", args.rel_tol, 0.0))
    records = _run_grid(_grid_for(args), tol, cfg)
    sys.stdout.write(_ndjson(records))
    passed = sum(bool(rec.get("pass")) for rec in records)
    print(_json_record({"checked": len(records), "passed": passed, "tol": tol}), file=sys.stderr)
    if not all(rec.get("converged", True) for rec in records):
        return EXIT_NOT_CONVERGED
    return EXIT_OK if passed == len(records) else EXIT_VERIFY_FAILED


def _sweep_grid(args: argparse.Namespace) -> list[tuple[IdentityId, dict[str, Any]]]:
    ident = _parse_identity(args.identity)
    axes: dict[str, list[Any]] = {}
    for key in ("x", "n", "m", "p"):
        text = getattr(args, key)
        if text is not None:
            vals = _parse_range(key, text)
            if key in ("n", "m"):
                for v in vals:
                    if not v.is_integer():
                        raise DomainError(f"--{key} takes integers, got {_fmt(v)}")
                vals = [int(v) for v in vals]
            axes[key] = vals
    # one sub-form for every row, then the axes, the last varying fastest; an
    # empty axis gives no rows
    fixed = {key: getattr(args, key) for key in ("which", "form") if getattr(args, key) is not None}
    return [(ident, {**fixed, **params}) for params in _axes(**axes)]


def cmd_sweep(args: argparse.Namespace) -> int:
    tol = check_above("--tol", args.tol, 0.0)
    cfg = EvalConfig(check_above("--rel-tol", args.rel_tol, 0.0))
    records = _run_grid(_sweep_grid(args), tol, cfg)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(CSV_HEADER)
        for rec in records:
            params = rec["params"]
            writer.writerow([
                rec["id"],
                _fmt(params.get("n", params.get("x", ""))),
                _fmt(params.get("m", "")),
                _fmt(params.get("p", "")),
                _fmt(rec["lhs"]),
                _fmt(rec["rhs"]),
                _fmt(rec["abs_err"]),
                _fmt(rec["rel_err"]),
                rec["lhs_terms"],
                rec["converged"],
            ])
        text = buf.getvalue()
    else:
        text = _ndjson(records)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:  # a domain error, not a failed verification
            raise DomainError(f"--out cannot be written: {exc}") from None
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="euler-sums",
        description="Evaluate and verify the variant Euler harmonic sums "
                    "(direct summation vs gamma-ratio closed forms).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list the identity inventory")
    p_list.add_argument("filter", nargs="?", default="", help="substring filter")
    p_list.set_defaults(func=cmd_list)

    def add_common(p: argparse.ArgumentParser, with_params: bool = True) -> None:
        p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="comparison tolerance (default 1e-7)")
        p.add_argument("--rel-tol", type=float, default=DEFAULT_CONFIG.rel_tol,
                       help="largest tail estimate / |lhs| of a converged series (default 1e-10)")
        p.add_argument("--jobs", type=int, default=None,
                       help="ignored: grids run in this process (kept so old scripts parse)")
        if with_params:
            p.add_argument("--n", type=int, default=None)
            p.add_argument("--m", type=int, default=None)
            p.add_argument("--p", type=float, default=None)
            p.add_argument("--x", type=float, default=None)
            p.add_argument("--which", default=None, help="EX1/EX2 sub-instance")
            p.add_argument("--form", default=None, help="EX3 sub-instance")

    p_eval = sub.add_parser("eval", help="evaluate one identity instance")
    p_eval.add_argument("identity")
    p_eval.add_argument("--side", choices=("both", "lhs", "rhs"), default="both")
    add_common(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="verify identities over a grid (NDJSON stream)")
    p_verify.add_argument("identity", nargs="?", default=None)
    p_verify.add_argument("--all", action="store_true", help="run the full default grid")
    add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="tabulate an identity over parameter ranges")
    p_sweep.add_argument("identity")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--out", default=None, help="output file (default: stdout)")
    add_common(p_sweep, with_params=False)
    p_sweep.add_argument("--x", default=None, help="range like 0..3 or 0.5,1,2")
    p_sweep.add_argument("--n", default=None, help="range like 0..3")
    p_sweep.add_argument("--m", default=None, help="range like 1..4")
    p_sweep.add_argument("--p", default=None, help="range like 0.5,1,2")
    p_sweep.add_argument("--which", default=None, help="EX1/EX2 sub-instance, in every row")
    p_sweep.add_argument("--form", default=None, help="EX3 sub-instance, in every row")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and not args.all and args.identity is None:
        parser.error("verify needs an identity name or --all")
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
