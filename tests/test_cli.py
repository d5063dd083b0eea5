"""CLI: inventory, record shapes, exit codes, sweeps, config precedence."""

import csv
import inspect
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from eulersums import identities
from eulersums.cli import (
    CSV_HEADER,
    DEFAULT_TOL,
    EXIT_DOMAIN,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    _json_record,
    _verify_timed,
    main,
    record_from_report,
)
from eulersums.identities import DEFAULT_CONFIG, REGISTRY, IdentityId, default_grid


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestList:
    def test_inventory_has_18_lines(self, capsys):
        code, out, _ = run(capsys, "list")
        lines = [l for l in out.splitlines() if l.strip()]
        assert code == EXIT_OK
        assert len(lines) == 18

    def test_filter_corollaries(self, capsys):
        code, out, _ = run(capsys, "list", "cor_")
        lines = [l for l in out.splitlines() if l.strip()]
        assert code == EXIT_OK
        assert len(lines) == 6
        assert all(l.startswith("COR_") for l in lines)

    def test_unknown_filter_empty(self, capsys):
        code, out, _ = run(capsys, "list", "nosuchidentity")
        assert code == EXIT_OK
        assert out.strip() == ""


class TestEval:
    def test_both_sides_euler(self, capsys):
        code, out, _ = run(capsys, "eval", "THM_V1_31", "--n", "0", "--m", "1")
        assert code == EXIT_OK
        rec = json.loads(out)
        assert rec["id"] == "THM_V1_31"
        assert rec["pass"] is True
        assert abs(rec["lhs"] - 1.2020569031595943) < 1e-12
        assert abs(rec["rhs"] - 1.2020569031595943) < 1e-12
        assert rec["wall_ms"] > 0.0

    def test_goldbach_default(self, capsys):
        code, out, _ = run(capsys, "eval", "EX3_GOLDBACH")
        rec = json.loads(out)
        assert code == EXIT_OK
        assert rec["lhs"] == 1.0 and rec["rhs"] == 1.0

    def test_side_selector(self, capsys):
        _, out, _ = run(capsys, "eval", "COR_38", "--p", "1", "--m", "0", "--side", "lhs")
        rec = json.loads(out)
        assert "lhs" in rec and "rhs" not in rec

    def test_side_selects_what_is_printed_not_evaluated(self, capsys):
        # the series at m = 400 is fine, but eval computes the closed form too,
        # and its polygamma(141, 1) overflows
        code, out, err = run(capsys, "eval", "COR_CENTRAL_36", "--p", "1", "--m", "400",
                             "--side", "lhs")
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err == "error: polygamma(141, 1.0) overflows binary64\n"

    def test_round_trip_17_digits(self, capsys):
        _, out, _ = run(capsys, "eval", "THM_V3_37", "--p", "0.5", "--n", "1", "--m", "2")
        rec = json.loads(out)
        for key in ("lhs", "rhs", "abs_err", "rel_err"):
            val = rec[key]
            assert float(format(val, ".17g")) == val
            # the printed token itself appears in the raw record text
            assert format(val, ".17g") in out

    def test_unknown_identity_exit_2(self, capsys):
        code, _, err = run(capsys, "eval", "THM_NOPE")
        assert code == EXIT_DOMAIN
        assert "unknown identity" in err

    def test_domain_violation_exit_2(self, capsys):
        code, _, _ = run(capsys, "eval", "THM_V1_31", "--n", "-3", "--m", "1")
        assert code == EXIT_DOMAIN

    @pytest.mark.parametrize("m", ["1", "0"])
    def test_euler_32_names_the_given_m(self, capsys, m):
        # the series takes m - 1; the error is about the m on the command line
        code, out, err = run(capsys, "eval", "COR_EULER_32", "--m", m)
        assert code == EXIT_DOMAIN
        assert out == "" and err == f"error: m must be an integer >= 2, got {m}\n"

    def test_cor_310_at_minus_one_half_is_the_half_shifted_example(self, capsys):
        """The corollaries take p > -1, p != 0; at p = -1/2 COR_310 is EX4."""
        records = []
        for argv in (("COR_310", "--p", "-0.5", "--m", "1"), ("EX4_HALF", "--m", "1")):
            code, out, _ = run(capsys, "eval", *argv)
            assert code == EXIT_OK
            records.append(json.loads(out))
        cor, ex4 = records
        assert cor["pass"] is True
        assert (cor["lhs"], cor["rhs"], cor["lhs_terms"]) == (ex4["lhs"], ex4["rhs"], ex4["lhs_terms"])

    def test_non_convergence_exit_3(self, capsys):
        # the head cancels past what binary64 holds at rel_tol
        code, out, _ = run(capsys, "eval", "THM_BASE_E15", "--x", "50.5", "--m", "1")
        assert code == EXIT_NOT_CONVERGED
        assert json.loads(out)["converged"] is False

    @pytest.mark.parametrize("argv", [("THM_BASE_E15", "--x", "60", "--m", "1"),
                                      ("THM_BASE_E15", "--x", "400", "--m", "3"),
                                      ("THM_BASE_35", "--x", "60", "--p", "0.5", "--m", "9")])
    def test_integer_x_cancellation_passes(self, capsys, argv):
        # the finite sums cancel from terms up to 1e112, but are summed
        # exactly, and the identity holds to the last few bits
        code, out, _ = run(capsys, "eval", *argv)
        rec = json.loads(out)
        assert code == EXIT_OK
        assert rec["converged"] is True and rec["pass"] is True

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ident, extra", [("THM_BASE_E15", ["--m", "1"]),
                                              ("THM_BASE_35", ["--p", "1", "--m", "0"])])
    def test_binomial_large_x(self, capsys, ident, extra):
        # the head cancels past what binary64 holds: an honest non-convergence
        code, out, _ = run(capsys, "eval", ident, "--x", "50.5", *extra)
        assert code == EXIT_NOT_CONVERGED
        assert json.loads(out)["converged"] is False
        # 1/Gamma(-x) overflows: a domain-style error, not a traceback
        code, out, err = run(capsys, "eval", ident, "--x", "500.5", *extra)
        assert code == EXIT_DOMAIN
        assert out == "" and err.startswith("error:")

    @pytest.mark.filterwarnings("error")
    def test_polygamma_overflow_exit_2(self, capsys):
        # psi^(k) at the orders the m = 400 jets need leaves binary64
        code, out, err = run(capsys, "eval", "COR_CENTRAL_36", "--p", "1", "--m", "400")
        assert code == EXIT_DOMAIN
        assert out == "" and err.startswith("error:")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p, m, k", [("2e-12", "25", 24), ("1e-11", "30", 25)])
    def test_polygamma_near_pole_exit_2(self, capsys, p, m, k):
        # a recurrence term k!/p^(k+1) overflows (at 2e-12) or p^(k+1)
        # underflows to 0 (at 1e-11): polygamma says so, instead of a value
        # of -inf that blames the identity or a division by zero
        code, out, err = run(capsys, "eval", "COR_CENTRAL_36", "--p", p, "--m", m)
        assert code == EXIT_DOMAIN
        assert out == "" and err == f"error: polygamma({k}, {float(p)}) overflows binary64\n"

    def test_p_next_to_the_pole_is_evaluated(self, capsys):
        # psi at p = 1e-13 is finite, so the point is judged, not refused; its
        # right side cancels as p -> 0 and fails
        code, out, err = run(capsys, "eval", "THM_V3_37", "--p", "1e-13", "--n", "0", "--m", "1")
        assert code == EXIT_OK and err == ""
        assert json.loads(out)["pass"] is False

    @pytest.mark.parametrize("argv", [("COR_38", "--p", "1e-300", "--m", "2"),
                                      ("THM_V4_311", "--p", "1e-300", "--n", "1", "--m", "3"),
                                      ("COR_310", "--p", "1e-200", "--m", "3")])
    def test_underflow_exit_2(self, capsys, argv):
        # the closed form's p ** k underflows to zero: a domain error naming
        # p, not a division by zero
        code, out, err = run(capsys, "eval", *argv)
        assert code == EXIT_DOMAIN
        assert out == "" and err.startswith(f"error: p = {float(argv[2])} puts p^")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv, named", [
        (("THM_V3_37", "--p", "inf", "--n", "1", "--m", "1"), "p must be finite and > 0, got inf"),
        # the corollary, like its series, takes any finite p > -1, p != 0
        (("COR_38", "--p", "inf", "--m", "1"), "p must be finite and > -1, got inf"),
        (("THM_BASE_35", "--x", "0.5", "--p", "nan", "--m", "1"), "p must be finite and > 0, got nan"),
        (("THM_BASE_E15", "--x", "inf", "--m", "1"), "x must be finite and > -1, got inf"),
        (("THM_BASE_E15", "--x", "1e6", "--m", "1"),
         "x = 1000000.0 and m = 1 put the exact finite sum past its work cap"),
        (("THM_BASE_E15", "--x", "1e300", "--m", "1"),
         "x = 1e+300 and m = 1 put the exact finite sum past its work cap"),
        (("THM_BASE_E15", "--x", "5000", "--m", "12"),
         "x = 5000.0 and m = 12 put the exact finite sum past its work cap"),
        (("THM_BASE_35", "--x", "2000", "--p", "1", "--m", "1"),
         "x = 2000.0, p = 1.0 and m = 1 put the exact finite sum past its work cap"),
        # the left side sums to 5 and 1; the right side reads jets to m <= 12
        (("THM_BASE_E15", "--x", "5", "--m", "1000"), "m must be <= 12, got 1000"),
        (("THM_BASE_35", "--x", "5", "--p", "1", "--m", "1000"), "m must be <= 12, got 1000"),
        (("THM_BASE_35", "--x", "5", "--p", "0.001", "--m", "200"),
         "x = 5.0, p = 0.001 and m = 200 put the finite sum past binary64"),
        (("THM_BASE_35", "--x", "5", "--p", "3e-25", "--m", "12"),
         "x = 5.0, p = 3e-25 and m = 12 put the finite sum past binary64"),
    ])
    def test_series_parameter_out_of_range_is_named(self, capsys, argv, named):
        # a parameter out of range is refused by name, the finite sum's
        # before any summing where its work cap refuses it
        code, out, err = run(capsys, "eval", *argv)
        assert code == EXIT_DOMAIN
        assert out == "" and err == f"error: {named}\n"

    @pytest.mark.parametrize("p", ["-0.5", "0", "inf"])
    @pytest.mark.parametrize("ident, series", [
        ("THM_V3_37", "lhs_variant3"), ("THM_V3H_39", "lhs_variant3h"),
        ("THM_V4_311", "lhs_variant4")])
    def test_theorem_p_is_checked_before_its_series(self, capsys, monkeypatch, ident, series, p):
        """The shifted series take p > -1; the theorems take p > 0, and a p
        outside that is refused by the theorem's bound before any summing."""
        def unreachable(*args):
            raise AssertionError(f"{series} ran at p = {p}")
        monkeypatch.setattr(identities, series, unreachable)
        code, out, err = run(capsys, "eval", ident, "--p", p, "--n", "1", "--m", "1")
        assert code == EXIT_DOMAIN
        assert out == "" and err == f"error: p must be finite and > 0, got {float(p)}\n"

    @pytest.mark.parametrize("ident", list(IdentityId))
    def test_missing_or_unknown_param_exit_2(self, capsys, ident):
        point = REGISTRY[ident].grid[0]
        cases = [] if ident.value.startswith("EX") else [  # the examples have defaults
            ({k: v for k, v in point.items() if k != name}, f"missing '{name}'") for name in point]
        foreign = next(k for k in ("x", "n", "p", "m") if k not in point)
        cases.append(({**point, foreign: 1}, f"unknown '{foreign}'"))
        for params, why in cases:
            argv = [arg for key, val in params.items() for arg in (f"--{key}", str(val))]
            code, out, err = run(capsys, "eval", ident.value, *argv)
            assert code == EXIT_DOMAIN, params
            assert out == "" and err.startswith("error:") and why in err
            assert len(err.splitlines()) == 1


# One bad value for each parameter a row's signature names, the others at a
# valid point, and the one stderr line that refuses it.
BAD_ARGUMENTS = [
    ("THM_BASE_E15", {"x": "-2", "m": "1"}, "x", "x must be finite and > -1, got -2.0"),
    ("THM_BASE_E15", {"x": "2", "m": "-1"}, "m", "m must be an integer >= 1, got -1"),
    ("THM_ALT_T25", {"n": "-1", "m": "1"}, "n", "n must be an integer >= 0, got -1"),
    ("THM_ALT_T25", {"n": "1", "m": "-1"}, "m", "m must be an integer >= 1, got -1"),
    ("THM_V1_31", {"n": "-1", "m": "1"}, "n", "n must be an integer >= 0, got -1"),
    ("THM_V1_31", {"n": "1", "m": "-1"}, "m", "m must be an integer >= 1, got -1"),
    ("COR_EULER_32", {"m": "-1"}, "m", "m must be an integer >= 2, got -1"),
    ("THM_V2_33", {"n": "-1", "m": "1"}, "n", "n must be an integer >= 0, got -1"),
    ("THM_V2_33", {"n": "1", "m": "-1"}, "m", "m must be an integer >= 1, got -1"),
    ("COR_34", {"m": "-1"}, "m", "m must be an integer >= 1, got -1"),
    ("THM_BASE_35", {"x": "-2", "p": "0.5", "m": "1"}, "x", "x must be finite and > -1, got -2.0"),
    ("THM_BASE_35", {"x": "2", "p": "nan", "m": "1"}, "p", "p must be finite and > 0, got nan"),
    ("THM_BASE_35", {"x": "2", "p": "0.5", "m": "-1"}, "m", "m must be an integer >= 0, got -1"),
    ("COR_CENTRAL_36", {"p": "nan", "m": "1"}, "p", "p must be finite and > 0, got nan"),
    ("COR_CENTRAL_36", {"p": "0.5", "m": "-1"}, "m", "m must be an integer >= 0, got -1"),
    ("THM_V3_37", {"p": "nan", "n": "1", "m": "1"}, "p", "p must be finite and > 0, got nan"),
    ("THM_V3_37", {"p": "0.5", "n": "-1", "m": "1"}, "n", "n must be an integer >= 0, got -1"),
    ("THM_V3_37", {"p": "0.5", "n": "1", "m": "-1"}, "m", "m must be an integer >= 0, got -1"),
    ("COR_38", {"p": "nan", "m": "1"}, "p", "p must be finite and > -1, got nan"),
    ("COR_38", {"p": "0.5", "m": "-1"}, "m", "m must be an integer >= 0, got -1"),
    ("THM_V3H_39", {"p": "nan", "n": "1", "m": "1"}, "p", "p must be finite and > 0, got nan"),
    ("THM_V3H_39", {"p": "0.5", "n": "-1", "m": "1"}, "n", "n must be an integer >= 0, got -1"),
    ("THM_V3H_39", {"p": "0.5", "n": "1", "m": "-1"}, "m", "m must be an integer >= 0, got -1"),
    ("COR_310", {"p": "nan", "m": "1"}, "p", "p must be finite and > -1, got nan"),
    ("COR_310", {"p": "0.5", "m": "-1"}, "m", "m must be an integer >= 0, got -1"),
    ("THM_V4_311", {"p": "nan", "n": "1", "m": "1"}, "p", "p must be finite and > 0, got nan"),
    ("THM_V4_311", {"p": "0.5", "n": "-1", "m": "1"}, "n", "n must be an integer >= 0, got -1"),
    ("THM_V4_311", {"p": "0.5", "n": "1", "m": "-1"}, "m", "m must be an integer >= 1, got -1"),
    ("COR_312", {"p": "nan", "m": "1"}, "p", "p must be finite and > -1, got nan"),
    ("COR_312", {"p": "0.5", "m": "-1"}, "m", "m must be an integer >= 1, got -1"),
    ("EX1_AUYEUNG", {"which": "cubic"}, "which",
     "unknown EX1_AUYEUNG which 'cubic'; expected one of quadratic/linear/difference"),
    ("EX2_CENTRAL", {"which": "cubic"}, "which",
     "unknown EX2_CENTRAL which 'cubic'; expected one of unit/half"),
    ("EX3_GOLDBACH", {"form": "cosine", "p": "0.4", "m": "1"}, "form",
     "unknown EX3_GOLDBACH form 'cosine'; expected one of zeta-tail/psi-series/power-series"),
    ("EX3_GOLDBACH", {"form": "zeta-tail", "m": "-1"}, "m", "m must be an integer >= 0, got -1"),
    ("EX3_GOLDBACH", {"form": "psi-series", "p": "nan"}, "p", "p must be finite and > -1, got nan"),
    ("EX3_GOLDBACH", {"form": "power-series", "p": "nan", "m": "1"}, "p",
     "p must be in (0, 1), got nan"),
    ("EX3_GOLDBACH", {"form": "power-series", "p": "0.4", "m": "-1"}, "m",
     "m must be an integer >= 0, got -1"),
    ("EX4_HALF", {"m": "-1"}, "m", "m must be an integer >= 0, got -1"),
]


# The matrix's n and m cases again, with a non-integer in place of -1: each
# reaches the row, whose check_int refuses it by name.
NON_INTEGERS = [(ident, {**params, key: {"n": "1.5", "m": "2.5"}[key]}, key,
                 message.replace("got -1", "got " + {"n": "1.5", "m": "2.5"}[key]))
                for ident, params, key, message in BAD_ARGUMENTS if key in ("n", "m")]


def _row_parameters(ident):
    """Every parameter a row's functions take, and its selector."""
    row = REGISTRY[ident]
    sides = row.sides.values() if row.selector else [row.sides]
    names = {name for fn in sides for name in inspect.signature(fn).parameters}
    return names | ({row.selector} if row.selector else set())


class TestBadArguments:
    """Every bad argument ends in exit 2 and one `error:` line naming it:
    the parameters of every row, the tolerances and the output file."""

    def test_the_matrix_covers_every_row_and_parameter(self):
        covered = {(ident, key) for ident, _, key, _ in BAD_ARGUMENTS}
        assert covered == {(ident.value, key) for ident in IdentityId
                           for key in _row_parameters(ident)}

    @pytest.mark.parametrize("ident, params, key, message", BAD_ARGUMENTS)
    def test_a_bad_parameter_is_named(self, capsys, ident, params, key, message):
        argv = [arg for name, val in params.items() for arg in (f"--{name}", val)]
        code, out, err = run(capsys, "eval", ident, *argv)
        assert code == EXIT_DOMAIN
        assert out == "" and err == f"error: {message}\n"
        assert key in message

    @pytest.mark.parametrize("command", ["eval", "verify"])
    @pytest.mark.parametrize("ident, params, key, message", NON_INTEGERS)
    def test_a_non_integer_order_is_named(self, capsys, command, ident, params, key, message):
        """--n and --m take any number, as --p and --x do, so a non-integer
        gets the row's one `error:` line, not argparse's usage."""
        argv = [arg for name, val in params.items() for arg in (f"--{name}", val)]
        code, out, err = run(capsys, command, ident, *argv)
        assert code == EXIT_DOMAIN
        assert out == "" and err == f"error: {message}\n"

    def test_integer_orders_reach_the_row_as_ints(self, capsys):
        code, out, _ = run(capsys, "eval", "THM_V1_31", "--n", "2", "--m", "1")
        assert code == EXIT_OK
        assert '"params": {"n": 2, "m": 1}' in out
        assert json.loads(out)["params"] == {"n": 2, "m": 1}

    @pytest.mark.parametrize("command", ["eval", "verify", "sweep"])
    @pytest.mark.parametrize("flag", ["--tol", "--rel-tol"])
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "-inf"])
    def test_a_bad_tolerance_is_named(self, capsys, command, flag, value):
        code, out, err = run(capsys, command, "THM_V1_31", "--n", "0", "--m", "1",
                             f"{flag}={value}")
        assert code == EXIT_DOMAIN
        assert out == "" and err == f"error: {flag} must be finite and > 0, got {float(value)}\n"

    @pytest.mark.parametrize("where", ["missing/table.csv", "."])
    def test_an_unwritable_out_is_named(self, capsys, tmp_path, where):
        """A file that cannot be opened (no such directory, or a directory)
        is a parameter error, exit 2, not a verification failure."""
        target = tmp_path / where
        code, out, err = run(capsys, "sweep", "THM_V1_31", "--n", "0", "--m", "1",
                             "--out", str(target))
        assert code == EXIT_DOMAIN
        assert out == "" and err.startswith("error: --out cannot be written: ")
        assert str(target) in err and len(err.splitlines()) == 1


class TestTolerances:
    """A tolerance that is not positive and finite is a parameter error that
    names where it came from, not a silent fail or a false convergence."""

    POINT = ("THM_V1_31", "--n", "0", "--m", "1")

    @pytest.mark.parametrize("command", ["eval", "verify"])
    @pytest.mark.parametrize("flag, value", [("--tol", "nan"), ("--tol", "-1"), ("--tol", "0"),
                                             ("--tol", "inf"), ("--rel-tol", "nan"),
                                             ("--rel-tol", "inf"), ("--rel-tol", "-1")])
    def test_flag_exit_2(self, capsys, command, flag, value):
        code, out, err = run(capsys, command, *self.POINT, f"{flag}={value}")
        assert code == EXIT_DOMAIN
        assert out == "" and err.startswith("error:") and flag in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("value", ["1e-3", "abc", "nan", "-1e-3", "inf"])
    def test_environment_leaves_the_default_tolerance(self, capsys, monkeypatch, value):
        # only --tol sets the tolerance: the environment is not read
        monkeypatch.setenv("EULER_SUM_TOL", value)
        code, _, err = run(capsys, "verify", "EX3_GOLDBACH")
        assert code == EXIT_OK
        assert json.loads(err.splitlines()[-1])["tol"] == DEFAULT_TOL


class TestVerify:
    def test_single_point_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "THM_V4_311", "--p", "1", "--n", "0", "--m", "1")
        assert code == EXIT_OK
        rec = json.loads(out.splitlines()[0])
        assert rec["pass"] is True

    def test_identity_grid_stream(self, capsys):
        code, out, _ = run(capsys, "verify", "COR_38")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 20  # 4 p-values x m in 0..4
        assert all(json.loads(l)["pass"] for l in lines)

    def test_example_runs_its_sub_forms(self, capsys):
        code, out, _ = run(capsys, "verify", "EX1_AUYEUNG")
        assert code == EXIT_OK
        recs = [json.loads(l) for l in out.splitlines()]
        assert [r["params"]["which"] for r in recs] == ["quadratic", "linear", "difference"]
        assert all(r["pass"] for r in recs)

    def test_tiny_wrong_rhs_exit_1(self, capsys):
        code, out, _ = run(capsys, "verify", "THM_V2_33", "--n", "10", "--m", "10")
        assert code == EXIT_VERIFY_FAILED
        assert json.loads(out)["pass"] is False

    def test_unattainable_tolerance_exit_1(self, capsys):
        code, out, _ = run(capsys, "verify", "COR_38", "--tol", "1e-30")
        assert code == EXIT_VERIFY_FAILED
        assert any(not json.loads(l)["pass"] for l in out.splitlines())

    def test_default_tolerance(self, capsys):
        _, _, err = run(capsys, "verify", "EX4_HALF")
        assert json.loads(err.splitlines()[-1])["tol"] == DEFAULT_TOL

    def test_jobs_flag_is_accepted_and_ignored(self, capsys):
        # older scripts still pass --jobs; the grid runs in this process either way
        def strip_timing(text):
            recs = [json.loads(l) for l in text.splitlines()]
            for rec in recs:
                rec.pop("wall_ms")
            return recs

        code1, out1, _ = run(capsys, "verify", "COR_310", "--jobs", "2")
        code2, out2, _ = run(capsys, "verify", "COR_310")
        assert code1 == code2 == EXIT_OK
        assert strip_timing(out1) == strip_timing(out2)


class TestSweep:
    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "sweep", "THM_V1_31", "--n", "0..3", "--m", "1..4")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == CSV_HEADER
        assert len(rows) - 1 == 16  # inclusive ranges: 4 n-values x 4 m-values

    def test_csv_p_list(self, capsys):
        code, out, _ = run(capsys, "sweep", "COR_38", "--p", "0.5,1,2", "--m", "0..3")
        rows = list(csv.reader(io.StringIO(out)))
        assert code == EXIT_OK
        assert len(rows) - 1 == 12
        for row in rows[1:]:
            rel = float(row[CSV_HEADER.index("rel_err")])
            assert rel < 1e-9
            assert row[CSV_HEADER.index("converged")] == "True"

    def test_missing_param_exit_2(self, capsys):
        code, out, err = run(capsys, "sweep", "THM_V1_31", "--n", "0..1")
        assert code == EXIT_DOMAIN
        assert out == "" and err.startswith("error:") and "missing 'm'" in err

    @pytest.mark.parametrize("n, m, bad", [("0.5,1.7", "1", "--n takes integers, got 0.5"),
                                           ("0..1", "1,2.5", "--m takes integers, got 2.5")])
    def test_non_integer_axis_exit_2(self, capsys, n, m, bad):
        code, out, err = run(capsys, "sweep", "THM_V1_31", "--n", n, "--m", m)
        assert code == EXIT_DOMAIN
        assert out == "" and err.splitlines() == [f"error: {bad}"]

    @pytest.mark.parametrize("axis, text, bad", [
        ("--p", "0.5..2", "--p range a..b takes integer bounds, got 0.5..2"),
        ("--p", "0.5,one", "--p takes numbers, got 0.5,one"),
        ("--m", "1..x", "--m range a..b takes integer bounds, got 1..x")])
    def test_unparsable_axis_exit_2(self, capsys, axis, text, bad):
        args = {"--p": "1", "--m": "1", axis: text}
        code, out, err = run(capsys, "sweep", "COR_38", "--p", args["--p"], "--m", args["--m"])
        assert code == EXIT_DOMAIN
        assert out == "" and err.splitlines() == [f"error: {bad}"]

    def test_empty_range(self, capsys):
        code, out, _ = run(capsys, "sweep", "COR_38", "--p", "", "--m", "0..3")
        assert code == EXIT_OK
        rows = [r for r in csv.reader(io.StringIO(out))]
        assert len(rows) == 1  # header only

    def test_json_format_round_trip(self, capsys):
        code, out, _ = run(capsys, "sweep", "COR_310", "--p", "0.5,1", "--m", "0..1",
                           "--format", "json")
        assert code == EXIT_OK
        recs = [json.loads(l) for l in out.splitlines()]
        assert len(recs) == 4
        for rec in recs:
            assert float(format(rec["lhs"], ".17g")) == rec["lhs"]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run(capsys, "sweep", "THM_V1_31", "--n", "0..1", "--m", "1..1",
                           "--out", str(target))
        assert code == EXIT_OK and out == ""
        rows = list(csv.reader(io.StringIO(target.read_text())))
        assert rows[0] == CSV_HEADER and len(rows) == 3

    def test_form_goes_into_every_row_as_eval_computes_it(self, capsys):
        code, out, _ = run(capsys, "sweep", "EX3_GOLDBACH", "--form", "power-series",
                           "--p", "0.4", "--m", "1..3")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == CSV_HEADER and len(rows) == 4
        for m, row in zip((1, 2, 3), rows[1:]):
            code, out, _ = run(capsys, "eval", "EX3_GOLDBACH", "--form", "power-series",
                               "--p", "0.4", "--m", str(m))
            rec = json.loads(out)
            assert code == EXIT_OK and rec["params"] == {"form": "power-series", "p": 0.4, "m": m}
            assert row == [rec["id"], "", str(m), "0.40000000000000002",
                           *(format(rec[k], ".17g") for k in ("lhs", "rhs", "abs_err", "rel_err")),
                           str(rec["lhs_terms"]), str(rec["converged"])]

    def test_which_goes_into_every_row(self, capsys):
        code, out, _ = run(capsys, "sweep", "EX1_AUYEUNG", "--which", "linear", "--format", "json")
        assert code == EXIT_OK
        recs = [json.loads(line) for line in out.splitlines()]
        assert [rec["params"] for rec in recs] == [{"which": "linear"}]

    def test_unknown_form_exit_2(self, capsys):
        code, out, err = run(capsys, "sweep", "EX3_GOLDBACH", "--form", "nope", "--m", "1..3")
        assert code == EXIT_DOMAIN
        assert out == "" and err.startswith("error:") and "'nope'" in err

    def test_x_maps_to_n_column(self, capsys):
        _, out, _ = run(capsys, "sweep", "THM_BASE_E15", "--x", "0.5,1", "--m", "1..2")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1][CSV_HEADER.index("n")] == "0.5"


class TestFullGrid:
    def test_verify_all_passes(self, capsys):
        code, out, err = run(capsys, "verify", "--all", "--tol", "1e-7")
        assert code == EXIT_OK
        summary = json.loads(err.splitlines()[-1])
        assert summary["checked"] == summary["passed"] >= 600


def _old_json_record(obj):
    """The writer _json_record replaced: json.dumps for every value that is
    not a float or a dict."""
    parts = []
    for key, val in obj.items():
        if isinstance(val, float):
            text = format(val, ".17g")
        elif isinstance(val, dict):
            text = _old_json_record(val)
        else:
            text = json.dumps(val)
        parts.append(f'"{key}": {text}')
    return "{" + ", ".join(parts) + "}"


def test_record_writer_matches_json_dumps_on_the_default_grid():
    records = [record_from_report(*_verify_timed(ident, params, DEFAULT_TOL, DEFAULT_CONFIG))
               for ident, params in default_grid()]
    keys = {key for rec in records for key in rec}
    assert {"stated_zeta_form", "stated_matches"} <= keys  # EX4's extras
    assert any(type(rec["params"].get("which")) is str for rec in records)
    assert any(type(rec["params"].get("form")) is str for rec in records)
    for rec in records:
        assert _json_record(rec) == _old_json_record(rec)
    odd = {"none": None, "nan": math.nan, "inf": -math.inf, "big": 2**70, "text": 'a"b'}
    assert _json_record(odd) == _old_json_record(odd)


def test_import_leaves_the_process_pool_out():
    """verify runs its grid in one process: neither import nor a verify
    loads concurrent.futures, so neither pays for it."""
    code = ("import sys, io; from eulersums.cli import main; "
            "print('concurrent.futures' in sys.modules); "
            "sys.stdout = io.StringIO(); main(['verify', 'COR_38']); sys.stdout = sys.__stdout__; "
            "print('concurrent.futures' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True)
    assert out.stdout.split() == ["False", "False"]


# The first closed_form benchmark point of each closed form it times.
_FIRST_CLOSED_FORM_POINTS = {
    "rhs_thm_e15": (0.0, 1), "rhs_thm_t25": (0, 1), "rhs_thm_31": (0, 1), "rhs_cor_32": (2,),
    "rhs_thm_33": (0, 1), "rhs_cor_34": (1,), "rhs_thm_35": (0.0, 0.5, 0), "rhs_cor_36": (0.5, 0),
    "rhs_thm_37": (0.5, 0, 0), "rhs_cor_38": (0.5, 0), "rhs_thm_39": (0.5, 0, 0),
    "rhs_cor_310": (0.5, 0), "rhs_thm_311": (0.5, 0, 1), "rhs_cor_312": (0.5, 1),
}

_WITHOUT_NUMPY = """
import importlib.abc, io, json, sys


class RefuseNumpy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)


sys.meta_path.insert(0, RefuseNumpy())
WATCHED = ("numpy", "inspect", "dataclasses", "csv")
before = set(sys.modules)


def loaded():
    return sorted(name for name in set(sys.modules) - before
                  if name.partition(".")[0] in WATCHED)


def quietly(argv):
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    try:
        return main(argv)
    finally:
        sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__


import eulersums
from eulersums import identities, series
from eulersums.cli import main
print(json.dumps(["import", loaded()]))
print(json.dumps(["list, exit %d" % quietly(["list"]), loaded()]))
code = quietly(["eval", "THM_V1_31", "--n", "1.5", "--m", "1"])
print(json.dumps(["bad eval, exit %d" % code, loaded()]))
closed_forms, oracles = json.loads(sys.argv[1]), json.loads(sys.argv[2])
for name, args in closed_forms.items():
    getattr(identities, name)(*args)
print(json.dumps(["closed forms", loaded()]))
print(json.dumps(["verify --all, exit %d" % quietly(["verify", "--all"]), loaded()]))
codes = set()
for ident in identities.IdentityId:
    params = identities.REGISTRY[ident].grid[0]
    codes.add(quietly(["eval", ident.value] + [f"--{k}={v}" for k, v in params.items()]))
print(json.dumps(["eval per row, exits %s" % sorted(codes), loaded()]))
for name, params in oracles.items():
    getattr(series, name)(*params)
print(json.dumps(["series oracles", loaded()]))
code = quietly(["sweep", "THM_V3_37", "--p", "0.5,20", "--n", "0..2", "--m", "0..2"])
print(json.dumps(["sweep, exit %d" % code, loaded()]))
"""


def test_every_command_and_oracle_runs_without_numpy():
    """With a meta-path finder that refuses numpy, import, `list`, an
    argument error, every closed form, `verify --all`, one `eval` per row,
    every series oracle at its first pinned parameter set and a sweep all
    run, and none loads numpy; none but the sweep loads inspect, dataclasses
    or csv, and the sweep only csv, for its output."""
    from test_em_oracles import ORACLES

    rhs = sorted(name for name in dir(identities) if name.startswith("rhs_"))
    assert sorted(_FIRST_CLOSED_FORM_POINTS) == [name for name in rhs if name != "rhs_cor_34a"]
    oracles = {name: params[0] for name, (params, _) in ORACLES.items()}
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY,
                          json.dumps(_FIRST_CLOSED_FORM_POINTS), json.dumps(oracles)],
                         capture_output=True, text=True, env=env, check=True)
    assert [json.loads(line) for line in out.stdout.splitlines()] == [
        ["import", []], ["list, exit 0", []], ["bad eval, exit 2", []], ["closed forms", []],
        ["verify --all, exit 0", []], ["eval per row, exits [0]", []], ["series oracles", []],
        ["sweep, exit 0", ["csv"]]]


def test_import_builds_no_memoized_value():
    """The series' harmonic tables and the closed forms' harmonic-number
    tuples, like every memo table, are built on first use: import builds none
    of them, so start-up does not pay for them."""
    code = ("import eulersums; from eulersums import identities, series, special; "
            "print(series._harmonic_numbers.cache_info().currsize, "
            "identities._harmonics.cache_info().currsize, "
            "sum(kept.cache_info().currsize for kept in special._MEMOS))")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True)
    assert out.stdout.split() == ["0", "0", "0"]
