"""Smoke tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench/tests

Every workload runs at its smallest size (--smoke: one point per identity),
untraced and traced, and must print every metric BENCHMARK.json names, with
its unit.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Printed (not in the JSON result) on the workloads they apply to.
COMMON = {"points_per_s", "point_ms_p50", "fail_ratio", "ref_ms", "setup_raw_s", "ref_import_ms"}
REPORTED = {"grid": COMMON, "closed_form": COMMON, "adaptive": COMMON,
            "cli": COMMON | {"verify_all_s", "eval_cold_ms_p50"}}

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
import workloads  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def smoke(workload: str, trace: int, seed: int = 3) -> tuple[list[str], dict]:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    lines, result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    printed = {line.split(": ", 1)[1].split(" = ")[0] for line in lines if " = " in line}
    assert set(result["metrics"]) <= printed
    if not trace:
        assert REPORTED[workload] <= printed


def test_traced_counts_repeat_across_runs():
    counts = []
    for seed in (1, 2):
        _, result = smoke("grid", 1, seed)
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if k.endswith("_calls") or k in ("asymptotics.monomials",
                                                        "identities.verdict_disagree")})
    assert counts[0] == counts[1]
    assert counts[0]["summation.em_tail_calls"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "grid", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_check_has_no_absolute_fallback():
    assert workloads.check(1.0, 1.0 + 5e-8, True)
    assert not workloads.check(1.0, 1.0 + 2e-7, True)
    assert not workloads.check(1e-13, 5e-13, True)  # tiny values still need relative agreement
    assert workloads.check(0.0, 0.0, True)
    assert not workloads.check(1.0, 1.0, False)
    assert not workloads.check(float("nan"), 1.0, True)
    assert not workloads.check(float("inf"), float("inf"), True)


def test_cli_invocation_fails_on_bad_records():
    good = '{"lhs": 1.0, "rhs": 1.0, "converged": true, "pass": true}'
    label = "eval THM_V1_31"
    assert workloads.judge_cli(label, 0, good) == (True, 1, 0)
    assert not workloads.judge_cli(label, 1, good)[0]
    assert not workloads.judge_cli(label, 0, "not json")[0]
    assert workloads.judge_cli(label, 0, good.replace("1.0,", "1.5,", 1)) == (False, 0, 1)


def test_point_sets_match_their_definitions():
    assert len(workloads.grid_points()) == 602
    assert len(workloads.closed_form_points()) == 1908
    assert len(workloads.adaptive_points()) == 29
    assert len(workloads.cli_invocations()) == 19


def test_failed_counts_only_points_outside_the_known_list():
    import run

    rep = run.Report("closed_form")
    known = next(iter(rep.known))
    for ok, key in ((False, known), (False, known), (True, "a"), (False, "b"), (True, "b")):
        rep.count(ok, key)
    assert (rep.attempted, rep.failed, rep.unexpected()) == (5, 1, ["b"])
    rep.add_fail_ratio("points")
    assert "fail_ratio = 0.666667 ratio  (2/3 points, 1 of them" in rep.lines[-1]
