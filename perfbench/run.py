"""eulersums benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run it from the root of a copy of the repository: the program is imported
from that copy's src/ directory.  --trace 0 times the workload untraced and
prints the end-to-end metrics; --trace 1 alternates untraced and traced passes
and prints the per-layer metrics.  The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}; the lines before it
report every metric by name and unit, and a record of the run (with the host's
steal share and load) is appended to .perfbench_out/runs.jsonl.
perfbench/README.md defines the workloads and metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import Any

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 15
SWEEP_FACTOR = 20
REF_EVERY = 0.1  # seconds between two samples of the reference loop
REF_S = 5e-4  # about the reference loop's fastest time on the baseline host
REF_IMPORT_S = 0.06  # about the reference import's time there (probe.py)
# Same as the `euler-sums` console script.
ENTRY = "import sys; from eulersums.cli import main; sys.exit(main())"

END_TO_END = {"setup_s": "s", "points_per_s_ref": "1/s"}
# Printed only: on a 2-vCPU host whose speed drifts by up to 2x for minutes,
# these moved by 25-35% between runs, more than any bound the result may carry.
REPORTED = {"points_per_s": "1/s", "point_ms_p50": "ms", "point_ms_p99": "ms", "verify_all_s": "s",
            "eval_cold_ms_p50": "ms", "ref_ms": "ms", "setup_raw_s": "s", "ref_import_ms": "ms"}


class BenchError(RuntimeError):
    """The benchmark itself failed (not the program under test)."""


def unit_of(name: str) -> str:
    if name in END_TO_END or name in REPORTED:
        return {**END_TO_END, **REPORTED}[name]
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def program_env() -> dict[str, str]:
    """The environment of every interpreter the benchmark starts.

    OPENBLAS_NUM_THREADS=1: numpy's OpenBLAS starts one thread per CPU when it
    is imported.  On a 2-vCPU host that made `import numpy` take about 0.15 s
    instead of 0.08 s, and set-up times measured with it moved by up to 2x
    from one set of runs to the next.  eulersums only calls BLAS on short
    vectors (np.dot in jets), which OpenBLAS computes on one thread either way.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    env.pop("EULER_SUM_TOL", None)
    return env


def host_sample() -> dict[str, Any] | None:
    """CPU ticks (user..steal) and steal from /proc/stat, and the load averages."""
    try:
        ticks = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]]
        load = [float(v) for v in Path("/proc/loadavg").read_text().split()[:3]]
    except (OSError, ValueError, IndexError):
        return None
    return {"ticks": sum(ticks), "steal": ticks[7], "load": load}


def host_summary(before: dict | None, after: dict | None) -> dict[str, Any]:
    if not before or not after:
        return {}
    dt = after["ticks"] - before["ticks"]
    return {"steal_share": (after["steal"] - before["steal"]) / dt if dt else 0.0,
            "load_before": before["load"], "load_after": after["load"]}


def reference_s() -> float:
    """Wall time of a fixed piece of pure-Python float and dict work that shares
    no code with the program: the host's speed at the moment it runs."""
    t0 = perf_counter()
    acc = 0.0
    table = {}
    for i in range(4000):
        acc += (i + 0.5) ** 0.5 * 1.000001
        table[i & 255] = acc
    return perf_counter() - t0


def probe(name: str) -> dict[str, float]:
    proc = subprocess.run([sys.executable, str(BENCH / "probe.py"), name], cwd=ROOT,
                          env=program_env(), capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure_setup(name: str, runs: int = SETUP_RUNS) -> list[dict[str, float]]:
    """The set-up parts of `runs` fresh interpreters, each followed by the
    reference import in another fresh interpreter (see probe.py)."""
    return [{**probe(name), **probe("reference")} for _ in range(runs)]


def raw_setup(p: dict[str, float]) -> float:
    return p["import_s"] + p["cold_s"] - p["warm_s"]


def add_setup(rep: Report, probes: list[dict[str, float]], note: str) -> None:
    """setup_s: each probe's set-up time divided by the reference import that
    ran right after it, median over the probes, times REF_IMPORT_S.  That is
    the set-up time on a host whose reference import takes REF_IMPORT_S."""
    rep.add("setup_s", statistics.median(raw_setup(p) / p["reference_s"] for p in probes)
            * REF_IMPORT_S, f"median of set-up / reference import, x {REF_IMPORT_S * 1e3:g} ms")
    rep.add("setup_raw_s", statistics.median(raw_setup(p) for p in probes), note)
    rep.add("ref_import_ms", statistics.median(p["reference_s"] for p in probes) * 1e3,
            f"median of {len(probes)} reference imports")


def known_failures(workload: str) -> set[str]:
    return set(json.loads((BENCH / "known_failures.json").read_text()).get(workload, []))


class Report:
    """Collects the printed metric lines, the JSON metrics and the failures.

    `failed` counts the calls that fail the check on a point outside
    known_failures.json: the failures that make `correct` false.  Listed
    points that still fail show in fail_ratio, which counts distinct points,
    so it is the same in every run of the same code."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.metrics: dict[str, dict[str, Any]] = {}
        self.lines: list[str] = []
        self.attempted = self.failed = 0
        self.known = known_failures(workload)
        self.seen_keys: set[str] = set()
        self.failed_keys: set[str] = set()

    def add(self, name: str, value: float, note: str = "") -> None:
        unit = unit_of(name)
        if name not in REPORTED:
            self.metrics[name] = {"value": value, "unit": unit}
        self.lines.append(f"{self.workload}: {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))

    def count(self, ok: bool, key: str) -> None:
        self.attempted += 1
        self.seen_keys.add(key)
        if not ok:
            self.failed += key not in self.known
            self.failed_keys.add(key)

    def unexpected(self) -> list[str]:
        return sorted(self.failed_keys - self.known)

    def add_fail_ratio(self, what: str) -> None:
        n_failed, n_seen = len(self.failed_keys), len(self.seen_keys)
        ratio = n_failed / n_seen if n_seen else 0.0
        self.lines.append(f"{self.workload}: fail_ratio = {ratio:.6g} ratio  "
                          f"({n_failed}/{n_seen} {what}, {n_failed - len(self.unexpected())} "
                          f"of them in known_failures.json)")


def seeded_order(items: list, seed: int) -> list:
    order = list(items)
    random.Random(seed).shuffle(order)
    return order


def keep_going(t_start: float, next_wall: float, seconds: float) -> bool:
    """Start another pass only if one more of this length ends within `seconds`."""
    return perf_counter() - t_start + next_wall <= seconds


def timed_run(name: str, units: list, call, seconds: float):
    """Time `units`, already in seeded order, for `seconds`.

    Whole passes run while another one fits.  After the first pass, sweeps
    re-time every unit whose first call took at most SWEEP_FACTOR times the
    median unit's and still fits: one every tenth of the run during later
    passes, then back to back until time is up.  Cheap units thus get many
    samples even when a few slow ones fill most of a pass.  The set-up
    probes are spread over the run, and the reference loop runs between two
    calls at most every REF_EVERY seconds.  `call(unit)` returns (seconds,
    points passing the check).  Returns each unit's latency samples, each
    unit's passing points in the first pass, the set-up probes and the
    reference loop's times.
    """
    samples: list[list[float]] = [[] for _ in units]
    passing: list[int] = []
    setup: list[dict[str, float]] = []
    t_start = perf_counter()
    deadline = t_start + seconds
    limit = -1.0  # no sweeps before the first pass has set it
    last_sweep = t_start
    refs: list[float] = []
    next_ref = t_start

    def timed(unit) -> tuple[float, int]:
        nonlocal next_ref
        if perf_counter() >= next_ref:
            refs.append(reference_s())
            next_ref = perf_counter() + REF_EVERY
        return call(unit)

    def sweep() -> bool:
        nonlocal last_sweep
        swept = False
        for i, unit in enumerate(units):
            if samples[i] and samples[i][0] <= limit and perf_counter() + samples[i][0] <= deadline:
                samples[i].append(timed(unit)[0])
                swept = True
        last_sweep = perf_counter()
        return swept

    def probe_if_due() -> None:
        if len(setup) < SETUP_RUNS and perf_counter() >= t_start + len(setup) * seconds / SETUP_RUNS:
            setup.extend(measure_setup(name, 1))

    while True:
        t_pass = perf_counter()
        for i, unit in enumerate(units):
            lat, ok = timed(unit)
            if not samples[i]:
                passing.append(ok)
            samples[i].append(lat)
            if perf_counter() - last_sweep >= seconds / 10:
                sweep()
            probe_if_due()
        limit = SWEEP_FACTOR * statistics.median(s[0] for s in samples)
        if perf_counter() + (perf_counter() - t_pass) > deadline:
            break
    while sweep():
        probe_if_due()
    setup.extend(measure_setup(name, SETUP_RUNS - len(setup)))
    return samples, passing, setup, refs


def add_throughput(rep: Report, points: int, seconds: float, refs: list[float],
                   note: str) -> None:
    """points_per_s, and points_per_s_ref: the same scaled to the host speed at
    which the reference loop takes REF_S, by the loop's fastest time in the run."""
    rep.add("points_per_s", points / seconds, note)
    rep.add("points_per_s_ref", points / seconds * min(refs) / REF_S,
            f"points_per_s x fastest reference loop / {REF_S * 1e3:g} ms")
    rep.add("ref_ms", min(refs) * 1e3, f"fastest of {len(refs)} reference loops")


# ------------------------------ in-process ----------------------------------


def call_point(wl, pt) -> Any:
    try:
        return wl.call(pt)
    except Exception as exc:  # a raising point fails the check; the run goes on
        return exc


def judge_point(wl, pt, out, rep: Report) -> tuple[bool, bool]:
    """Count one output into rep: (passes the check, program's verdict differs)."""
    ok, program_pass = wl.judge(pt, out)
    rep.count(ok, pt.key)
    return ok, program_pass is not None and program_pass != ok


def run_pass(wl, order, tracer=None) -> tuple[float, list[Any]]:
    outs = []
    t_pass = perf_counter()
    for i, pt in enumerate(order):
        if tracer is not None:
            tracer.point = i
        outs.append(call_point(wl, pt))
    return perf_counter() - t_pass, outs


def time_inprocess(name: str, seed: int, seconds: float, smoke: bool, rep: Report) -> None:
    import workloads

    wl = workloads.inprocess(name, smoke)
    order = seeded_order(wl.points, seed)
    wl.prepare()
    run_pass(wl, workloads.first_per_identity(wl.points))  # lazy set-up ends before timing
    disagree = 0

    def call(pt) -> tuple[float, bool]:
        nonlocal disagree
        t0 = perf_counter()
        out = call_point(wl, pt)
        lat = perf_counter() - t0
        ok, differs = judge_point(wl, pt, out, rep)
        disagree += differs
        return lat, ok

    samples, passing, setup, refs = timed_run(name, order, call, seconds)
    best = [min(s) for s in samples]
    pooled = [lat for s in samples for lat in s]
    add_setup(rep, setup, f"median of {len(setup)} fresh interpreters")
    add_throughput(rep, sum(passing), sum(best), refs,
                   f"{sum(passing)} of {len(order)} points pass; per second of their fastest calls")
    rep.add("point_ms_p50", statistics.median(best) * 1e3,
            f"median over points of each point's fastest of {len(pooled)} calls")
    if len(pooled) >= 1000:  # at least 10 samples beyond p99
        rep.add("point_ms_p99", statistics.quantiles(pooled, n=100)[98] * 1e3,
                f"all {len(pooled)} calls")
    rep.add_fail_ratio("points")
    rep.lines.append(f"{name}: program verdict differs from the check on "
                     f"{disagree} of {rep.attempted} calls")


# --------------------------------- cli --------------------------------------


def run_cli(argv: list[str]) -> tuple[float, int, str]:
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", ENTRY, *argv], cwd=ROOT, env=program_env(),
                          capture_output=True, text=True, timeout=150)
    return perf_counter() - t0, proc.returncode, proc.stdout


def time_cli(seed: int, seconds: float, smoke: bool, rep: Report) -> None:
    import workloads

    invocations = seeded_order(workloads.cli_invocations(smoke), seed)

    def call(inv) -> tuple[float, int]:
        label, argv = inv
        wall, code, stdout = run_cli(argv)
        ok, passed, _ = workloads.judge_cli(label, code, stdout)
        rep.count(ok, label)
        return wall, passed

    samples, passing, setup, refs = timed_run("cli", invocations, call, seconds)
    is_verify = [label == workloads.VERIFY_ALL for label, _ in invocations]
    verify = samples[is_verify.index(True)]
    evals = [min(s) for s, v in zip(samples, is_verify) if not v]
    n_evals = sum(len(s) for s, v in zip(samples, is_verify) if not v)
    add_setup(rep, setup, f"cold import eulersums.cli, median of {len(setup)} fresh interpreters")
    add_throughput(rep, passing[is_verify.index(True)], min(verify), refs,
                   f"verify --all records passing per second of its fastest of {len(verify)} runs")
    rep.add("point_ms_p50", statistics.median(evals) * 1e3,
            f"cold eval: median over identities of the fastest of {n_evals} calls")
    rep.add("verify_all_s", min(verify), f"fastest of {len(verify)}")
    rep.add("eval_cold_ms_p50", statistics.median(evals) * 1e3, "as point_ms_p50")
    rep.add_fail_ratio("invocations")


def cli_pass(invocations, tracer=None) -> tuple[float, list[tuple[str, int, str]]]:
    """The cli workload in process: cli.main at --jobs 1, output captured."""
    from eulersums import cli

    results = []
    t_pass = perf_counter()
    for i, (label, argv) in enumerate(invocations):
        if tracer is not None:
            tracer.point = i
        if argv[0] == "verify":
            argv = [*argv, "--jobs", "1"]
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except Exception:  # an invocation that raises fails; the run goes on
                code = -1
        results.append((label, code, out.getvalue()))
    return perf_counter() - t_pass, results


# -------------------------------- traced ------------------------------------

DETERMINISTIC = ("asymptotics.monomials", "summation.adaptive_terms", "identities.verdict_disagree")


def trace_workload(name: str, seed: int, seconds: float, smoke: bool, rep: Report) -> None:
    """Alternate untraced and traced passes (U T T, then U T while time allows)."""
    import tracing
    import workloads

    extra = {"cli.import_ms": 0.0, "cli.verify_all_jobs1_s": 0.0}
    if name == "cli":
        extra["cli.import_ms"] = min(p["import_s"] for p in measure_setup("cli")) * 1e3
        invocations = seeded_order(workloads.cli_invocations(smoke), seed)
        cli_pass([inv for inv in invocations if inv[0] != workloads.VERIFY_ALL])  # warm-up
        jobs1 = []

        def one_pass(tracer=None) -> tuple[float, int]:
            wall, results = cli_pass(invocations, tracer)
            disagree = 0
            for label, code, stdout in results:
                ok, _, bad = workloads.judge_cli(label, code, stdout)
                rep.count(ok, label)
                disagree += bad
            if tracer is None:
                jobs1.append(run_cli(["verify", "--all", "--jobs", "1"])[0])
            return wall, disagree
    else:
        wl = workloads.inprocess(name, smoke)
        order = seeded_order(wl.points, seed)
        wl.prepare()
        run_pass(wl, workloads.first_per_identity(wl.points))

        def one_pass(tracer=None) -> tuple[float, int]:
            wall, outs = run_pass(wl, order, tracer)
            return wall, sum(judge_point(wl, pt, out, rep)[1] for pt, out in zip(order, outs))

    tracer = tracing.Tracer()
    walls: dict[bool, list[float]] = {False: [], True: []}
    layers: list[dict[str, float]] = []
    hits = None

    def timed(traced: bool) -> float:
        nonlocal hits
        workloads.reset_lazy_state()  # every pass builds the HarmonicCache once
        if not traced:
            wall, _ = one_pass()
        else:
            with tracer.active():
                wall, disagree = one_pass(tracer)
            layers.append({**tracing.layer_metrics(tracer), "identities.verdict_disagree": disagree})
            if hits is None:
                hits = tracer.hits()
                tracer.write(OUT / f"spans-{name}{'-smoke' if smoke else ''}-seed{seed}.jsonl.gz")
        walls[traced].append(wall)
        return wall

    t_start = perf_counter()
    pair = timed(False) + timed(True)
    timed(True)
    while keep_going(t_start, pair, seconds):
        pair = timed(False) + timed(True)

    check_exercised(name, tracer.bindings, hits, rep)
    counts = {k: v for k, v in layers[0].items() if k.endswith("_calls") or k in DETERMINISTIC}
    for other in layers[1:]:
        for key, val in counts.items():
            if other[key] != val:
                raise BenchError(f"{key} differs between traced passes: {val} vs {other[key]}")

    if name == "cli":
        extra["cli.verify_all_jobs1_s"] = statistics.median(jobs1)
    for key in layers[0]:
        val = layers[0][key] if key in counts or key.endswith("_ratio") else \
            statistics.median(layer[key] for layer in layers)
        rep.add(key, val)
    for key, val in extra.items():
        rep.add(key, val)
    rep.add("trace.overhead_ratio", statistics.median(walls[True]) / statistics.median(walls[False]),
            f"traced/untraced pass wall, {len(walls[True])} traced, {len(walls[False])} untraced")
    rep.add_fail_ratio("points" if name != "cli" else "invocations")


def check_exercised(name: str, bindings: set[str], hits, rep: Report) -> None:
    import workloads

    for binding in workloads.EXERCISED[name]:
        if binding not in bindings:
            rep.lines.append(f"{name}: note: {binding} is not in the program; not traced")
        elif not hits[binding]:
            raise BenchError(f"span {binding} never fired on workload {name}")


# --------------------------------- main -------------------------------------


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; the last line merges their results."""
    import workloads

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd + (["--smoke"] if args.smoke else []), cwd=ROOT,
                              capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            raise BenchError(f"workload {name} failed: {proc.stderr.strip()}")
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid", "closed_form", "adaptive", "cli", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one point per identity (one eval for cli): the smallest run")
    args = parser.parse_args(argv)

    if not (SRC / "eulersums" / "__init__.py").is_file():
        print(f"perfbench: no eulersums sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    try:
        if args.workload == "all":
            return run_all(args)
        rep = Report(args.workload)
        before = host_sample()
        if args.trace:
            trace_workload(args.workload, args.seed, args.seconds, args.smoke, rep)
        elif args.workload == "cli":
            time_cli(args.seed, args.seconds, args.smoke, rep)
        else:
            time_inprocess(args.workload, args.seed, args.seconds, args.smoke, rep)
        host = host_summary(before, host_sample())
    except BenchError as exc:
        print(f"perfbench error: {exc}", file=sys.stderr)
        return 1

    unexpected = rep.unexpected()
    result = {"correct": not unexpected, "attempted": rep.attempted, "failed": rep.failed,
              "metrics": rep.metrics}
    for line in rep.lines:
        print(line)
    if host:
        print(f"{args.workload}: host steal_share = {host['steal_share']:.4f}, "
              f"load {host['load_before'][0]:.2f} -> {host['load_after'][0]:.2f}")
    for key in unexpected[:20]:
        print(f"{args.workload}: unexpected failure: {key}")
    OUT.mkdir(exist_ok=True)
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                             "trace": args.trace, "smoke": args.smoke, "host": host,
                             **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
