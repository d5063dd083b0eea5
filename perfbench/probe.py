"""Set-up cost of one workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/probe.py <workload>
    python3 perfbench/probe.py reference

Set-up is the time to import eulersums (eulersums.cli for the cli workload),
plus a cold call of the workload's first point per identity, minus the same
calls warm: import cost and lazily built tables such as the HarmonicCache.
The probe prints the three parts (import_s, cold_s, warm_s).

`reference` times the import of a fixed set of standard-library modules
(reference_s) instead: work of the same kind as the set-up, in a fresh
interpreter, that shares no code with the program.  run.py divides each
set-up time by the reference time measured right after it.
"""

import importlib
import json
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
# Standard-library packages with compiled parts, as numpy has; none of them is
# imported by `import eulersums`.
REFERENCE = ("asyncio", "decimal", "xml.etree.ElementTree", "email.parser", "http.client",
             "sqlite3", "unittest", "ssl")


def main(name: str) -> dict[str, float]:
    t0 = perf_counter()
    if name == "reference":
        for module in REFERENCE:
            importlib.import_module(module)
        return {"reference_s": perf_counter() - t0}
    if name == "cli":
        import eulersums.cli  # noqa: F401

        return {"import_s": perf_counter() - t0, "cold_s": 0.0, "warm_s": 0.0}
    import eulersums  # noqa: F401

    t_import = perf_counter() - t0
    sys.path.insert(0, str(BENCH))
    import workloads

    wl = workloads.inprocess(name, smoke=True)  # the first point per identity

    def timed(pt) -> float:
        t = perf_counter()
        try:
            wl.call(pt)
        except Exception:  # the timed run reports failing points; set-up only times them
            pass
        return perf_counter() - t

    cold = sum(timed(pt) for pt in wl.points)
    warm = sum(timed(pt) for pt in wl.points)
    return {"import_s": t_import, "cold_s": cold, "warm_s": warm}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1])))
