"""In-memory span tracer around the public functions of eulersums.

``Tracer.active()`` replaces every public eulersums function in each namespace
it is looked up from: ``from .summation import em_tail`` binds the function in
``series`` too, so ``series.em_tail`` and ``summation.em_tail`` are wrapped
separately, under one span name.  The methods of ``LogPowerSeries`` and
``HarmonicCache.build`` are wrapped on their classes.  Every call records a
span (name, binding, start, end, parent, point) and leaving the context puts
the original objects back; the library's files are never touched.

``layer_metrics`` turns one traced pass into the per-layer numbers.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Iterator

MODULES = ("special", "jets", "asymptotics", "summation", "series", "identities", "cli")

# Jet arithmetic inside LogPowerSeries.jet runs once per monomial; wrapping
# those bindings would multiply the trace overhead and move LHS model time into
# jets.*.  It is counted in asymptotics.jet_ms.
SKIP = frozenset(("asymptotics", name) for name in (
    "constant_jet", "jet_add", "jet_exp", "jet_ln", "jet_mul", "jet_scale", "variable_jet"))

CLASSES = (("asymptotics", "LogPowerSeries"), ("special", "HarmonicCache"))
OPERATORS = ("__add__", "__mul__", "__call__")

# LogPowerSeries methods that evaluate a model rather than build one.
_EVALUATE = frozenset(f"asymptotics.LogPowerSeries.{m}"
                      for m in ("jet", "__call__", "tail_integral", "min_decay"))


def _count_monomials(counts: Counter, args: tuple, out: Any) -> None:
    counts["asymptotics.monomials"] += len(getattr(args[0], "terms", ()))


def _count_adaptive(counts: Counter, args: tuple, out: Any) -> None:
    counts["summation.adaptive_terms"] += out.terms_used
    counts["summation.adaptive_converged"] += bool(out.converged)


HOOKS: dict[str, Callable[[Counter, tuple, Any], None]] = {
    "summation.em_tail": _count_monomials,
    "summation.sum_adaptive": _count_adaptive,
}


def _span_name(fn: Callable) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Tracer:
    def __init__(self) -> None:
        self.modules = {name: importlib.import_module(f"eulersums.{name}") for name in MODULES}
        self.bindings: set[str] = set()
        self._undo: list[tuple[Any, str, Any]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple] = []
        self.child_ns: list[int] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.point = -1

    def _wrap(self, fn: Callable, binding: str) -> Callable:
        name = _span_name(fn)
        hook = HOOKS.get(name)
        spans, child_ns, stack = self.spans, self.child_ns, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            child_ns.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, binding, t0, t1, parent, self.point)
                if parent >= 0:
                    child_ns[parent] += t1 - t0
            if hook is not None:
                hook(self.counts, args, out)
            return out

        return traced

    def _patch(self, owner: Any, attr: str, raw: Any, binding: str) -> None:
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(raw.__func__, binding))
        else:
            new = self._wrap(raw, binding)
        self._undo.append((owner, attr, raw))
        self.bindings.add(binding)
        setattr(owner, attr, new)

    def install(self) -> None:
        for short, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or (short, attr) in SKIP or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("eulersums.")):
                    continue
                self._patch(mod, attr, obj, f"{short}.{attr}")
        for short, cls_name in CLASSES:
            cls = getattr(self.modules[short], cls_name, None)
            if cls is None:
                continue
            for attr, raw in list(vars(cls).items()):
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                if inspect.isfunction(fn) and (not attr.startswith("_") or attr in OPERATORS):
                    self._patch(cls, attr, raw, f"{short}.{cls_name}.{attr}")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    @contextlib.contextmanager
    def active(self) -> Iterator["Tracer"]:
        self.reset()
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def hits(self) -> Counter:
        return Counter(span[1] for span in self.spans)

    def write(self, path: Path) -> None:
        """Spans as JSON lines: name, binding, start_ns, end_ns, parent, point."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals of one traced pass: *_ms in milliseconds, the rest counts."""
    spans, child_ns = tracer.spans, tracer.child_ns
    calls: Counter = Counter()
    incl: defaultdict[str, int] = defaultdict(int)
    self_ns: defaultdict[str, int] = defaultdict(int)
    for idx, (name, _binding, t0, t1, _parent, _point) in enumerate(spans):
        calls[name] += 1
        incl[name] += t1 - t0
        self_ns[name] += t1 - t0 - child_ns[idx]

    def ms(total: float) -> float:
        return total / 1e6

    def self_of(pred: Callable[[str], bool]) -> float:
        return ms(sum(v for k, v in self_ns.items() if pred(k)))

    def outer_of(prefix: str) -> float:
        """Duration of the spans under `prefix` not nested in another of them."""
        return ms(sum(t1 - t0 for name, _b, t0, t1, parent, _p in spans
                      if name.startswith(prefix)
                      and (parent < 0 or not spans[parent][0].startswith(prefix))))

    counts = tracer.counts
    adaptive_calls = calls["summation.sum_adaptive"]
    return {
        "asymptotics.build_ms": self_of(lambda k: k.startswith("asymptotics.") and k not in _EVALUATE),
        "asymptotics.jet_ms": ms(incl["asymptotics.LogPowerSeries.jet"]),
        "asymptotics.mul_calls": calls["asymptotics.LogPowerSeries.__mul__"],
        "asymptotics.monomials": counts["asymptotics.monomials"],
        "summation.em_tail_calls": calls["summation.em_tail"],
        "summation.em_tail_ms": ms(incl["summation.em_tail"]),
        "series.lhs_ms": outer_of("series."),
        "series.self_ms": self_of(lambda k: k.startswith("series.")),
        "summation.adaptive_calls": adaptive_calls,
        "summation.adaptive_terms": counts["summation.adaptive_terms"],
        "summation.adaptive_ms": ms(incl["summation.sum_adaptive"]),
        # share of sum_adaptive calls that converged; 1 when there were none
        "summation.adaptive_converged_ratio": (
            counts["summation.adaptive_converged"] / adaptive_calls if adaptive_calls else 1.0),
        "special.gen_binom_calls": calls["special.gen_binom"],
        "special.hurwitz_zeta_calls": calls["special.hurwitz_zeta"],
        "jets.gamma_ratio_calls": calls["jets.gamma_ratio_jet"],
        "jets.gamma_ratio_ms": ms(incl["jets.gamma_ratio_jet"]),
        "jets.self_ms": self_of(lambda k: k.startswith("jets.")),
        "special.polygamma_calls": calls["special.polygamma"],
        "special.gen_harmonic_calls": calls["special.gen_harmonic"],
        "special.self_ms": self_of(lambda k: k.startswith("special.")),
        "identities.rhs_ms": outer_of("identities.rhs_"),
        "identities.rhs_self_ms": self_of(lambda k: k.startswith("identities.rhs_")),
        "identities.verify_self_ms": self_of(lambda k: k == "identities.verify"),
        "special.cache_build_ms": ms(incl["special.HarmonicCache.build"]),
        "cli.self_ms": self_of(lambda k: k.startswith("cli.")),
    }
