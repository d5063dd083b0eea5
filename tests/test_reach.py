"""Every statement of the numeric layers runs on the default grid.

Under stdlib trace, one verify pass over every default_grid() point and two
non-integer-x points, after series._cache.cache_clear(), must run every
function-body statement of asymptotics, summation, series, jets, identities
and special, but for docstrings, raise statements and the commented ALLOWED
list.  A statement it leaves out is either dead code or a path the grid does
not check.
"""

import ast
import inspect
import trace

from eulersums import asymptotics, identities, jets, series, special, summation
from eulersums.identities import IdentityId

MODULES = (asymptotics, summation, series, jets, identities, special)

# (module, function) -> the first source lines of the statements in it that
# may stay unrun, or None for its whole body.
ALLOWED = {
    # perfbench/tracing.py counts the monomials em_tail is handed through it
    ("asymptotics", "LogPowerSeries.terms"): None,
    # its check runs at import, for identities.DEFAULT_CONFIG
    ("summation", "EvalConfig.__init__"): None,
    # em_tail's error guards: a tail that grows, an integral that diverges
    # (the scan for diverging monomials runs only where an order has s <= 1,
    # and no grid model has one)
    ("summation", "em_tail"): {"x = float(K + 1)", "for row in rows:",
                               "for j in range(diverges):", "if row[j]:"},
    # a closed form of the paper that no REGISTRY row uses (ROADMAP item 6)
    ("identities", "rhs_cor_34a"): None,
    # p ** e overflowing: the grid's p are small
    ("identities", "_check_p"): {"least, most = _MIN_NORMAL, math.inf"},
    # these run at import, building REGISTRY and wrapping the memoized builders
    ("identities", "_axes"): None,
    ("special", "memo"): None,
    # k! or a power leaving binary64: the grid's orders are small; and the
    # reflection below x = -1024, as the grid's psi arguments are above it
    ("special", "polygamma"): {"out = math.inf", "acc, y, sign = -_cot_term(k, x), 1.0 - x, -1.0"},
    ("special", "digamma"): {"return digamma(1.0 - x) - _cot_term(0, x)"},
    ("special", "_cot_term"): None,
    # the parameters an integer-x finite sum names when it refuses one: no
    # grid sum is refused
    ("series", "_named"): None,
    # the work bound of a sum with Karatsuba-sized powers, or an x past
    # lgamma's range: the grid's integer x and m are small
    ("series", "_mul_work"): {
        "return _KARATSUBA_BITS ** (2.0 - _LOG2_3) * bits ** (_LOG2_3 - 1.0)"},
    ("series", "_finite_binomial"): {"bits = math.inf"},
}

# The grid has integer x only; the first two reach the signed-binomial factor,
# at x = 2.3 with rounded exponents (_em_sum's s_rounding branch).  The grid's
# p are at least 0.5; at p = 1e-30 psi leaves binary64 before z-order MAX_OZ,
# and the ratio jet stops at the last z-order that builds.
EXTRA_POINTS = ((IdentityId.THM_BASE_E15, {"x": 2.3, "m": 2}),
                (IdentityId.THM_BASE_35, {"x": -0.5, "p": 1.0, "m": 1}),
                (IdentityId.THM_BASE_35, {"x": 1.0, "p": 1e-30, "m": 0}))


def _statements(tree, prefix=""):
    """(function, statement) for every statement in a function body, nested
    functions under their dotted names."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _statements(node, f"{prefix}{node.name}.")
        elif isinstance(node, ast.FunctionDef):
            yield from _body(f"{prefix}{node.name}", node.body)


def _body(func, stmts):
    for stmt in stmts:
        yield func, stmt
        if isinstance(stmt, ast.FunctionDef):
            yield from _body(f"{func}.{stmt.name}", stmt.body)
            continue
        for field in ("body", "orelse", "finalbody"):
            yield from _body(func, getattr(stmt, field, []))
        for handler in getattr(stmt, "handlers", []):
            yield from _body(func, handler.body)


def _lines(stmt):
    """The lines on which running `stmt` shows: its decorators and the lines
    up to its body, or all of a simple statement."""
    if isinstance(stmt, ast.FunctionDef):
        return {d.lineno for d in stmt.decorator_list} | {stmt.lineno}
    body = getattr(stmt, "body", None)
    last = body[0].lineno - 1 if body else stmt.end_lineno
    return set(range(stmt.lineno, last + 1))


def _is_docstring(stmt):
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def _run():
    series._cache.cache_clear()
    for ident, params in identities.default_grid() + list(EXTRA_POINTS):
        identities.verify(ident, params, 1e-7)


def test_every_numeric_statement_runs():
    tracer = trace.Trace(count=1, trace=0)
    tracer.runfunc(_run)
    counts = tracer.results().counts
    unrun = []
    for mod in MODULES:
        short = mod.__name__.rsplit(".", 1)[-1]
        source = inspect.getsource(mod)
        lines = source.splitlines()
        ran = {line for (path, line) in counts if path == mod.__file__}
        for func, stmt in _statements(ast.parse(source)):
            if _is_docstring(stmt) or isinstance(stmt, ast.Raise) or _lines(stmt) & ran:
                continue
            allowed = ALLOWED.get((short, func), set())
            text = lines[stmt.lineno - 1].strip()
            if allowed is None or text in allowed:
                continue
            unrun.append(f"{short}.{func}:{stmt.lineno}: {text}")
    assert not unrun, "\n".join(unrun)


def test_allowlist_names_what_exists():
    """Every ALLOWED key names a function of its module, and every listed
    line begins a statement of that function, so a deleted function or line
    cannot leave a dead entry behind."""
    stale = []
    for mod in MODULES:
        short = mod.__name__.rsplit(".", 1)[-1]
        source = inspect.getsource(mod)
        lines = source.splitlines()
        found = {}
        for func, stmt in _statements(ast.parse(source)):
            found.setdefault(func, set()).add(lines[stmt.lineno - 1].strip())
        for (name, func), allowed in ALLOWED.items():
            if name != short:
                continue
            if func not in found:
                stale.append(f"{short}.{func}: no such function")
            for text in sorted(allowed or ()):
                if text not in found.get(func, ()):
                    stale.append(f"{short}.{func}: no statement {text!r}")
    assert {name for name, _ in ALLOWED} <= {m.__name__.rsplit(".", 1)[-1] for m in MODULES}
    assert not stale, "\n".join(stale)
