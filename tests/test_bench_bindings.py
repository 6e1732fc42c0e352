"""The benchmark in ``bench/`` times each layer by wrapping the function bound
at its callers (``conesolve.solver.hessian``, ``Linearization.apply``, ...).
A binding that is renamed or moved makes every traced operation fail, so the
bindings are checked here, without running the benchmark."""

import ast
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_benchmark_trace_bindings_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    with tracing.Tracer() as tracer:
        assert tracer.missing == []


def test_bench_only_names_are_span_bindings(monkeypatch):
    # an import the library keeps only for the tracer (``# noqa: F401``), and
    # the ``solver.lgmres`` alias, must be a binding the tracer uses in that
    # module; once the tracer binds the library's own names, this names the
    # ones that can go
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    bound = {binding for _, bindings in tracing.SPAN_BINDINGS for binding in bindings}
    kept = {("conesolve.solver", "lgmres")}
    for path in (BENCH.parent / "src" / "conesolve").glob("*.py"):
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, ast.ImportFrom) and "# noqa: F401" in lines[node.end_lineno - 1]:
                kept |= {(f"conesolve.{path.stem}", alias.asname or alias.name)
                         for alias in node.names}
    assert len(kept) > 1
    assert kept - bound == set()
