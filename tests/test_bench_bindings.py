"""The benchmark in ``bench/`` times each layer by wrapping the function bound
at its callers (``conesolve.solver.hessian``, ``Linearization.apply``, ...).
A binding that is renamed or moved makes every traced operation fail, so the
bindings are checked here, without running the benchmark."""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_benchmark_trace_bindings_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    with tracing.Tracer() as tracer:
        assert tracer.missing == []
