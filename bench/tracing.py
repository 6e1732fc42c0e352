"""Spans around the calls into conesolve's layers, recorded from outside.

The tracer replaces a layer's public functions at the bindings their callers
use (``conesolve.solver.hessian``, ``Linearization.apply``, ...) with wrappers
that time each call, and puts the originals back when it is closed.  Nothing
in the program is edited.  Spans stay in memory; the caller writes them out.

A span opened while another span of the same name is active is not recorded:
its time belongs to the outer call, so ``calls`` counts entries into a layer
function from outside it.
"""

from __future__ import annotations

import functools
import itertools
import sys
from collections import defaultdict
from time import perf_counter

#: (span name, [(module path, attribute path), ...]); a binding is a module
#: global or a class attribute that callers resolve at call time
SPAN_BINDINGS = [
    ("torus.hessian", [("conesolve.torus", "hessian"), ("conesolve.solver", "hessian")]),
    ("torus.derivative", [("conesolve.torus", "derivative")]),
    ("torus.endomorphism_field", [("conesolve.torus", "endomorphism_field"),
                                  ("conesolve.solver", "endomorphism_field"),
                                  ("conesolve.cli", "endomorphism_field")]),
    ("eigencalc.eigvalsh", [("numpy.linalg", "eigvalsh")]),
    ("eigencalc.eigen_decompose", [("conesolve.eigencalc", "eigen_decompose"),
                                   ("conesolve.solver", "eigen_decompose")]),
    ("operators.value", [("conesolve.operators", "SymmetricOperator.value")]),
    ("operators.gradient", [("conesolve.operators", "SymmetricOperator.gradient")]),
    ("operators.sample_level_set", [("conesolve.operators", "sample_level_set"),
                                    ("conesolve.subsolution", "sample_level_set")]),
    ("cones.margin", [("conesolve.cones", "GammaCone.margin"),
                      ("conesolve.cones", "PreimageCone.margin")]),
    ("cones.contains", [("conesolve.cones", "GammaCone.contains"),
                        ("conesolve.cones", "PreimageCone.contains")]),
    ("solver.newton_solve", [("conesolve.solver", "newton_solve"),
                             ("conesolve.cli", "newton_solve")]),
    ("solver.linearization", [("conesolve.solver", "Linearization.__init__")]),
    ("solver.matvec", [("conesolve.solver", "Linearization.apply")]),
    ("solver.krylov", [("conesolve.solver", "lgmres")]),
    ("solver.residual", [("conesolve.solver", "residual")]),
    ("solver.admissibility_margin", [("conesolve.solver", "admissibility_margin")]),
    ("subsolution.certify_field", [("conesolve.subsolution", "certify_field"),
                                   ("conesolve.cli", "certify_field")]),
    ("subsolution.estimate_kappa", [("conesolve.subsolution", "estimate_kappa")]),
    ("diagnostics.abp_check", [("conesolve.diagnostics", "abp_check")]),
    ("diagnostics.hmw_ratio", [("conesolve.diagnostics", "hmw_ratio")]),
    ("diagnostics.strong_concavity_flags", [("conesolve.diagnostics",
                                             "strong_concavity_flags")]),
    ("cli.build_problem", [("conesolve.cli", "build_problem")]),
    ("cli.certify_problem", [("conesolve.cli", "certify_problem")]),
]
SPAN_NAMES = [name for name, _ in SPAN_BINDINGS]

#: numpy's eigvalsh is shared by every module; only these callers are traced
EIGVALSH_CALLERS = frozenset({"conesolve.solver", "conesolve.cli"})

#: spans also totalled separately when they run inside this one
SCOPE = "subsolution.certify_field"
SCOPED = ("operators.value", "cones.contains")


class Stats:
    """Per-name totals for one operation: calls, self seconds, total seconds."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.top_level_s = 0.0
        # solver.newton_solve outcomes: returns and accepted Newton steps
        self.newton_returns = 0
        self.accepted_steps = 0


class Tracer:
    """Installs span wrappers on enter and restores the originals on exit."""

    def __init__(self, op_id: int = 0):
        self.op_id = op_id
        self.spans: list[tuple] = []   # (op, id, parent, name, start, end)
        self.stats = Stats()
        self.missing: list[str] = []
        self._stack: list[list] = []   # [span id, child seconds]
        self._active: dict[str, int] = defaultdict(int)
        self._undo: list[tuple] = []
        self._ids = itertools.count()

    def __enter__(self) -> "Tracer":
        for name, bindings in SPAN_BINDINGS:
            wrappers: dict[int, object] = {}
            for module_name, attr_path in bindings:
                owner, attr = _resolve_owner(module_name, attr_path)
                if owner is None or attr not in vars(owner):
                    self.missing.append(f"{module_name}.{attr_path}")
                    continue
                original = vars(owner)[attr]
                # one wrapper per function object, shared by all its bindings
                wrapper = wrappers.get(id(original))
                if wrapper is None:
                    wrapper = wrappers[id(original)] = self._wrap(name, original)
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        stack, active, spans, stats = self._stack, self._active, self.spans, self.stats
        op_id, ids = self.op_id, self._ids
        callers = EIGVALSH_CALLERS if name == "eigencalc.eigvalsh" else None
        scoped = name in SCOPED
        observe = name == "solver.newton_solve"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if active[name] or (
                    callers is not None
                    and sys._getframe(1).f_globals.get("__name__") not in callers):
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0]
            stack.append(frame)
            active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if observe and getattr(exc, "state", None) is not None:
                    stats.accepted_steps += exc.state.iterations
                raise
            finally:
                end = perf_counter()
                active[name] -= 1
                stack.pop()
                duration = end - start
                own = duration - frame[1]
                stats.calls[name] += 1
                stats.self_s[name] += own
                stats.total_s[name] += duration
                if scoped and active[SCOPE]:
                    stats.calls[f"{SCOPE}/{name}"] += 1
                    stats.self_s[f"{SCOPE}/{name}"] += own
                if parent is None:
                    stats.top_level_s += duration
                else:
                    parent[1] += duration
                spans.append((op_id, frame[0], parent[0] if parent else None,
                              name, start, end))
            if observe:
                stats.newton_returns += 1
                stats.accepted_steps += result.iterations
            return result

        return traced


def _resolve_owner(module_name: str, attr_path: str):
    module = sys.modules.get(module_name)
    if module is None:
        __import__(module_name)
        module = sys.modules[module_name]
    *owners, attr = attr_path.split(".")
    owner = module
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr
    return owner, attr
