"""conesolve benchmark: end-to-end timings with output checks, and a traced run
that attributes the time to the library's layers.

    python3 bench/run.py --workload real3-hessian --seed 0 --seconds 18 --trace 0
    python3 bench/run.py --seed 0      # every workload, untraced and traced, plus tables

Run it from the repository root; it imports ``conesolve`` from ``src/``.  One
client in one process runs operations back to back (a closed loop), after one
warm-up operation, until ``--seconds`` have passed.  BLAS/OpenMP pools are
pinned to the CPUs this process may use, before numpy is imported.

``--trace 0`` prints the end-to-end metrics, medians over the run:

  run_s        one in-process ``conesolve solve`` (``abp`` on abp-128) call
  certify_s    one in-process ``conesolve certify`` call on the workload config
  setup_s      a fresh interpreter importing conesolve.cli, parsing the config
               and building the problem
  peak_rss_mb  peak resident memory of a fresh interpreter running run_s's call

The three times are speed-adjusted wall seconds: each sample is multiplied by
PROBE_REFERENCE_S over the mean time of a fixed numpy probe run just before
and just after it.  On
a shared host the speed of the CPU drifts by up to 60% over minutes (the probe
alone went from 0.12 s to 0.19 s in five minutes), which moves raw medians
between runs far more than the bounds allow; the probe slows with it, so the
ratio cancels the drift (spread of 30 s medians 0.27 raw, 0.07 adjusted).  The
raw samples and probe times are kept in the record.

``--trace 1`` alternates untraced and traced calls of run_s's operation and
prints the per-layer metrics (see tracing.py) and a table of layers by self
time.  No run has ten samples beyond a tail percentile, so none is reported.

Every operation's output is checked (workloads.py); failures count against
the operations attempted.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Inputs, samples,
machine and thread settings go to .bench_out/<workload>/, and so do the
spans of every traced call, kept in memory until the run ends.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = Path("src")
OUT = Path(".bench_out")
WORKLOAD_NAMES = ("real3-hessian", "quotient-c3", "c2-full-fixed", "abp-128")
SETUP_REPEATS = 3
#: seconds the speed probe takes on a quiet 2-core Intel Xeon at 2.0 GHz
PROBE_REFERENCE_S = 0.05
CERTIFY_PER_MAIN = 2
CHILD_TIMEOUT_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
from conesolve.cli import build_problem
from conesolve.config import parse_config
with open(sys.argv[2]) as fh:
    build_problem(parse_config(fh.read()))
"""

PEAK_RSS_CODE = """
import contextlib, io, json, resource, sys
sys.path.insert(0, sys.argv[1])
from conesolve.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    rc = main(sys.argv[2:])
print(json.dumps({"rc": rc, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


class SpeedProbe:
    """Times a fixed mix of the kinds of work the solves do (FFT, batched
    symmetric eigenvalues, an einsum transform, interpreter-bound arithmetic)
    between operations, to scale their wall times to the reference speed."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.cube = rng.normal(size=(20, 20, 20))
        mats = rng.normal(size=(8000, 3, 3))
        self.mats = mats + mats.transpose(0, 2, 1)
        self.seconds: list[float] = []
        self.time()  # the first call pays for lazy set-up
        self.last = self.time()

    def time(self) -> float:
        np, start = self.np, perf_counter()
        for _ in range(4):
            np.fft.ifftn(np.fft.fftn(self.cube))
            np.linalg.eigvalsh(self.mats)
            np.einsum("ab,...bc,dc->...ad", self.mats[0], self.mats, self.mats[0])
            total = 0
            for i in range(20000):
                total += i * i
        elapsed = perf_counter() - start
        self.seconds.append(elapsed)
        return elapsed

    def adjust(self, seconds: float) -> float:
        """Scale a time measured since the last probe by the probes around it."""
        before, self.last = self.last, self.time()
        return seconds * 2.0 * PROBE_REFERENCE_S / (before + self.last)


class Session:
    """Runs checked operations of one workload and keeps their outcomes."""

    def __init__(self, wl, main, check_main, check_certify):
        self.wl = wl
        self.main = main
        self.checkers = {"main": check_main, "certify": check_certify}
        self.attempted = 0
        self.failures: list[str] = []
        self.reference_bytes: dict[str, bytes] = {}
        self.trace_counts = None

    def _paths(self, kind: str):
        if kind == "main":
            return self.wl.main_argv, self.wl.report_path
        return self.wl.certify_argv, self.wl.certify_report_path

    def run(self, kind: str, tracer=None) -> float:
        """One in-process operation; returns its wall seconds."""
        argv, report_path = self._paths(kind)
        report_path.unlink(missing_ok=True)
        sink = io.StringIO()
        problems: list[str] = []
        rc = None
        with redirect_stdout(sink), redirect_stderr(sink), tracer or nullcontext():
            start = perf_counter()
            try:
                rc = self.main(argv)
            except Exception as exc:  # a failed operation is counted, not fatal
                problems.append(f"exception {exc!r}")
            elapsed = perf_counter() - start
        self.check(kind, rc, report_path, problems)
        return elapsed

    def check(self, kind: str, rc, report_path: Path, problems: list[str]) -> None:
        self.attempted += 1
        try:
            raw = report_path.read_bytes()
            report = json.loads(raw)
        except (OSError, ValueError) as exc:
            problems.append(f"no readable report: {exc}")
        else:
            problems += self.checkers[kind](report, rc if rc is not None else -1, self.wl)
            first = self.reference_bytes.setdefault(kind, raw)
            if raw != first:
                problems.append(f"{report_path.name} differs from the first {kind} report")
        self.fail(kind, problems)

    def fail(self, kind: str, problems: list[str]) -> None:
        if problems:
            self.failures.append(f"{kind} #{self.attempted}: " + "; ".join(problems))

    def check_trace_counts(self, counts: dict) -> None:
        """Per-layer counts must repeat exactly between traced operations."""
        if self.trace_counts is None:
            self.trace_counts = counts
        elif counts != self.trace_counts:
            changed = sorted(k for k in counts.keys() | self.trace_counts.keys()
                             if counts.get(k) != self.trace_counts.get(k))
            self.fail("trace", [f"per-layer counts differ from the first traced call: {changed}"])

    def child(self, code: str, args: list[str]) -> tuple[float, subprocess.CompletedProcess | None]:
        start = perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-c", code, str(SRC), *args],
                                  capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return perf_counter() - start, None
        return perf_counter() - start, proc

    def setup_sample(self) -> float:
        elapsed, proc = self.child(SETUP_CODE, [str(self.wl.config_path)])
        self.attempted += 1
        if proc is None or proc.returncode != 0:
            self.fail("setup", [f"setup child failed: {proc.stderr[-300:] if proc else 'timeout'}"])
        return elapsed

    def peak_rss_sample(self) -> float:
        """Peak RSS in MB of a fresh interpreter running the main operation."""
        argv, report_path = self._paths("main")
        report_path.unlink(missing_ok=True)
        _, proc = self.child(PEAK_RSS_CODE, argv)
        if proc is None or proc.returncode != 0:
            self.attempted += 1
            self.fail("peak_rss", [f"child failed: {proc.stderr[-300:] if proc else 'timeout'}"])
            return 0.0
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        self.check("main", out["rc"], report_path, [])
        return out["maxrss_kb"] / 1024.0


def machine_record(pinned: dict) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unavailable"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": pinned,
    }


def layer_metrics(stats_list: list, newton_iters: int, traced: list[float],
                  untraced: list[float]) -> dict:
    """Per-layer metrics: medians over traced calls of their per-call totals."""
    from tracing import SCOPE, SCOPED, SPAN_NAMES

    first = stats_list[0]
    metrics: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (first.calls[name], "count")
        metrics[f"{name}.self_s"] = (median([s.self_s[name] for s in stats_list]), "s")
        metrics[f"{name}.total_s"] = (median([s.total_s[name] for s in stats_list]), "s")
    for name in SCOPED:
        key = f"{SCOPE}/{name}"
        short = f"certify_field.{name}"
        metrics[f"{short}.calls"] = (first.calls[key], "count")
        metrics[f"{short}.self_s"] = (median([s.self_s[key] for s in stats_list]), "s")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    calls = first.calls
    ls_trials = calls["solver.residual"] - calls["solver.newton_solve"]
    eigs = calls["eigencalc.eigvalsh"] + calls["eigencalc.eigen_decompose"]
    metrics.update({
        "solver.newton_iters": (newton_iters, "count"),
        "solver.accepted_steps": (first.accepted_steps, "count"),
        "solver.ls_trials": (ls_trials, "count"),
        "solver.step_accept": (ratio(first.accepted_steps, ls_trials), "ratio"),
        "solver.t_step_accept": (ratio(first.newton_returns, calls["solver.newton_solve"]),
                                 "ratio"),
        "solver.eig_per_newton": (ratio(eigs, newton_iters), "ratio"),
        "solver.matvec_per_krylov": (ratio(calls["solver.matvec"], calls["solver.krylov"]),
                                     "ratio"),
    })
    layers = sorted({name.split(".")[0] for name in SPAN_NAMES})
    for layer in layers:
        metrics[f"layer.{layer}.self_s"] = (median([
            sum(v for k, v in s.self_s.items() if k.split(".")[0] == layer and "/" not in k)
            for s in stats_list]), "s")
    metrics["layer.untraced_s"] = (median([w - s.top_level_s
                                           for w, s in zip(traced, stats_list)]), "s")
    metrics["trace.run_s"] = (median(traced), "s")
    metrics["trace.untraced_run_s"] = (median(untraced), "s")
    metrics["trace.overhead"] = (ratio(median(traced), median(untraced)), "ratio")
    metrics["trace.coverage"] = (median([s.top_level_s / w
                                         for w, s in zip(traced, stats_list)]), "ratio")
    return metrics


def newton_iterations(report_path: Path) -> int:
    try:
        steps = json.loads(report_path.read_text()).get("solve", {}).get("steps", [])
    except (OSError, ValueError):
        return -1
    return sum(int(s.get("newton_iterations", 0)) for s in steps)


def run_workload(args) -> int:
    n_cpus = len(os.sched_getaffinity(0))
    pinned = {var: str(n_cpus) for var in THREAD_VARS}
    os.environ.update(pinned)
    os.chdir(ROOT)
    if not (SRC / "conesolve" / "cli.py").is_file():
        print(f"no conesolve sources under {ROOT / SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import conesolve.cli

    if Path(conesolve.cli.__file__).resolve() != (SRC / "conesolve" / "cli.py").resolve():
        print(f"imported conesolve from {conesolve.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    outdir = OUT / args.workload / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, outdir)
    wl.config_path.write_text(wl.config_text)
    session = Session(wl, conesolve.cli.main, workloads.check_main, workloads.check_certify)

    session.run("main")  # warm-up: checked, not timed
    if "main" in session.reference_bytes and not session.failures:
        escaped = workloads.checker_escapes(json.loads(session.reference_bytes["main"]), wl)
        if escaped:
            print("the output checks cannot fail: " + "; ".join(escaped), file=sys.stderr)
            return 3
    samples: dict[str, list[float]] = {}
    metrics: dict[str, tuple[float, str]] = {}
    spans: list[tuple] = []
    deadline = perf_counter() + args.seconds
    if args.trace:
        traced, untraced, stats_list, iters = [], [], [], []
        while perf_counter() < deadline:
            untraced.append(session.run("main"))
            tracer = tracing.Tracer(op_id=len(traced))
            traced.append(session.run("main", tracer))
            iters.append(newton_iterations(wl.report_path) if wl.is_solve else 0)
            stats_list.append(tracer.stats)
            session.check_trace_counts({**tracer.stats.calls, "newton_iters": iters[-1],
                                        "accepted_steps": tracer.stats.accepted_steps})
            spans += tracer.spans
            if tracer.missing:
                session.fail("trace", [f"bindings not found: {tracer.missing}"])
        samples = {"trace.run_s": traced, "trace.untraced_run_s": untraced}
        metrics = layer_metrics(stats_list, iters[0], traced, untraced)
    else:
        probe = SpeedProbe()
        raw: dict[str, list[float]] = {"run_s": [], "certify_s": [], "setup_s": []}
        samples = {name: [] for name in raw}

        def measure(name: str, seconds: float) -> None:
            raw[name].append(seconds)
            samples[name].append(probe.adjust(seconds))

        while perf_counter() < deadline:
            measure("run_s", session.run("main"))
            # certify calls are short: take more of them for a steadier median
            for _ in range(CERTIFY_PER_MAIN):
                measure("certify_s", session.run("certify"))
        for _ in range(SETUP_REPEATS):
            measure("setup_s", session.setup_sample())
        metrics = {name: (median(values), "s") for name, values in samples.items()}
        samples["peak_rss_mb"] = [session.peak_rss_sample()]
        metrics["peak_rss_mb"] = (samples["peak_rss_mb"][0], "MB")
        samples.update({f"raw_{name}": values for name, values in raw.items()})
        samples["probe_s"] = probe.seconds

    failed = len(session.failures)
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "config": wl.config_text, "main_argv": wl.main_argv,
        "certify_argv": wl.certify_argv, "c_targets": wl.c_targets,
        "class_constant": wl.class_constant,
        "machine": machine_record(pinned),
        "samples": samples, "attempted": session.attempted, "failed": failed,
        "failures": session.failures,
        "metrics": {k: {"value": v, "unit": u, "n": len(samples.get(k, [])) or None}
                    for k, (v, u) in metrics.items()},
    }
    (outdir / "record.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if spans:
        (outdir / "spans.json").write_text(json.dumps(
            [dict(zip(("op", "id", "parent", "name", "start", "end"), s)) for s in spans]))

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"threads {n_cpus}  closed loop, 1 client")
    for failure in session.failures:
        print(f"FAILED {failure}")
    if args.trace:
        print_layers(wl.name, metrics)
    else:
        for name, (value, unit) in metrics.items():
            raw_note = (f"  (raw wall median {median(samples['raw_' + name]):.4f} s)"
                        if "raw_" + name in samples else "")
            print(f"  {name:<12} median {value:10.4f} {unit:<3} n={len(samples[name])}{raw_note}")
    print(f"  failed_fraction {failed}/{session.attempted} = {failed / session.attempted:.4f}")
    print(json.dumps({
        "correct": failed == 0, "attempted": session.attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def print_layers(name: str, metrics: dict) -> None:
    """Layers by self time in the traced call, with the untraced remainder."""
    run_s = metrics["trace.run_s"][0]
    rows = sorted(((k[len("layer."):-len(".self_s")], v) for k, (v, _) in metrics.items()
                   if k.startswith("layer.") and k.endswith(".self_s")),
                  key=lambda kv: -kv[1])
    rows.append(("(untraced)", metrics["layer.untraced_s"][0]))
    print(f"  where the time goes, {name}: traced run_s {run_s:.3f} s, "
          f"overhead x{metrics['trace.overhead'][0]:.3f}, "
          f"coverage {metrics['trace.coverage'][0]:.1%}")
    for layer, self_s in rows:
        if self_s > 0:
            print(f"    {layer:<12} {self_s:8.3f} s  {self_s / run_s:6.1%}")
    eig = metrics["solver.eig_per_newton"][0]
    print(f"    eigendecompositions per Newton iteration {eig:.2f} "
          f"(base {metrics['solver.newton_iters'][0]} iterations)")


def run_all(args) -> int:
    """Every workload, untraced then traced, in child processes; then tables."""
    os.chdir(ROOT)
    records = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).relative_to(ROOT)), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd)
            if proc.returncode != 0:
                print(f"{name} trace {trace}: exit code {proc.returncode}", file=sys.stderr)
                return proc.returncode
            path = OUT / name / f"seed{args.seed}-trace{trace}" / "record.json"
            records[name, trace] = json.loads(path.read_text())
    print(f"\nend-to-end metrics, seed {args.seed}, {args.seconds} s per run (medians)")
    print(f"  {'workload':<15} {'metric':<16} {'value':>10} unit n")
    for name in WORKLOAD_NAMES:
        rec = records[name, 0]
        for metric, m in rec["metrics"].items():
            print(f"  {name:<15} {metric:<16} {m['value']:10.4f} {m['unit']:<4} {m['n']}")
        fails = rec["failed"] + records[name, 1]["failed"]
        tries = rec["attempted"] + records[name, 1]["attempted"]
        print(f"  {name:<15} {'failed_fraction':<16} {fails / tries:10.4f} 1    {tries}")
    print("\nwhere the time goes (traced run, self time by layer)")
    for name in WORKLOAD_NAMES:
        m = records[name, 1]["metrics"]
        run_s = m["trace.run_s"]["value"]
        layers = sorted(((k.split(".")[1], v["value"]) for k, v in m.items()
                         if k.startswith("layer.") and k.endswith(".self_s") and v["value"] > 0),
                        key=lambda kv: -kv[1])[:4]
        parts = ", ".join(f"{layer} {v / run_s:.0%}" for layer, v in layers)
        print(f"  {name:<15} {run_s:7.3f} s: {parts}, "
              f"untraced {m['layer.untraced_s']['value'] / run_s:.0%}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload; omitted, run all of them and print tables")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
