"""Compare the reports the benchmark's workloads write, between this tree and
a parent.

    python tests/report_diff.py                      # against HEAD, seeds 0 and 3
    python tests/report_diff.py --parent HEAD~2 --seeds 0 3 5
    python tests/report_diff.py --parent-tree ../parent

Run it from anywhere; it reads the tree it lives in.  The parent is a commit,
checked out with ``git worktree`` into a temporary directory that is removed
afterwards, or an existing checkout (``--parent-tree``).  For each workload
and seed, each tree runs the main and the certify operation in a fresh
interpreter, from its own ``src/``, with the config its own
``bench/workloads.py`` builds, and keeps the exit code, the report
(``solve_report.json``, or ``abp_report.json`` for ``conesolve abp``) and the
lines of the ``summary.txt`` beside it, if the run wrote one.  Each tree's
``demos/quotient.cfg`` runs the same way, as ``conesolve solve`` (main) and
``conesolve certify`` with ``--seed`` set to the seed, writing under the
temporary directory.

For each report value, named by its key path with list indices folded
(``solve.steps[].c``), it prints "identical" or the largest absolute and
relative change over seeds and indices.  For each workload it prints one line
of each tree's totals, over seeds, of ``WORK_KEYS``, so that a change in work
reads at a glance.  Output paths are ignored: each run's
output directory reads as ``<out>``.  It flags a change in a Newton count, a
verdict, a ``start``, a ``complete``, an exit code or a byte of a summary,
and any change in the key set or a list's length, and exits 1 if it flagged
one.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("real3-hessian", "quotient-c3", "c2-full-fixed", "abp-128")
#: configs of the tree, by path from its root, that run beside the workloads
DEMO_CONFIGS = ("demos/quotient.cfg",)
#: last key segments whose every change is flagged
FLAGGED_KEYS = {"newton_iterations", "iterations", "verdict", "start", "complete", "exit_code",
                "summary"}
OUT = "<out>"
#: work counts totalled over each tree's reports, by last key segment
WORK_KEYS = ("newton_iterations", "krylov_products")

#: run in a fresh interpreter: tree, workload or demo config, seed, output directory
RUNNER = """
import contextlib, io, json, sys
from pathlib import Path
tree, name, seed, outdir = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3]), Path(sys.argv[4])
sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
from conesolve.cli import main
outdir.mkdir(parents=True)
if name.endswith(".cfg"):
    plan = [(kind, [command, "--config", str(tree / name), "--output", str(outdir / kind),
                    "--seed", str(seed)], outdir / kind / "solve_report.json")
            for kind, command in (("main", "solve"), ("certify", "certify"))]
else:
    import workloads
    wl = workloads.WORKLOADS[name](seed, outdir)
    wl.config_path.write_text(wl.config_text)
    plan = [("main", wl.main_argv, wl.report_path),
            ("certify", wl.certify_argv, wl.certify_report_path)]
runs = {}
for kind, argv, path in plan:
    summary = path.with_name("summary.txt")
    path.unlink(missing_ok=True)
    summary.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    runs[kind] = {"exit_code": rc,
                  "report": json.loads(path.read_text()) if path.is_file() else None,
                  "summary": summary.read_text().split("\\n") if summary.is_file() else None}
print(json.dumps(runs))
"""


@dataclass
class KeyDiff:
    """How one folded key's values differ between the parent and this tree."""

    compared: int = 0
    changed: int = 0
    max_abs: float = 0.0
    max_rel: float = 0.0
    #: why the key's shape differs: "", "only in the parent", "only in this
    #: tree" or "list lengths differ"
    structure: str = ""

    def merge(self, other: "KeyDiff") -> None:
        self.compared += other.compared
        self.changed += other.changed
        self.max_abs = max(self.max_abs, other.max_abs)
        self.max_rel = max(self.max_rel, other.max_rel)
        self.structure = self.structure or other.structure

    def describe(self) -> str:
        if self.structure:
            return self.structure
        if not self.changed:
            return "identical"
        if self.max_abs or self.max_rel:
            return (f"{self.changed}/{self.compared} changed, "
                    f"max abs {self.max_abs:.3g}, max rel {self.max_rel:.3g}")
        return f"{self.changed}/{self.compared} changed"


def flatten(value, prefix: str = ""):
    """(path, leaf) pairs of a JSON value; an empty dict or list is a leaf."""
    if isinstance(value, dict) and value:
        for key, item in value.items():
            yield from flatten(item, f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(value, list) and value:
        for index, item in enumerate(value):
            yield from flatten(item, f"{prefix}[{index}]")
    else:
        yield prefix, value


def fold(path: str) -> str:
    """The path with its list indices dropped: ``steps[3].c`` -> ``steps[].c``."""
    return re.sub(r"\[\d+\]", "[]", path)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def value_diff(parent, child) -> KeyDiff:
    """One compared value: changed or not, and by how much if numeric."""
    if _is_number(parent) and _is_number(child):
        if parent == child or (math.isnan(parent) and math.isnan(child)):
            return KeyDiff(compared=1)
        gap = abs(child - parent)
        scale = max(abs(parent), abs(child))
        return KeyDiff(1, 1, gap, gap / scale)
    return KeyDiff(1, int(parent != child))


def compare(parent, child) -> dict[str, KeyDiff]:
    """Every folded key of two JSON values and how its values differ."""
    before, after = dict(flatten(parent)), dict(flatten(child))
    folded_before = {fold(path) for path in before}
    folded_after = {fold(path) for path in after}
    diffs: dict[str, KeyDiff] = {}
    for path in before.keys() | after.keys():
        key = fold(path)
        diff = diffs.setdefault(key, KeyDiff())
        if path in before and path in after:
            diff.merge(value_diff(before[path], after[path]))
        elif key not in folded_after:
            diff.structure = "only in the parent"
        elif key not in folded_before:
            diff.structure = "only in this tree"
        else:
            diff.structure = "list lengths differ"
    return diffs


def flags(diffs: dict[str, KeyDiff]) -> list[str]:
    """The keys whose difference is flagged, each with what happened."""
    flagged = []
    for key, diff in sorted(diffs.items()):
        last = key.rsplit(".", 1)[-1].removesuffix("[]")
        if diff.structure or (diff.changed and last in FLAGGED_KEYS):
            flagged.append(f"{key}: {diff.describe()}")
    return flagged


def work_totals(value) -> dict[str, int]:
    """The total of each of ``WORK_KEYS`` over the leaves of a JSON value."""
    totals = dict.fromkeys(WORK_KEYS, 0)
    for path, leaf in flatten(value):
        last = path.rsplit(".", 1)[-1]
        if last in totals:
            totals[last] += leaf
    return totals


def work_line(workload: str, parent: dict[str, int], tree: dict[str, int]) -> str:
    """One line of each tree's work totals."""
    def counts(totals):
        return ", ".join(f"{key} {totals[key]}" for key in WORK_KEYS)
    return f"{workload} work: parent {counts(parent)}; this tree {counts(tree)}"


def strip_paths(value, outdir: str):
    """``value`` with ``outdir`` read as ``<out>`` in every string."""
    if isinstance(value, dict):
        return {key: strip_paths(item, outdir) for key, item in value.items()}
    if isinstance(value, list):
        return [strip_paths(item, outdir) for item in value]
    if isinstance(value, str):
        return value.replace(outdir, OUT)
    return value


def run_tree(tree: Path, workload: str, seed: int, outdir: Path) -> dict:
    """{"main": record, "certify": record} of one tree's workload or demo
    config, each record holding the exit code, the report and the summary's
    lines, with output paths stripped."""
    done = subprocess.run(
        [sys.executable, "-c", RUNNER, str(tree), workload, str(seed), str(outdir)],
        cwd=tree, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {tree} failed:\n{done.stderr[-2000:]}")
    return strip_paths(json.loads(done.stdout.strip().splitlines()[-1]), str(outdir))


@contextlib.contextmanager
def parent_checkout(rev: str, scratch: Path):
    """A detached ``git worktree`` of ``rev`` under ``scratch``, removed on exit."""
    tree = scratch / "checkout"
    subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", str(tree), rev],
                   check=True, capture_output=True, text=True)
    try:
        yield tree
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                       capture_output=True)


def report_diff(parent: Path, seeds, scratch: Path):
    """(workload, operation) -> folded key -> its largest change over the
    seeds, and workload -> (parent's, this tree's) ``work_totals`` over them."""
    table: dict[tuple, dict[str, KeyDiff]] = {}
    work: dict[str, tuple] = {}
    for workload in WORKLOAD_NAMES + DEMO_CONFIGS:
        totals = work[workload] = (dict.fromkeys(WORK_KEYS, 0), dict.fromkeys(WORK_KEYS, 0))
        for seed in seeds:
            run = f"{Path(workload).name}-{seed}"
            before, after = (run_tree(tree, workload, seed, scratch / side / run)
                             for side, tree in (("parent", parent), ("tree", ROOT)))
            for counts, record in zip(totals, (before, after)):
                for key, count in work_totals(record).items():
                    counts[key] += count
            for kind in ("main", "certify"):
                merged = table.setdefault((workload, kind), {})
                for key, diff in compare(before[kind], after[kind]).items():
                    merged.setdefault(key, KeyDiff()).merge(diff)
    return table, work


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group()
    which.add_argument("--parent", default="HEAD", help="the commit to compare against")
    which.add_argument("--parent-tree", type=Path, help="an existing checkout to compare against")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 3])
    args = parser.parse_args(argv)
    scratch = Path(tempfile.mkdtemp(prefix="report-diff-"))
    checkout = (contextlib.nullcontext(args.parent_tree.resolve()) if args.parent_tree
                else parent_checkout(args.parent, scratch))
    try:
        with checkout as parent:
            table, work = report_diff(parent, args.seeds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    flagged = []
    seeds = " ".join(map(str, args.seeds))
    for (workload, kind), diffs in table.items():
        print(f"{workload} {kind} (seeds {seeds})")
        width = max(map(len, diffs))
        for key in sorted(diffs):
            print(f"  {key:<{width}}  {diffs[key].describe()}")
        flagged += [f"{workload} {kind}: {line}" for line in flags(diffs)]
    print(f"work (seeds {seeds})")
    for workload, (before, after) in work.items():
        print(f"  {work_line(workload, before, after)}")
    for line in flagged:
        print(f"FLAGGED {line}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
