"""The report diff tool (tests/report_diff.py) on hand-made reports."""

import math

from report_diff import DEMO_CONFIGS, OUT, ROOT, compare, flags, fold, run_tree, strip_paths

C = 1.0922238873126544


def report(c=C, iterations=2, outdir="/tmp/a"):
    return {
        "exit_code": 0,
        "summary": ["conesolve 0.1.0 run summary", f"solve: c={c:.12g} residual=4.123e-11",
                    ""],
        "report": {
            "config": {"output": {"directory": f"{outdir}/report"}},
            "certificate": {"verdict": "certified"},
            "solve": {
                "complete": True,
                "final": {"c": c, "iterations": iterations},
                "steps": [
                    {"start": "cold", "c": 0.5, "newton_iterations": 0, "newton_trace": [
                        {"residual_sup": 1e-11}]},
                    {"start": "warm", "c": c, "newton_iterations": iterations, "newton_trace": [
                        {"residual_sup": 10.0 ** -k} for k in range(iterations + 1)]},
                ],
            },
        },
    }


def test_a_last_digit_change_is_measured_and_not_flagged():
    diffs = compare(report(), report(c=math.nextafter(C, 2.0)))
    changed = {key: diff for key, diff in diffs.items() if diff.changed}
    assert set(changed) == {"report.solve.final.c", "report.solve.steps[].c"}
    steps = changed["report.solve.steps[].c"]
    assert (steps.changed, steps.compared) == (1, 2)
    assert steps.max_abs == math.ulp(C)
    assert steps.max_rel == math.ulp(C) / math.nextafter(C, 2.0)
    assert steps.describe().startswith("1/2 changed, max abs 2.22e-16")
    assert diffs["report.solve.steps[].start"].describe() == "identical"
    assert flags(diffs) == []


def test_a_newton_count_change_is_flagged():
    diffs = compare(report(), report(iterations=3))
    assert flags(diffs) == [
        "report.solve.final.iterations: 1/1 changed, max abs 1, max rel 0.333",
        "report.solve.steps[].newton_iterations: 1/2 changed, max abs 1, max rel 0.333",
        "report.solve.steps[].newton_trace[].residual_sup: list lengths differ",
    ]


def test_a_key_set_change_and_a_verdict_are_flagged():
    parent, child = report(), report()
    child["report"]["solve"]["steps"][1]["newton_steps"] = [{"step": 1.0}]
    child["report"]["certificate"]["verdict"] = "refuted"
    assert flags(compare(parent, child)) == [
        "report.certificate.verdict: 1/1 changed",
        "report.solve.steps[].newton_steps[].step: only in this tree",
    ]
    assert flags(compare(child, parent))[-1] == (
        "report.solve.steps[].newton_steps[].step: only in the parent")


def test_a_summary_byte_change_is_flagged():
    # c to 12 digits reads the same after a last-digit change of c; a changed
    # byte of the summary (here its residual) is flagged, a missing one too
    parent, child = report(), report(c=math.nextafter(C, 2.0))
    assert compare(parent, child)["summary[]"].describe() == "identical"
    child["summary"][1] = child["summary"][1].replace("4.123e-11", "4.124e-11")
    assert flags(compare(parent, child)) == ["summary[]: 1/3 changed"]
    child["summary"] = None
    assert flags(compare(parent, child)) == ["summary: only in this tree",
                                             "summary[]: only in the parent"]


def test_output_paths_are_ignored():
    parent = strip_paths(report(outdir="/tmp/a"), "/tmp/a")
    child = strip_paths(report(outdir="/var/b"), "/var/b")
    assert parent["report"]["config"]["output"]["directory"] == "<out>/report"
    assert all(diff.describe() == "identical" for diff in compare(parent, child).values())


def test_fold_drops_list_indices():
    assert fold("solve.steps[12].newton_trace[0].margin") == "solve.steps[].newton_trace[].margin"


def test_the_demo_config_runs_at_the_seed_in_the_scratch_directory(tmp_path):
    # solve and certify of demos/quotient.cfg, each with --seed, writing under
    # the run's directory and not the config's; its chi names its own seed,
    # so the seed reaches neither the data nor the certificate
    assert DEMO_CONFIGS == ("demos/quotient.cfg",)
    runs = {seed: run_tree(ROOT, DEMO_CONFIGS[0], seed, tmp_path / str(seed)) for seed in (0, 3)}
    for seed, run in runs.items():
        assert [run[kind]["exit_code"] for kind in ("main", "certify")] == [0, 0]
        for kind in ("main", "certify"):
            config = run[kind]["report"]["config"]
            assert (config["seed"], config["output_directory"]) == (seed, f"{OUT}/{kind}")
            assert (tmp_path / str(seed) / kind / "solve_report.json").is_file()
        assert run["main"]["summary"][0].startswith("conesolve")
        assert run["certify"]["summary"] is None and run["certify"]["report"]["certify_only"]
        assert run["main"]["report"]["certificate"] == run["certify"]["report"]["certificate"]
    diffs = compare(runs[0], runs[3])
    assert {key for key, diff in diffs.items() if diff.changed} == {
        "main.report.config.seed", "certify.report.config.seed"}
