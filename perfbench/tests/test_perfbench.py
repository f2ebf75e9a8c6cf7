"""Tests of the benchmark itself: failure counting, spans, seeding."""

import json

import pytest

import run
import tracing
import workloads
import worker

REFS = json.loads((workloads.HERE / "references.json").read_text())


def _calls(workload, seed):
    return workloads.build_calls(workload, seed, tracing.Tracer(), _runner())


def _runner(tmp="unused"):
    from pathlib import Path

    return workloads.CliRunner(Path(tmp), workloads.child_env())


def _failed_frac(call, summaries):
    tally = worker.Tally()
    for summary in summaries:
        outcome, reason = workloads.check(call, summary, REFS)
        tally.add(call, summary, outcome, reason, 0.0)
    return run._outcomes({**tally.as_dict(), "peak_rss_mb": 0.0})


def test_perturbed_p_value_counts_as_failed():
    call = next(c for c in _calls("ladder", 0) if c.key == "ladder/sextic/l1/d5")
    good = dict(REFS[call.key])
    assert workloads.check(call, good, REFS) == ("ok", "")
    bad = dict(good, p=good["p"] * (1 + 2e-9))
    outcome, reason = workloads.check(call, bad, REFS)
    assert outcome == "deviation" and "reference" in reason
    out = _failed_frac(call, [good, bad])
    assert out["failed_frac"] == pytest.approx(0.5)
    assert out["deviations"] == 1


def test_known_failure_counts_in_failed_frac_but_not_as_deviation():
    call = next(c for c in _calls("ladder", 0) if c.key == "ladder/sextic/l1/d6")
    ref = REFS[call.key]
    assert ref["status"] == "numerical_failure"
    assert workloads.check(call, dict(ref), REFS)[0] == "known_failure"
    converged = dict(ref, status="optimal", p=ref["p"] * (1 + 1e-8))
    assert workloads.check(call, converged, REFS)[0] == "ok"
    wrong = dict(ref, status="optimal", p=ref["p"] * 1.01)
    assert workloads.check(call, wrong, REFS)[0] == "deviation"
    out = _failed_frac(call, [dict(ref)])
    assert out["failed_frac"] == 1.0 and out["deviations"] == 0


def test_wrong_exit_code_counts_as_failed():
    call = next(c for c in _calls("cli", 0) if c.key == "cli/psatz")
    ref = REFS[call.key]
    good = {"exit": ref["exit"], "stdout": ref["stdout"], "files": {}}
    assert workloads.check(call, good, REFS) == ("ok", "")
    bad = dict(good, exit=2)
    assert workloads.check(call, bad, REFS)[0] == "deviation"
    assert _failed_frac(call, [good, bad])["failed_frac"] == pytest.approx(0.5)


def test_unreadable_cli_output_is_a_deviation():
    call = next(c for c in _calls("cli", 0) if c.key == "cli/project")
    out = {"exit": 0, "stdout": "garbage\n", "files": {"cert.txt": "not a certificate\n"}}
    summary, outcome, reason = worker.judge(call, out, None, REFS)
    assert outcome == "deviation" and "unreadable" in reason


def test_cli_output_numbers_are_compared():
    ref = "p_value 1.617838106365e-02\nlambda0 5.4e-03\n"
    assert workloads.text_close(ref, ref)
    assert not workloads.text_close(ref, ref.replace("5.4e-03", "5.5e-03"))
    assert not workloads.text_close(ref, ref.replace("lambda0", "lambda1"))


def test_spans_nest_and_self_times_are_never_negative():
    tr = tracing.Tracer(enabled=True)
    calls = [
        c for c in workloads.build_calls("search", 3, tr)
        if c.kind in ("membership", "closure")
    ][:4]
    crosscheck = [c for c in workloads.build_calls("crosscheck", 0, tr)
                  if c.key.endswith("motzkin/l1/d3")]
    with tracing.wrapped(tr):
        for call in calls + crosscheck:
            with tr.top_level(call.key):
                call.run(tr)
    spans = {s["id"]: s for s in tr.spans}
    names = {s["name"] for s in tr.spans}
    assert {"sdp.solve", "cones.build_truncation", "certificates.membership",
            "projection.project_general_form", "projection.dual_moment_problem"} <= names
    for s in tr.spans:
        assert s["start"] <= s["end"]
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
            assert s["call"] == parent["call"]
    assert all(v >= 0.0 for v in tracing.self_times(tr.spans).values())
    metrics = tracing.layer_metrics(tr.spans)
    assert set(metrics) == set(tracing.LAYER_UNITS)
    assert all(v >= 0.0 for v in metrics.values())
    assert metrics["sdp.solves"] > 0 and metrics["projection.assemble_s"] > 0


def test_wrapped_names_are_restored():
    import sosproj.certificates as certificates

    original = certificates.solve
    with tracing.wrapped(tracing.Tracer(enabled=True)):
        assert certificates.solve is not original
    assert certificates.solve is original


def test_seed_changes_search_inputs_and_nothing_else():
    for workload in ("ladder", "crosscheck", "cli"):
        a = [(c.key, c.inputs) for c in _calls(workload, 1)]
        b = [(c.key, c.inputs) for c in _calls(workload, 2)]
        assert a == b, workload
    one = [c.inputs for c in _calls("search", 1)]
    again = [c.inputs for c in _calls("search", 1)]
    two = [c.inputs for c in _calls("search", 2)]
    assert one == again
    assert one != two
    assert len(one) == len(two)
    assert [c.kind for c in _calls("search", 1)] == [c.kind for c in _calls("search", 2)]


def test_seeded_eps_stay_in_the_referenced_band():
    lo, hi = workloads.PSATZ_EPS_BAND
    for seed in range(20):
        assert all(lo <= eps <= hi for eps in workloads.search_inputs(seed)["eps"])
    for call in _calls("search", 0):
        if call.kind == "psatz":
            assert call.ref_key in REFS


def test_stepwise_certificate_matches_project_lambda_form():
    from sosproj.cones import SemialgebraicSystem
    from sosproj.polynomials import WeightSequence, parse_polynomial
    from sosproj.projection import (
        ProjectionProblem,
        format_certificate,
        project_lambda_form,
    )

    call = next(c for c in _calls("crosscheck", 0)
                if c.key == "crosscheck/lambda/motzkin/l1/d3")
    out = call.run(tracing.Tracer())
    f = parse_polynomial(workloads.MOTZKIN, 2)
    problem = ProjectionProblem(f, SemialgebraicSystem(2, ()), WeightSequence.l1(), 3)
    assert out["text"] == format_certificate(project_lambda_form(problem))


def test_run_refuses_a_directory_without_sources(tmp_path):
    import shutil
    import subprocess
    import sys

    shutil.copytree(workloads.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
