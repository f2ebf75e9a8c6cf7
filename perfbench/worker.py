"""Runs one workload inside this fresh process and prints one JSON line.

Modes:
  setup    build the workload's inputs, report when the first call could start
  measure  then run passes over the call list until --seconds have passed
  trace    then a warm-up pass, an untraced pass and a traced pass; derive
           per-layer metrics from the traced one
  blas     then one traced pass only (used with the BLAS thread count unset)

`run.py` starts this file with the environment from `workloads.child_env`;
it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads



class Tally:
    """Outcomes of every call made, and the first pass's summaries."""

    def __init__(self):
        self.attempted = self.ok = self.known_failures = self.deviations = 0
        self.reasons: list[str] = []
        self.instances: dict[str, dict] = {}
        self.seconds: dict[str, list[float]] = {}

    def add(self, call, summary: dict, outcome: str, reason: str, seconds: float) -> None:
        self.attempted += 1
        self.ok += outcome == "ok"
        self.known_failures += outcome == "known_failure"
        self.deviations += outcome == "deviation"
        if outcome == "deviation" and len(self.reasons) < 20:
            self.reasons.append(f"{call.key}: {reason}")
        self.seconds.setdefault(call.key, []).append(seconds)
        if call.key not in self.instances:
            brief = {k: v for k, v in summary.items() if k not in ("stdout", "files")}
            self.instances[call.key] = {
                "inputs": call.inputs, "outcome": outcome, "reason": reason, **brief,
            }

    def as_dict(self) -> dict:
        instances = []
        for key, entry in self.instances.items():
            entry["median_s"] = statistics.median(self.seconds[key])
            instances.append({"call": key, **entry})
        return {
            "attempted": self.attempted,
            "ok": self.ok,
            "known_failures": self.known_failures,
            "deviations": self.deviations,
            "deviation_reasons": self.reasons,
            "instances": instances,
        }


def run_pass(calls, tr: tracing.Tracer, refs: dict, tally: Tally) -> float:
    """One pass over the call list; returns the summed time of the calls."""
    total = 0.0
    for call in calls:
        out = error = None
        with tr.top_level(call.key):
            start = time.perf_counter()
            try:
                out = call.run(tr)
            except Exception as exc:  # a raising call is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        total += seconds
        summary, outcome, reason = judge(call, out, error, refs)
        tally.add(call, summary, outcome, reason, seconds)
    return total


def judge(call, out, error: str | None, refs: dict) -> tuple[dict, str, str]:
    """Summary and outcome of one call; output that cannot be read deviates."""
    if error is not None:
        summary = {"error": error}
        return summary, *workloads.check(call, summary, refs)
    try:
        summary = call.summarize(out)
        return summary, *workloads.check(call, summary, refs)
    except Exception as exc:  # malformed output is a deviation, not a crash
        return {}, "deviation", f"unreadable output: {type(exc).__name__}: {exc}"


def peak_rss_mb(workload: str) -> float:
    # The CLI workload's work happens in child processes; ru_maxrss is in KiB.
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "measure", "trace", "blas"), required=True)
    args = parser.parse_args()

    tr = tracing.Tracer(enabled=args.mode in ("trace", "blas"))
    workloads.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workloads.OUT_DIR) as tmp:
        runner = workloads.CliRunner(Path(tmp), workloads.child_env())
        with tr.top_level("setup"):
            calls = workloads.build_calls(args.workload, args.seed, tr, runner)
        ready = time.monotonic()
        if args.mode == "setup":
            print(json.dumps({"ready": ready}))
            return 0
        refs = json.loads((workloads.HERE / "references.json").read_text())
        tally = Tally()
        result = {"ready": ready}
        if args.mode == "measure":
            passes = []
            start = time.perf_counter()
            while not passes or time.perf_counter() - start < args.seconds:
                passes.append(run_pass(calls, tr, refs, tally))
            result["passes"] = passes
        elif args.mode == "trace":
            # The first pass warms lazy imports and caches, so that the
            # untraced and traced passes compared below are both warm.
            tr.enabled = False
            run_pass(calls, tr, refs, tally)
            untraced = run_pass(calls, tr, refs, tally)
            tr.enabled = True
            with tracing.wrapped(tr):
                traced = run_pass(calls, tr, refs, tally)
            result["untraced_pass_s"] = untraced
            result["traced_pass_s"] = traced
        else:
            with tracing.wrapped(tr):
                result["traced_pass_s"] = run_pass(calls, tr, refs, tally)
        result.update(tally.as_dict())
        result["peak_rss_mb"] = peak_rss_mb(args.workload)
        if tr.enabled:
            result["layers"] = tracing.layer_metrics(tr.spans)
            spans_file = workloads.OUT_DIR / f"spans-{args.workload}-seed{args.seed}-{args.mode}.json"
            spans_file.write_text(json.dumps(tr.spans))
            result["spans_file"] = str(spans_file.relative_to(workloads.ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
