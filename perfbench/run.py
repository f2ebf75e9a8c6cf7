"""sosproj benchmark: time-to-certificate on four workloads.

    python3 perfbench/run.py --workload {ladder,search,crosscheck,cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is loaded from `src/`.  Every
workload process is fresh and single: one call at a time, with
OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1.

--trace 0 prints the end-to-end metrics (tracing off):
  wall_s       median time of one pass over the workload's fixed call list
  setup_s      median over several fresh processes of the time from process
               start to the first timed call (imports plus input building;
               on `cli`, one fresh-interpreter `import sosproj.cli`)
  peak_rss_mb  peak RSS of the workload process (on `cli`, of its children)
  ok_frac      share of top-level calls that returned an optimal or expected
               result matching its reference (1 - failed_frac)

--trace 1 runs a warm-up, an untraced and a traced pass and prints the per-layer
metrics (self times and counts per sosproj module, see tracing.py).

The record keeps every pass time.  It gives the tail as the highest
percentile with at least ten passes beyond it only when a run made eleven
passes or more; with the 2 to 12 passes a run makes, no percentile above
the median has ten passes beyond it, so the tail is not a gated metric.

The second-to-last line of standard output is the run's record (instances
with m, block sides, iterations, status, p-value and residuals; phase times;
peak RSS; the BLAS setting and nproc); the last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
BUDGET_S = 170.0   # the whole run must end within 180 s

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import sosproj.cli; "
    "print(time.perf_counter() - t)"
)

ITERATION_PHASES_NOTE = (
    "phases inside one interior-point iteration (Schur formation, Cholesky, "
    "directions, step length) are not traced yet: they need the solver's own "
    "trace record (ROADMAP item 2)"
)


class BenchError(RuntimeError):
    pass


def spawn(cmd: list[str], env: dict, deadline: float) -> tuple[float, str]:
    """Runs cmd to completion in its own process group; (start, stdout)."""
    start = time.monotonic()
    proc = subprocess.Popen(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{cmd[1:4]} did not finish within the time budget") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1:4]} exited {proc.returncode}: {err.decode()[-2000:]}")
    return start, out.decode()


def worker(args, mode: str, deadline: float, pin_blas: bool = True) -> tuple[float, dict]:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
    ]
    start, out = spawn(cmd, workloads.child_env(ROOT, pin_blas), deadline)
    return start, json.loads(out.strip().splitlines()[-1])


def tail(passes: list[float]) -> dict:
    """Highest percentile of pass times that has ten passes beyond it."""
    xs = sorted(passes)
    if len(xs) < 11:
        return {"value": None, "passes": len(xs), "why": "fewer than 11 passes"}
    k = len(xs) - 11
    return {"value": xs[k], "percentile": 100.0 * (k + 1) / len(xs), "passes": len(xs)}


def setup_samples(args, deadline: float) -> list[float]:
    env = workloads.child_env(ROOT)
    samples = []
    for _ in range(SETUP_SAMPLES if args.workload == "cli" else SETUP_SAMPLES - 1):
        if args.workload == "cli":
            start, _ = spawn([sys.executable, "-c", "import sosproj.cli"], env, deadline)
            samples.append(time.monotonic() - start)
        else:
            start, res = worker(args, "setup", deadline)
            samples.append(res["ready"] - start)
    return samples


def import_seconds(deadline: float) -> list[float]:
    env = workloads.child_env(ROOT)
    return [
        float(spawn([sys.executable, "-c", IMPORT_PROBE], env, deadline)[1])
        for _ in range(IMPORT_SAMPLES)
    ]


def timed_run(args, deadline: float) -> tuple[dict, dict]:
    samples = setup_samples(args, deadline)
    start, res = worker(args, "measure", deadline)
    if args.workload != "cli":
        samples.append(res["ready"] - start)
    passes = res["passes"]
    metrics = {
        "wall_s": statistics.median(passes),
        "setup_s": statistics.median(samples),
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_frac": res["ok"] / res["attempted"],
    }
    record = {
        "passes": len(passes),
        "pass_s": passes,
        "wall_tail": tail(passes),
        "setup_samples_s": samples,
    }
    return metrics, {**record, **_outcomes(res)}


def traced_run(args, deadline: float) -> tuple[dict, dict]:
    _, res = worker(args, "trace", deadline)
    layers = dict(res["layers"])
    layers["trace.overhead_s"] = res["traced_pass_s"] - res["untraced_pass_s"]
    imports = import_seconds(deadline)
    layers["cli.import_s"] = statistics.median(imports)
    record = {
        "untraced_pass_s": res["untraced_pass_s"],
        "traced_pass_s": res["traced_pass_s"],
        "cli_import_samples_s": imports,
        "spans_file": res["spans_file"],
        "notes": [ITERATION_PHASES_NOTE],
    }
    if args.workload == "ladder":
        # Informational only: not checked, not gated.
        _, blas = worker(args, "blas", deadline, pin_blas=False)
        layers["sdp.solve_s_blas_default"] = blas["layers"]["sdp.solve_s"]
        record["blas_default"] = {
            "blas": {name: "unset" for name in workloads.BLAS_VARS},
            "traced_pass_s": blas["traced_pass_s"],
            "deviations": blas["deviations"],
            "spans_file": blas["spans_file"],
        }
    else:
        record["notes"].append("sdp.solve_s_blas_default is measured on ladder only")
    return layers, {**record, **_outcomes(res)}


def _outcomes(res: dict) -> dict:
    keys = ("attempted", "ok", "known_failures", "deviations", "deviation_reasons",
            "peak_rss_mb", "instances")
    out = {k: res[k] for k in keys}
    out["failed_frac"] = 1.0 - res["ok"] / res["attempted"]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "sosproj" / "__init__.py").is_file():
        print(f"no sosproj sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    try:
        if args.trace:
            values, record = traced_run(args, deadline)
            units = tracing.LAYER_UNITS
        else:
            values, record = timed_run(args, deadline)
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas": {name: "1" for name in workloads.BLAS_VARS},
        "nproc": os.cpu_count(),
        "metrics": values,
        **record,
    }
    workloads.OUT_DIR.mkdir(exist_ok=True)
    (workloads.OUT_DIR / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    result = {
        "correct": record["deviations"] == 0,
        "attempted": record["attempted"],
        "failed": record["deviations"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
