"""Records the stored references every benchmark call is checked against.

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src \
        python3 perfbench/record_references.py

Runs each call of every workload once (for `search`, psatz at both ends of
the eps band the seed draws from) and writes its summary to references.json:
status, p-value and iterations of each solve, psatz and closure results, CLI
exit codes and outputs.  The references hold the results of the program the
benchmark was added to; a later change that moves a p-value by more than
1e-9 relative fails the benchmark rather than re-recording them.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

import tracing
import workloads


def reference_calls(tr, runner):
    from sosproj.certificates import PerturbationKind
    from sosproj.cones import SemialgebraicSystem
    from sosproj.polynomials import parse_polynomial

    calls = workloads.ladder_calls(tr) + workloads.crosscheck_calls(tr)
    motzkin = parse_polynomial(workloads.MOTZKIN, 2)
    plane = SemialgebraicSystem(2, ())
    for mode in PerturbationKind:
        key = f"search/psatz/{mode.value}"
        for eps in workloads.PSATZ_EPS_BAND:
            calls.append(workloads.psatz_call(key, motzkin, plane, eps, mode))
    calls.append(workloads.closure_call("search/closure/motzkin/d3", motzkin, plane))
    return calls + workloads.cli_calls(runner)


def main() -> int:
    if any(os.environ.get(name) != "1" for name in workloads.BLAS_VARS):
        print("set OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1", file=sys.stderr)
        return 2
    tr = tracing.Tracer()
    refs = {}
    with tempfile.TemporaryDirectory() as tmp:
        runner = workloads.CliRunner(Path(tmp), workloads.child_env())
        for call in reference_calls(tr, runner):
            summary = call.summarize(call.run(tr))
            if refs.setdefault(call.key, summary) != summary:
                # Both ends of the psatz eps band must give one result.
                print(f"{call.key}: {summary} differs from {refs[call.key]}", file=sys.stderr)
                return 1
            print(call.key, summary.get("status", summary.get("exit")), flush=True)
    path = workloads.HERE / "references.json"
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
