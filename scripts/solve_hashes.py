#!/usr/bin/env python3
"""Print the sha256 of every SDP solve of a run, as one JSON object.

Each solve's record holds its place ("where"), a sha256 over its x, y, s,
ray, status, iteration count, message and objectives, and its status,
interior-point iterations and exit (the message up to the first ";"
outside parentheses).  Two commits whose solver iterates are bit-identical
print the same object.

Example:
    PYTHONPATH=src python scripts/solve_hashes.py --workload search --seed 1

--workload runs one pass of the benchmark's `perfbench/worker.py --mode
measure --seconds 0` in this process (the cli workload solves in child
processes, so it is not offered); --tests runs the tier-1 suite.  Both pin
BLAS to one thread, and the exit status is that of the run: pytest's, or 1
if a benchmark call deviated.  --passes N (with --workload) runs N
passes in one process, prints the first and exits 1 unless every later
pass, which meets what the first left behind, solves to the same hashes
in the same order (stderr reads how many match).

--compare BASE.json CHANGE.json reports, from the two runs' records alone:
how many of the change's solves equal the base's solve at the same place
(the same "where" and position within it) and how many appear in the
base's list in order, with the total iterations of each run; one line per
(status, exit) whose solve count or iteration sum moved; then, over the
places whose hash differs, how many kept their status and exit (with
fewer, equal or more iterations), and up to five of those places with
their status, iterations and exit at the base -> at the change.  A file
that cannot be read counts as no solves.  It exits 0 and needs no sosproj.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from collections import Counter
from pathlib import Path

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_name] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def solution_hash(sol) -> str:
    """sha256 of an `sdp.SdpSolution`."""
    h = hashlib.sha256()

    def arrays(items) -> None:
        for a in items:
            a = np.ascontiguousarray(a, dtype=float)
            h.update(repr(a.shape).encode())
            h.update(a.tobytes())

    arrays(sol.x_blocks)
    arrays([sol.y])
    arrays(sol.s_blocks)
    if sol.ray is None:
        h.update(b"no ray")
    else:
        arrays([sol.ray[0], *sol.ray[1]])
    scalars = (sol.primal_objective, sol.dual_objective)
    h.update(
        f"{sol.status.value}|{sol.iterations}|{sol.message}|"
        f"{'|'.join(float(v).hex() for v in scalars)}".encode()
    )
    return h.hexdigest()


def exit_key(message: str) -> str:
    """The message up to its first ";" outside parentheses."""
    depth = 0
    for at, char in enumerate(message):
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        elif char == ";" and depth == 0:
            return message[:at]
    return message


def record_solves(where) -> list[dict]:
    """Wrap sdp._solve_once so each solve appends its hash, status and exit."""
    from sosproj import sdp

    solves: list[dict] = []
    inner = sdp._solve_once

    def hashed(ws, cfg):
        sol = inner(ws, cfg)
        solves.append({
            "where": where(len(solves)),
            "sha256": solution_hash(sol),
            "status": sol.status.value,
            "iterations": sol.iterations,
            "exit": exit_key(sol.message),
        })
        return sol

    sdp._solve_once = hashed
    return solves


def run_tests() -> tuple[int, list[dict]]:
    import pytest

    solves = record_solves(
        lambda _n: os.environ.get("PYTEST_CURRENT_TEST", "").rsplit(" (", 1)[0]
    )
    with contextlib.redirect_stdout(sys.stderr):
        code = int(pytest.main([
            "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
            str(ROOT / "tests"),
        ]))
    return code, solves


def run_workload(name: str, seed: int, passes: int = 1) -> tuple[int, list[dict]]:
    """Run the workload's pass `passes` times in this process.  Returns 1 if
    a call deviated or a later pass's hashes differ from the first's (else
    0), and the first pass's solves."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import worker

    solves = record_solves(lambda n: f"{name}/seed{seed}/{n}")
    argv = sys.argv
    sys.argv = ["worker.py", "--workload", name, "--seed", str(seed),
                "--mode", "measure", "--seconds", "0"]
    code, runs = 0, []
    try:
        for _ in range(passes):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                worker.main()
            result = json.loads(out.getvalue().strip().splitlines()[-1])
            code |= int(result["deviations"] > 0)
            runs.append([h["sha256"] for h in solves[sum(map(len, runs)):]])
    finally:
        sys.argv = argv
    for number, run in enumerate(runs[1:], 2):
        equal = sum(a == b for a, b in zip(runs[0], run))
        print(
            f"pass {number}: {equal} of {len(run)} solve hashes equal to "
            f"pass 1's ({len(runs[0])} solves)", file=sys.stderr,
        )
        code |= int(run != runs[0])
    return code, solves[:len(runs[0])]


def read_run(path: str) -> list[dict]:
    """The solves of a printed run; none if the file cannot be read."""
    try:
        with open(path) as fh:
            return json.load(fh)["hashes"]
    except (OSError, ValueError, KeyError):
        return []


def solves_by_place(solves: list[dict]) -> dict[tuple[str, int], dict]:
    """Each solve, keyed by (where, position)."""
    seen: Counter = Counter()
    out = {}
    for h in solves:
        out[h["where"], seen[h["where"]]] = h
        seen[h["where"]] += 1
    return out


def exit_table(solves: list[dict]) -> dict[tuple[str, str], tuple[int, int]]:
    """The solve count and iteration sum per (status, exit)."""
    counts: Counter = Counter()
    iterations: Counter = Counter()
    for h in solves:
        counts[h["status"], h["exit"]] += 1
        iterations[h["status"], h["exit"]] += h["iterations"]
    return {key: (counts[key], iterations[key]) for key in counts}


def outcome(solve: dict | None) -> str:
    """A solve's status, iterations and exit, for a place that differs."""
    if solve is None:
        return "no solve"
    return f"{solve['status']}, {solve['iterations']} iterations, {solve['exit']}"


def differing_summary(
    base: dict[tuple[str, int], dict], change: dict[tuple[str, int], dict],
    differ: list[tuple[str, int]],
) -> str:
    """One line over every place that differs: how many keep their status
    and exit, split by whether the change took fewer, equal or more
    iterations, how many changed status or exit, and how many the base
    lacks."""
    steps = Counter()
    for place in differ:
        was, now = base.get(place), change[place]
        if was is None:
            steps["new"] += 1
        elif (was["status"], was["exit"]) != (now["status"], now["exit"]):
            steps["changed"] += 1
        elif now["iterations"] < was["iterations"]:
            steps["fewer"] += 1
        elif now["iterations"] > was["iterations"]:
            steps["more"] += 1
        else:
            steps["equal"] += 1
    kept = steps["fewer"] + steps["equal"] + steps["more"]
    return (
        f"- {len(differ)} places differ: {kept} keep status and exit "
        f"({steps['fewer']} fewer iterations, {steps['equal']} equal, "
        f"{steps['more']} more), {steps['changed']} changed status or exit, "
        f"{steps['new']} with no base solve"
    )


def in_order(base: list[str], change: list[str]) -> int:
    """Length of the longest common subsequence of two hash lists."""
    prev = [0] * (len(base) + 1)
    for sha in change:
        row = [0]
        for j, base_sha in enumerate(base):
            row.append(prev[j] + 1 if sha == base_sha else max(prev[j + 1], row[j]))
        prev = row
    return prev[-1]


def compare(base_path: str, change_path: str, label: str) -> list[str]:
    """The summary lines of --compare."""
    base_solves, change_solves = read_run(base_path), read_run(change_path)
    base, change = solves_by_place(base_solves), solves_by_place(change_solves)
    differ = [
        place for place, h in change.items()
        if base.get(place, {}).get("sha256") != h["sha256"]
    ]
    kept = in_order(
        [h["sha256"] for h in base_solves], [h["sha256"] for h in change_solves]
    )
    lines = [
        f"{label}: {len(change) - len(differ)} of {len(change)} solve hashes "
        f"equal to base ({len(base)} base solves); {kept} of {len(change)} "
        f"in the base's order; "
        f"{sum(h['iterations'] for h in base_solves)} -> "
        f"{sum(h['iterations'] for h in change_solves)} iterations"
    ]
    base_exits, change_exits = exit_table(base_solves), exit_table(change_solves)
    for status, reason in {**base_exits, **change_exits}:
        was = base_exits.get((status, reason), (0, 0))
        now = change_exits.get((status, reason), (0, 0))
        if was != now:
            lines.append(
                f"- {status}, {reason}: {was[0]} solves, {was[1]} iterations "
                f"-> {now[0]} solves, {now[1]} iterations"
            )
    if differ:
        lines.append(differing_summary(base, change, differ))
    lines += [
        f"- differs: {where}, solve {at}: "
        f"{outcome(base.get((where, at)))} -> {outcome(change[where, at])}"
        for where, at in differ[:5]
    ]
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=("ladder", "search", "crosscheck"))
    target.add_argument("--tests", action="store_true")
    target.add_argument("--compare", nargs=2, metavar=("BASE.json", "CHANGE.json"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--passes", type=int, default=1,
        help="with --workload: passes run in one process, each checked "
        "against the first",
    )
    parser.add_argument(
        "--label", default="solves", help="name of the run in the --compare summary"
    )
    args = parser.parse_args()
    if args.passes < 1 or (args.passes > 1 and not args.workload):
        parser.error("--passes takes a count of 1 or more, and only with --workload")
    if args.compare:
        print("\n".join(compare(*args.compare, args.label)))
        return 0
    if args.tests:
        code, solves = run_tests()
    else:
        code, solves = run_workload(args.workload, args.seed, args.passes)
    print(json.dumps({"solves": len(solves), "hashes": solves}, indent=1))
    return code


if __name__ == "__main__":
    sys.exit(main())
