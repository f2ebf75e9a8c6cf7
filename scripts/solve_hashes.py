#!/usr/bin/env python3
"""Print the sha256 of every SDP solve of a run, as one JSON object.

Each solve's hash covers its x, y, s and ray, its status, iteration count,
message and objectives.  Two commits whose solver iterates are bit-identical
print the same object, so a change that must not move an iterate is checked
by running this on both commits and comparing the output.

Each solve also lists its status, its interior-point iterations and its
exit (its message up to the first ";" outside parentheses, so that
"converged (best iterate; ...)" keeps the failure exit that led there), and
"exits" counts the solves per (status, exit): which solver exits a run
reaches, and how often.

Example:
    PYTHONPATH=src python scripts/solve_hashes.py --workload search --seed 1

--workload runs one pass of the benchmark's `perfbench/worker.py --mode
measure --seconds 0` in this process (the cli workload solves in child
processes, so it is not offered); --tests runs the tier-1 suite instead.
Both pin BLAS to one thread, as the benchmark does.  The exit status is
that of the run: pytest's, or 1 if a benchmark call deviated.

--passes N (with --workload) runs N such passes in this one process and
prints the first pass's solves.  Later passes meet what the first left
behind, such as the membership SDPs and truncations sosproj keeps, so each
later pass must solve to the same hashes in the same order: stderr reads
how many of each later pass's solve hashes equal the first pass's, and the
exit status is 1 unless all of them do.

--compare BASE.json CHANGE.json reads two such outputs and prints how many
of the change's solves have the sha256 of the base's solve at the same
place: the same "where" and the same position among the solves of that
"where" (all solves of one tier-1 test share its test id, so a solve is
matched by its order within its test).  It also prints how many of the
change's solves appear in the base's list in order (the longest common
subsequence of the two sha256 lists): a change that drops solves and keeps
every other one reads all of its solves here, though the places after the
first dropped solve differ.  Below the counts come the total iterations
of the base's solves and of the change's ("unknown" for a run whose solves
do not all record them, such as one printed before they were recorded;
the line is left out when neither run records them), the same totals per
status (optimal, infeasible, and every other status as "other"), one line
over every place whose hash differs (how many keep their status and exit,
of those how many took fewer, equal and more iterations, how many
changed status or exit, and how many have no base solve; left out when
no such solve records its status), up to five places whose hash differs,
then every (status, exit) whose count differs between the two "exits"
censuses, so a change that moves solves from one exit to another shows
which.  Each place that differs also reads its
status, iterations and exit at the base -> at the change (when either
solve records its status; "unknown" for a field a solve does not record,
"no solve" for a place the base lacks), so a change that moves only
messages reads as such.  A file that cannot be read counts as no
solves.  It only reports, exits 0 and needs no sosproj on the path.
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
# The statuses whose iterations --compare totals apart; the rest are "other".
STATUS_GROUPS = ("optimal", "infeasible", "other")


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


def read_run(path: str) -> tuple[list[dict], Counter]:
    """The solves and the (status, exit) counts of a printed run; none if
    the file cannot be read."""
    try:
        with open(path) as fh:
            run = json.load(fh)
        solves = run["hashes"]
        exits = Counter(
            {(e["status"], e["exit"]): e["count"] for e in run.get("exits", [])}
        )
    except (OSError, ValueError, KeyError):
        return [], Counter()
    return solves, exits


def solves_by_place(solves: list[dict]) -> dict[tuple[str, int], dict]:
    """Each solve, keyed by (where, position)."""
    seen: Counter = Counter()
    out = {}
    for h in solves:
        out[h["where"], seen[h["where"]]] = h
        seen[h["where"]] += 1
    return out


def outcome(solve: dict | None) -> str:
    """A solve's status, iterations and exit, for a place that differs."""
    if solve is None:
        return "no solve"
    status, iterations, reason = (
        solve.get(key, "unknown") for key in ("status", "iterations", "exit")
    )
    return f"{status}, {iterations} iterations, {reason}"


def total_iterations(solves: list[dict]) -> int | None:
    """The solves' summed iterations; None unless every solve records them."""
    counts = [h.get("iterations") for h in solves]
    return None if None in counts else sum(counts)


def iterations_by_status(solves: list[dict]) -> dict[str, int] | None:
    """The solves' summed iterations per status, every status other than
    optimal and infeasible as "other"; None unless every solve records its
    status and iterations."""
    totals = dict.fromkeys(STATUS_GROUPS, 0)
    for h in solves:
        if h.get("status") is None or h.get("iterations") is None:
            return None
        totals[h["status"] if h["status"] in totals else "other"] += h["iterations"]
    return totals


def differing_summary(
    base: dict[tuple[str, int], dict], change: dict[tuple[str, int], dict],
    differ: list[tuple[str, int]],
) -> str:
    """One line over every place that differs: how many keep their status
    and exit, split by whether the change took fewer, equal or more
    iterations, how many changed status or exit, and how many the base
    lacks.  A place whose solves do not both record status, exit and
    iterations counts as changed."""
    steps = Counter()
    for place in differ:
        was, now = base.get(place), change[place]
        fields = ("status", "exit", "iterations")
        if was is None:
            steps["new"] += 1
        elif any(key not in was or key not in now for key in fields) or (
            (was["status"], was["exit"]) != (now["status"], now["exit"])
        ):
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
    base_solves, base_exits = read_run(base_path)
    change_solves, change_exits = read_run(change_path)
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
        f"in the base's order"
    ]
    totals = [total_iterations(base_solves), total_iterations(change_solves)]
    if totals != [None, None]:
        base_total, change_total = ("unknown" if t is None else t for t in totals)
        lines.append(f"- iterations: {base_total} -> {change_total}")
    by_status = [iterations_by_status(base_solves), iterations_by_status(change_solves)]
    if by_status != [None, None]:
        base_by, change_by = ({} if t is None else t for t in by_status)
        lines.append("- iterations by status: " + ", ".join(
            f"{status} {base_by.get(status, 'unknown')} -> "
            f"{change_by.get(status, 'unknown')}"
            for status in STATUS_GROUPS
        ))
    if any("status" in (base.get(place) or {}) or "status" in change[place]
           for place in differ):
        lines.append(differing_summary(base, change, differ))
    for place in differ[:5]:
        was, now = base.get(place), change[place]
        line = f"- differs: {place[0]}, solve {place[1]}"
        if "status" in (was or {}) or "status" in now:
            line += f": {outcome(was)} -> {outcome(now)}"
        lines.append(line)
    lines += [
        f"- exit count moved: {status}, {reason}: "
        f"{base_exits[status, reason]} -> {change_exits[status, reason]}"
        for status, reason in {**base_exits, **change_exits}
        if base_exits[status, reason] != change_exits[status, reason]
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
    exits = Counter((s["status"], s["exit"]) for s in solves)
    census = [
        {"status": status, "exit": reason, "count": count}
        for (status, reason), count in exits.most_common()
    ]
    print(json.dumps(
        {"solves": len(solves), "exits": census, "hashes": solves}, indent=1
    ))
    return code


if __name__ == "__main__":
    sys.exit(main())
