import json
import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "solve_hashes.py"


def _write(path, shas, exits=(), iterations=None):
    # Two solves in test a, one in test b: positions count within a "where".
    wheres = ["a", "a", "b"]
    hashes = [{"where": w, "sha256": h} for w, h in zip(wheres, shas)]
    for solve, count in zip(hashes, iterations or ()):
        solve["iterations"] = count
    path.write_text(json.dumps({
        "solves": len(shas),
        "exits": [{"status": s, "exit": e, "count": n} for s, e, n in exits],
        "hashes": hashes,
    }))
    return str(path)


def test_compare_counts_equal_hashes_and_lists_the_ones_that_differ(
    fresh_python, tmp_path
):
    base = _write(tmp_path / "base.json", ["h0", "h1", "h2"])
    same = _write(tmp_path / "same.json", ["h0", "h1", "h2"])
    moved = _write(tmp_path / "moved.json", ["h0", "hX", "h2"])

    run = fresh_python(str(SCRIPT), "--compare", base, same, "--label", "tier-1")
    assert run.returncode == 0, run.stderr
    assert run.stdout == (
        "tier-1: 3 of 3 solve hashes equal to base (3 base solves); "
        "3 of 3 in the base's order\n"
    )

    run = fresh_python(str(SCRIPT), "--compare", base, moved, "--label", "search")
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "search: 2 of 3 solve hashes equal to base (3 base solves); "
        "2 of 3 in the base's order",
        "- differs: a, solve 1",
    ]


def test_compare_counts_kept_solves_in_order_after_a_dropped_one(
    fresh_python, tmp_path
):
    # The change drops the base's first solve: every place after it moves,
    # but both remaining solves appear in the base's order.
    base = _write(tmp_path / "base.json", ["h0", "h1", "h2"])
    dropped = _write(tmp_path / "dropped.json", ["h1", "h2"])
    swapped = _write(tmp_path / "swapped.json", ["h2", "h1"])

    run = fresh_python(str(SCRIPT), "--compare", base, dropped, "--label", "search")
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "search: 0 of 2 solve hashes equal to base (3 base solves); "
        "2 of 2 in the base's order",
        "- differs: a, solve 0",
        "- differs: a, solve 1",
    ]
    run = fresh_python(str(SCRIPT), "--compare", base, swapped, "--label", "search")
    assert run.stdout.splitlines()[0].endswith("; 1 of 2 in the base's order")


def test_compare_runs_without_sosproj(tmp_path):
    # --compare reads only JSON: a sosproj that fails to import is never
    # imported.
    broken = tmp_path / "path" / "sosproj"
    broken.mkdir(parents=True)
    (broken / "__init__.py").write_text("raise ImportError('sosproj imported')\n")
    base = _write(tmp_path / "base.json", ["h0", "h1", "h2"])
    env = dict(os.environ, PYTHONPATH=str(broken.parent))
    run = subprocess.run(
        [sys.executable, str(SCRIPT), "--compare", base, base],
        env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("solves: 3 of 3 solve hashes equal to base")


def test_compare_reads_a_missing_base_as_no_solves(fresh_python, tmp_path):
    change = _write(tmp_path / "change.json", ["h0", "h1", "h2"])
    missing = str(tmp_path / "missing.json")
    run = fresh_python(str(SCRIPT), "--compare", missing, change, "--label", "ladder")
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[0] == (
        "ladder: 0 of 3 solve hashes equal to base (0 base solves); "
        "0 of 3 in the base's order"
    )


def test_compare_lists_the_exit_counts_that_moved(fresh_python, tmp_path):
    # One solve moves from the stall exit to a new exit; the converged count
    # holds, so only the two moved counts are listed, base order first.
    base = _write(tmp_path / "base.json", ["h0", "h1", "h2"], [
        ("optimal", "converged", 2),
        ("max_iter", "progress stalled", 1),
    ])
    moved = _write(tmp_path / "moved.json", ["h0", "h1", "hX"], [
        ("optimal", "converged", 2),
        ("numerical_failure", "singular reduced system", 1),
    ])
    run = fresh_python(str(SCRIPT), "--compare", base, moved, "--label", "tier-1")
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "tier-1: 2 of 3 solve hashes equal to base (3 base solves); "
        "2 of 3 in the base's order",
        "- differs: b, solve 0",
        "- exit count moved: max_iter, progress stalled: 1 -> 0",
        "- exit count moved: numerical_failure, singular reduced system: 0 -> 1",
    ]


def test_compare_prints_the_total_iterations_of_base_and_change(
    fresh_python, tmp_path
):
    base = _write(tmp_path / "base.json", ["h0", "h1", "h2"], iterations=[12, 87, 9])
    change = _write(tmp_path / "change.json", ["h0", "hX", "h2"], iterations=[12, 15, 9])
    run = fresh_python(str(SCRIPT), "--compare", base, change, "--label", "search")
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "search: 2 of 3 solve hashes equal to base (3 base solves); "
        "2 of 3 in the base's order",
        "- iterations: 108 -> 36",
        "- differs: a, solve 1",
    ]

    # A base printed before solves recorded their iterations has no total.
    unrecorded = _write(tmp_path / "unrecorded.json", ["h0", "h1", "h2"])
    run = fresh_python(str(SCRIPT), "--compare", unrecorded, change, "--label", "search")
    assert run.stdout.splitlines()[1] == "- iterations: unknown -> 36"


def test_recorded_solves_carry_their_iterations(fresh_python):
    run = fresh_python("-c", (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import solve_hashes; "
        "from sosproj.sdp import SdpProblem, solve; "
        "solves = solve_hashes.record_solves(lambda n: 'toy'); "
        "p = SdpProblem(); blk = p.add_psd_block(2); "
        "p.add_constraint({blk: [(0, 0, 1.0), (1, 1, 1.0)]}, 1.0); "
        "sol = solve(p); "
        "print(json.dumps([sol.iterations, solves]))"
    ), str(SCRIPT.parent))
    assert run.returncode == 0, run.stderr
    iterations, solves = json.loads(run.stdout)
    assert [s["iterations"] for s in solves] == [iterations]
    assert iterations > 0


def test_exit_key_cuts_at_the_first_semicolon_outside_parentheses(fresh_python):
    # A best-iterate exit keeps the failure exit that led to it; an
    # inaccurate exit keeps its reason alone.
    messages = {
        "converged": "converged",
        "converged (best iterate; no convergence in 2 iterations)":
            "converged (best iterate; no convergence in 2 iterations)",
        "improving ray certifies primal infeasibility":
            "improving ray certifies primal infeasibility",
        "no convergence in 5 iterations; best iterate within 10x feas_tol "
        "(relp 1.00e-08, reld 2.00e-08, relgap 3.00e-07)":
            "no convergence in 5 iterations",
    }
    run = fresh_python("-c", (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import solve_hashes; "
        "print(json.dumps([solve_hashes.exit_key(m) for m in json.loads(sys.argv[2])]))"
    ), str(SCRIPT.parent), json.dumps(list(messages)))
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == list(messages.values())


def test_feasibility_ray_takes_the_one_ray_exit(fresh_python):
    # The Gram SDP of Motzkin + 0.005 (1 + x1^6 + x2^6) at level 3 has no
    # objective; its ray ends the run through the exit every ray takes.
    run = fresh_python("-c", (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import solve_hashes; "
        "from sosproj.cones import SemialgebraicSystem; "
        "from sosproj.certificates import membership; "
        "from sosproj.polynomials import parse_polynomial; "
        "solves = solve_hashes.record_solves(lambda n: 'motzkin'); "
        "f = parse_polynomial('x1^2*x2^2*(x1^2+x2^2-1)+1/27"
        "+0.005*(1+x1^6+x2^6)', 2); "
        "membership(f, SemialgebraicSystem(2, ()), 3); "
        "print(json.dumps(solves))"
    ), str(SCRIPT.parent))
    assert run.returncode == 0, run.stderr
    [solve] = json.loads(run.stdout)
    assert (solve["status"], solve["exit"]) == (
        "infeasible", "improving ray certifies primal infeasibility"
    )


def test_compare_prints_the_iterations_per_status(fresh_python, tmp_path):
    # Statuses other than optimal and infeasible are summed as "other".
    def write(path, iterations):
        statuses = ["optimal", "infeasible", "max_iter", "inaccurate"]
        path.write_text(json.dumps({"solves": 4, "exits": [], "hashes": [
            {"where": "a", "sha256": f"h{i}", "status": s, "iterations": n}
            for i, (s, n) in enumerate(zip(statuses, iterations))
        ]}))
        return str(path)

    base = write(tmp_path / "base.json", [15, 17, 200, 30])
    change = write(tmp_path / "change.json", [14, 12, 200, 30])
    run = fresh_python(str(SCRIPT), "--compare", base, change, "--label", "search")
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[1:3] == [
        "- iterations: 262 -> 256",
        "- iterations by status: optimal 15 -> 14, infeasible 17 -> 12, "
        "other 230 -> 230",
    ]

    # A base printed before solves recorded their status has no such totals.
    unrecorded = _write(tmp_path / "unrecorded.json", ["h0", "h1", "h2"], iterations=[1, 2, 3])
    run = fresh_python(str(SCRIPT), "--compare", unrecorded, change, "--label", "search")
    assert run.stdout.splitlines()[2] == (
        "- iterations by status: optimal unknown -> 14, infeasible unknown -> 12, "
        "other unknown -> 230"
    )


def test_compare_reads_each_differing_place_from_base_to_change(fresh_python, tmp_path):
    # A place whose solve moved only its exit message keeps its status and
    # iterations; a field a solve does not record reads "unknown", and a
    # place the base lacks reads "no solve".
    def write(path, solves):
        path.write_text(json.dumps({"solves": len(solves), "exits": [], "hashes": [
            {"where": "a", "sha256": sha, **fields} for sha, fields in solves
        ]}))
        return str(path)

    converged = {"status": "optimal", "iterations": 9, "exit": "converged"}
    ray = {"status": "infeasible", "iterations": 12}
    base = write(tmp_path / "base.json", [
        ("h0", converged), ("h1", {**ray, "exit": "vanishing tau"}),
    ])
    change = write(tmp_path / "change.json", [
        ("h0", converged),
        ("hX", {**ray, "exit": "improving ray certifies primal infeasibility"}),
        ("h2", {"status": "optimal", "exit": "converged"}),
    ])
    run = fresh_python(str(SCRIPT), "--compare", base, change, "--label", "search")
    assert run.returncode == 0, run.stderr
    assert [line for line in run.stdout.splitlines() if "differs" in line] == [
        "- differs: a, solve 1: infeasible, 12 iterations, vanishing tau -> "
        "infeasible, 12 iterations, improving ray certifies primal infeasibility",
        "- differs: a, solve 2: no solve -> optimal, unknown iterations, converged",
    ]


def test_compare_sums_up_every_differing_place(fresh_python, tmp_path):
    # Seven places differ, more than the five listed one by one: three
    # refute sooner, one takes as many iterations, one takes more, one
    # changes its exit and one is new.
    ray = "improving ray certifies primal infeasibility"

    def write(path, solves):
        path.write_text(json.dumps({"solves": len(solves), "exits": [], "hashes": [
            {"where": "a", "sha256": sha, "status": status, "iterations": n,
             "exit": reason}
            for sha, status, n, reason in solves
        ]}))
        return str(path)

    base = write(tmp_path / "base.json", [
        ("h0", "infeasible", 7, ray), ("h1", "infeasible", 12, ray),
        ("h2", "infeasible", 8, ray), ("h3", "infeasible", 9, ray),
        ("h4", "optimal", 10, "converged"), ("h5", "max_iter", 30, "stalled"),
        ("h6", "optimal", 5, "converged"),
    ])
    change = write(tmp_path / "change.json", [
        ("x0", "infeasible", 4, ray), ("x1", "infeasible", 10, ray),
        ("x2", "infeasible", 5, ray), ("x3", "infeasible", 9, ray),
        ("x4", "optimal", 11, "converged"), ("x5", "infeasible", 20, ray),
        ("h6", "optimal", 5, "converged"), ("x7", "optimal", 3, "converged"),
    ])
    run = fresh_python(str(SCRIPT), "--compare", base, change, "--label", "tier-1")
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[3] == (
        "- 7 places differ: 5 keep status and exit (3 fewer iterations, "
        "1 equal, 1 more), 1 changed status or exit, 1 with no base solve"
    )
    assert len([line for line in lines if line.startswith("- differs:")]) == 5


def test_passes_check_each_later_pass_against_the_first(fresh_python):
    # The second search pass solves its cells over the Gram SDPs and
    # truncations that the first left behind, to the same hashes.
    run = fresh_python(
        str(SCRIPT), "--workload", "search", "--seed", "1", "--passes", "2"
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["solves"] == 23
    assert run.stderr.splitlines()[-1] == (
        "pass 2: 23 of 23 solve hashes equal to pass 1's (23 solves)"
    )

    # A later pass whose one solve differs fails the run.
    run = fresh_python("-c", (
        "import sys; sys.path.insert(0, sys.argv[1]); import solve_hashes; "
        "from sosproj import sdp; inner = sdp._solve_once; count = [0]\n"
        "def moved(ws, cfg):\n"
        "    sol = inner(ws, cfg); count[0] += 1\n"
        "    if count[0] == 30: sol.message += ' (moved)'\n"
        "    return sol\n"
        "sdp._solve_once = moved\n"
        "code, solves = solve_hashes.run_workload('search', 1, 2)\n"
        "print(code, len(solves))"
    ), str(SCRIPT.parent))
    assert run.returncode == 0, run.stderr
    assert run.stdout == "1 23\n"
    assert run.stderr.splitlines()[-1] == (
        "pass 2: 22 of 23 solve hashes equal to pass 1's (23 solves)"
    )


def test_passes_need_a_workload(fresh_python):
    run = fresh_python(str(SCRIPT), "--tests", "--passes", "2")
    assert run.returncode == 2
    assert "--passes" in run.stderr
