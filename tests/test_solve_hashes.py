import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "solve_hashes.py"


def _write(path, shas):
    # Two solves in test a, one in test b: positions count within a "where".
    wheres = ["a", "a", "b"]
    path.write_text(json.dumps({
        "solves": len(shas),
        "hashes": [{"where": w, "sha256": h} for w, h in zip(wheres, shas)],
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
    assert run.stdout == "tier-1: 3 of 3 solve hashes equal to base (3 base solves)\n"

    run = fresh_python(str(SCRIPT), "--compare", base, moved, "--label", "search")
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "search: 2 of 3 solve hashes equal to base (3 base solves)",
        "- differs: a, solve 1",
    ]


def test_compare_reads_a_missing_base_as_no_solves(fresh_python, tmp_path):
    change = _write(tmp_path / "change.json", ["h0", "h1", "h2"])
    missing = str(tmp_path / "missing.json")
    run = fresh_python(str(SCRIPT), "--compare", missing, change, "--label", "ladder")
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[0] == (
        "ladder: 0 of 3 solve hashes equal to base (0 base solves)"
    )
