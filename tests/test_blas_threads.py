import pytest

MOTZKIN = "x1^2*x2^2*(x1^2+x2^2-1)+1/27"
UNSET = {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": None}
ONE = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SHOW = "import os; print(os.environ.get('OPENBLAS_NUM_THREADS'), os.environ.get('OMP_NUM_THREADS'))"


@pytest.mark.parametrize(
    "argv",
    [
        ["project", "--f", MOTZKIN, "--norm", "l1", "--d", "3"],
        ["certify", "--f", "(1+x1+x2)^2", "--d", "1"],
        ["psatz", "--f", MOTZKIN, "--eps", "1e-2", "--dmax", "4"],
    ],
    ids=["project", "certify", "psatz"],
)
def test_cli_with_no_thread_count_prints_the_one_thread_bytes(fresh_python, argv):
    unset = fresh_python("-m", "sosproj.cli", *argv, **UNSET)
    one = fresh_python("-m", "sosproj.cli", *argv, **ONE)
    assert (unset.returncode, unset.stdout) == (one.returncode, one.stdout)
    assert unset.stdout


@pytest.mark.parametrize(
    "variables, shown",
    [
        (UNSET, "1 1"),
        ({"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": None}, "3 None"),
        ({"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "3"}, "None 3"),
    ],
    ids=["unset", "openblas-set", "omp-set"],
)
def test_import_sets_one_thread_only_when_no_count_is_set(
    fresh_python, variables, shown
):
    proc = fresh_python("-c", f"import sosproj; {SHOW}", **variables)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == shown + "\n"


def test_import_after_numpy_leaves_the_thread_count_unset(fresh_python):
    proc = fresh_python("-c", f"import numpy, sosproj; {SHOW}", **UNSET)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "None None\n"
