from pathlib import Path

import pytest

from sosproj import certificates, projection
from sosproj.cones import SemialgebraicSystem
from sosproj.polynomials import WeightSequence, parse_polynomial
from sosproj.projection import ProjectionProblem, build_lambda_form_sdp
from sosproj.sdp import SdpModelError, SdpProblem
from sosproj.sdpa_io import export_sdpa, parse_sdpa

GOLDEN_DIR = Path(__file__).parent / "golden"


def trace_toy():
    p = SdpProblem()
    blk = p.add_psd_block(2)
    p.set_objective({blk: [(0, 0, 1.0), (1, 1, 1.0)]})
    p.add_constraint({blk: [(0, 0, 1.0)]}, 1.0)
    return p


def mixed_blocks():
    p = SdpProblem()
    lam = p.add_diag_block(3)
    psd = p.add_psd_block(2)
    p.set_objective({lam: [(0, 0, 2.0), (2, 2, 0.5)], psd: [(0, 1, -1.25)]})
    p.add_constraint({lam: [(1, 1, 1.0)], psd: [(0, 0, 3.0)]}, 0.125)
    p.add_constraint({psd: [(1, 1, 1.0), (0, 1, 0.5)]}, -2.0)
    return p


def projection_fixture():
    f = parse_polynomial("x1^4 - x1 + 1/3", 1)
    problem = ProjectionProblem(
        f, SemialgebraicSystem(1, ()), WeightSequence.l1(), 2
    )
    return build_lambda_form_sdp(problem).sdp


class _Captured(Exception):
    def __init__(self, problem):
        super().__init__("captured")
        self.problem = problem


def _captured_sdp(module, run):
    """The SDP that `run` hands to `module.solve`, captured unsolved."""

    def stub(problem, config=None):
        raise _Captured(problem)

    saved = module.solve
    module.solve = stub
    try:
        run()
    except _Captured as exc:
        return exc.problem
    finally:
        module.solve = saved
    raise AssertionError("no SDP reached the solver")


def _ball_quartic_problem():
    f = parse_polynomial("x1^4 - x1 + 1/3", 1)
    g = parse_polynomial("1 - x1^2", 1)
    return ProjectionProblem(
        f, SemialgebraicSystem(1, (g,)), WeightSequence.l1(), 2
    )


def general_form_fixture():
    problem = _ball_quartic_problem()
    return _captured_sdp(
        projection, lambda: projection.project_general_form(problem)
    )


def dual_moment_fixture():
    problem = _ball_quartic_problem()
    return _captured_sdp(
        projection, lambda: projection.dual_moment_problem(problem)
    )


def membership_fixture():
    problem = _ball_quartic_problem()
    return _captured_sdp(
        certificates,
        lambda: certificates.membership(problem.f, problem.system, 2),
    )


FIXTURES = {
    "trace_toy.dat-s": trace_toy,
    "mixed_blocks.dat-s": mixed_blocks,
    "projection_quartic.dat-s": projection_fixture,
    "general_form_ball.dat-s": general_form_fixture,
    "dual_moment_ball.dat-s": dual_moment_fixture,
    "membership_ball.dat-s": membership_fixture,
}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_golden_files_byte_identical(name):
    text = export_sdpa(FIXTURES[name](), comments=("golden fixture",))
    again = export_sdpa(FIXTURES[name](), comments=("golden fixture",))
    assert text == again
    golden = (GOLDEN_DIR / name).read_text()
    assert text == golden


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_round_trip_reproduces_problem(name):
    problem = FIXTURES[name]()
    text = export_sdpa(problem, comments=("round trip",))
    parsed, comments = parse_sdpa(text)
    assert comments == ("round trip",)
    assert export_sdpa(parsed, comments=comments) == text
    assert [b.kind for b in parsed.blocks] == [b.kind for b in problem.blocks]
    assert [b.side for b in parsed.blocks] == [b.side for b in problem.blocks]
    assert parsed.constraints == problem.constraints
    assert parsed.objective == problem.objective


def test_empty_objective_has_no_matno_zero_entries():
    p = SdpProblem()
    blk = p.add_psd_block(2)
    p.add_constraint({blk: [(0, 0, 1.0)]}, 1.0)
    text = export_sdpa(p)
    assert not any(line.startswith("0 ") for line in text.splitlines())


def test_diag_block_negative_size_line():
    text = export_sdpa(mixed_blocks())
    lines = text.splitlines()
    assert lines[2] == "-3 2"


def test_parse_skips_blank_lines_and_mirrors_lower_triangle_entries():
    problem, comments = parse_sdpa('"one\n*two\n\n1\n1\n2\n1.0\n1 1 2 1 0.5\n')
    assert comments == ("one", "two")
    assert problem.constraints == [({0: [(0, 1, 0.5)]}, 1.0)]


def test_parse_rejects_malformed():
    with pytest.raises(SdpModelError):
        parse_sdpa("1\n1\n")
    with pytest.raises(SdpModelError):
        parse_sdpa("1\n1\n2 2\n1.0\n")  # block count mismatch
    with pytest.raises(SdpModelError, match="rhs line"):
        parse_sdpa("1\n1\n2\n1.0 2.0\n")
    with pytest.raises(SdpModelError, match="zero block size"):
        parse_sdpa("1\n1\n0\n1.0\n")
    with pytest.raises(SdpModelError, match="bad entry line"):
        parse_sdpa("1\n1\n2\n1.0\n1 1 1 1\n")
    with pytest.raises(SdpModelError, match="matrix index 2 out of range"):
        parse_sdpa("1\n1\n2\n1.0\n2 1 1 1 1.0\n")
