import importlib.machinery
import importlib.metadata
import math
import sys

import numpy as np
import pytest
import scipy.linalg as sla

from sosproj.cones import SemialgebraicSystem, parse_system_text
from sosproj.moments import BasisMatrixSet
from sosproj.polynomials import (
    Polynomial,
    WeightSequence,
    monomial_basis,
    parse_polynomial,
)
from sosproj.projection import (
    ProjectionProblem,
    build_lambda_form_sdp,
    default_solver_config,
)
from sosproj import sdp as sdp_module
from sosproj.sdp import (
    PSD_TOL,
    BlockKind,
    SdpModelError,
    SdpProblem,
    SdpSolution,
    SdpStatus,
    SolverConfig,
    check_certificate,
    eig_range,
    psd_accepted,
    solve,
)

TIGHT = SolverConfig(feas_tol=1e-9, gap_tol=1e-9)
DEFAULT = SolverConfig(feas_tol=1e-8, gap_tol=1e-6)


def trace_toy():
    p = SdpProblem()
    blk = p.add_psd_block(2)
    p.set_objective({blk: [(0, 0, 1.0), (1, 1, 1.0)]})
    p.add_constraint({blk: [(0, 0, 1.0)]}, 1.0)
    return p


def sos_membership_problem(f, n, k):
    B = BasisMatrixSet(Polynomial.constant(n, 1.0), k)
    prob = SdpProblem()
    blk = prob.add_psd_block(B.side)
    prob.set_objective({blk: [(i, i, 1.0) for i in range(B.side)]})
    for alpha in monomial_basis(n, 2 * k):
        entries = B.entries(alpha)
        if entries:
            prob.add_constraint({blk: entries}, f.coefficient(alpha))
    return prob


def test_trace_toy_analytic():
    sol = solve(trace_toy(), TIGHT)
    assert sol.status is SdpStatus.OPTIMAL
    assert sol.primal_objective == pytest.approx(1.0, abs=1e-7)
    X = sol.x_blocks[0]
    assert X[0, 0] == pytest.approx(1.0, abs=1e-7)
    assert abs(X[0, 1]) < 1e-6 and X[1, 1] < 1e-6


def test_sos_feasibility_easy():
    prob = sos_membership_problem(parse_polynomial("1 + x1^2", 1), 1, 1)
    sol = solve(prob, TIGHT)
    assert sol.status is SdpStatus.OPTIMAL
    assert sol.primal_objective == pytest.approx(2.0, abs=1e-6)


def test_boundary_gram_unique_point():
    prob = sos_membership_problem(parse_polynomial("(1+x1+x2)^2", 2), 2, 1)
    sol = solve(prob, DEFAULT)
    assert sol.status is SdpStatus.OPTIMAL
    assert np.allclose(sol.x_blocks[0], np.ones((3, 3)), atol=1e-5)


def test_motzkin_not_sos_with_ray():
    f = parse_polynomial("x1^2*x2^2*(x1^2+x2^2-1)+1/27", 2)
    prob = sos_membership_problem(f, 2, 3)
    sol = solve(prob, DEFAULT)
    assert sol.status is SdpStatus.INFEASIBLE
    assert sol.ray is not None
    ray_y, ray_s = sol.ray
    b = np.array([rhs for _e, rhs in prob.constraints])
    assert b @ ray_y == pytest.approx(1.0, abs=1e-9)
    # Farkas pair: A^T y + S = 0 with S PSD certifies that A(X) = b, X >= 0
    # has no solution.
    dense = [prob.dense_coefficient(e, 0) for e, _r in prob.constraints]
    at_y = sum(yi * Ai for yi, Ai in zip(ray_y, dense))
    assert np.max(np.abs(at_y + ray_s[0])) < 1e-5
    assert np.linalg.eigvalsh(ray_s[0])[0] >= -1e-8


def test_motzkin_ray_ends_the_run_as_an_exact_farkas_pair():
    # The run ends at the first dual iterate y with b.y > 0 and -A^T y PSD,
    # and returns S = -A^T y itself: A^T y + S vanishes up to rounding,
    # recomputed from the dense constraint matrices.
    f = parse_polynomial("x1^2*x2^2*(x1^2+x2^2-1)+1/27", 2)
    prob = sos_membership_problem(f, 2, 3)
    sol = solve(prob, DEFAULT)
    assert sol.status is SdpStatus.INFEASIBLE
    assert sol.iterations <= 8
    ray_y, ray_s = sol.ray
    dense = [prob.dense_coefficient(e, 0) for e, _r in prob.constraints]
    at_y = sum(yi * Ai for yi, Ai in zip(ray_y, dense))
    assert np.max(np.abs(at_y + ray_s[0])) <= 1e-12 * np.max(np.abs(at_y))


def test_weak_duality_on_returned_pairs():
    for prob in (
        trace_toy(),
        sos_membership_problem(parse_polynomial("1 + x1^2", 1), 1, 1),
    ):
        sol = solve(prob, DEFAULT)
        rep = check_certificate(prob, sol)
        scale = 1.0 + abs(rep.primal_objective)
        assert rep.duality_gap >= -1e-9 * scale


def test_solver_determinism():
    prob = sos_membership_problem(
        parse_polynomial("2 + x1^2 + x1^4 - x1^3", 1), 1, 2
    )
    a = solve(prob, DEFAULT)
    b = solve(prob, DEFAULT)
    assert a.status is b.status
    assert a.primal_objective == b.primal_objective
    assert a.iterations == b.iterations
    for xa, xb in zip(a.x_blocks, b.x_blocks):
        assert np.array_equal(xa, xb)
    assert np.array_equal(a.y, b.y)


def test_random_known_optimum_battery():
    rng = np.random.default_rng(7)
    for trial in range(12):
        side, m = 8, 20
        Q, _ = np.linalg.qr(rng.normal(size=(side, side)))
        r = 4
        xs = rng.uniform(0.5, 2.0, size=r)
        ss = rng.uniform(0.5, 2.0, size=side - r)
        Xstar = Q @ np.diag(np.concatenate([xs, np.zeros(side - r)])) @ Q.T
        Sstar = Q @ np.diag(np.concatenate([np.zeros(r), ss])) @ Q.T
        ystar = rng.normal(size=m)
        A = [0.5 * (M + M.T) for M in rng.normal(size=(m, side, side))]
        b = np.array([np.vdot(Ai, Xstar) for Ai in A])
        C = sum(yv * Ai for yv, Ai in zip(ystar, A)) + Sstar
        opt = float(np.vdot(C, Xstar))
        prob = SdpProblem()
        blk = prob.add_psd_block(side)
        prob.set_objective(
            {blk: [(i, j, C[i, j]) for i in range(side) for j in range(i, side)]}
        )
        for Ai, bi in zip(A, b):
            prob.add_constraint(
                {blk: [(i, j, Ai[i, j]) for i in range(side) for j in range(i, side)]},
                bi,
            )
        sol = solve(prob, SolverConfig(feas_tol=1e-8, gap_tol=1e-8))
        assert sol.status is SdpStatus.OPTIMAL
        assert abs(sol.primal_objective - opt) / max(1.0, abs(opt)) < 1e-5


def test_diag_blocks_lp():
    # min x0 + 2 x1 s.t. x0 + x1 = 1, x >= 0  ->  optimum 1 at x = (1, 0)
    p = SdpProblem()
    blk = p.add_diag_block(2)
    p.set_objective({blk: [(0, 0, 1.0), (1, 1, 2.0)]})
    p.add_constraint({blk: [(0, 0, 1.0), (1, 1, 1.0)]}, 1.0)
    sol = solve(p, TIGHT)
    assert sol.status is SdpStatus.OPTIMAL
    assert sol.primal_objective == pytest.approx(1.0, abs=1e-7)
    assert sol.x_blocks[0][0] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_untouched_diagonal_entry_is_equilibrated_without_warning():
    # min x0 + x1 s.t. x0 = 1, x >= 0: no constraint touches x1, so its
    # equilibration factor is 1 and no power of its zero column peak is taken.
    p = SdpProblem()
    blk = p.add_diag_block(2)
    p.set_objective({blk: [(0, 0, 1.0), (1, 1, 1.0)]})
    p.add_constraint({blk: [(0, 0, 1.0)]}, 1.0)
    sol = solve(p, TIGHT)
    assert sol.status is SdpStatus.OPTIMAL
    assert sol.primal_objective == pytest.approx(1.0, abs=1e-7)
    assert sol.x_blocks[0][1] == pytest.approx(0.0, abs=1e-6)


def infeasible_lp():
    # x0 = -1 with x >= 0 is infeasible.
    p = SdpProblem()
    blk = p.add_diag_block(1)
    p.set_objective({blk: [(0, 0, 1.0)]})
    p.add_constraint({blk: [(0, 0, 1.0)]}, -1.0)
    return p


def test_infeasible_lp_detected():
    sol = solve(infeasible_lp(), DEFAULT)
    assert sol.status is SdpStatus.INFEASIBLE
    assert sol.ray is not None


def test_ray_check_reads_the_interior_test(monkeypatch):
    # A ray whose slack the interior test turns away certifies nothing; the
    # test turns away only the ray check's blocks.
    dual_ray, interior = sdp_module._Exits._dual_ray, sdp_module._interior_factor
    in_ray_check = [False]

    def ray_check(self, res):
        in_ray_check[0] = True
        ray = dual_ray(self, res)
        in_ray_check[0] = False
        return ray

    monkeypatch.setattr(sdp_module._Exits, "_dual_ray", ray_check)
    monkeypatch.setattr(
        sdp_module, "_interior_factor",
        lambda blk: None if in_ray_check[0] else interior(blk),
    )
    sol = solve(infeasible_lp(), DEFAULT)
    assert sol.status is not SdpStatus.INFEASIBLE
    assert sol.ray is None


def test_an_all_zero_objective_is_a_feasibility_problem():
    p = SdpProblem()
    blk = p.add_psd_block(2)
    p.add_constraint({blk: [(0, 0, 1.0)]}, 1.0)
    p.set_objective({blk: [(0, 0, 0.0), (0, 1, 0.0)]})
    assert sdp_module._Exits(sdp_module._Workspace(p), DEFAULT).feasibility
    p.set_objective({blk: [(1, 1, 1.0)]})
    assert not sdp_module._Exits(sdp_module._Workspace(p), DEFAULT).feasibility


def test_solve_with_an_objective_checks_every_iterate_for_a_ray(monkeypatch):
    # Motzkin's l1 lambda form at d = 3 minimizes sum(lambda) and is
    # feasible: each iterate before the converged one is checked for a ray
    # and holds none, and the run polishes the gap, 10 iterations to
    # "converged".
    seen = []
    dual_ray = sdp_module._Exits._dual_ray

    def spy(self, res):
        seen.append(dual_ray(self, res))
        return seen[-1]

    monkeypatch.setattr(sdp_module._Exits, "_dual_ray", spy)
    f = parse_polynomial("x1^2*x2^2*(x1^2+x2^2-1)+1/27", 2)
    problem = ProjectionProblem(f, SemialgebraicSystem(2), WeightSequence.l1(), 3)
    sol = solve(build_lambda_form_sdp(problem).sdp, default_solver_config())
    assert seen == [None] * (sol.iterations - 1)
    assert (sol.status, sol.iterations, sol.message) == (
        SdpStatus.OPTIMAL, 10, "converged"
    )


def test_every_ray_exit_reads_one_message():
    # One ray rule with an objective and without: the infeasible LP
    # minimizes x0, and Motzkin's Gram SDP at level 3 with no objective
    # asks only whether a Gram matrix exists.
    motzkin = parse_polynomial("x1^2*x2^2*(x1^2+x2^2-1)+1/27", 2)
    feasibility = sos_membership_problem(motzkin, 2, 3)
    feasibility.set_objective({})
    for problem in (infeasible_lp(), feasibility):
        sol = solve(problem, DEFAULT)
        assert sol.status is SdpStatus.INFEASIBLE
        assert sol.message == "improving ray certifies primal infeasibility"


@pytest.mark.parametrize("objective", [False, True])
@pytest.mark.parametrize("kind", [BlockKind.NONNEG_DIAG, BlockKind.PSD])
def test_a_coordinate_no_constraint_touches_keeps_the_ray(kind, objective):
    # x00 = -1 over a side-2 block whose second coordinate no constraint
    # touches: the ray's slack is exactly zero there, which is PSD on its
    # own, so the run still ends at a ray (and stalls without one).
    p = SdpProblem()
    blk = p.add_block(2, kind)
    p.add_constraint({blk: [(0, 0, 1.0)]}, -1.0)
    if objective:
        p.set_objective({blk: [(0, 0, 1.0)]})
    sol = solve(p, DEFAULT)
    assert (sol.status, sol.iterations) == (SdpStatus.INFEASIBLE, 2)
    y, (slack,) = sol.ray
    assert y[0] < 0
    assert not slack[1].any()


def strictly_feasible_mixed_problem():
    """X00 + d0 = 2, X11 + d1 = 3, X01 = 1/2 over a 2x2 PSD block X and a
    diagonal block d of side 2: X = [[1, 1/2], [1/2, 1]], d = (1, 2) is
    interior.  No objective."""
    p = SdpProblem()
    x = p.add_psd_block(2)
    d = p.add_diag_block(2)
    p.add_constraint({x: [(0, 0, 1.0)], d: [(0, 0, 1.0)]}, 2.0)
    p.add_constraint({x: [(1, 1, 1.0)], d: [(1, 1, 1.0)]}, 3.0)
    p.add_constraint({x: [(0, 1, 1.0)]}, 1.0)
    return p


def test_feasibility_solve_ends_at_a_primal_certificate():
    # The run ends at its first iterate whose projection onto A x = b is
    # positive definite, and returns that projection: the constraints hold
    # to roundoff and every PSD block has a Cholesky factor.
    prob = strictly_feasible_mixed_problem()
    sol = solve(prob, DEFAULT)
    assert (sol.status, sol.message) == (
        SdpStatus.OPTIMAL, sdp_module.PRIMAL_CERTIFICATE
    )
    b = np.array([rhs for _e, rhs in prob.constraints])
    rep = check_certificate(prob, sol)
    assert rep.constraint_residual <= 1e-12 * (1.0 + np.linalg.norm(b))
    assert sol.primal_residual <= DEFAULT.feas_tol
    for spec, x in zip(prob.blocks, sol.x_blocks):
        if spec.kind is BlockKind.PSD:
            np.linalg.cholesky(x)
        else:
            assert np.all(x > 0)


def test_a_solve_with_an_objective_never_tests_for_a_primal_certificate(monkeypatch):
    calls = []
    certificate = sdp_module._Exits._primal_certificate

    def spy(self, res):
        calls.append(certificate(self, res))
        return calls[-1]

    monkeypatch.setattr(sdp_module._Exits, "_primal_certificate", spy)
    prob = strictly_feasible_mixed_problem()
    trace = [(0, 0, 1.0), (1, 1, 1.0)]
    prob.set_objective({0: trace, 1: trace})
    sol = solve(prob, DEFAULT)
    assert sol.status is SdpStatus.OPTIMAL
    assert sol.message != sdp_module.PRIMAL_CERTIFICATE
    assert calls == []
    prob.set_objective({})
    assert solve(prob, DEFAULT).message == sdp_module.PRIMAL_CERTIFICATE
    assert calls[-1] is not None


def _certifying_call(monkeypatch):
    """The _Exits and residuals of the call that ends a solve of
    strictly_feasible_mixed_problem() at its primal certificate."""
    calls = []
    certificate = sdp_module._Exits._primal_certificate

    def spy(self, res):
        calls.append((self, res))
        return certificate(self, res)

    monkeypatch.setattr(sdp_module._Exits, "_primal_certificate", spy)
    sol = solve(strictly_feasible_mixed_problem(), DEFAULT)
    monkeypatch.undo()
    assert sol.message == sdp_module.PRIMAL_CERTIFICATE
    exits, res = calls[-1]
    assert exits._primal_certificate(res) is not None
    return exits, res


def test_primal_certificate_rejects_a_nan_block_on_its_pivots(monkeypatch):
    exits, res = _certifying_call(monkeypatch)
    x = [xb.copy() for xb in res.it.x]
    x[exits.ws.psd[0]][0, 0] = np.nan
    factors = []
    real = np.linalg.cholesky

    def cholesky(a):
        factors.append(real(a))
        return factors[-1]

    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    assert exits._primal_certificate(res._replace(it=res.it._replace(x=x))) is None
    # numpy returns NaNs for a NaN block rather than raising, so the point
    # is turned down by the test on the pivots.
    assert len(factors) == 1 and np.isnan(np.diag(factors[0])).any()


def test_primal_certificate_rejects_a_residual_above_feas_tol(monkeypatch):
    exits, res = _certifying_call(monkeypatch)
    strict = sdp_module._Exits(exits.ws, SolverConfig(feas_tol=1e-300))
    assert strict._primal_certificate(res) is None


def test_with_rhs_rejects_a_wrong_count_and_a_non_finite_entry():
    p = strictly_feasible_mixed_problem()
    for rhs in ([2.0, 3.0], [2.0, 3.0, 0.5, 1.0]):
        with pytest.raises(SdpModelError, match=f"{len(rhs)} right-hand sides for 3"):
            p.with_rhs(rhs)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(SdpModelError, match="not finite"):
            p.with_rhs([2.0, bad, 1.0])
    assert p.with_rhs([2.0, 3.0, 0.5]).constraints[2][1] == 0.5


def test_eig_range_of_a_matrix_and_of_a_diagonal_block():
    assert eig_range(np.array([3.0, -2.0, 5.0])) == (-2.0, 5.0)
    assert eig_range(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx((1.0, 3.0))


@pytest.mark.parametrize("lmax", [0.5, -3.0, 1e4])
def test_psd_accepted_at_the_tolerance_and_just_below(lmax):
    edge = -PSD_TOL * max(1.0, abs(lmax))
    assert psd_accepted(edge, lmax)
    assert not psd_accepted(np.nextafter(edge, -np.inf), lmax)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_unbounded_problem_is_inconclusive():
    # min -x0 with x0 - x1 = 0 is unbounded below.  No SDP sosproj builds
    # is, so there is no unboundedness exit: the run stalls and ends
    # without a certificate.
    p = SdpProblem()
    blk = p.add_diag_block(2)
    p.set_objective({blk: [(0, 0, -1.0)]})
    p.add_constraint({blk: [(0, 0, 1.0), (1, 1, -1.0)]}, 0.0)
    sol = solve(p, DEFAULT)
    assert sol.status is SdpStatus.MAX_ITER
    assert sol.iterations == 26
    assert sol.ray is None


def test_dependent_rows_are_a_model_error(monkeypatch):
    # The constraint Gram is factored once, before the first iteration, and
    # a failure there is reported as a model error, not retried.
    real = sdp_module._cho_factor
    count = [0]

    def cho_factor(a, shift):
        count[0] += 1
        if count[0] == 1:
            raise np.linalg.LinAlgError("forced factorization failure")
        return real(a, shift)

    monkeypatch.setattr(sdp_module, "_cho_factor", cho_factor)
    with pytest.raises(SdpModelError, match="numerically dependent"):
        solve(trace_toy(), DEFAULT)
    assert count[0] == 1


def test_schur_factorization_failure_is_not_retried(monkeypatch):
    # The Schur complement is factored once per iteration at a fixed
    # regularization; a failure ends the run instead of raising the shift.
    real = sdp_module._cho_factor
    count = [0]

    def cho_factor(a, shift):
        count[0] += 1
        if count[0] > 1:  # the constraint-Gram factorization succeeds
            raise np.linalg.LinAlgError("forced factorization failure")
        return real(a, shift)

    monkeypatch.setattr(sdp_module, "_cho_factor", cho_factor)
    sol = solve(trace_toy(), DEFAULT)
    assert sol.status is SdpStatus.NUMERICAL_FAILURE
    assert sol.message == "Schur complement factorization failed"
    assert count[0] == 2  # one Schur attempt


def test_model_validation():
    p = SdpProblem()
    blk = p.add_diag_block(2)
    with pytest.raises(SdpModelError):
        p.add_constraint({blk: [(0, 1, 1.0)]}, 0.0)  # off-diagonal on diag block
    with pytest.raises(SdpModelError):
        p.add_constraint({blk: []}, 0.0)  # empty constraint
    with pytest.raises(SdpModelError):
        p.add_constraint({blk: [(0, 5, 1.0)]}, 0.0)  # out of range
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(SdpModelError, match="finite and positive"):
            SolverConfig(feas_tol=bad)
        with pytest.raises(SdpModelError, match="finite and positive"):
            SolverConfig(gap_tol=bad)
    with pytest.raises(SdpModelError):
        solve(SdpProblem())


@pytest.mark.parametrize(
    "build",
    [
        lambda p: p.add_psd_block(0),
        lambda p: p.add_constraint({1: [(0, 0, 1.0)]}, 0.0),
    ],
    ids=["block side 0", "block index out of range"],
)
def test_model_rejects_blocks_it_cannot_hold(build):
    p = SdpProblem()
    p.add_psd_block(1)
    with pytest.raises(SdpModelError, match="block"):
        build(p)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_model_data_is_a_model_error(bad):
    p = SdpProblem()
    blk = p.add_psd_block(2)
    with pytest.raises(SdpModelError, match="not finite"):
        p.add_constraint({blk: [(0, 0, 1.0), (0, 1, bad)]}, 1.0)
    with pytest.raises(SdpModelError, match="not finite"):
        p.add_constraint({blk: [(0, 0, 1.0)]}, bad)
    with pytest.raises(SdpModelError, match="not finite"):
        p.set_objective({blk: [(1, 1, bad)]})
    assert p.constraints == [] and p.objective == {}


def test_coefficients_that_overflow_when_merged_are_a_model_error():
    p = SdpProblem()
    blk = p.add_diag_block(1)
    with pytest.raises(SdpModelError, match="not finite"):
        p.add_constraint({blk: [(0, 0, 1e308), (0, 0, 1e308)]}, 1.0)


def test_check_certificate_is_independent():
    prob = trace_toy()
    sol = solve(prob, TIGHT)
    # Corrupt the solver's S blocks; the report must not change, since it
    # recomputes the dual slack from y alone.
    rep_before = check_certificate(prob, sol)
    sol.s_blocks[0][:] = 0.0
    rep_after = check_certificate(prob, sol)
    assert rep_before.dual_min_eigs == rep_after.dual_min_eigs
    assert rep_before.constraint_residual == rep_after.constraint_residual


@pytest.mark.parametrize("status", list(SdpStatus))
def test_one_run_per_solve(monkeypatch, status):
    # Every outcome, conclusive or not, is returned from one interior-point
    # run; nothing is solved a second time.
    calls = []

    def fake(ws, cfg):
        calls.append(ws.m)
        return SdpSolution(
            status=status,
            x_blocks=[],
            y=np.zeros(ws.m),
            s_blocks=[],
            primal_objective=0.0,
            dual_objective=0.0,
            gap=1.0,
            relative_gap=1.0,
            primal_residual=1.0,
            dual_residual=1.0,
            iterations=1,
            message="forced",
        )

    monkeypatch.setattr(sdp_module, "_solve_once", fake)
    prob = SdpProblem()
    blk = prob.add_psd_block(2)
    prob.set_objective({blk: [(0, 0, 1.0), (1, 1, 1.0)]})
    prob.add_constraint({blk: [(0, 0, 1.0)]}, 2.0)  # equilibration rescales it
    sol = solve(prob, DEFAULT)
    assert sol.status is status
    assert sol.message == "forced"
    assert calls == [1]


def test_jammed_centering_rescue_steps_without_repair():
    # x1^4 on the unit disk, lw weights, d = 2 (m = 15, blocks [5, 6, 3]).
    # With the feasibility repair on every direction, the run jams at
    # iteration 13: the repair keeps pushing one lambda entry off the
    # boundary and the steps collapse (numerical_failure, relgap 4.7e-6).
    system = parse_system_text("n 2\ncone quadratic\ng: 1 - x1^2 - x2^2\n")
    problem = ProjectionProblem(
        parse_polynomial("x1^4", 2), system, WeightSequence.lw(), 2
    )
    lam = build_lambda_form_sdp(problem)
    ws = sdp_module._Workspace(lam.sdp)
    assert ws.m == 15
    assert [spec.side for spec in lam.sdp.blocks] == [5, 6, 3]
    sol = sdp_module._solve_once(ws, default_solver_config())
    assert sol.status is SdpStatus.OPTIMAL, sol.message


def _fail_nt_scaling_after(monkeypatch, calls: int) -> None:
    """Make every block's NT scaling after the first `calls` fail, as when
    the block's Cholesky factorization fails."""
    real = sdp_module._nt_scaling
    count = [0]

    def nt_scaling(x_blk, s_blk):
        count[0] += 1
        return real(x_blk, s_blk) if count[0] <= calls else None

    monkeypatch.setattr(sdp_module, "_nt_scaling", nt_scaling)


# The boundary Gram problem converges in 7 iterations.  Its iterates 2 to 6
# have relp, reld and relgap near 2e-2, 4e-4, 7e-6, 1.5e-7 and 3e-9, so with
# feas_tol 2e-8 the fifth iterate is within 10x feas_tol but not within it.
NEAR = SolverConfig(feas_tol=2e-8, gap_tol=1e-6)


def _boundary_workspace():
    prob = sos_membership_problem(parse_polynomial("(1+x1+x2)^2", 2), 2, 1)
    return sdp_module._Workspace(prob)


def test_late_factorization_failure_is_inaccurate(monkeypatch):
    # One PSD block takes one NT scaling per iteration, so the fifth
    # iteration's factorization is the first to fail.
    _fail_nt_scaling_after(monkeypatch, 4)
    sol = sdp_module._solve_once(_boundary_workspace(), NEAR)
    assert sol.status is SdpStatus.INACCURATE
    assert sol.iterations == 5
    assert sol.message.startswith("block factorization failed; ")
    assert sol.relative_gap <= NEAR.gap_tol
    assert NEAR.feas_tol < max(sol.primal_residual, sol.dual_residual)
    assert max(sol.primal_residual, sol.dual_residual) <= 10 * NEAR.feas_tol


def test_early_failure_keeps_its_status(monkeypatch):
    _fail_nt_scaling_after(monkeypatch, 1)
    sol = sdp_module._solve_once(_boundary_workspace(), NEAR)
    assert sol.status is SdpStatus.NUMERICAL_FAILURE
    assert sol.message == "block factorization failed"
    assert sol.primal_residual > 10 * NEAR.feas_tol


@pytest.mark.parametrize(
    "max_iter, status",
    [(2, SdpStatus.MAX_ITER), (5, SdpStatus.INACCURATE)],
)
def test_iteration_cap_near_and_far_from_tolerance(monkeypatch, max_iter, status):
    monkeypatch.setattr(sdp_module, "MAX_ITER", max_iter)
    sol = sdp_module._solve_once(_boundary_workspace(), NEAR)
    assert sol.status is status
    assert sol.message.startswith(f"no convergence in {max_iter} iterations")


def test_iteration_cap_after_convergence_returns_the_best_iterate(monkeypatch):
    # The sixth iterate meets both tolerances while the gap still drops, so
    # the cap stops a converged run: optimal, through the best iterate.
    monkeypatch.setattr(sdp_module, "MAX_ITER", 6)
    sol = sdp_module._solve_once(_boundary_workspace(), NEAR)
    assert sol.status is SdpStatus.OPTIMAL
    assert sol.message == "converged (best iterate; no convergence in 6 iterations)"
    assert sol.relative_gap <= NEAR.gap_tol


@pytest.mark.parametrize(
    "at, status, capped_status",
    [
        (2, SdpStatus.NUMERICAL_FAILURE, SdpStatus.MAX_ITER),
        (5, SdpStatus.INACCURATE, SdpStatus.INACCURATE),
        (6, SdpStatus.OPTIMAL, SdpStatus.OPTIMAL),
    ],
)
def test_singular_reduced_system_ends_through_the_failure_exit(
    monkeypatch, at, status, capped_status
):
    # A reduced-system denominator below 1e-300 in iteration `at` ends the
    # run there through the common failure exit: the best iterate and the
    # status rule of the iteration cap at `at`, with this exit's reason.
    built = [0]

    class Singular(sdp_module._Newton):
        def __init__(self, *args):
            super().__init__(*args)
            built[0] += 1
            if built[0] == at:
                self.denom = 1e-301

    monkeypatch.setattr(sdp_module, "_Newton", Singular)
    sol = sdp_module._solve_once(_boundary_workspace(), NEAR)
    monkeypatch.undo()
    monkeypatch.setattr(sdp_module, "MAX_ITER", at)
    capped = sdp_module._solve_once(_boundary_workspace(), NEAR)

    assert built[0] == at
    assert sol.status is status
    assert capped.status is capped_status
    assert sol.message == capped.message.replace(
        f"no convergence in {at} iterations", "singular reduced system"
    )
    assert sol.iterations == capped.iterations == at
    point = [*sol.x_blocks, sol.y, *sol.s_blocks]
    capped_point = [*capped.x_blocks, capped.y, *capped.s_blocks]
    assert all(np.array_equal(a, b) for a, b in zip(point, capped_point, strict=True))
    assert (sol.primal_residual, sol.dual_residual, sol.relative_gap) == (
        capped.primal_residual, capped.dual_residual, capped.relative_gap
    )


@pytest.mark.parametrize("n", [15, 66, 455])
def test_lapack_helpers_match_the_scipy_wrappers(n):
    # The solver calls LAPACK directly with the arguments of the scipy
    # wrappers it replaced, so every result must be the same to the bit.
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n))
    a = a @ a.T + n * np.eye(n)
    # The solver shifts the diagonal inside _cho_factor, on its one copy.
    shift = 1e-12 * float(np.max(np.diag(a)))
    before = a.copy()
    shifted = sdp_module._cho_factor(a, shift)
    assert np.array_equal(a, before)
    assert np.array_equal(
        shifted, sla.cho_factor(a + shift * np.eye(n), lower=True)[0]
    )
    c = sdp_module._cho_factor(a, 0.0)
    assert np.array_equal(c, sla.cho_factor(a, lower=True)[0])
    b = rng.normal(size=n)
    assert np.array_equal(sdp_module._cho_solve(c, b), sla.cho_solve((c, True), b))
    L = np.linalg.cholesky(a)
    assert L.flags.c_contiguous
    delta = rng.normal(size=(n, n))
    tmp = sdp_module._solve_lower(L, delta)
    assert np.array_equal(tmp, sla.solve_triangular(L, delta, lower=True))
    # Transposed views, as _max_step_psd passes: tmp is Fortran-ordered, so
    # tmp.T is C-ordered, and delta.T is Fortran-ordered.
    for rhs in (tmp.T, delta.T):
        assert np.array_equal(
            sdp_module._solve_lower(L, rhs),
            sla.solve_triangular(L, rhs, lower=True),
        )


def test_import_leaves_scipy_linalg_unloaded(fresh_python):
    proc = fresh_python(
        "-c",
        "import sys, sosproj, sosproj.cli; "
        "print('scipy.linalg' in sys.modules, 'scipy' in sys.modules)",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False False\n"


@pytest.mark.parametrize("first", ["sosproj", "scipy.linalg"])
def test_bound_lapack_routines_are_the_scipy_ones(fresh_python, first):
    # Whichever of sosproj and scipy.linalg loads the Fortran extension, both
    # must end up with the same routine objects.
    proc = fresh_python("-c", f"""
import {first}
import numpy as np
import scipy.linalg as sla
from sosproj import sdp
funcs = sla.get_lapack_funcs(("potrf", "potrs", "trtrs"), (np.empty((1, 1)),))
print([a is b for a, b in zip((sdp._POTRF, sdp._POTRS, sdp._TRTRS), funcs)])
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[True, True, True]\n"


def test_missing_lapack_extension_names_the_scipy_version(monkeypatch):
    # A scipy package with no directories to search finds no extension.
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(
        sdp_module.importlib.util,
        "find_spec",
        lambda name: importlib.machinery.ModuleSpec(name, None, is_package=True),
    )
    version = importlib.metadata.version("scipy")
    with pytest.raises(ImportError, match=f"scipy {version} has no extension"):
        sdp_module._lapack_routines()


def test_lapack_factor_failure_raises():
    with pytest.raises(np.linalg.LinAlgError):
        sdp_module._cho_factor(np.array([[1.0, 2.0], [2.0, 1.0]]), 0.0)


def test_nonfinite_schur_complement_ends_the_run(monkeypatch):
    # A NaN in one scaled row spreads through the Schur complement; LAPACK's
    # potrf does not reject it, so the solver checks the matrix itself.
    real = sdp_module._scale_rows
    count = [0]

    def poisoned(ws, G, views):
        real(ws, G, views)
        count[0] += 1
        if count[0] == 3:
            views[0][0, 0, 0] = np.nan

    monkeypatch.setattr(sdp_module, "_scale_rows", poisoned)
    prob = sos_membership_problem(parse_polynomial("(1+x1+x2)^2", 2), 2, 1)
    sol = solve(prob, NEAR)
    assert count[0] == 3
    assert sol.status is SdpStatus.NUMERICAL_FAILURE
    assert sol.message == "nonfinite Schur complement"
    assert sol.iterations == 3


# _max_step_psd runs twice per step bound on the one PSD block (dx, then
# ds): calls 1 and 3 bound iteration 1's predictor and combined step, call 6
# iteration 2's predictor.
@pytest.mark.parametrize("poisoned_call", [1, 3, 6])
def test_nonfinite_step_direction_ends_the_run(monkeypatch, poisoned_call):
    real = sdp_module._max_step_psd
    count = [0]

    def poisoned(chol_lower, delta):
        count[0] += 1
        if count[0] == poisoned_call:
            delta = delta.copy()
            delta[0, 0] = np.nan
        return real(chol_lower, delta)

    monkeypatch.setattr(sdp_module, "_max_step_psd", poisoned)
    prob = sos_membership_problem(parse_polynomial("(1+x1+x2)^2", 2), 2, 1)
    sol = solve(prob, NEAR)
    assert sol.status is SdpStatus.NUMERICAL_FAILURE
    assert sol.message == "nonfinite step length"
    assert count[0] == poisoned_call + poisoned_call % 2  # no step after it


def test_max_step_bounds_are_nan_for_a_nonfinite_direction():
    L = np.linalg.cholesky(np.eye(3) * 2.0)
    delta = -np.eye(3)
    assert sdp_module._max_step_psd(L, delta) == pytest.approx(2.0)
    delta[1, 2] = delta[2, 1] = np.inf
    assert math.isnan(sdp_module._max_step_psd(L, delta))
    x = np.ones(3)
    assert sdp_module._max_step_diag(x, np.array([-1.0, 0.0, 1.0])) == 1.0
    assert math.isnan(sdp_module._max_step_diag(x, np.array([-1.0, np.nan, 1.0])))
    assert sdp_module._step_length(0.5, 0.98) == 0.49
    assert sdp_module._step_length(np.inf, 0.98) == 1.0
    assert math.isnan(sdp_module._step_length(math.nan, 0.98))


def test_nt_scaling_of_a_diagonal_block():
    rng = np.random.default_rng(16)
    x = rng.uniform(0.1, 2.0, size=5)
    s = rng.uniform(0.1, 2.0, size=5)
    w, sigma, x_factor, s_factor = sdp_module._nt_scaling(x, s)
    assert np.array_equal(w, np.sqrt(x / s))
    assert np.array_equal(sigma, np.sqrt(x * s))
    assert x_factor is x and s_factor is s
    # The congruence and its transpose are both w * n.
    n = rng.normal(size=5)
    assert np.array_equal(sdp_module._congruence(w, n), w * n)
    assert np.array_equal(sdp_module._sym(sdp_module._congruence(w.T, n)), w * n)
    x[2] = 0.0
    assert sdp_module._nt_scaling(x, s) is None


def test_nt_scaling_of_a_psd_block():
    rng = np.random.default_rng(17)
    h = rng.normal(size=(4, 4))
    x = h @ h.T + np.eye(4)
    s = np.diag(rng.uniform(0.5, 2.0, size=4))
    G, sigma, lx, ls = sdp_module._nt_scaling(x, s)
    assert np.array_equal(lx, np.linalg.cholesky(x))
    assert np.array_equal(ls, np.linalg.cholesky(s))
    # G^T S G = G^-1 X G^-T = diag(sigma).
    assert G.T @ s @ G == pytest.approx(np.diag(sigma), abs=1e-12)
    Gi = np.linalg.inv(G)
    assert Gi @ x @ Gi.T == pytest.approx(np.diag(sigma), abs=1e-12)
    # Not positive definite: the Cholesky factorization of s fails.
    s[1, 1] = -1.0
    assert sdp_module._nt_scaling(x, s) is None
