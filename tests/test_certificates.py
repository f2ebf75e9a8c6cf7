from pathlib import Path

import numpy as np
import pytest

from sosproj.cones import SemialgebraicSystem, build_truncation, gram_reconstruct
from sosproj.certificates import (
    MembershipResult,
    MembershipVerdict,
    PerturbationKind,
    PsatzQuery,
    membership,
    perturbation_polynomial,
    psatz_search,
    seq_closure_probe,
    validate_separator,
)
from sosproj.moments import MomentSequence, localizing_matrix, eig_range
from sosproj.polynomials import (
    Polynomial,
    WeightOverflowError,
    WeightSequence,
    half_degree,
    parse_polynomial,
)
from sosproj.projection import ProjectionProblem, project_lambda_form
from sosproj import certificates as certificates_module
from sosproj import cones as cones_module
from sosproj import sdp as sdp_module
from sosproj.sdp import SdpSolution, SdpStatus, SolverConfig

MOTZKIN = parse_polynomial("x1^2*x2^2*(x1^2+x2^2-1)+1/27", 2)
PLANE = SemialgebraicSystem(2, ())
LINE = SemialgebraicSystem(1, ())
SEGMENT = SemialgebraicSystem(
    1, (parse_polynomial("x1", 1), parse_polynomial("1 - x1", 1))
)


def test_membership_square_in_cone():
    f = parse_polynomial("(1 + x1 + x2)^2", 2)
    res = membership(f, PLANE, 1)
    assert res.verdict is MembershipVerdict.IN_CONE
    assert res.reconstruction_error <= 1e-6
    gram = res.grams[()]
    assert np.linalg.matrix_rank(gram, tol=1e-6) == 1


def test_membership_motzkin_not_in_cone_with_separator():
    res = membership(MOTZKIN, PLANE, 3)
    assert res.verdict is MembershipVerdict.NOT_IN_CONE
    assert res.solver_iterations <= 5
    assert res.separation <= -1e-6
    y = res.separating
    trunc = build_truncation(PLANE, 3)
    for block in trunc.blocks:
        mat = localizing_matrix(y, block.product, block.sos_order)
        lmin, lmax = eig_range(mat)
        assert lmin >= -1e-8 * max(1.0, abs(lmax))


def test_membership_of_canonical_projection():
    cert = project_lambda_form(
        ProjectionProblem(MOTZKIN, PLANE, WeightSequence.l1(), 3)
    )
    res = membership(cert.projection, PLANE, 3)
    assert res.verdict is MembershipVerdict.IN_CONE


def test_membership_min_trace_gram_is_the_low_rank_decomposition():
    # The certify example is a sum of two squares; the minimum-trace Gram
    # is exactly those two, so every other eigenvalue vanishes.
    f = parse_polynomial("(x1^2+x2^2-1)^2+(x1*x2-1/2)^2", 2)
    res = membership(f, PLANE, 2, min_trace=True)
    assert res.verdict is MembershipVerdict.IN_CONE
    eigs = np.linalg.eigvalsh(res.grams[()])
    assert np.all(eigs[:-2] < 1e-9)
    assert eigs[-2] > 1.0


def test_membership_default_gram_is_interior():
    # The Positivstellensatz lift Motzkin + (1 + x1^6 + x2^6) / 80 has slack:
    # with no objective the Gram returned lies inside the PSD cone, not on
    # the low-rank face the minimum trace picks (lambda_min ~ 1e-12 there).
    f = MOTZKIN + perturbation_polynomial(
        2, 3, PerturbationKind.TOP_EVEN_POWER
    ).scale(1 / 80)
    res = membership(f, PLANE, 3)
    assert res.verdict is MembershipVerdict.IN_CONE
    assert res.gram_min_eigs[()] >= 1e-4
    face = membership(f, PLANE, 3, min_trace=True)
    assert face.verdict is MembershipVerdict.IN_CONE
    assert face.gram_min_eigs[()] < 1e-9


def test_membership_random_cone_elements_revalidate():
    rng = np.random.default_rng(5)
    systems = [
        PLANE,
        SemialgebraicSystem(2, (parse_polynomial("1 - x1^2 - x2^2", 2),)),
        SemialgebraicSystem(1, ()),
    ]
    for trial in range(12):
        system = systems[trial % len(systems)]
        k = 1 + trial % 2
        trunc = build_truncation(system, k)
        grams = []
        for block in trunc.blocks:
            M = rng.normal(size=(block.side, block.side))
            grams.append(M @ M.T / block.side)
        h = gram_reconstruct(trunc, grams)
        res = membership(h, system, k)
        assert res.verdict is MembershipVerdict.IN_CONE
        assert res.reconstruction_error <= 1e-6
        for label, lmin in res.gram_min_eigs.items():
            assert lmin >= -1e-8 * max(
                1.0, float(np.max(np.abs(res.grams[label])))
            )


# A quartic strictly inside Q_2 on R^2 (its level-2 Gram has lambda_min
# 0.35), so inside Q_3 too, that the soundness census found refuted at
# level 3 by a dual iterate whose moment matrix was PSD only to roundoff.
CENSUS_QUARTIC = parse_polynomial(
    "0.61 - 0.25*x2 + 1.27*x2^2 - 0.35*x2^3 + 0.94*x2^4 + 1.03*x1"
    " - 0.25*x1*x2 + 1.59*x1*x2^2 + 0.31*x1*x2^3 + 2.13*x1^2 + 0.8*x1^2*x2"
    " + 0.12*x1^2*x2^2 - 1.42*x1^3 - 0.82*x1^3*x2 + 2*x1^4",
    2,
)


def test_membership_never_refutes_an_interior_quartic_at_a_higher_level():
    assert membership(CENSUS_QUARTIC, PLANE, 2).verdict is MembershipVerdict.IN_CONE
    level3 = membership(CENSUS_QUARTIC, PLANE, 3)
    assert level3.verdict is not MembershipVerdict.NOT_IN_CONE


def test_membership_of_a_square_sum_above_its_half_degree_is_in_cone():
    f = parse_polynomial("1 + x1^2", 1)
    assert membership(f, LINE, 4).verdict is MembershipVerdict.IN_CONE


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_membership_on_the_plane_solves_the_half_degree_level(k):
    # A sum of two squares of degree 6.  Above level 3 its level-k Gram SDP
    # has no interior (the top-degree Gram entries are forced to zero), and
    # the solver can stall there; every level above ceil(deg f / 2) repeats
    # level 3's answer, so level 3 is the one solved.
    f = parse_polynomial("(1 + x1^2*x2 - x2^2)^2 + (x1*x2)^2", 2)
    res = membership(f, PLANE, k)
    assert res.verdict is MembershipVerdict.IN_CONE
    assert res.level == 3
    assert res.grams[()].shape == (10, 10)


def test_membership_with_generators_solves_the_requested_level():
    # On the unit disc a higher level can certify what a lower one cannot,
    # so the level asked for is the level solved.
    res = membership(parse_polynomial("1 + x1^2 + x2^4", 2), BALL2, 3)
    assert res.verdict is MembershipVerdict.IN_CONE
    assert res.level == 3
    assert {label: g.shape for label, g in res.grams.items()} == {
        block.label: (block.side, block.side)
        for block in build_truncation(BALL2, 3).blocks
    }


def test_membership_degree_guard():
    with pytest.raises(ValueError):
        membership(MOTZKIN, PLANE, 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: membership(MOTZKIN, SemialgebraicSystem(3), 3),
        lambda: PsatzQuery(MOTZKIN, SemialgebraicSystem(3), 0.1, 3),
        lambda: ProjectionProblem(
            MOTZKIN, SemialgebraicSystem(3), WeightSequence.l1(), 3
        ),
    ],
    ids=["membership", "psatz query", "projection problem"],
)
def test_f_and_K_of_different_dimensions_are_rejected(call):
    with pytest.raises(ValueError, match="^polynomial and system dimensions differ$"):
        call()


def _forced_solve(status, x_blocks=(), ray=None):
    """A stand-in for solve that ends every run in status."""

    def fake_solve(problem, config=None):
        return SdpSolution(
            status=status,
            x_blocks=list(x_blocks),
            y=np.zeros(problem.num_constraints),
            s_blocks=[],
            primal_objective=0.0,
            dual_objective=0.0,
            gap=1.0,
            relative_gap=1.0,
            primal_residual=1.0,
            dual_residual=1.0,
            iterations=1,
            ray=ray,
            message="forced",
        )

    return fake_solve


def test_membership_inconclusive_on_solver_trouble(monkeypatch):
    # A failed solve must never masquerade as a refutation.
    monkeypatch.setattr(
        certificates_module, "solve", _forced_solve(SdpStatus.MAX_ITER)
    )
    res = membership(parse_polynomial("1 + x1^2", 1), SemialgebraicSystem(1, ()), 1)
    assert res.verdict is MembershipVerdict.INCONCLUSIVE


def test_inaccurate_solve_is_inconclusive(monkeypatch):
    # Near convergence is not a validated certificate either way.
    monkeypatch.setattr(
        certificates_module, "solve", _forced_solve(SdpStatus.INACCURATE)
    )
    res = membership(parse_polynomial("1 + x1^2", 1), SemialgebraicSystem(1, ()), 1)
    assert res.verdict is MembershipVerdict.INCONCLUSIVE
    assert res.solver_status is SdpStatus.INACCURATE
    assert res.message.startswith("solver status inaccurate")
    result = psatz_search(PsatzQuery(MOTZKIN, PLANE, 1e-2, 3))
    assert not result.certified
    assert result.inconclusive == [(1, 3), (2, 3), (3, 3)]
    assert result.solves == 3


def test_in_cone_claim_with_indefinite_gram_is_inconclusive(monkeypatch):
    # diag(1, -1) reconstructs 1 - x1^2 exactly; only its eigenvalue -1
    # tells that it is no Gram certificate.
    gram = np.diag([1.0, -1.0])
    monkeypatch.setattr(
        certificates_module, "solve", _forced_solve(SdpStatus.OPTIMAL, [gram])
    )
    res = membership(parse_polynomial("1 - x1^2", 1), SemialgebraicSystem(1, ()), 1)
    assert res.verdict is MembershipVerdict.INCONCLUSIVE
    assert res.reconstruction_error == 0.0
    assert res.gram_min_eigs[()] == pytest.approx(-1.0)


def test_refutation_with_indefinite_localizing_matrix_is_inconclusive(monkeypatch):
    # The ray gives L = (1, 0, -1) on 1, x1, x1^2: L(x1^2) = -1 < 0, but its
    # moment matrix diag(1, -1) is not PSD, so L separates nothing.
    ray = (np.array([-1.0, 0.0, 1.0]), [np.zeros((2, 2))])
    monkeypatch.setattr(
        certificates_module, "solve", _forced_solve(SdpStatus.INFEASIBLE, ray=ray)
    )
    res = membership(parse_polynomial("x1^2", 1), SemialgebraicSystem(1, ()), 1)
    assert res.verdict is MembershipVerdict.INCONCLUSIVE
    assert res.separation == -1.0
    assert res.separating_min_eigs[()] == pytest.approx(-1.0)


def test_perturbation_polynomials():
    q = perturbation_polynomial(2, 2, PerturbationKind.EXP_PARTIAL_SUM)
    assert q.coefficient((0, 0)) == 1.0
    assert q.coefficient((2, 0)) == pytest.approx(1.0 / 2.0)
    assert q.coefficient((0, 4)) == pytest.approx(1.0 / 24.0)
    q2 = perturbation_polynomial(2, 3, PerturbationKind.TOP_EVEN_POWER)
    assert q2.terms == {(0, 0): 1.0, (6, 0): 1.0, (0, 6): 1.0}


def test_psatz_positive_constant():
    res = psatz_search(PsatzQuery(Polynomial.constant(2, 1.0), PLANE, 0.5, 3))
    assert res.certified and res.d == 1


def _spy_membership(monkeypatch) -> tuple[list[tuple[int, int]], list]:
    """Record (d, level) and the result of every membership solve of a search."""
    calls, results = [], []
    inner = certificates_module.membership

    def spy(f, system, k, *args, **kwargs):
        # The lift eps * x1^{2d} (top power) or its tower up to x1^{2d} holds
        # f's only pure powers of x1.
        d = max((a[0] // 2 for a in f.terms if a[0] and not any(a[1:])), default=0)
        calls.append((d, k))
        results.append(inner(f, system, k, *args, **kwargs))
        return results[-1]

    monkeypatch.setattr(certificates_module, "membership", spy)
    return calls, results


def _lift(query: PsatzQuery, d: int) -> Polynomial:
    pert = perturbation_polynomial(query.system.dimension, d, query.mode)
    return query.f + pert.scale(query.epsilon)


def _assert_refuted_by_solved_cells(query, cells, results):
    """Each cell is refuted by the separator of a solved cell of at least its
    level, revalidated on the cell's own candidate and truncation."""
    for d, level in cells:
        trunc = build_truncation(query.system, level)
        assert any(
            r.separating is not None
            and r.level >= level
            and validate_separator(_lift(query, d), trunc, r.separating).verdict
            is MembershipVerdict.NOT_IN_CONE
            for r in results
        ), (d, level)


def test_psatz_motzkin_certifies_top_power(monkeypatch):
    calls, results = _spy_membership(monkeypatch)
    query = PsatzQuery(
        MOTZKIN, PLANE, 1e-2, 4, PerturbationKind.TOP_EVEN_POWER
    )
    res = psatz_search(query)
    assert res.certified
    assert (res.d, res.level) == (3, 3)
    # On R^n a level above s = 3 repeats level s: one cell per d.  The
    # separator of d = 1 refutes d = 2 too, so that cell is not solved.
    assert calls == [(1, 3), (3, 3)]
    assert (res.solves, res.reused) == (2, 1)
    _assert_refuted_by_solved_cells(query, [(2, 3)], results)
    # Monotone in the certificate level: the same perturbed polynomial
    # stays in the cone one level up.
    higher = membership(res.perturbed, PLANE, res.level + 1)
    assert higher.verdict is MembershipVerdict.IN_CONE


def _count_membership_and_solves(monkeypatch) -> dict[str, int]:
    """Count the calls of membership and of the SDP solver from here on."""
    counts = {"membership": 0, "solve": 0}
    for name in counts:

        def spy(*args, _name=name, _inner=getattr(certificates_module, name), **kw):
            counts[_name] += 1
            return _inner(*args, **kw)

        monkeypatch.setattr(certificates_module, name, spy)
    return counts


@pytest.mark.parametrize("mode", list(PerturbationKind), ids=lambda m: m.value)
def test_every_psatz_cell_solves_through_membership(monkeypatch, mode):
    counts = _count_membership_and_solves(monkeypatch)
    f = parse_polynomial("(x1 - 1/2)^2 - 1/100", 1)
    res = psatz_search(PsatzQuery(f, SEGMENT, 0.005, 3, mode))
    assert res.solves > 0
    assert counts == {"membership": res.solves, "solve": res.solves}


def test_every_closure_cell_solves_through_membership(monkeypatch):
    counts = _count_membership_and_solves(monkeypatch)
    rows = seq_closure_probe(MOTZKIN, PLANE, 3, [1e-1, 1e-2, 1e-3], 4)
    assert counts["solve"] > 1
    assert counts["membership"] == counts["solve"], rows


def test_psatz_search_builds_each_cell_truncation_once(monkeypatch):
    # The search of test_psatz_motzkin_certifies_top_power meets the stored
    # separator of d = 1 at d = 2, where it decides the cell, and at d = 3,
    # where it fails and the cell is solved.  From a cold memo, d = 1 builds
    # the level-3 truncation with its Gram SDP, d = 2 and d = 3 ask for it
    # to revalidate, and d = 3 asks again to solve over its kept Gram SDP:
    # one truncation serves every cell.
    levels = []
    inner = certificates_module.build_truncation

    def spy(system, k):
        levels.append(k)
        return inner(system, k)

    monkeypatch.setattr(certificates_module, "build_truncation", spy)
    _cold_memos()
    query = PsatzQuery(MOTZKIN, PLANE, 1e-2, 4, PerturbationKind.TOP_EVEN_POWER)
    res = psatz_search(query)
    assert (res.d, res.solves, res.reused) == (3, 2, 1)
    assert levels == [3, 3, 3, 3]
    assert inner.cache_info().misses == 1


def test_psatz_certified_polynomial_nonnegative_on_samples():
    query = PsatzQuery(
        MOTZKIN, PLANE, 1e-2, 4, PerturbationKind.TOP_EVEN_POWER
    )
    res = psatz_search(query)
    rng = np.random.default_rng(17)
    scale = max(abs(c) for c in res.perturbed.terms.values())
    for _ in range(100):
        p = rng.uniform(-1.5, 1.5, size=2)
        assert res.perturbed.evaluate(p) >= -1e-7 * scale


def test_psatz_negative_function_not_found():
    res = psatz_search(PsatzQuery(Polynomial.constant(1, -1.0), SEGMENT, 0.1, 4))
    assert not res.certified
    assert res.searched_up_to == 4


def test_psatz_top_power_sweeps_every_level_with_generators(monkeypatch):
    calls, results = _spy_membership(monkeypatch)
    query = PsatzQuery(
        Polynomial.constant(1, -1.0), SEGMENT, 0.1, 4, PerturbationKind.TOP_EVEN_POWER
    )
    res = psatz_search(query)
    assert not res.certified
    # d = 1 sweeps every level; each later cell (d, t) is refuted by the
    # separator d = 1 found at level t or above.
    cells = [(d, t) for d in range(1, 5) for t in range(d, 5)]
    assert calls == [(1, t) for t in range(1, 5)]
    assert (res.solves, res.reused) == (4, len(cells) - 4)
    _assert_refuted_by_solved_cells(query, cells[4:], results)


def test_psatz_top_power_dmax_below_half_degree_still_solves():
    # d_max = 2 < ceil(deg f / 2) = 3: each d still solves its level 3.
    query = PsatzQuery(MOTZKIN, PLANE, 0.5, 2, PerturbationKind.TOP_EVEN_POWER)
    res = psatz_search(query)
    assert res.certified and res.level == 3
    assert res.solves == res.d


@pytest.mark.parametrize("mode", list(PerturbationKind), ids=lambda m: m.value)
def test_psatz_motzkin_half_eps_certifies_at_the_first_cell(mode):
    # Motzkin + 0.5 theta_1 is a sum of squares at level 3 in either mode;
    # its cell concludes rather than stalling on a low-rank face.
    res = psatz_search(PsatzQuery(MOTZKIN, PLANE, 0.5, 2, mode))
    assert res.certified
    assert (res.d, res.level) == (1, 3)
    assert res.inconclusive == []


def test_membership_exp_tower_lift_at_d4_in_cone():
    theta = perturbation_polynomial(2, 4, PerturbationKind.EXP_PARTIAL_SUM)
    res = membership(MOTZKIN + theta.scale(0.05), PLANE, 4)
    assert res.verdict is MembershipVerdict.IN_CONE
    assert res.solver_status is SdpStatus.OPTIMAL
    assert res.solver_iterations <= 40


def test_membership_exp_tower_lift_at_d6_refuted():
    # eps = 0.0125 is below the tower's threshold at d = 6: a validated
    # separator, L(f) < 0 with a PSD moment matrix.
    theta = perturbation_polynomial(2, 6, PerturbationKind.EXP_PARTIAL_SUM)
    f = MOTZKIN + theta.scale(0.0125)
    res = membership(f, PLANE, 6)
    assert res.verdict is MembershipVerdict.NOT_IN_CONE
    assert res.separation < 0
    check = validate_separator(f, build_truncation(PLANE, 6), res.separating)
    assert check.verdict is MembershipVerdict.NOT_IN_CONE


def test_membership_exp_tower_top_cell_refutes_at_an_early_ray():
    # The seed-1 search's exponential-tower top cell.  Every iterate is
    # checked for a ray, which holds at the first dual iterate that is
    # itself a Farkas certificate (b.y > 0 and -A^T y PSD), well before tau
    # vanishes at iteration 17.
    theta = perturbation_polynomial(2, 5, PerturbationKind.EXP_PARTIAL_SUM)
    f = MOTZKIN + theta.scale(0.01256)
    res = membership(f, PLANE, 5)
    assert res.verdict is MembershipVerdict.NOT_IN_CONE
    assert res.solver_status is SdpStatus.INFEASIBLE
    assert res.solver_iterations <= 10
    check = validate_separator(f, build_truncation(PLANE, 5), res.separating)
    assert check.verdict is MembershipVerdict.NOT_IN_CONE


def test_exp_tower_second_top_cell_stays_refuted_past_the_primal_certificate():
    # The seed-1 search's other exponential-tower top cell (the test above
    # has eps = 0.01256): its mid-run Gram iterates pass validate_grams, yet
    # no projection of one is a primal certificate, so the run still ends
    # at a validated separator.
    theta = perturbation_polynomial(2, 5, PerturbationKind.EXP_PARTIAL_SUM)
    f = MOTZKIN + theta.scale(0.01475)
    res = membership(f, PLANE, 5)
    assert res.verdict is MembershipVerdict.NOT_IN_CONE
    assert res.solver_status is SdpStatus.INFEASIBLE
    check = validate_separator(f, build_truncation(PLANE, 5), res.separating)
    assert check.verdict is MembershipVerdict.NOT_IN_CONE


def test_interior_membership_ends_at_a_primal_certificate(monkeypatch):
    # A quartic on R^2 that the soundness census found refuted at level 3
    # lies strictly inside Q_2: its level-2 solve ends at a projected
    # iterate, whose Grams reproduce f to roundoff and are positive definite.
    messages = []
    inner = certificates_module.solve

    def spy(problem, config=None):
        sol = inner(problem, config)
        messages.append(sol.message)
        return sol

    monkeypatch.setattr(certificates_module, "solve", spy)
    f = parse_polynomial(
        "0.61 - 0.25*x2 + 1.27*x2^2 - 0.35*x2^3 + 0.94*x2^4 + 1.03*x1"
        " - 0.25*x1*x2 + 1.59*x1*x2^2 + 0.31*x1*x2^3 + 2.13*x1^2 + 0.8*x1^2*x2"
        " + 0.12*x1^2*x2^2 - 1.42*x1^3 - 0.82*x1^3*x2 + 2*x1^4",
        2,
    )
    res = membership(f, PLANE, 2)
    assert res.verdict is MembershipVerdict.IN_CONE
    assert messages == [sdp_module.PRIMAL_CERTIFICATE]
    assert res.reconstruction_error <= 1e-12
    np.linalg.cholesky(res.grams[()])


def test_feasible_membership_exits_at_its_first_converged_iterate(monkeypatch):
    # The certify example at its default Grams: f has real zeros, so no
    # Gram is positive definite and no projected iterate is a primal
    # certificate.  A solve with no objective then stops at the first
    # iterate within feas_tol and gap_tol, with no polishing step after it.
    records = []
    residuals = sdp_module._residuals

    def spy(ws, it):
        records.append(residuals(ws, it))
        return records[-1]

    monkeypatch.setattr(sdp_module, "_residuals", spy)
    f = parse_polynomial("(x1^2+x2^2-1)^2+(x1*x2-1/2)^2", 2)
    res = membership(f, PLANE, 2)
    cfg = SolverConfig()
    converged = [
        max(r.relp, r.reld) <= cfg.feas_tol and min(r.relgap, r.relmu) <= cfg.gap_tol
        for r in records
    ]
    assert res.verdict is MembershipVerdict.IN_CONE
    assert res.solver_iterations == len(records) == converged.index(True) + 1


def test_psatz_exp_tower_motzkin_small_eps_not_found():
    # With the exponential-tower perturbation the 1e-2 lift is genuinely not
    # a sum of squares at these levels (validated separators say so).
    res = psatz_search(
        PsatzQuery(MOTZKIN, PLANE, 1e-2, 3, PerturbationKind.EXP_PARTIAL_SUM)
    )
    assert not res.certified


def test_psatz_exp_tower_top_cell_separator_decides_every_cell(monkeypatch):
    # The level-5 separator of the top cell d = 5 is revalidated at each
    # lower cell, on its level-3 and level-4 localizing matrices (principal
    # submatrices of its own): one solve decides the whole search.
    calls, _results = _spy_membership(monkeypatch)
    orders = []
    inner = certificates_module.localizing_matrix

    def spy(y, g, order):
        orders.append(order)
        return inner(y, g, order)

    monkeypatch.setattr(certificates_module, "localizing_matrix", spy)
    query = PsatzQuery(MOTZKIN, PLANE, 1e-2, 5, PerturbationKind.EXP_PARTIAL_SUM)
    res = psatz_search(query)
    assert str(res) == "NotFoundUpTo(5)"
    assert res.inconclusive == []
    assert calls == [(5, 5)]
    assert (res.solves, res.reused) == (1, 4)
    # The solve validates at level 5, then cells d = 1..4 at 3, 3, 3, 4.
    assert orders == [5, 3, 3, 3, 4]


def _stored_cell(monkeypatch, functional, f, system, level):
    """Decide one cell with `functional` kept; return the decider, its
    result and the levels that fell through to a solve."""
    solved = []

    def fake_membership(f, system, k, config=None):
        solved.append(k)
        return MembershipResult(MembershipVerdict.INCONCLUSIVE, k)

    monkeypatch.setattr(certificates_module, "membership", fake_membership)
    cell = certificates_module._ReusingMembership(system, separators=[functional])
    return cell, cell(f, level), solved


def test_stored_separator_of_higher_level_decides_lower_cell(monkeypatch):
    # The Dirac functional at 0, kept at level 2, separates x1^2 - 1 at
    # level 1: L(x1^2 - 1) = -1, and its level-1 moment matrix is PSD.
    y = MomentSequence.dirac((0.0,), 4)
    cell, member, solved = _stored_cell(
        monkeypatch, y, parse_polynomial("x1^2 - 1", 1), LINE, 1
    )
    assert solved == []
    assert member.verdict is MembershipVerdict.NOT_IN_CONE
    assert (member.level, member.separation) == (1, -1.0)
    assert list(member.separating_min_eigs) == [()]
    assert (cell.solves, cell.reused) == (0, 1)


@pytest.mark.parametrize(
    "functional, level",
    [
        # L(x1^2 - 1) = 0 at the Dirac functional at 1: no separation.
        (MomentSequence.dirac((1.0,), 2), 1),
        # L = (1, 0, -1) gives L(x1^2 - 1) = -2, but its moment matrix
        # diag(1, -1) fails psd_accepted.
        (MomentSequence(1, 2, {(0,): 1.0, (1,): 0.0, (2,): -1.0}), 1),
        # A level-1 functional cannot decide a level-2 cell.
        (MomentSequence.dirac((0.0,), 2), 2),
    ],
    ids=["no separation", "indefinite moment matrix", "level too low"],
)
def test_stored_functional_that_fails_revalidation_leads_to_a_solve(
    monkeypatch, functional, level
):
    cell, member, solved = _stored_cell(
        monkeypatch, functional, parse_polynomial("x1^2 - 1", 1), LINE, level
    )
    assert solved == [level]
    assert member.verdict is MembershipVerdict.INCONCLUSIVE
    assert (cell.solves, cell.reused) == (1, 0)


def test_not_in_cone_without_functional_is_never_reused(monkeypatch):
    # A NotInCone verdict that carries no functional decides only its own
    # cell: every cell is solved, the exponential tower's top cell first.
    calls = []

    def fake_membership(f, system, k, config=None):
        calls.append((max(a[0] for a in f.terms) // 2, k))
        return MembershipResult(MembershipVerdict.NOT_IN_CONE, k, message="forced")

    monkeypatch.setattr(certificates_module, "membership", fake_membership)
    res = psatz_search(PsatzQuery(Polynomial.constant(1, -1.0), LINE, 0.1, 4))
    assert not res.certified
    assert calls == [(4, 4), (1, 1), (2, 2), (3, 3)]
    assert (res.solves, res.reused) == (4, 0)
    rows = seq_closure_probe(
        Polynomial.constant(1, -1.0), SEGMENT, 1, [0.5, 0.1], 2
    )
    assert rows == [(0.5, None), (0.1, None)]
    assert len(calls) == 4 + 4


def _plain_psatz(query: PsatzQuery):
    """The search without reuse: one membership per cell, ascending d, then
    level, until a cell certifies."""
    half_f = half_degree(query.f)
    top = query.d_max if query.mode is PerturbationKind.TOP_EVEN_POWER else 0
    inconclusive = []
    for d in range(1, query.d_max + 1):
        levels = range(max(half_f, d), max(half_f, d, top) + 1)
        for level in query.system.distinct_levels(levels):
            verdict = membership(_lift(query, d), query.system, level).verdict
            if verdict is MembershipVerdict.IN_CONE:
                return True, d, level, inconclusive
            if verdict is MembershipVerdict.INCONCLUSIVE:
                inconclusive.append((d, level))
    return False, None, None, inconclusive


@pytest.mark.parametrize("mode", list(PerturbationKind), ids=lambda m: m.value)
@pytest.mark.parametrize(
    "f, system, d_max",
    [(MOTZKIN, PLANE, 4), (parse_polynomial("(x1 - 1/2)^2 - 1/100", 1), SEGMENT, 3)],
    ids=["motzkin", "segment"],
)
def test_psatz_search_equals_one_membership_per_cell(f, system, d_max, mode):
    for eps in (0.5, 0.05, 0.005):
        query = PsatzQuery(f, system, eps, d_max, mode)
        res = psatz_search(query)
        found = (res.certified, res.d, res.level, res.inconclusive)
        assert found == _plain_psatz(query), eps


def test_psatz_exp_tower_past_weight_range_is_a_weight_error(monkeypatch):
    # The tower's x^172/172! term exceeds double range; no cell is solved.
    def no_solve(*args, **kwargs):
        raise AssertionError("membership ran past the weight range")

    monkeypatch.setattr(certificates_module, "membership", no_solve)
    query = PsatzQuery(Polynomial.constant(1, 1.0), LINE, 0.5, 86)
    with pytest.raises(WeightOverflowError, match="degree > 170"):
        psatz_search(query)


def test_psatz_query_validation():
    for eps in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            PsatzQuery(MOTZKIN, PLANE, eps, 3)
    with pytest.raises(ValueError):
        PsatzQuery(MOTZKIN, PLANE, 0.1, 0)


def test_seq_closure_in_cone_polynomial():
    f = parse_polynomial("x1^2", 2)
    rows = seq_closure_probe(f, PLANE, 1, [1e-1, 1e-2], 3)
    assert all(t == 1 for _eps, t in rows)


def test_seq_closure_motzkin_levels_nondecreasing():
    rows = seq_closure_probe(MOTZKIN, PLANE, 3, [1e-1, 1e-2, 1e-3], 5)
    levels = [t for _eps, t in rows]
    assert levels[0] is not None
    found = [t for t in levels if t is not None]
    assert found == sorted(found)


def test_seq_closure_negative_never_certifies():
    rows = seq_closure_probe(Polynomial.constant(1, -1.0), SEGMENT, 1, [0.5, 0.1], 3)
    assert all(t is None for _eps, t in rows)


def test_seq_closure_stops_at_inconclusive_level(monkeypatch):
    # An inconclusive level below the first certifying one leaves the
    # minimal level unknown: the row reads None, not the higher level.
    verdicts = {
        1e-1: [MembershipVerdict.NOT_IN_CONE, MembershipVerdict.IN_CONE],
        1e-2: [MembershipVerdict.INCONCLUSIVE, MembershipVerdict.IN_CONE],
    }
    calls = []

    def fake_membership(f, system, k, config=None):
        eps = f.coefficient((6,))  # the lift is eps * (1 + x1^6)
        calls.append((eps, k))
        return MembershipResult(verdicts[eps][k - 3], k)

    monkeypatch.setattr(certificates_module, "membership", fake_membership)
    f = parse_polynomial("x1 - x1^2", 1)
    rows = seq_closure_probe(f, SEGMENT, 3, [1e-1, 1e-2], 4)
    assert rows == [(1e-1, 4), (1e-2, None)]
    assert calls == [(1e-1, 3), (1e-1, 4), (1e-2, 3)]


def test_seq_closure_validates_eps_list():
    with pytest.raises(ValueError):
        seq_closure_probe(MOTZKIN, PLANE, 3, [1e-3, 1e-2], 4)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            seq_closure_probe(MOTZKIN, PLANE, 3, [bad], 4)


def test_seq_closure_rejects_t_max_below_first_level():
    # The first level is ceil(max(deg f, 2d) / 2): 3 for both calls.
    with pytest.raises(ValueError):
        seq_closure_probe(MOTZKIN, PLANE, 1, [1e-1], 2)
    with pytest.raises(ValueError):
        seq_closure_probe(parse_polynomial("x1^2", 2), PLANE, 3, [1e-1], 2)


BALL2 = SemialgebraicSystem(2, (parse_polynomial("1 - x1^2 - x2^2", 2),))


def _cold_memos():
    cones_module.build_truncation.cache_clear()


@pytest.mark.parametrize(
    "system, text, level, min_trace, verdict",
    [
        (PLANE, str(MOTZKIN), 3, False, MembershipVerdict.NOT_IN_CONE),
        (PLANE, "(1 + x1 - x2^2)^2 + (x1*x2 - 1)^2", 3, False, MembershipVerdict.IN_CONE),
        (PLANE, str(MOTZKIN), 4, False, MembershipVerdict.NOT_IN_CONE),
        (BALL2, "x1^2 - 1/2", 3, False, MembershipVerdict.NOT_IN_CONE),
        (BALL2, "(1 + x1 + x2)^2 + 2*(1 - x1^2 - x2^2)", 3, False, MembershipVerdict.IN_CONE),
        (BALL2, "x1^2*x2 - 1/4", 4, False, MembershipVerdict.NOT_IN_CONE),
        (BALL2, "1 + x1^3*x2 - x1^2*x2^2", 4, False, MembershipVerdict.IN_CONE),
        (PLANE, "(1 + x1 - x2^2)^2 + (x1*x2 - 1)^2", 3, True, MembershipVerdict.IN_CONE),
        (BALL2, "x1^2 - 1/2", 3, True, MembershipVerdict.NOT_IN_CONE),
    ],
    ids=[
        "plane-3-motzkin", "plane-3-sos", "plane-4-motzkin", "ball2-3-negative",
        "ball2-3-member", "ball2-4-negative", "ball2-4-member",
        "plane-3-sos-min-trace", "ball2-3-negative-min-trace",
    ],
)
def test_warm_membership_solves_as_a_cold_one(
    monkeypatch, system, text, level, min_trace, verdict
):
    # A cell whose Gram SDP another cell of its (K, level) prepared solves
    # to the bits of one prepared for it alone.
    solutions = []
    real = certificates_module.solve

    def keep(problem, config=None):
        solutions.append(real(problem, config))
        return solutions[-1]

    monkeypatch.setattr(certificates_module, "solve", keep)
    f = parse_polynomial(text, 2)
    _cold_memos()
    cold = membership(f, system, level, min_trace=min_trace)
    _cold_memos()
    # The other cell decides at the cell's level: the kept truncation and
    # Gram SDP it prepared are the ones the warm solve reuses.
    other = membership(
        parse_polynomial(f"(1 + x1^2 + x2^2)^{cold.level}", 2),
        system, level, min_trace=min_trace,
    )
    warm = membership(f, system, level, min_trace=min_trace)
    assert cold.verdict is warm.verdict is verdict
    assert other.verdict is MembershipVerdict.IN_CONE
    assert other.level == cold.level == warm.level
    first, _other, second = solutions
    assert (first.status, first.iterations, first.message) == (
        second.status, second.iterations, second.message
    )
    for a, b in [
        *zip(first.x_blocks, second.x_blocks),
        (first.y, second.y),
        *zip(first.s_blocks, second.s_blocks),
    ]:
        assert np.array_equal(a, b)
    assert (first.ray is None) is (second.ray is None)
    if first.ray is not None:
        assert np.array_equal(first.ray[0], second.ray[0])
        for a, b in zip(first.ray[1], second.ray[1]):
            assert np.array_equal(a, b)


def test_membership_memos_hold_at_most_their_bounds():
    # The Gram SDPs live in the truncations that build_truncation keeps,
    # so its one bound holds both.
    _cold_memos()
    memo = cones_module.TRUNCATION_MEMO
    levels = range(1, memo + 3)
    for level in levels:
        # 1 + x1^(2k) decides at level k, so each call keeps its own level.
        f = parse_polynomial(f"1 + x1^{2 * level}", 1)
        res = membership(f, LINE, level)
        assert (res.verdict, res.level) == (MembershipVerdict.IN_CONE, level)
    truncations = cones_module.build_truncation
    info = truncations.cache_info()
    assert info.currsize == info.maxsize == memo

    def lookup(level):
        hits = truncations.cache_info().hits
        trunc = truncations(LINE, level)
        return truncations.cache_info().hits > hits, list(trunc.gram_sdps)

    # The least recently used keys went first: each kept key, oldest
    # first, is a hit that still holds its Gram SDP, and each evicted key
    # a miss whose fresh truncation holds none.
    assert [lookup(level) for level in levels[-memo:]] == [(True, [False])] * memo
    assert [lookup(level) for level in levels[:-memo]] == [(False, [])] * 2


def test_search_pass_keeps_under_half_a_megabyte_in_its_memos(fresh_python):
    # What one seed-1 pass of the benchmark's search workload leaves in the
    # truncation memo: the kept truncations' Gram SDPs with their rows and
    # factors, no dense copy of A or scratch.  It leaves out the six
    # truncations that the workload's setup builds before tracing starts.
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    proc = fresh_python("-c", f"""
import gc, sys, tracemalloc
sys.path.insert(0, {str(perfbench)!r})
import tracing, workloads
from sosproj import cones
tr = tracing.Tracer()
calls = workloads.build_calls("search", 1, tr)
tracemalloc.start()
for call in calls:
    call.run(tr)
gc.collect()
held = tracemalloc.get_traced_memory()[0]
sdps = sum(
    len(t.gram_sdps) for t in gc.get_objects() if isinstance(t, cones.ConeTruncation)
)
cones.build_truncation.cache_clear()
gc.collect()
print(sdps, held - tracemalloc.get_traced_memory()[0])
""")
    assert proc.returncode == 0, proc.stderr
    sdps, retained = map(int, proc.stdout.split())
    assert sdps == 6
    assert 0 < retained < 500_000, retained
