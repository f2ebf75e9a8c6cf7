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
)
from sosproj.moments import localizing_matrix, eig_range
from sosproj.polynomials import Polynomial, WeightSequence, parse_polynomial
from sosproj.projection import ProjectionProblem, project_lambda_form
from sosproj import certificates as certificates_module
from sosproj.sdp import SdpSolution, SdpStatus

MOTZKIN = parse_polynomial("x1^2*x2^2*(x1^2+x2^2-1)+1/27", 2)
PLANE = SemialgebraicSystem(2, ())
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


def test_membership_degree_guard():
    with pytest.raises(ValueError):
        membership(MOTZKIN, PLANE, 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: membership(MOTZKIN, SemialgebraicSystem(3), 3),
        lambda: PsatzQuery(MOTZKIN, SemialgebraicSystem(3), 0.1, 3),
    ],
    ids=["membership", "psatz query"],
)
def test_f_and_K_of_different_dimensions_are_rejected(call):
    with pytest.raises(ValueError, match="dimensions differ"):
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


def _spy_membership(monkeypatch) -> list[tuple[int, int]]:
    """Record (d, level) of every membership solve of a top-power search."""
    calls = []
    inner = certificates_module.membership

    def spy(f, system, k, config=None):
        # The lift eps * x1^{2d} is f's only pure power of x1.
        d = max((a[0] // 2 for a in f.terms if a[0] and not any(a[1:])), default=0)
        calls.append((d, k))
        return inner(f, system, k, config)

    monkeypatch.setattr(certificates_module, "membership", spy)
    return calls


def test_psatz_motzkin_certifies_top_power(monkeypatch):
    calls = _spy_membership(monkeypatch)
    query = PsatzQuery(
        MOTZKIN, PLANE, 1e-2, 4, PerturbationKind.TOP_EVEN_POWER
    )
    res = psatz_search(query)
    assert res.certified
    assert res.d <= 4
    # On R^n a level above s = 3 repeats level s: one solve per d.
    assert calls == [(d, 3) for d in range(1, res.d + 1)]
    assert res.solves == len(calls)
    # Monotone in the certificate level: the same perturbed polynomial
    # stays in the cone one level up.
    higher = membership(res.perturbed, PLANE, res.level + 1)
    assert higher.verdict is MembershipVerdict.IN_CONE


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
    calls = _spy_membership(monkeypatch)
    query = PsatzQuery(
        Polynomial.constant(1, -1.0), SEGMENT, 0.1, 4, PerturbationKind.TOP_EVEN_POWER
    )
    res = psatz_search(query)
    assert not res.certified
    assert calls == [(d, t) for d in range(1, 5) for t in range(d, 5)]
    assert res.solves == len(calls)


def test_psatz_top_power_dmax_below_half_degree_still_solves():
    # d_max = 2 < ceil(deg f / 2) = 3: each d still solves its level 3.
    query = PsatzQuery(MOTZKIN, PLANE, 0.5, 2, PerturbationKind.TOP_EVEN_POWER)
    res = psatz_search(query)
    assert res.certified and res.level == 3
    assert res.solves == res.d


def test_psatz_exp_tower_motzkin_small_eps_not_found():
    # With the exponential-tower perturbation the 1e-2 lift is genuinely not
    # a sum of squares at these levels (validated separators say so).
    res = psatz_search(
        PsatzQuery(MOTZKIN, PLANE, 1e-2, 3, PerturbationKind.EXP_PARTIAL_SUM)
    )
    assert not res.certified


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

    def fake_membership(f, system, t, config=None):
        eps = f.coefficient((6,))  # the lift is eps * (1 + x1^6)
        calls.append((eps, t))
        return MembershipResult(verdicts[eps][t - 3], t)

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
