import numpy as np
import pytest

from sosproj import projection as projection_module
from sosproj.cones import SemialgebraicSystem, build_truncation, gram_reconstruct
from sosproj.moments import riesz
from sosproj.polynomials import (
    Polynomial,
    WeightSequence,
    parse_polynomial,
    weighted_norm,
)
from sosproj.projection import (
    ClosureRow,
    ProjectionProblem,
    closure_probe,
    dual_moment_problem,
    format_certificate,
    format_certificate_document,
    parse_certificate,
    perturbation_basis,
    project_general_form,
    project_lambda_form,
)

MOTZKIN = parse_polynomial("x1^2*x2^2*(x1^2+x2^2-1)+1/27", 2)
PLANE = SemialgebraicSystem(2, ())
LINE = SemialgebraicSystem(1, ())
L1 = WeightSequence.l1()
LW = WeightSequence.lw()


def test_problem_validation():
    with pytest.raises(ValueError):
        ProjectionProblem(MOTZKIN, PLANE, L1, 2)  # deg f = 6 > 2d = 4
    with pytest.raises(ValueError):
        ProjectionProblem(MOTZKIN, PLANE, L1, 4, 2)  # t < d
    with pytest.raises(ValueError):
        ProjectionProblem(parse_polynomial("x1", 1), PLANE, L1, 1)


@pytest.mark.parametrize("d, t", [(0, None), (2, 3)], ids=["d = 0", "deg f above 2d"])
def test_problem_rejects_a_truncation_degree_it_cannot_use(d, t):
    with pytest.raises(ValueError, match="must be >= 1|exceeds truncation degree"):
        ProjectionProblem(MOTZKIN, PLANE, L1, d, t)


def test_perturbation_basis_shapes():
    l1_basis = perturbation_basis(2, 3, L1.kind)
    assert [key for key, _a, _s in l1_basis] == [(0, 0), (1, 3), (2, 3)]
    assert [a for _k, a, _s in l1_basis] == [(0, 0), (6, 0), (0, 6)]
    lw_basis = perturbation_basis(2, 2, LW.kind)
    assert len(lw_basis) == 1 + 2 * 2
    scales = {key: s for key, _a, s in lw_basis}
    assert scales[(1, 1)] == pytest.approx(1.0 / 2.0)
    assert scales[(1, 2)] == pytest.approx(1.0 / 24.0)


def test_motzkin_reference_distances():
    expected = {3: 1.6e-2, 4: 2.0e-3, 5: 8.0e-5}
    for d, p_ref in expected.items():
        cert = project_lambda_form(ProjectionProblem(MOTZKIN, PLANE, L1, d))
        assert abs(cert.p_value - p_ref) <= 0.15 * p_ref
        lam1 = cert.lambda_ik[(1, d)]
        lam2 = cert.lambda_ik[(2, d)]
        assert abs(lam1 - lam2) <= 1e-2 * max(lam1, lam2)
        assert cert.p_value == pytest.approx(cert.lambda_sum(), abs=1e-7)


def test_lambda_form_certificate_consistency():
    cert = project_lambda_form(ProjectionProblem(MOTZKIN, PLANE, L1, 3))
    # The Gram blocks really reconstruct the projection, coefficient by
    # coefficient, so it genuinely lies in the truncated cone.
    trunc = build_truncation(PLANE, 3)
    recon = gram_reconstruct(trunc, [cert.grams[b.label] for b in trunc.blocks])
    diff = recon - cert.projection
    assert max((abs(c) for c in diff.terms.values()), default=0.0) <= 1e-6
    # And the distance matches the norm of the perturbation.
    assert weighted_norm(cert.projection - MOTZKIN, L1) == pytest.approx(
        cert.p_value, abs=1e-7
    )


def test_in_cone_polynomial_projects_to_itself():
    f = parse_polynomial("x1^2 + x2^2", 2)
    for w in (L1, LW):
        cert = project_lambda_form(ProjectionProblem(f, PLANE, w, 1))
        assert cert.p_value <= 1e-7
        assert cert.lambda_effectively_zero


def grid_l1_distance_to_sos_univariate(coeffs, step=0.02, radius=2.0):
    """Brute-force l1 distance from c0 + c1 x + c2 x^2 to the SOS cone.

    Degree-2 SOS polynomials are exactly a >= 0, c >= 0, b^2 <= 4ac; scan a
    grid of (a, b, c) and take the closest.
    """
    c0, c1, c2 = coeffs
    best = float("inf")
    grid = np.arange(0.0, radius + step, step)
    bgrid = np.arange(-radius, radius + step, step)
    for a in grid:
        for c in grid:
            for b in bgrid:
                if b * b <= 4 * a * c + 1e-15:
                    dist = abs(a - c0) + abs(b - c1) + abs(c - c2)
                    best = min(best, dist)
    return best


def test_negative_constant_projection_matches_grid_oracle():
    f = Polynomial.constant(1, -1.0)
    cert = project_lambda_form(ProjectionProblem(f, LINE, L1, 1))
    oracle = grid_l1_distance_to_sos_univariate((-1.0, 0.0, 0.0))
    assert cert.p_value == pytest.approx(1.0, abs=1e-6)
    assert oracle == pytest.approx(1.0, abs=1e-9)
    assert cert.lambda0 == pytest.approx(1.0, abs=1e-6)
    assert cert.lambda_ik[(1, 1)] == pytest.approx(0.0, abs=1e-6)


def test_negative_square_general_form_matches_grid_oracle():
    f = parse_polynomial("0 - x1^2", 1)
    cert = project_general_form(ProjectionProblem(f, LINE, L1, 1))
    oracle = grid_l1_distance_to_sos_univariate((0.0, 0.0, -1.0))
    assert oracle == pytest.approx(1.0, abs=1e-9)
    assert cert.p_value == pytest.approx(1.0, abs=1e-6)


def test_general_form_in_cone():
    f = parse_polynomial("(1 - x1*x2)^2", 2)
    cert = project_general_form(ProjectionProblem(f, PLANE, L1, 2))
    assert cert.p_value <= 1e-6
    diff = cert.projection - f
    assert max((abs(c) for c in diff.terms.values()), default=0.0) <= 1e-5


def test_general_form_distance_equals_weighted_norm():
    cert = project_general_form(ProjectionProblem(MOTZKIN, PLANE, L1, 3))
    assert weighted_norm(cert.projection - MOTZKIN, L1) == pytest.approx(
        cert.p_value, abs=1e-7
    )


def test_cross_formulation_agreement_motzkin():
    for d in (3, 4):
        prob = ProjectionProblem(MOTZKIN, PLANE, L1, d)
        p_lam = project_lambda_form(prob).p_value
        p_gen = project_general_form(prob).p_value
        assert abs(p_lam - p_gen) <= max(1e-6, 1e-5 * p_lam)


@pytest.mark.parametrize("w", [L1, LW], ids=["l1", "lw"])
def test_general_form_above_2d_matches_lambda_form(w):
    # At t = 3 > d = 2 the general form also has the rows h_alpha = 0 for
    # 2d < |alpha| <= 2t.  Held to the general-form oracle tolerance
    # (1e-6 absolute, 1e-5 relative), as on the benchmark's crosscheck.
    f = parse_polynomial("x1^3*x2 - x1*x2 + 1/10 - x2^4", 2)
    disk = SemialgebraicSystem(2, (parse_polynomial("1 - x1^2 - x2^2", 2),))
    prob = ProjectionProblem(f, disk, w, 2, 3)
    p_lam = project_lambda_form(prob).p_value
    p_gen = project_general_form(prob).p_value
    assert abs(p_lam - p_gen) <= max(1e-6, 1e-5 * p_lam)


def test_dual_moment_agreement_and_weak_duality():
    prob = ProjectionProblem(MOTZKIN, PLANE, L1, 3)
    cert = project_lambda_form(prob)
    dual = dual_moment_problem(prob)
    assert abs(cert.p_value - dual.value) <= max(1e-6, 1e-6 * cert.p_value)
    assert dual.riesz_of_f == pytest.approx(-dual.value, abs=1e-9)
    assert riesz(dual.moments, MOTZKIN) == pytest.approx(-dual.value, abs=1e-9)
    # Sampled feasible sequences never beat the optimum: scaled atomic
    # measures satisfy the box constraints after normalization.
    rng = np.random.default_rng(3)
    from sosproj.moments import MomentSequence
    from sosproj.polynomials import monomial_basis

    for _ in range(10):
        pts = rng.uniform(-0.9, 0.9, size=(2, 2))
        wts = rng.uniform(0.1, 1.0, size=2)
        y = MomentSequence.from_atoms(pts, wts, 6)
        peak = max(abs(v) for v in y.values.values())
        y = MomentSequence(
            2, 6, {a: v / (peak * 1.01) for a, v in y.values.items()}
        )
        assert -riesz(y, MOTZKIN) <= cert.p_value + 1e-7


def test_dual_moments_attached_to_lambda_certificate():
    cert = project_lambda_form(ProjectionProblem(MOTZKIN, PLANE, L1, 3))
    y = cert.dual_moments
    assert y is not None
    assert -riesz(y, MOTZKIN) == pytest.approx(cert.p_value, abs=1e-6)


def test_dual_moment_requires_t_equal_d():
    prob = ProjectionProblem(MOTZKIN, PLANE, L1, 3, 4)
    with pytest.raises(ValueError):
        dual_moment_problem(prob)


def test_monotonicity_in_degree():
    values = [
        project_lambda_form(ProjectionProblem(MOTZKIN, PLANE, L1, d)).p_value
        for d in (3, 4, 5)
    ]
    assert values[0] >= values[1] >= values[2]


def test_closure_probe_in_cone_rows():
    f = parse_polynomial("x1^2", 2)
    rows = closure_probe(f, PLANE, 1, [1, 2, 3], LW)
    assert all(r.p_value <= 1e-6 for r in rows)


def test_closure_probe_monotone_on_attained_instance():
    # Degree-capped projections of -x^2: the feasible set is the nonneg
    # quadratics at every level, so the distance is constant (and the dual
    # attains, keeping the computation clean).
    f = parse_polynomial("0 - x1^2", 1)
    rows = closure_probe(f, LINE, 1, [1, 2, 3], L1)
    assert isinstance(rows[0], ClosureRow)
    for earlier, later in zip(rows, rows[1:]):
        assert earlier.p_value >= later.p_value - 1e-7
    assert rows[0].p_value == pytest.approx(1.0, abs=1e-6)


def test_closure_probe_solves_once_on_the_plane(monkeypatch):
    # On R^n every level t > d repeats the t = d answer; with a generator
    # each level is its own SDP.
    solved = []

    def counting(problem, config=None):
        solved.append(problem.t)
        return project_lambda_form(problem, config)

    monkeypatch.setattr(projection_module, "project_lambda_form", counting)
    f = parse_polynomial("x1*x2", 2)
    rows = closure_probe(f, PLANE, 1, [1, 2, 3], L1)
    assert solved == [1]
    assert [r.t for r in rows] == [1, 2, 3]
    assert len({(r.p_value, r.lambda0) for r in rows}) == 1
    solved.clear()
    disc = SemialgebraicSystem(2, (parse_polynomial("1 - x1^2 - x2^2", 2),))
    rows = closure_probe(f, disc, 1, [1, 2, 3], L1)
    assert solved == [1, 2, 3]
    assert [r.t for r in rows] == [1, 2, 3]
    with pytest.raises(ValueError):
        closure_probe(f, PLANE, 2, [2, 1], L1)  # t < d is rejected on R^n too


def test_closure_probe_matches_degree_runs_at_t_equal_d():
    for d in (3, 4):
        row = closure_probe(MOTZKIN, PLANE, d, [d], L1)[0]
        direct = project_lambda_form(ProjectionProblem(MOTZKIN, PLANE, L1, d))
        assert row.p_value == pytest.approx(direct.p_value, abs=1e-9)


def test_certificate_text_round_trip():
    cert = project_lambda_form(ProjectionProblem(MOTZKIN, PLANE, L1, 3))
    doc = parse_certificate(format_certificate(cert))
    doc.verdict = "in_cone level 3"
    text = format_certificate_document(doc)
    doc = parse_certificate(text)
    assert format_certificate_document(doc) == text
    assert doc.p_value == pytest.approx(cert.p_value)
    assert doc.lambda0 == pytest.approx(cert.lambda0)
    # General-form certificates carry residuals instead of lambdas.
    gen = project_general_form(ProjectionProblem(MOTZKIN, PLANE, L1, 3))
    gtext = format_certificate(gen)
    gdoc = parse_certificate(gtext)
    assert format_certificate_document(gdoc) == gtext
    assert gdoc.lambda0 is None
    assert gdoc.residuals


TAIL = "P_VALUE\n0.5\nPROJECTION\n1.0\n"


@pytest.mark.parametrize(
    "text",
    [
        "GRAMS\nblock unit side 2\n1 0 0\n0 1 0\n" + TAIL,
        "GRAMS\nblock unit side 2\n1 0\n",
        "GRAMS\nblock unit\n1\n" + TAIL,
    ],
    ids=["rows longer than side", "truncated block", "header without side"],
)
def test_parse_certificate_rejects_malformed_grams(text):
    with pytest.raises(ValueError, match="block"):
        parse_certificate(text)


def test_parse_certificate_reads_canonical_text():
    doc = parse_certificate("LAMBDA\nGRAMS\n" + TAIL)
    assert (doc.p_value, doc.projection_text) == (0.5, "1.0")


@pytest.mark.parametrize(
    "verdict", ["in_cone level 2", "not_in_cone level 0 separation -0.25"]
)
def test_parse_certificate_reads_the_verdicts_certify_writes(verdict):
    doc = parse_certificate(f"VERDICT\n{verdict}\nLAMBDA\nGRAMS\n" + TAIL)
    assert doc.verdict == verdict


@pytest.mark.parametrize(
    "text",
    [
        "LAMBDA\nlambda 1\nGRAMS\n" + TAIL,
        "LAMBDA\nlambda0\nGRAMS\n" + TAIL,
        "LAMBDA\nGRAMS\nP_VALUE\n0.5\nP_VALUE\n0.25\nPROJECTION\n1\n",
        "LAMBDA\nGRAMS\n" + TAIL + "PROJECTION\n2\n",
        "VERDICT\nin_cone\nVERDICT\nnot_in_cone\nLAMBDA\nGRAMS\n" + TAIL,
        "LAMBDA\nlambda 1 1 0.5\nGRAMS\n" + TAIL,
        "LAMBDA\nlambda0 0.5 7\nGRAMS\n" + TAIL,
        "LAMBDA\nresidual 5\nGRAMS\n" + TAIL,
        "LAMBDA\nGRAMS\nP_VALUE\nnan\nPROJECTION\n1\n",
        "LAMBDA\nlambda0 inf\nGRAMS\n" + TAIL,
        "LAMBDA\nGRAMS\nblock unit side 1\nnan\n" + TAIL,
        "LAMBDA\nGRAMS\nP_VALUE\n0.5\nPROJECTION\nx1 +\n",
        "LAMBDA\nlambda0 0.5\neffectively_zero_at_5 maybe\nGRAMS\n" + TAIL,
        "LAMBDA\nresidual 1 0 0.5\nresidual 1 0 0.5\nGRAMS\n" + TAIL,
        "LAMBDA\nGRAMS\nblock 1 side 1\n1\nblock 1 side 1\n1\n" + TAIL,
        "LAMBDA\nGRAMS\nblock 0,-1 side 1\n1\n" + TAIL,
        "LAMBDA\nGRAMS\nblock 1,1 side 1\n1\n" + TAIL,
        "LAMBDA\nresidual -1 0 0.5\nGRAMS\n" + TAIL,
        "VERDICT\nmaybe\nLAMBDA\nGRAMS\n" + TAIL,
        "VERDICT\nin_cone level 2 separation 0.5\nLAMBDA\nGRAMS\n" + TAIL,
        "VERDICT\nnot_in_cone level 2 separation inf\nLAMBDA\nGRAMS\n" + TAIL,
        "VERDICT\nnot_in_cone level 2 separation -0.50\nLAMBDA\nGRAMS\n" + TAIL,
        "VERDICT\nin_cone level 02\nLAMBDA\nGRAMS\n" + TAIL,
        "LAMBDA\nGRAMS\nblock unit side 2\n1 5\n0 1\n" + TAIL,
        "LAMBDA\nGRAMS\nP_VALUE\n0.5\nPROJECTION\n1\n",
        "LAMBDA\nGRAMS\nP_VALUE\n0.5\nPROJECTION\n1.0000\n",
        "LAMBDA\nGRAMS\nP_VALUE\n0.5\nPROJECTION\nx1 + x1\n",
        "stray\nLAMBDA\nGRAMS\n" + TAIL,
    ],
    ids=[
        "lambda missing fields", "lambda0 missing value", "two P_VALUE",
        "two PROJECTION", "two VERDICT", "lambda without lambda0",
        "extra field", "residual without exponent", "P_VALUE nan",
        "lambda0 inf", "Gram entry nan", "PROJECTION not a polynomial",
        "flag misspelled", "repeated residual", "repeated block",
        "label with index below 1", "label not increasing", "negative exponent",
        "verdict certify never writes", "in_cone with a separation",
        "separation inf", "separation not canonical", "level not canonical",
        "Gram not symmetric", "PROJECTION 1", "PROJECTION 1.0000",
        "PROJECTION terms not merged", "text before any section",
    ],
)
def test_parse_certificate_rejects_text_it_would_not_write(text):
    with pytest.raises(ValueError):
        parse_certificate(text)


def test_preordering_projection_of_cross_term():
    # x1*x2 is the subset product g_{1,2} itself, hence distance zero in the
    # preordering of the positive quadrant.
    from sosproj.cones import ConeKind

    quadrant = SemialgebraicSystem(
        2,
        (parse_polynomial("x1", 2), parse_polynomial("x2", 2)),
        ConeKind.PREORDERING,
    )
    f = parse_polynomial("x1*x2", 2)
    cert = project_lambda_form(ProjectionProblem(f, quadrant, L1, 1))
    assert cert.p_value <= 1e-7
    assert set(cert.grams) == {(), (1,), (2,), (1, 2)}


def test_l1_projection_support_is_sparse():
    # Under plain l1 the canonical projection only adds the constant and the
    # top even power of each variable: at most n + 1 new terms.
    cert = project_lambda_form(ProjectionProblem(MOTZKIN, PLANE, L1, 3))
    added = cert.projection - MOTZKIN
    allowed = {(0, 0), (6, 0), (0, 6)}
    assert set(added.terms) <= allowed
    assert len(cert.projection.terms) <= len(MOTZKIN.terms) + 2 + 1
