"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import math
import time

import numpy as np
import pytest

from sosproj.cones import SemialgebraicSystem, build_truncation, gram_reconstruct
from sosproj.certificates import (
    MembershipVerdict,
    PerturbationKind,
    PsatzQuery,
    membership,
    psatz_search,
)
from sosproj.moments import (
    BasisMatrixSet,
    MomentSequence,
    carleman_diagnostic,
    eig_range,
    localizing_matrix,
    riesz,
    support_nonnegativity_test,
)
from sosproj.polynomials import (
    Polynomial,
    WeightSequence,
    monomial_basis,
    parse_polynomial,
)
from sosproj.projection import (
    ProjectionProblem,
    dual_moment_problem,
    project_general_form,
    project_lambda_form,
)
from sosproj.sdpa_io import export_sdpa

MOTZKIN = parse_polynomial("x1^2*x2^2*(x1^2+x2^2-1)+1/27", 2)
PLANE = SemialgebraicSystem(2, ())
BALL = SemialgebraicSystem(2, (parse_polynomial("1 - x1^2 - x2^2", 2),))
L1 = WeightSequence.l1()
LW = WeightSequence.lw()

REFERENCE_P = {3: 1.6e-2, 4: 2.0e-3, 5: 8.0e-5}


def random_corpus(count=20, seed=2024):
    rng = np.random.default_rng(seed)
    basis4 = monomial_basis(2, 4)
    out = []
    for _ in range(count):
        terms = {a: float(rng.normal()) for a in basis4 if rng.random() < 0.7}
        if not terms:
            terms = {(0, 0): 1.0}
        out.append(Polynomial(2, terms))
    return out


def test_criterion_1_reference_table_reproduction():
    start = time.time()
    rows = {}
    for d in (3, 4, 5):
        cert = project_lambda_form(ProjectionProblem(MOTZKIN, PLANE, L1, d))
        rows[d] = cert
        p_ref = REFERENCE_P[d]
        assert abs(cert.p_value - p_ref) <= 0.15 * p_ref, (
            f"d={d}: p={cert.p_value} vs reference {p_ref}"
        )
        lam1 = cert.lambda_ik[(1, d)]
        lam2 = cert.lambda_ik[(2, d)]
        assert abs(lam1 - lam2) <= 1e-2 * max(abs(lam1), abs(lam2), 1e-30)
    elapsed = time.time() - start
    assert elapsed < 5.0
    summary = ", ".join(f"p_{d}={rows[d].p_value:.3e}" for d in (3, 4, 5))
    print(f"\ncriterion 1 PASS: reference table reproduced ({summary}, "
          f"{elapsed:.2f}s)")


def _criterion_2_3_corpus():
    cases = [(MOTZKIN, PLANE, L1, 3), (MOTZKIN, PLANE, L1, 4)]
    for f in random_corpus():
        for w in (LW, L1):
            cases.append((f, BALL, w, 2))
    return cases


def test_criterion_2_cross_formulation_agreement():
    start = time.time()
    worst = 0.0
    for f, system, w, d in _criterion_2_3_corpus():
        prob = ProjectionProblem(f, system, w, d)
        p_lam = project_lambda_form(prob).p_value
        p_gen = project_general_form(prob).p_value
        diff = abs(p_lam - p_gen)
        tol = max(1e-6, 1e-5 * p_lam)
        worst = max(worst, diff / tol)
        assert diff <= tol, f"{diff} > {tol} on {f}"
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"\ncriterion 2 PASS: lambda/general forms agree on "
          f"{len(_criterion_2_3_corpus())} instances "
          f"(worst {worst:.3f} of tolerance, {elapsed:.1f}s)")


def test_criterion_3_primal_dual_agreement():
    start = time.time()
    worst = 0.0
    for f, system, w, d in _criterion_2_3_corpus():
        prob = ProjectionProblem(f, system, w, d)
        p = project_lambda_form(prob).p_value
        dual = dual_moment_problem(prob)
        value = -riesz(dual.moments, f)
        diff = abs(p - value)
        tol = max(1e-6, 1e-6 * p)
        worst = max(worst, diff / tol)
        assert diff <= tol, f"{diff} > {tol} on {f}"
    elapsed = time.time() - start
    print(f"\ncriterion 3 PASS: projection distance equals the moment-side "
          f"optimum (worst {worst:.3f} of tolerance, {elapsed:.1f}s)")


def test_criterion_4_membership_soundness():
    rng = np.random.default_rng(42)
    systems = [
        SemialgebraicSystem(1, ()),
        PLANE,
        BALL,
        SemialgebraicSystem(3, ()),
        SemialgebraicSystem(
            1, (parse_polynomial("x1", 1), parse_polynomial("1 - x1", 1))
        ),
    ]
    for trial in range(50):
        system = systems[trial % len(systems)]
        k = 1 + trial % 2
        trunc = build_truncation(system, k)
        grams = [
            (lambda M: M @ M.T / b.side)(rng.normal(size=(b.side, b.side)))
            for b in trunc.blocks
        ]
        h = gram_reconstruct(trunc, grams)
        res = membership(h, system, k)
        assert res.verdict is MembershipVerdict.IN_CONE, (
            f"trial {trial}: {res.verdict} ({res.message})"
        )
        assert res.reconstruction_error <= 1e-6
    res = membership(MOTZKIN, PLANE, 3)
    assert res.verdict is MembershipVerdict.NOT_IN_CONE
    assert res.separation <= -1e-6
    trunc = build_truncation(PLANE, 3)
    for block in trunc.blocks:
        mat = localizing_matrix(res.separating, block.product, block.sos_order)
        lmin, lmax = eig_range(mat)
        assert lmin >= -1e-8 * max(1.0, abs(lmax))
    print(f"\ncriterion 4 PASS: 50 cone elements certified in-cone; the "
          f"non-member is refuted with L_y(f) = {res.separation:.3e}")


def test_criterion_5_matrix_construction_oracles():
    rng = np.random.default_rng(7)
    worst_entry = 0.0
    for trial in range(100):
        n = 1 + trial % 3
        d = 1 + trial % 3
        terms = {
            a: float(rng.normal())
            for a in monomial_basis(n, 2)
            if rng.random() < 0.8
        }
        g = Polynomial(n, terms or {(0,) * n: 1.0})
        y = MomentSequence.from_function(
            n, 2 * d + g.degree, lambda a: float(rng.uniform(-1, 1))
        )
        entrywise = localizing_matrix(y, g, d)
        B = BasisMatrixSet(g, d)
        summed = np.zeros_like(entrywise)
        for alpha in B.nonzero_exponents():
            summed += y.value(alpha) * B.matrix(alpha)
        err = float(np.max(np.abs(entrywise - summed)))
        worst_entry = max(worst_entry, err)
        assert err <= 1e-12 * max(1.0, float(np.max(np.abs(entrywise))))
        # Reconstruction identity at random points, relative 1e-9.
        basis = monomial_basis(n, d)
        for _ in range(3):
            p = rng.uniform(-1.2, 1.2, size=n)
            v = np.array([float(np.prod(p ** np.array(a))) for a in basis])
            expected = g.evaluate(p) * np.outer(v, v)
            total = np.zeros_like(expected)
            for alpha in B.nonzero_exponents():
                total += B.matrix(alpha) * float(np.prod(p ** np.array(alpha)))
            scale = 1e-9 * (
                1.0 + sum(abs(c) for c in g.terms.values()) * float(v @ v)
            )
            assert np.max(np.abs(total - expected)) <= scale
    print(f"\ncriterion 5 PASS: 100 instances, entrywise vs basis-matrix "
          f"agreement (worst {worst_entry:.2e})")


def test_criterion_6_finite_support_test():
    rng = np.random.default_rng(13)
    positive = negative = 0
    while positive < 15 or negative < 15:
        n = 1 + int(rng.integers(0, 2))
        terms = {
            a: float(rng.normal())
            for a in monomial_basis(n, 2)
            if rng.random() < 0.8
        }
        f = Polynomial(n, terms or {(0,) * n: 1.0})
        candidates = rng.uniform(-2, 2, size=(300, n))
        values = np.array([f.evaluate(p) for p in candidates])
        if positive < 15:
            good = candidates[values >= 0.0][:3]
            if len(good) == 3:
                y = MomentSequence.from_atoms(
                    good, [1.0, 0.5, 2.0], 6 + f.degree
                )
                assert support_nonnegativity_test(y, f, 3).consistent
                positive += 1
        if negative < 15:
            bad = candidates[values <= -0.1][:1]
            ok = candidates[values >= 0.0][:2]
            if len(bad) == 1 and len(ok) == 2:
                atoms = np.vstack([ok, bad])
                d = len(atoms)  # interpolation bound: isolate the bad atom
                y = MomentSequence.from_atoms(
                    atoms, [1.0, 1.0, 1.0], 2 * d + f.degree
                )
                verdict = support_nonnegativity_test(y, f, d)
                assert not verdict.consistent
                negative += 1
    print("\ncriterion 6 PASS: 15 nonnegative-support fixtures consistent, "
          "15 violating fixtures detected")


def test_criterion_7_carleman_diagnostic():
    def gaussian(alpha):
        a = alpha[0]
        return float(math.prod(range(1, a, 2))) if a % 2 == 0 else 0.0

    y = MomentSequence.from_function(1, 18, gaussian)
    report = carleman_diagnostic(y, num_terms=8)
    sums = report.variables[0].partial_sums
    assert all(b > a for a, b in zip(sums, sums[1:]))
    assert sums[-1] > 1.5
    shifted = carleman_diagnostic(y, parse_polynomial("x1^2", 1), num_terms=8)
    assert math.isfinite(shifted.bound_m) and 0 < shifted.bound_m <= 0.5
    print(f"\ncriterion 7 PASS: partial sums strictly increase to "
          f"{sums[-1]:.3f} over 8 terms; shifted-sequence bound "
          f"M = {shifted.bound_m:.3f}")


def test_criterion_8_certificate_search():
    start = time.time()
    res = psatz_search(
        PsatzQuery(MOTZKIN, PLANE, 1e-2, 4, PerturbationKind.TOP_EVEN_POWER)
    )
    assert res.certified and res.d <= 4
    segment = SemialgebraicSystem(
        1, (parse_polynomial("x1", 1), parse_polynomial("1 - x1", 1))
    )
    res2 = psatz_search(PsatzQuery(Polynomial.constant(1, -1.0), segment, 0.1, 4))
    assert not res2.certified
    assert res2.searched_up_to == 4
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"\ncriterion 8 PASS: certified at d={res.d}; negative function "
          f"refused up to d=4 ({elapsed:.1f}s)")


def test_criterion_9_sdpa_export_golden():
    from pathlib import Path

    golden_dir = Path(__file__).parent / "golden"
    from test_sdpa import FIXTURES

    for name, builder in sorted(FIXTURES.items()):
        once = export_sdpa(builder(), comments=("golden fixture",))
        twice = export_sdpa(builder(), comments=("golden fixture",))
        assert once == twice
        assert once == (golden_dir / name).read_text()
    print(f"\ncriterion 9 PASS: {len(FIXTURES)} export fixtures byte-identical "
          f"across runs and against stored goldens")
