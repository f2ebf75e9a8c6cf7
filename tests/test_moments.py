import math
from fractions import Fraction

import numpy as np
import pytest

from sosproj.cones import SemialgebraicSystem
from sosproj.moments import (
    BasisMatrixSet,
    DegreeRangeError,
    MomentDataError,
    MomentSequence,
    carleman_diagnostic,
    dual_norm,
    format_moment_text,
    kmoment_condition_check,
    localizing_matrix,
    moment_matrix,
    parse_moment_text,
    riesz,
    support_nonnegativity_test,
)
from sosproj.polynomials import (
    Polynomial,
    WeightOverflowError,
    WeightSequence,
    monomial_basis,
    parse_polynomial,
)

RNG = np.random.default_rng(20240809)


def uniform_moments_1d(max_degree, lo=-1.0, hi=1.0):
    """Moments of Lebesgue measure on [lo, hi] (not normalized)."""

    def mono(alpha):
        a = alpha[0]
        return (hi ** (a + 1) - lo ** (a + 1)) / (a + 1)

    return MomentSequence.from_function(1, max_degree, mono)


def box_moments_2d(max_degree, lo=0.0, hi=1.0):
    def mono(alpha):
        out = 1.0
        for a in alpha:
            out *= (hi ** (a + 1) - lo ** (a + 1)) / (a + 1)
        return out

    return MomentSequence.from_function(2, max_degree, mono)


def random_poly(n, degree, rng, density=0.7):
    terms = {
        a: float(rng.normal())
        for a in monomial_basis(n, degree)
        if rng.random() < density
    }
    if not terms:
        terms = {(0,) * n: 1.0}
    return Polynomial(n, terms)


def test_riesz_dirac_evaluates():
    p = [0.3, -1.2]
    y = MomentSequence.dirac(p, 6)
    f = parse_polynomial("1 + 2*x1*x2 - x2^3", 2)
    assert riesz(y, f) == pytest.approx(f.evaluate(p), rel=1e-12)
    one = Polynomial.constant(2, 1.0)
    assert riesz(y, one) == pytest.approx(y.value((0, 0)))


def test_riesz_uniform_square():
    y = uniform_moments_1d(4)
    xsq = parse_polynomial("x1^2", 1)
    assert riesz(y, xsq) == pytest.approx(2.0 / 3.0)


def test_dirac_is_the_point_monomials_exactly():
    # Signed zeros included: 0.0 * -0.5 is -0.0.
    p = [0.0, -0.5]
    y = MomentSequence.dirac(p, 3)
    for alpha, v in y.values.items():
        assert v.hex() == (1.0 * p[0] ** alpha[0] * p[1] ** alpha[1]).hex()


@pytest.mark.parametrize(
    "points, weights",
    [([[1.0, 2.0], [3.0]], [1.0, 1.0]), ([], []), ([[1.0], [2.0]], [1.0])],
    ids=["ragged", "empty", "fewer weights than points"],
)
def test_from_atoms_rejects_malformed_points(points, weights):
    with pytest.raises(MomentDataError):
        MomentSequence.from_atoms(points, weights, 2)


@pytest.mark.parametrize(
    "build",
    [
        lambda: MomentSequence(0, 2, {}),
        lambda: MomentSequence(1, -1, {}),
        lambda: BasisMatrixSet(Polynomial.constant(1, 1.0), -1),
    ],
    ids=["dimension 0", "max_degree -1", "basis order -1"],
)
def test_moment_machinery_rejects_sizes_below_range(build):
    with pytest.raises(ValueError, match="must be >= "):
        build()


def test_riesz_degree_error():
    y = MomentSequence.dirac([1.0], 2)
    with pytest.raises(DegreeRangeError):
        riesz(y, parse_polynomial("x1^4", 1))


@pytest.mark.parametrize(
    "build",
    [
        lambda y: y.value((3,)),
        lambda y: localizing_matrix(y, parse_polynomial("1 - x1^2", 1), 1),
        lambda y: support_nonnegativity_test(y, parse_polynomial("1 - x1^2", 1), 1),
        lambda y: kmoment_condition_check(y, SemialgebraicSystem(1), 2),
    ],
    ids=["moment value", "localizing matrix", "support test", "K-moment check"],
)
def test_moment_machinery_rejects_degrees_above_max_degree(build):
    with pytest.raises(DegreeRangeError, match="max_degree is 2"):
        build(MomentSequence.dirac([1.0], 2))


def test_riesz_dimension_error():
    y = MomentSequence.dirac([0.5, 0.25], 4)
    with pytest.raises(MomentDataError, match="1 variables, moments in 2"):
        riesz(y, parse_polynomial("x1^2", 1))


def test_basis_matrices_unit_n1():
    B = BasisMatrixSet(Polynomial.constant(1, 1.0), 1)
    assert np.array_equal(B.matrix((0,)), [[1.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(B.matrix((1,)), [[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(B.matrix((2,)), [[0.0, 0.0], [0.0, 1.0]])


def test_basis_matrices_shifted_generator():
    # g = 1 - x^2 gives B_alpha = B0_alpha - B0_{alpha+2} entrywise.
    g = parse_polynomial("1 - x1^2", 1)
    B = BasisMatrixSet(g, 1)
    B0 = BasisMatrixSet(Polynomial.constant(1, 1.0), 1)
    for a in range(5):
        expected = B0.matrix((a,)) - (B0.matrix((a - 2,)) if a >= 2 else 0.0)
        assert np.allclose(B.matrix((a,)), expected)


@pytest.mark.parametrize("n,d", [(1, 3), (2, 2), (3, 1), (2, 3)])
def test_basis_matrices_reconstruction_identity(n, d):
    # sum_alpha B_alpha p^alpha must equal g(p) v(p) v(p)^T at random points.
    g = random_poly(n, 2, RNG)
    B = BasisMatrixSet(g, d)
    basis = monomial_basis(n, d)
    norm_g = sum(abs(c) for c in g.terms.values())
    for _ in range(20):
        p = RNG.uniform(-1.5, 1.5, size=n)
        v = np.array([float(np.prod(p**np.array(a))) for a in basis])
        expected = g.evaluate(p) * np.outer(v, v)
        total = np.zeros_like(expected)
        for alpha in B.nonzero_exponents():
            total += B.matrix(alpha) * float(np.prod(p**np.array(alpha)))
        scale = 1e-9 * (1.0 + norm_g * float(v @ v))
        assert np.max(np.abs(total - expected)) <= scale


def test_moment_matrix_dirac_rank_one():
    p = [0.7, -0.4]
    y = MomentSequence.dirac(p, 4)
    M = moment_matrix(y, 2)
    basis = monomial_basis(2, 2)
    v = np.array([float(np.prod(np.array(p) ** np.array(a))) for a in basis])
    assert np.allclose(M, np.outer(v, v), atol=1e-12)
    assert np.linalg.matrix_rank(M, tol=1e-10) == 1


def test_moment_matrix_zero_and_square_box():
    zero = MomentSequence.from_function(2, 2, lambda a: 0.0)
    assert np.array_equal(moment_matrix(zero, 1), np.zeros((3, 3)))
    y = box_moments_2d(2, lo=-1.0, hi=1.0)
    M = moment_matrix(y, 1)
    # closed-form integrals over the square: mass 4, odd moments vanish
    expected = np.array(
        [[4.0, 0.0, 0.0], [0.0, 4.0 / 3.0, 0.0], [0.0, 0.0, 4.0 / 3.0]]
    )
    assert np.allclose(M, expected, atol=1e-12)


def test_localizing_unit_equals_moment_matrix():
    y = box_moments_2d(4)
    one = Polynomial.constant(2, 1.0)
    assert np.allclose(localizing_matrix(y, one, 2), moment_matrix(y, 2))


def test_localizing_dirac_scales_by_g():
    p = [0.5, 0.25]
    g = parse_polynomial("1 - x1 - x2", 2)
    y = MomentSequence.dirac(p, 4)
    M = localizing_matrix(y, g, 1)
    basis = monomial_basis(2, 1)
    v = np.array([float(np.prod(np.array(p) ** np.array(a))) for a in basis])
    assert np.allclose(M, g.evaluate(p) * np.outer(v, v), atol=1e-12)


def test_localizing_matches_atomic_brute_force():
    points = [[0.2, 0.3], [-0.5, 0.8], [1.1, -0.2]]
    weights = [0.5, 1.5, 0.25]
    y = MomentSequence.from_atoms(points, weights, 6)
    g = random_poly(2, 2, RNG)
    M = localizing_matrix(y, g, 2)
    basis = monomial_basis(2, 2)
    brute = np.zeros_like(M)
    for p, w in zip(points, weights):
        v = np.array([float(np.prod(np.array(p) ** np.array(a))) for a in basis])
        brute += w * g.evaluate(p) * np.outer(v, v)
    assert np.max(np.abs(M - brute)) <= 1e-10 * (1.0 + np.max(np.abs(brute)))


def test_localizing_entrywise_equals_basis_matrix_sum():
    # 100 random (g, y, d, n) instances, 1e-12 absolute agreement.
    rng = np.random.default_rng(7)
    for trial in range(100):
        n = 1 + trial % 3
        d = 1 + trial % 3
        g = random_poly(n, 2, rng)
        max_deg = 2 * d + g.degree
        y = MomentSequence.from_function(
            n, max_deg, lambda a: float(rng.uniform(-1, 1))
        )
        M1 = localizing_matrix(y, g, d)
        B = BasisMatrixSet(g, d)
        M2 = np.zeros_like(M1)
        for alpha in B.nonzero_exponents():
            M2 += y.value(alpha) * B.matrix(alpha)
        assert np.max(np.abs(M1 - M2)) <= 1e-12 * max(1.0, np.max(np.abs(M1)))


def test_support_test_consistent_on_halfline():
    def mono(alpha):
        return 1.0 / (alpha[0] + 1)  # Lebesgue on [0,1]

    y = MomentSequence.from_function(1, 5, mono)
    assert repr(y) == "MomentSequence(n=1, max_degree=5)"
    verdict = support_nonnegativity_test(y, parse_polynomial("x1", 1), 2)
    assert verdict.consistent
    assert verdict.order == 2
    assert str(verdict) == "ConsistentUpTo(2)"


def test_support_test_violation_on_symmetric_interval():
    y = uniform_moments_1d(3)
    verdict = support_nonnegativity_test(y, parse_polynomial("x1", 1), 1)
    assert not verdict.consistent
    assert verdict.order == 1
    assert verdict.min_eigenvalue == pytest.approx(-2.0 / 3.0, rel=1e-12)
    assert str(verdict) == "Violated(order=1, eig=-6.667e-01)"


def test_support_test_dirac_positive():
    y = MomentSequence.dirac([0.5], 8)
    f = parse_polynomial("1 + x1^2", 1)
    for d in range(4):
        assert support_nonnegativity_test(y, f, d).consistent


def test_atomic_measures_stay_consistent():
    # Forward direction on random atomic fixtures with atoms in {f >= 0}.
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(30):
        f = random_poly(1, 2, rng)
        candidates = rng.uniform(-2, 2, size=200)
        atoms = [[float(p)] for p in candidates if f.evaluate([p]) >= 0][:3]
        if len(atoms) < 3:
            continue  # f negative nearly everywhere; fixture not usable
        y = MomentSequence.from_atoms(atoms, [1.0, 0.5, 2.0], 8 + f.degree)
        assert support_nonnegativity_test(y, f, 4).consistent
        checked += 1
    assert checked >= 10


def test_dual_norm():
    zero = MomentSequence.from_function(2, 2, lambda a: 0.0)
    assert dual_norm(zero, WeightSequence.lw(), 2) == 0.0
    values = {a: 0.0 for a in monomial_basis(2, 2)}
    values[(1, 1)] = 6.0
    y = MomentSequence(2, 2, values)
    assert dual_norm(y, WeightSequence.lw(), 2) == pytest.approx(3.0)
    assert dual_norm(y, WeightSequence.lw(), 1) == 0.0
    # Dirac at p: finite truncation of the dual norm stays below exp(max |p_i|)
    p = [0.8, -1.4]
    yd = MomentSequence.dirac(p, 10)
    assert dual_norm(yd, WeightSequence.lw(), 10) <= math.exp(1.4)


def test_dual_norm_monotone_in_degree():
    p = [1.3]
    prev = 0.0
    for deg in range(2, 12, 2):
        y = MomentSequence.dirac(p, deg)
        val = dual_norm(y, WeightSequence.lw(), deg)
        assert val >= prev - 1e-15
        prev = val


def test_negative_orders_are_rejected():
    y = MomentSequence.dirac([0.5], 4)
    system = SemialgebraicSystem(1, (parse_polynomial("x1", 1),))
    with pytest.raises(ValueError, match="order must be >= 0"):
        support_nonnegativity_test(y, parse_polynomial("x1", 1), -1)
    with pytest.raises(ValueError, match="order must be >= 0"):
        kmoment_condition_check(y, system, -1)


def test_kmoment_box_holds():
    system = SemialgebraicSystem(
        2,
        tuple(
            parse_polynomial(t, 2)
            for t in ("x1", "1 - x1", "x2", "1 - x2")
        ),
    )
    y = box_moments_2d(5)
    report = kmoment_condition_check(y, system, 2)
    assert report.necessary_conditions_hold
    assert report.dual_norm_bound > 0


def test_kmoment_dirac_outside_violated():
    system = SemialgebraicSystem(2, (parse_polynomial("1 - x1^2 - x2^2", 2),))
    y = MomentSequence.dirac([2.0, 0.5], 4)
    report = kmoment_condition_check(y, system, 1)
    assert not report.necessary_conditions_hold
    assert report.violated_label == 1
    assert report.violated_eigenvalue < 0


def test_kmoment_zero_sequence_holds():
    zero = MomentSequence.from_function(2, 4, lambda a: 0.0)
    system = SemialgebraicSystem(2, (parse_polynomial("x1", 2),))
    report = kmoment_condition_check(zero, system, 1)
    assert report.necessary_conditions_hold
    assert report.dual_norm_bound == 0.0


def test_kmoment_bound_reads_only_the_checked_degrees():
    # Stored moments above degree 2d are never read: their lw weights would
    # overflow past degree 170, and the bound over |alpha| <= 2 is y_0 = 1.
    y = MomentSequence.dirac((0.5,), 172)
    report = kmoment_condition_check(y, SemialgebraicSystem(1), 1)
    assert report.necessary_conditions_hold
    assert report.dual_norm_bound == 1.0
    assert str(report) == "NecessaryConditionsHold(M=1)"


def test_kmoment_bound_divides_exactly_past_double_range():
    # At d = 86 the bound reads degrees 171 and 172, whose lw weight 172! is
    # past double range.
    y = MomentSequence.dirac((0.5,), 172)
    report = kmoment_condition_check(y, SemialgebraicSystem(1), 86)
    assert report.necessary_conditions_hold
    assert report.dual_norm_bound == 1.0
    # Those two degrees divide exactly; every other keeps its float quotient.
    top = MomentSequence.from_function(1, 172, lambda a: 1e300 if a[0] > 170 else 0.0)
    assert dual_norm(top, WeightSequence.lw(), 172) == float(
        Fraction(1e300) / math.factorial(172)
    )
    low = MomentSequence.from_function(1, 172, lambda a: 1e300 if a[0] == 170 else 0.0)
    assert dual_norm(low, WeightSequence.lw(), 172) == 1e300 / float(math.factorial(170))


def gaussian_moments_1d(max_degree):
    def mono(alpha):
        a = alpha[0]
        if a % 2 == 1:
            return 0.0
        return float(math.prod(range(1, a, 2))) if a else 1.0  # (a-1)!!

    return MomentSequence.from_function(1, max_degree, mono)


def test_carleman_gaussian_partial_sums_grow():
    y = gaussian_moments_1d(18)
    report = carleman_diagnostic(y, num_terms=5)
    sums = report.variables[0].partial_sums
    assert all(b > a for a, b in zip(sums, sums[1:]))
    assert sums[-1] > 1.5
    assert not any(report.variables[0].flagged)


def test_carleman_dirac_at_zero_flagged():
    y = MomentSequence.dirac([0.0], 12)
    report = carleman_diagnostic(y, num_terms=4)
    assert all(report.variables[0].flagged)
    assert report.variables[0].partial_sums[-1] == 0.0


def test_carleman_shifted_by_square():
    y = gaussian_moments_1d(18)
    f = parse_polynomial("x1^2", 1)
    report = carleman_diagnostic(y, f, num_terms=5)
    sums = report.variables[0].partial_sums
    assert all(b > a for a, b in zip(sums, sums[1:]))
    # Base-sequence bound of the shifted-sequence lemma stays finite & small.
    assert 0.0 < report.bound_m <= 0.5 + 1e-12


def test_carleman_degree_guard():
    y = gaussian_moments_1d(6)
    with pytest.raises(DegreeRangeError):
        carleman_diagnostic(y, num_terms=4)


def test_carleman_bound_past_weight_range_is_a_weight_error():
    # The 86th term's bound divides by 172!, which exceeds double range.
    y = MomentSequence.dirac((0.5,), 172)
    with pytest.raises(WeightOverflowError, match="degree > 170"):
        carleman_diagnostic(y, num_terms=86)


def test_carleman_rejects_shift_in_other_variables():
    y = MomentSequence.dirac([0.5], 8)
    with pytest.raises(MomentDataError, match="2 variables, moments in 1"):
        carleman_diagnostic(y, parse_polynomial("x1*x2", 2), num_terms=2)


def test_moment_text_round_trip():
    y = box_moments_2d(3)
    text = format_moment_text(y)
    z = parse_moment_text(text)
    assert z.dimension == 2 and z.max_degree == 3
    for alpha in monomial_basis(2, 3):
        assert z.value(alpha) == y.value(alpha)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_moment_text_rejects_non_finite_values(value):
    with pytest.raises(MomentDataError, match="not finite"):
        parse_moment_text(f"n 1 degree 1\n0 1.0\n1 {value}\n")


def test_moment_sequence_rejects_non_finite_values():
    with pytest.raises(MomentDataError, match=r"moment \(0,\) is not finite"):
        MomentSequence(1, 1, {(0,): math.nan, (1,): 1.0})


def test_atomic_moment_power_overflow_is_a_moment_error():
    # 1e200 ** 2 raises OverflowError inside the power itself.
    with pytest.raises(MomentDataError, match="atomic moment is not finite"):
        MomentSequence.from_atoms([[1e200]], [1.0], 4)


def test_atomic_moment_product_overflow_is_a_moment_error():
    # The weight times the point is inf without an exception.
    with pytest.raises(MomentDataError, match=r"moment \(1,\) is not finite"):
        MomentSequence.from_atoms([[1e200]], [1e200], 1)


def test_moment_text_requires_completeness():
    text = "n 2 degree 2\n0 0 1.0\n"
    with pytest.raises(MomentDataError):
        parse_moment_text(text)
    with pytest.raises(MomentDataError, match="empty moment file"):
        parse_moment_text("")
    with pytest.raises(MomentDataError, match="bad header"):
        parse_moment_text("n 1\n0 1.0\n")
    with pytest.raises(MomentDataError, match="expected 2 fields"):
        parse_moment_text("n 1 degree 1\n0 1.0 2.0\n1 1.0\n")


def test_moment_text_rejects_repeated_exponent():
    text = "n 1 degree 1\n0 1.0\n1 0.5\n1 9.0\n"
    with pytest.raises(MomentDataError, match="repeated"):
        parse_moment_text(text)


def test_localizing_matrix_rejects_dimension_mismatch():
    y = MomentSequence.dirac([0.5], 4)
    g = parse_polynomial("1 - x1^2 - x2^2", 2)
    with pytest.raises(MomentDataError, match="2 variables, moments in 1"):
        localizing_matrix(y, g, 1)


def test_moment_sequence_rejects_extra_degree():
    values = {a: 1.0 for a in monomial_basis(1, 2)}
    values[(4,)] = 1.0
    with pytest.raises(MomentDataError):
        MomentSequence(1, 2, values)


def test_atomic_moment_matrix_psd_with_rank_bound():
    rng = np.random.default_rng(23)
    for _ in range(5):
        r = int(rng.integers(1, 4))
        points = rng.uniform(-1, 1, size=(r, 2))
        weights = rng.uniform(0.1, 2.0, size=r)
        y = MomentSequence.from_atoms(points, weights, 6)
        for d in range(4):
            M = moment_matrix(y, d)
            eigs = np.linalg.eigvalsh(M)
            assert eigs[0] >= -1e-10 * max(1.0, eigs[-1])
            assert np.linalg.matrix_rank(M, tol=1e-8) <= r
