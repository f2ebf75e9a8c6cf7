import math
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from sosproj.polynomials import (
    CapacityError,
    DimensionMismatchError,
    Polynomial,
    PolynomialError,
    PolynomialSyntaxError,
    WeightOverflowError,
    WeightSequence,
    format_polynomial,
    monomial_basis,
    parse_polynomial,
    weighted_norm,
)

MOTZKIN = "x1^2*x2^2*(x1^2+x2^2-1)+1/27"


def brute_basis(n, d):
    return sorted(
        (a for a in product(range(d + 1), repeat=n) if sum(a) <= d),
        key=lambda a: (sum(a), a),
    )


def test_monomial_basis_small():
    assert monomial_basis(2, 1) == [(0, 0), (0, 1), (1, 0)]
    assert len(monomial_basis(2, 3)) == 10
    assert len(monomial_basis(3, 2)) == 10


def test_monomial_basis_matches_enumeration():
    for n in range(1, 5):
        for d in range(7):
            basis = monomial_basis(n, d)
            assert basis == brute_basis(n, d)
            assert len(basis) == math.comb(n + d, n)


def test_monomial_basis_capacity():
    with pytest.raises(CapacityError):
        monomial_basis(10, 40)


def test_weighted_norm_values():
    zero = Polynomial.zero(2)
    assert weighted_norm(zero, WeightSequence.l1()) == 0.0
    assert weighted_norm(zero, WeightSequence.lw()) == 0.0
    f = parse_polynomial("1 - 2*x1", 2)
    assert weighted_norm(f, WeightSequence.l1()) == 3.0
    g = parse_polynomial("x1*x2", 2)
    assert weighted_norm(g, WeightSequence.lw()) == 2.0


def test_lw_weights_pair_adjacent_degrees():
    w = WeightSequence.lw()
    for k in range(1, 6):
        assert w.weight_of_degree(2 * k - 1) == w.weight_of_degree(2 * k)
        assert w.weight_of_degree(2 * k) == float(math.factorial(2 * k))


def test_lw_weight_overflow():
    w = WeightSequence.lw()
    w.weight_of_degree(170)
    with pytest.raises(WeightOverflowError):
        w.weight_of_degree(171)


def test_parse_motzkin():
    f = parse_polynomial(MOTZKIN, 2)
    assert f.degree == 6
    assert len(f.terms) == 4
    assert f.coefficient((4, 2)) == 1.0
    assert f.coefficient((2, 4)) == 1.0
    assert f.coefficient((2, 2)) == -1.0
    assert f.coefficient((0, 0)) == pytest.approx(1 / 27)


def test_parse_zero_and_cancellation():
    assert parse_polynomial("0", 3).is_zero()
    f = parse_polynomial("2*x2 - x2", 2)
    assert f.terms == {(0, 1): 1.0}


def test_parse_errors_report_position():
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_polynomial("x1 + @", 2)
    assert err.value.position == 5
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("x3 + 1", 2)
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("x1 * * x2", 2)
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("(x1 + 1", 2)
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("1/0", 1)
    for text, message, position in [
        ("", "empty input", 0),
        ("x1 x2", "trailing input", 3),
        ("(x1 x2)", r"expected '\)'", 4),
    ]:
        with pytest.raises(PolynomialSyntaxError, match=message) as err:
            parse_polynomial(text, 2)
        assert err.value.position == position


HUGE_RATIONAL = "1" + "0" * 400 + "/3*x1^2"


@pytest.mark.parametrize(
    "text", ["1e400*x1", "1e400*x1 - 1e400*x1 + 1", "(1e200*x1)^2", HUGE_RATIONAL]
)
def test_parse_rejects_non_finite_coefficients(text):
    with pytest.raises(PolynomialError, match="not finite"):
        parse_polynomial(text, 1)


@pytest.mark.parametrize("text, position", [("x1^2 + 1e400*x1", 7), (HUGE_RATIONAL, 0)])
def test_overflowing_literal_is_a_syntax_error_at_its_position(text, position):
    with pytest.raises(PolynomialSyntaxError, match="is not finite") as info:
        parse_polynomial(text, 1)
    assert info.value.position == position
    assert str(info.value).endswith(f"(at position {position})")


# More digits than Python converts to an int by default (4300).
LONG_RATIONAL = "1" + "0" * 5000 + "/3*x1^2"


@pytest.mark.parametrize(
    "text, position", [(LONG_RATIONAL, 0), ("x1 + " + LONG_RATIONAL, 5), ("1/3" + "0" * 5000, 0)]
)
def test_too_long_rational_literal_is_a_syntax_error_at_its_position(text, position):
    with pytest.raises(PolynomialSyntaxError, match="too many digits") as info:
        parse_polynomial(text, 1)
    assert info.value.position == position
    assert str(info.value).endswith(f"(at position {position})")


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_polynomial_rejects_non_finite_coefficients(bad):
    with pytest.raises(PolynomialError, match=r"coefficient of \(1, 0\)"):
        Polynomial(2, {(0, 0): 1.0, (1, 0): bad})


@pytest.mark.parametrize(
    "build",
    [lambda: Polynomial(2, {(1, -1): 1.0}), lambda: Polynomial.variable(2, 1) ** -1],
    ids=["negative exponent", "negative power"],
)
def test_negative_exponents_are_rejected(build):
    with pytest.raises(PolynomialError, match="negative"):
        build()


def test_arithmetic():
    x1 = Polynomial.variable(2, 1)
    assert (x1 * x1).terms == {(2, 0): 1.0}
    f = parse_polynomial(MOTZKIN, 2)
    assert (f + f.scale(-1.0)).is_zero()
    one = Polynomial.constant(2, 1.0)
    assert ((one + x1) * (one - x1)).terms == {(0, 0): 1.0, (2, 0): -1.0}
    with pytest.raises(DimensionMismatchError):
        Polynomial.variable(2, 1) + Polynomial.variable(3, 1)


def coeff_strategy():
    return st.floats(
        min_value=-100, max_value=100, allow_nan=False, allow_infinity=False
    ).filter(lambda c: c == 0.0 or abs(c) > 1e-6)


def poly_strategy(n):
    exponents = st.tuples(*([st.integers(0, 4)] * n))
    return st.dictionaries(exponents, coeff_strategy(), max_size=6).map(
        lambda terms: Polynomial(n, terms)
    )


@settings(max_examples=80, deadline=None)
@given(poly_strategy(2), poly_strategy(2))
def test_norm_triangle_inequality(f, g):
    for w in (WeightSequence.l1(), WeightSequence.lw()):
        lhs = weighted_norm(f + g, w)
        rhs = weighted_norm(f, w) + weighted_norm(g, w)
        assert lhs <= rhs * (1 + 1e-12) + 1e-12


@settings(max_examples=80, deadline=None)
@given(poly_strategy(2), st.floats(-50, 50, allow_nan=False))
def test_norm_homogeneity_and_zero(f, c):
    for w in (WeightSequence.l1(), WeightSequence.lw()):
        assert weighted_norm(f.scale(c), w) == pytest.approx(
            abs(c) * weighted_norm(f, w), rel=1e-12, abs=1e-12
        )
        assert (weighted_norm(f, w) == 0.0) == f.is_zero()


@settings(max_examples=80, deadline=None)
@given(poly_strategy(3))
def test_l1_below_lw(f):
    assert weighted_norm(f, WeightSequence.l1()) <= weighted_norm(
        f, WeightSequence.lw()
    ) * (1 + 1e-12)


@settings(max_examples=120, deadline=None)
@given(poly_strategy(2))
def test_print_parse_round_trip(f):
    text = format_polynomial(f)
    assert parse_polynomial(text, 2) == f


def test_canonical_printing_stable():
    f = parse_polynomial("x2 + x1^2 - 1", 2)
    assert str(f) == "-1.0 + x2 + x1^2"
    assert parse_polynomial(str(f), 2) == f
