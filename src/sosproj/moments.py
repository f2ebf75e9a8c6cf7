"""Truncated moment sequences and their matrix machinery.

A moment sequence stores y_alpha for every |alpha| <= max_degree.  From it
we build the Riesz functional, moment and localizing matrices, the basis
matrices that express g(x) * v_d(x) v_d(x)^T monomial by monomial, the dual
norm of the associated functional, necessary-condition checks for
representing measures on a semialgebraic set, and Carleman-style partial-sum
diagnostics.  All checks here are finite truncations: verdicts are named
"consistent up to", never "proved".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .polynomials import (
    Exponent,
    Polynomial,
    WeightOverflowError,
    WeightSequence,
    grevlex_key,
    half_degree,
    monomial_basis,
)
from .sdp import dense_symmetric, eig_range, psd_accepted


class MomentDataError(ValueError):
    """Raised when a moment sequence is incomplete or malformed."""


class DegreeRangeError(ValueError):
    """Raised when an operation needs moments beyond max_degree."""


class MomentSequence:
    """Values y_alpha for all alpha with |alpha| <= max_degree."""

    __slots__ = ("dimension", "max_degree", "_values")

    def __init__(self, dimension: int, max_degree: int, values: Mapping[Exponent, float]):
        if dimension < 1:
            raise MomentDataError(f"dimension must be >= 1, got {dimension}")
        if max_degree < 0:
            raise MomentDataError(f"max_degree must be >= 0, got {max_degree}")
        basis = monomial_basis(dimension, max_degree)
        vals: dict[Exponent, float] = {}
        missing = []
        for alpha in basis:
            if alpha in values:
                vals[alpha] = v = float(values[alpha])
                if not math.isfinite(v):
                    raise MomentDataError(f"moment {alpha} is not finite: {v}")
            else:
                missing.append(alpha)
        if missing:
            raise MomentDataError(
                f"moment sequence missing {len(missing)} entries up to degree "
                f"{max_degree}, first missing alpha = {missing[0]}"
            )
        extra = [a for a in values if tuple(a) not in vals]
        if extra:
            raise MomentDataError(
                f"moment entry {extra[0]} exceeds max_degree {max_degree}"
            )
        self.dimension = dimension
        self.max_degree = max_degree
        self._values = vals

    @classmethod
    def from_function(
        cls, dimension: int, max_degree: int, fn: Callable[[Exponent], float]
    ) -> "MomentSequence":
        return cls(
            dimension,
            max_degree,
            {a: fn(a) for a in monomial_basis(dimension, max_degree)},
        )

    @classmethod
    def dirac(cls, point: Sequence[float], max_degree: int) -> "MomentSequence":
        return cls.from_atoms([point], [1.0], max_degree)

    @classmethod
    def from_atoms(
        cls,
        points: Sequence[Sequence[float]],
        weights: Sequence[float],
        max_degree: int,
    ) -> "MomentSequence":
        """Moments of the atomic measure sum_i weights[i] * delta(points[i])."""
        if len(points) != len(weights):
            raise MomentDataError("points and weights lengths differ")
        if len(points) == 0:
            raise MomentDataError("an atomic measure needs at least one point")
        n = len(points[0])
        if any(len(p) != n for p in points):
            raise MomentDataError("points differ in their number of coordinates")

        def mono(alpha: Exponent) -> float:
            # -0.0 is the additive identity, so one atom's moments are its
            # weighted monomials exactly, signed zeros included.
            total = -0.0
            for p, w in zip(points, weights):
                v = w
                for x, a in zip(p, alpha):
                    if a:
                        v *= float(x) ** a
                total += v
            return total

        try:
            return cls.from_function(n, max_degree, mono)
        except OverflowError:
            raise MomentDataError("an atomic moment is not finite") from None

    @property
    def values(self) -> dict[Exponent, float]:
        return self._values

    def value(self, alpha: Exponent) -> float:
        alpha = tuple(alpha)
        try:
            return self._values[alpha]
        except KeyError:
            raise DegreeRangeError(
                f"moment y_{alpha} (degree {sum(alpha)}) not available; "
                f"max_degree is {self.max_degree}"
            ) from None

    def check_reach(self, what: str, dimension: int, degree: int) -> None:
        """Raise unless `what`, in `dimension` variables and reading moments
        up to `degree`, can be served by this sequence."""
        if dimension != self.dimension:
            raise MomentDataError(
                f"{what} in {dimension} variables, moments in {self.dimension}"
            )
        if degree > self.max_degree:
            raise DegreeRangeError(
                f"{what} needs degree {degree}, max_degree is {self.max_degree}"
            )

    def __repr__(self):
        return f"MomentSequence(n={self.dimension}, max_degree={self.max_degree})"


def riesz(y: MomentSequence, f: Polynomial) -> float:
    """Apply the Riesz functional: sum of f_alpha * y_alpha."""
    y.check_reach("polynomial", f.dimension, f.degree)
    return sum(c * y.value(alpha) for alpha, c in f.terms.items())


def _localizer_check(
    y: MomentSequence, g: Polynomial, order: int
) -> tuple[float, float, bool]:
    """(lmin, lmax, accepted) of the order-`order` localizing matrix of g."""
    lmin, lmax = eig_range(localizing_matrix(y, g, order))
    return lmin, lmax, psd_accepted(lmin, lmax)


def _expansion(
    basis: Sequence[Exponent], terms: Iterable[tuple[Exponent, float]]
) -> Iterator[tuple[int, int, list[tuple[Exponent, float]]]]:
    """The expansion g(x) v(x) v(x)^T = sum_alpha x^alpha B_alpha, by position.

    For each upper-triangle position (i, j) of the basis v, in row-major
    order, yields (i, j, [(alpha, g_delta), ...]) with alpha = basis[i] +
    basis[j] + delta for each term (delta, g_delta) of g, in `terms` order.
    """
    terms = list(terms)
    # A constant g (the moment matrix, the unit block) skips adding delta = 0.
    constant = len(terms) == 1 and not any(terms[0][0])
    for i, beta in enumerate(basis):
        for j in range(i, len(basis)):
            pair = tuple(map(add, beta, basis[j]))
            yield i, j, (
                [(pair, terms[0][1])] if constant
                else [(tuple(map(add, pair, delta)), c) for delta, c in terms]
            )


class BasisMatrixSet:
    """Matrices B_alpha with g(x) v_d(x) v_d(x)^T = sum_alpha x^alpha B_alpha.

    For g = 1 these reduce to the 0/1 indicator matrices of beta + gamma =
    alpha over the order-d monomial basis.  Each B_alpha is stored as its
    upper-triangle (i, j, value) entries in row-major order; the dense
    matrix is built only on request.
    """

    def __init__(self, generator: Polynomial, order: int):
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        self.generator = generator
        self.order = order
        self.basis = monomial_basis(generator.dimension, order)
        self.side = len(self.basis)
        # Distinct generator terms send one (beta, gamma) pair to distinct
        # alphas, so every position of B_alpha is written once, in row-major
        # order, with a nonzero generator coefficient.
        entries: dict[Exponent, list[tuple[int, int, float]]] = {}
        for i, j, terms in self.positions():
            for alpha, coeff in terms:
                entries.setdefault(alpha, []).append((i, j, coeff))
        self._entries = entries

    def positions(self) -> Iterator[tuple[int, int, list[tuple[Exponent, float]]]]:
        """(i, j, [(alpha, B_alpha[i, j]), ...]) per position i <= j, row-major."""
        return _expansion(self.basis, self.generator.terms.items())

    def nonzero_exponents(self) -> list[Exponent]:
        return sorted(self._entries, key=grevlex_key)

    def matrix(self, alpha: Exponent) -> np.ndarray:
        return dense_symmetric(self.side, self._entries.get(tuple(alpha), ()))

    def entries(self, alpha: Exponent) -> list[tuple[int, int, float]]:
        """Upper-triangle (i, j, value) entries of B_alpha, i <= j."""
        return list(self._entries.get(tuple(alpha), ()))


def moment_matrix(y: MomentSequence, d: int) -> np.ndarray:
    """Matrix with entry (beta, gamma) = y_{beta+gamma}: the localizing matrix of 1."""
    return localizing_matrix(y, Polynomial.constant(y.dimension, 1.0), d)


def localizing_matrix(y: MomentSequence, g: Polynomial, d: int) -> np.ndarray:
    """Moment matrix of the shifted sequence z_alpha = L_y(g * x^alpha)."""
    y.check_reach(
        f"order-{d} localizing matrix of a deg-{g.degree} generator",
        g.dimension,
        2 * d + g.degree,
    )
    basis = monomial_basis(y.dimension, d)
    vals, mat = y.values, np.empty((len(basis), len(basis)))
    for i, j, terms in _expansion(basis, g.terms.items()):
        v = 0.0
        for alpha, coeff in terms:
            v += coeff * vals[alpha]
        mat[i, j] = mat[j, i] = v
    return mat


@dataclass(frozen=True)
class SupportTestVerdict:
    """Finite-truncation verdict for nonnegativity on the support."""

    consistent: bool
    order: int                 # order checked (consistent) or violating order
    min_eigenvalue: float      # most negative eigenvalue seen at that order

    def __str__(self):
        if self.consistent:
            return f"ConsistentUpTo({self.order})"
        return f"Violated(order={self.order}, eig={self.min_eigenvalue:.3e})"


def support_nonnegativity_test(
    y: MomentSequence, f: Polynomial, d: int
) -> SupportTestVerdict:
    """Check M_k(f y) PSD for k = 0..d; first violation wins."""
    if d < 0:
        raise ValueError(f"order must be >= 0, got {d}")
    y.check_reach(
        f"order-{d} support test of a deg-{f.degree} polynomial",
        f.dimension,
        2 * d + f.degree,
    )
    for k in range(d + 1):
        lmin, _lmax, ok = _localizer_check(y, f, k)
        if not ok:
            return SupportTestVerdict(False, k, lmin)
    return SupportTestVerdict(True, d, lmin)


def dual_norm(y: MomentSequence, w: WeightSequence, degree: int) -> float:
    """Finite truncation of sup |y_alpha| / w_alpha over the stored alpha
    with |alpha| <= degree.

    A weight past double range (lw, |alpha| > 170) divides exactly: a
    finite |y_alpha| over it is below 1.
    """
    best = 0.0
    for alpha, v in y.values.items():
        if sum(alpha) <= degree:
            try:
                quotient = abs(v) / w.weight(alpha)
            except WeightOverflowError:
                # Python divides integers with one correct rounding.
                num, den = abs(v).as_integer_ratio()
                quotient = num / (den * w.exact_weight_of_degree(sum(alpha)))
            best = max(best, quotient)
    return best


@dataclass(frozen=True)
class GeneratorCheck:
    label: int                 # 0 is the implicit unit generator
    order: int
    min_eigenvalue: float
    max_eigenvalue: float
    psd_ok: bool
    skipped: bool = False      # order d - v_j negative; nothing to check


@dataclass(frozen=True)
class KMomentReport:
    checks: tuple[GeneratorCheck, ...]
    dual_norm_bound: float     # dual_norm against lw weights, |alpha| <= 2d
    necessary_conditions_hold: bool
    violated_label: int | None = None
    violated_eigenvalue: float | None = None

    def __str__(self):
        if self.necessary_conditions_hold:
            return f"NecessaryConditionsHold(M={self.dual_norm_bound:.6g})"
        return (
            f"Violated(generator={self.violated_label}, "
            f"eig={self.violated_eigenvalue:.3e})"
        )


def kmoment_condition_check(
    y: MomentSequence, system, d: int
) -> KMomentReport:
    """Necessary conditions for y to come from a measure on the set of system.

    Checks PSD-ness of the moment matrix at order d and of each localizing
    matrix at order d - v_j, plus the dual-norm bound over the moments of
    degree at most 2d, the ones those matrices read.  Only the
    truncated, necessary direction is decided here.
    """
    if d < 0:
        raise ValueError(f"order must be >= 0, got {d}")
    # The unit generator's order-d moment matrix reads the most: degree 2d.
    y.check_reach("system", system.dimension, 2 * d)
    unit = Polynomial.constant(y.dimension, 1.0)
    checks: list[GeneratorCheck] = []
    for j, g in enumerate((unit, *system.generators)):
        order = d - half_degree(g)
        if order < 0:
            checks.append(GeneratorCheck(j, order, 0.0, 0.0, True, skipped=True))
            continue
        checks.append(GeneratorCheck(j, order, *_localizer_check(y, g, order)))
    bound = dual_norm(y, WeightSequence.lw(), 2 * d)
    violated = next((c for c in checks if not c.psd_ok), None)
    if violated is None:
        return KMomentReport(tuple(checks), bound, True)
    return KMomentReport(
        tuple(checks), bound, False, violated.label, violated.min_eigenvalue
    )


@dataclass(frozen=True)
class CarlemanVariableReport:
    variable: int                      # 1-based
    terms: tuple[float, ...]           # L_z(x_i^{2k})^(-1/2k), 0.0 where flagged
    flagged: tuple[bool, ...]          # True where L_z(x_i^{2k}) <= 0
    partial_sums: tuple[float, ...]    # running sums of terms


@dataclass(frozen=True)
class CarlemanReport:
    shift: Polynomial                  # the multiplier f (1 for the plain case)
    num_terms: int
    variables: tuple[CarlemanVariableReport, ...]
    bound_m: float                     # max_k L_y(x_i^{2k}) / (2k)! on the base y


def carleman_diagnostic(
    y: MomentSequence, f: Polynomial | None = None, num_terms: int = 8
) -> CarlemanReport:
    """Partial sums of L_z(x_i^{2k})^(-1/2k), z_alpha = L_y(x^alpha * f).

    Divergence of the full series cannot be certified numerically; this
    reports the first num_terms terms and the growth they show.  Terms with
    nonpositive L_z are flagged and contribute zero.
    """
    n = y.dimension
    if f is None:
        f = Polynomial.constant(n, 1.0)
    y.check_reach(
        f"{num_terms} Carleman terms with a deg-{f.degree} shift",
        f.dimension,
        2 * num_terms + f.degree,
    )
    w = WeightSequence.lw()
    reports = []
    bound = 0.0
    for i in range(n):
        terms = []
        flagged = []
        sums = []
        running = 0.0
        for k in range(1, num_terms + 1):
            alpha = tuple(2 * k if t == i else 0 for t in range(n))
            z = riesz(y, f * Polynomial(n, {alpha: 1.0}))
            bound = max(bound, y.value(alpha) / w.weight(alpha))
            if z > 0.0:
                term = z ** (-1.0 / (2 * k))
                terms.append(term)
                flagged.append(False)
                running += term
            else:
                terms.append(0.0)
                flagged.append(True)
            sums.append(running)
        reports.append(
            CarlemanVariableReport(i + 1, tuple(terms), tuple(flagged), tuple(sums))
        )
    return CarlemanReport(f, num_terms, tuple(reports), bound)


# ---------------------------------------------------------------------------
# Moment sequence text format: header "n <n> degree <D>", then one line
# "a_1 ... a_n value" per entry.  Completeness is required on read.
# ---------------------------------------------------------------------------

def format_moment_text(y: MomentSequence) -> str:
    lines = [f"n {y.dimension} degree {y.max_degree}"]
    for alpha in monomial_basis(y.dimension, y.max_degree):
        coords = " ".join(str(a) for a in alpha)
        lines.append(f"{coords} {y.value(alpha)!r}")
    return "\n".join(lines) + "\n"


def parse_moment_text(text: str) -> MomentSequence:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise MomentDataError("empty moment file")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "n" or header[2] != "degree":
        raise MomentDataError(
            f"bad header {lines[0]!r}; expected 'n <n> degree <D>'"
        )
    n, deg = int(header[1]), int(header[3])
    values: dict[Exponent, float] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != n + 1:
            raise MomentDataError(f"bad moment line {ln!r}; expected {n + 1} fields")
        alpha = tuple(int(p) for p in parts[:n])
        if alpha in values:
            raise MomentDataError(f"repeated moment line for exponent {alpha}")
        values[alpha] = float(parts[n])
    return MomentSequence(n, deg, values)
