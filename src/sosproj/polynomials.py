"""Sparse multivariate polynomials, monomial bases, and coefficient norms.

Monomials are exponent tuples alpha in N^n; a polynomial is a sparse map
from exponents to float coefficients.  The global monomial order is graded
lexicographic: sort by total degree, ties broken by the plain tuple order.
Everything here is immutable after construction and purely deterministic.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from math import comb
from typing import Mapping

Exponent = tuple[int, ...]

# Hard cap on the size of an enumerated monomial basis.
BASIS_CAPACITY = 2_000_000

# (2k)! overflows double precision past k = 85, i.e. |alpha| > 170.
MAX_WEIGHT_DEGREE = 170


class PolynomialError(ValueError):
    """Base class for polynomial construction and parsing errors."""


class PolynomialSyntaxError(PolynomialError):
    """Raised on malformed polynomial text; carries the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DimensionMismatchError(PolynomialError):
    """Raised when operands live in different ambient dimensions."""


class CapacityError(PolynomialError):
    """Raised when a requested monomial basis exceeds the memory budget."""


class WeightOverflowError(PolynomialError):
    """Raised when a factorial weight exceeds double-precision range."""


def grevlex_key(alpha: Exponent) -> tuple[int, Exponent]:
    """Graded-lex sort key: total degree first, then plain tuple order."""
    return (sum(alpha), alpha)


def count_monomials(n: int, d: int) -> int:
    """Number of monomials in n variables of total degree at most d."""
    return comb(n + d, n)


def monomial_basis(n: int, d: int) -> list[Exponent]:
    """All exponents alpha with |alpha| <= d, in graded-lex order."""
    if n < 1:
        raise PolynomialError(f"dimension must be >= 1, got {n}")
    if d < 0:
        raise PolynomialError(f"degree must be >= 0, got {d}")
    size = count_monomials(n, d)
    if size > BASIS_CAPACITY:
        raise CapacityError(
            f"monomial basis of size {size} (n={n}, d={d}) exceeds capacity "
            f"{BASIS_CAPACITY}"
        )
    out: list[Exponent] = []

    def extend(prefix: list[int], remaining: int, slots: int) -> None:
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for v in range(remaining + 1):
            extend(prefix + [v], remaining - v, slots - 1)

    # Enumerate degree by degree; within a degree the recursion above emits
    # exponents in increasing tuple order.
    for deg in range(d + 1):
        extend([], deg, n)
    return out


class Polynomial:
    """Immutable sparse polynomial: exponent tuple -> float coefficient.

    Zero coefficients are never stored; the zero polynomial has no terms.
    """

    __slots__ = ("dimension", "_terms", "degree")

    def __init__(self, dimension: int, terms: Mapping[Exponent, float]):
        if dimension < 1:
            raise PolynomialError(f"dimension must be >= 1, got {dimension}")
        clean: dict[Exponent, float] = {}
        for alpha, coeff in terms.items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != dimension:
                raise DimensionMismatchError(
                    f"exponent {alpha} has length {len(alpha)}, expected {dimension}"
                )
            if any(a < 0 for a in alpha):
                raise PolynomialError(f"negative exponent in {alpha}")
            c = float(coeff)
            if c != 0.0:
                if not math.isfinite(c):
                    raise PolynomialError(f"coefficient of {alpha} is not finite: {c}")
                clean[alpha] = c
        self.dimension = dimension
        self._terms = dict(sorted(clean.items(), key=lambda kv: grevlex_key(kv[0])))
        self.degree = max((sum(a) for a in self._terms), default=0)

    @classmethod
    def constant(cls, dimension: int, value: float) -> "Polynomial":
        return cls(dimension, {(0,) * dimension: value})

    @classmethod
    def variable(cls, dimension: int, index: int) -> "Polynomial":
        """The monomial x_index, with 1-based index as in the text format."""
        if not 1 <= index <= dimension:
            raise PolynomialError(
                f"variable index {index} out of range 1..{dimension}"
            )
        alpha = [0] * dimension
        alpha[index - 1] = 1
        return cls(dimension, {tuple(alpha): 1.0})

    @property
    def terms(self) -> dict[Exponent, float]:
        """Terms in graded-lex order.  Treat as read-only."""
        return self._terms

    def coefficient(self, alpha: Exponent) -> float:
        return self._terms.get(tuple(alpha), 0.0)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dimension == other.dimension and self._terms == other._terms

    def __hash__(self):
        return hash((self.dimension, tuple(self._terms.items())))

    def _check_dim(self, other: "Polynomial") -> None:
        if self.dimension != other.dimension:
            raise DimensionMismatchError(
                f"dimension mismatch: {self.dimension} vs {other.dimension}"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_dim(other)
        out = dict(self._terms)
        for alpha, c in other._terms.items():
            out[alpha] = out.get(alpha, 0.0) + c
        return Polynomial(self.dimension, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1.0)

    def __neg__(self) -> "Polynomial":
        return self.scale(-1.0)

    def scale(self, c: float) -> "Polynomial":
        return Polynomial(
            self.dimension, {a: v * c for a, v in self._terms.items()}
        )

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_dim(other)
        out: dict[Exponent, float] = {}
        for a, ca in self._terms.items():
            for b, cb in other._terms.items():
                ab = tuple(x + y for x, y in zip(a, b))
                out[ab] = out.get(ab, 0.0) + ca * cb
        return Polynomial(self.dimension, out)

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise PolynomialError("negative power")
        result = Polynomial.constant(self.dimension, 1.0)
        for _ in range(k):
            result = result * self
        return result

    def evaluate(self, point) -> float:
        total = 0.0
        for alpha, c in self._terms.items():
            m = c
            for x, a in zip(point, alpha):
                if a:
                    m *= float(x) ** a
            total += m
        return total

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.dimension}, {format_polynomial(self)!r})"


def half_degree(p: Polynomial) -> int:
    """ceil(deg(p) / 2)."""
    return (p.degree + 1) // 2


class WeightKind(Enum):
    L1 = "l1"
    LW = "lw"


class WeightSequence:
    """Coefficient weights: constant 1 (l1) or (2*ceil(|alpha|/2))! (lw)."""

    def __init__(self, kind: WeightKind):
        self.kind = kind

    @classmethod
    def l1(cls) -> "WeightSequence":
        return cls(WeightKind.L1)

    @classmethod
    def lw(cls) -> "WeightSequence":
        return cls(WeightKind.LW)

    @classmethod
    def from_name(cls, name: str) -> "WeightSequence":
        return cls(WeightKind(name.lower()))

    def exact_weight_of_degree(self, deg: int) -> int:
        """The weight of degree deg as an integer, past double range too."""
        if self.kind is WeightKind.L1:
            return 1
        return math.factorial(2 * ((deg + 1) // 2))

    def weight_of_degree(self, deg: int) -> float:
        if self.kind is WeightKind.LW and deg > MAX_WEIGHT_DEGREE:
            raise WeightOverflowError(
                f"(2*ceil({deg}/2))! exceeds double range (degree > {MAX_WEIGHT_DEGREE})"
            )
        return float(self.exact_weight_of_degree(deg))

    def weight(self, alpha: Exponent) -> float:
        return self.weight_of_degree(sum(alpha))

    def __repr__(self):
        return f"WeightSequence({self.kind.value})"


def weighted_norm(f: Polynomial, w: WeightSequence) -> float:
    """Weighted coefficient l1 norm: sum of w_alpha * |f_alpha|."""
    return sum(w.weight(alpha) * abs(c) for alpha, c in f.terms.items())


# ---------------------------------------------------------------------------
# Text format
#
# expr   := ['-'] term (('+' | '-') term)*
# term   := factor ('*' factor)*
# factor := atom ('^' nat)?
# atom   := number | variable | '(' expr ')'
# number := digits ['.' digits] [('e'|'E') ['+'|'-'] digits] | digits '/' digits
# variable := 'x' digits          (1-based index)
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<var>x\d+)"
    r"|(?P<rat>\d+/\d+)"
    r"|(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<op>[-+*^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise PolynomialSyntaxError(
                f"unexpected character {text[bad_at]!r}", bad_at
            )
        for kind in ("var", "rat", "num", "op"):
            val = m.group(kind)
            if val is not None:
                tokens.append((kind, val, m.start(kind)))
                break
        pos = m.end()
    return tokens


def _parse_number(val: str, pos: int) -> float:
    """The value of a number token; an overflowing literal, or a rational one
    with more digits than Python converts to an integer, is a syntax error."""
    if "/" in val:
        try:
            p, q = map(int, val.split("/"))
        except ValueError:
            raise PolynomialSyntaxError(
                f"rational literal of {len(val)} characters has too many digits", pos
            ) from None
        if q == 0:
            raise PolynomialSyntaxError("zero denominator", pos)
        try:
            value = p / q
        except OverflowError:
            value = math.inf
    else:
        value = float(val)
    if not math.isfinite(value):
        raise PolynomialSyntaxError(f"coefficient {val} is not finite", pos)
    return value


class _Parser:
    def __init__(self, tokens, n: int, text_len: int):
        self.tokens = tokens
        self.n = n
        self.i = 0
        self.text_len = text_len

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise PolynomialSyntaxError("unexpected end of input", self.text_len)
        self.i += 1
        return tok

    def expect_op(self, op: str):
        tok = self.next()
        if tok[0] != "op" or tok[1] != op:
            raise PolynomialSyntaxError(f"expected {op!r}", tok[2])

    def parse_expr(self) -> Polynomial:
        # The terms are summed into one dict in text order: each coefficient
        # takes the sums that adding the terms one Polynomial at a time
        # would, and no earlier term is copied and re-sorted at each one.
        sign = 1.0
        tok = self.peek()
        if tok is not None and tok[0] == "op" and tok[1] in "+-":
            self.next()
            if tok[1] == "-":
                sign = -1.0
        coeffs: dict[Exponent, float] = {}
        while True:
            for alpha, c in self.parse_term().terms.items():
                coeffs[alpha] = coeffs.get(alpha, 0.0) + sign * c
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] not in "+-":
                return Polynomial(self.n, coeffs)
            self.next()
            sign = 1.0 if tok[1] == "+" else -1.0

    def parse_term(self) -> Polynomial:
        result = self.parse_factor()
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] != "*":
                return result
            self.next()
            result = result * self.parse_factor()

    def parse_factor(self) -> Polynomial:
        base = self.parse_atom()
        tok = self.peek()
        if tok is not None and tok[0] == "op" and tok[1] == "^":
            self.next()
            exp_tok = self.next()
            if exp_tok[0] != "num" or not exp_tok[1].isdigit():
                raise PolynomialSyntaxError(
                    "exponent must be a nonnegative integer", exp_tok[2]
                )
            return base ** int(exp_tok[1])
        return base

    def parse_atom(self) -> Polynomial:
        tok = self.next()
        kind, val, pos = tok
        if kind == "var":
            idx = int(val[1:])
            if not 1 <= idx <= self.n:
                raise PolynomialSyntaxError(
                    f"variable {val} out of range x1..x{self.n}", pos
                )
            return Polynomial.variable(self.n, idx)
        if kind in ("rat", "num"):
            return Polynomial.constant(self.n, _parse_number(val, pos))
        if kind == "op" and val == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise PolynomialSyntaxError(f"unexpected token {val!r}", pos)


def parse_polynomial(text: str, n: int) -> Polynomial:
    """Parse polynomial text over variables x1..xn into a Polynomial."""
    if n < 1:
        raise PolynomialError(f"dimension must be >= 1, got {n}")
    tokens = _tokenize(text)
    if not tokens:
        raise PolynomialSyntaxError("empty input", 0)
    parser = _Parser(tokens, n, len(text))
    poly = parser.parse_expr()
    trailing = parser.peek()
    if trailing is not None:
        raise PolynomialSyntaxError(f"trailing input {trailing[1]!r}", trailing[2])
    return poly


def _format_monomial(alpha: Exponent) -> str:
    parts = []
    for i, a in enumerate(alpha):
        if a == 1:
            parts.append(f"x{i + 1}")
        elif a > 1:
            parts.append(f"x{i + 1}^{a}")
    return "*".join(parts)


def format_polynomial(f: Polynomial) -> str:
    """Canonical printing: graded-lex term order, explicit '*', no unary '+'."""
    if f.is_zero():
        return "0"
    pieces = []
    for k, (alpha, coeff) in enumerate(f.terms.items()):
        mono = _format_monomial(alpha)
        mag = abs(coeff)
        if mono and mag == 1.0:
            body = mono
        elif mono:
            body = f"{mag!r}*{mono}"
        else:
            body = repr(mag)
        if k == 0:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"{'+' if coeff > 0 else '-'} {body}")
    return " ".join(pieces)


def text_dimension(text: str) -> int:
    """The dimension that polynomial text needs on its own: the largest
    variable index it mentions, and at least 1 (also for none, or x0)."""
    return max([1] + [int(m[1:]) for m in re.findall(r"x\d+", text)])


def format_float(v: float) -> str:
    """A certificate or SDPA number: 17 significant digits, so it reads back
    as the same double (polynomial and moment text write repr)."""
    return "%.17g" % v
