"""Semialgebraic systems and Gram parameterizations of truncated cones.

A system holds the generators g_1..g_m of the set K = {x : g_j(x) >= 0}
together with the cone flavor: quadratic module (one SOS weight per
generator plus the unit) or preordering (one SOS weight per subset product
of generators).  A truncation at level k keeps, for each retained product
g_J, the Gram block of side s(k - v_J) with v_J = ceil(deg(g_J)/2), and the
basis matrices needed to express sums blockwise, monomial by monomial.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Sequence

import numpy as np

from .moments import BasisMatrixSet, MomentSequence
from .polynomials import (
    Exponent, Polynomial, half_degree, monomial_basis, parse_polynomial,
)
from .sdp import BlockEntries, SdpProblem, SdpSolution

# Subset products blow up as 2^m; refuse preorderings past this many generators.
PREORDER_CAP = 12
# Truncations that build_truncation keeps for reuse.
TRUNCATION_MEMO = 8


class ConeKind(Enum):
    QUADRATIC_MODULE = "quadratic"
    PREORDERING = "preorder"


class ConeModelError(ValueError):
    pass


@dataclass(frozen=True)
class SemialgebraicSystem:
    """Generators of K and the cone flavor used to certify over it."""

    dimension: int
    generators: tuple[Polynomial, ...] = ()
    cone_kind: ConeKind = ConeKind.QUADRATIC_MODULE

    def __post_init__(self):
        if self.dimension < 1:
            raise ConeModelError(f"dimension must be >= 1, got {self.dimension}")
        object.__setattr__(self, "generators", tuple(self.generators))
        for g in self.generators:
            if g.dimension != self.dimension:
                raise ConeModelError(
                    f"generator dimension {g.dimension} != system dimension "
                    f"{self.dimension}"
                )
        if (
            self.cone_kind is ConeKind.PREORDERING
            and len(self.generators) > PREORDER_CAP
        ):
            raise ConeModelError(
                f"preordering with {len(self.generators)} generators exceeds "
                f"cap {PREORDER_CAP} (2^m products)"
            )

    def check_polynomial(self, f: Polynomial) -> None:
        """Raise ConeModelError unless f is in the system's variables."""
        if f.dimension != self.dimension:
            raise ConeModelError("polynomial and system dimensions differ")

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    def labels(self) -> list[tuple[int, ...]]:
        """Block labels: () is the unit; otherwise 1-based generator subsets."""
        m = len(self.generators)
        if self.cone_kind is ConeKind.QUADRATIC_MODULE:
            return [()] + [(j,) for j in range(1, m + 1)]
        out: list[tuple[int, ...]] = [()]
        for size in range(1, m + 1):
            out.extend(combinations(range(1, m + 1), size))
        return out

    def distinct_levels(self, levels: range) -> range:
        """The levels of `levels` whose cone answers can differ, lowest first.

        On R^n the top-degree forms of squares cannot cancel (Reznick 1978),
        so every level above the lowest repeats its answer.
        """
        return levels if self.generators else levels[:1]

    def product(self, label: tuple[int, ...]) -> Polynomial:
        g = Polynomial.constant(self.dimension, 1.0)
        for j in label:
            g = g * self.generators[j - 1]
        return g


@dataclass(frozen=True)
class ConeBlock:
    label: tuple[int, ...]
    product: Polynomial
    sos_order: int
    basis: BasisMatrixSet

    @property
    def side(self) -> int:
        return self.basis.side


@dataclass(frozen=True)
class ConeTruncation:
    """Level-k truncation: the Gram blocks of the labels with k >= v_J."""

    system: SemialgebraicSystem
    level: int
    blocks: tuple[ConeBlock, ...]


@functools.lru_cache(maxsize=TRUNCATION_MEMO)
def build_truncation(system: SemialgebraicSystem, k: int) -> ConeTruncation:
    """Blocks for the level-k cone; labels with k - v_J < 0 are excluded.

    The TRUNCATION_MEMO truncations asked for last are kept and returned
    again for an equal system and level: a truncation is immutable, and
    searches and sweeps ask for the same few many times.
    """
    if k < 0:
        raise ConeModelError(f"level must be >= 0, got {k}")
    blocks = []
    for label in system.labels():
        product = system.product(label)
        order = k - half_degree(product)
        if order >= 0:
            blocks.append(
                ConeBlock(label, product, order, BasisMatrixSet(product, order))
            )
    return ConeTruncation(system, k, tuple(blocks))


@dataclass
class GramSdp:
    """A coefficient-matching SDP over the Gram blocks of a truncation.

    Nonnegative-diagonal blocks come first, at indices 0, 1, ...; then one
    PSD block per truncation block, at the index `block_ids` gives its label.
    `row_exponents` lists the alpha of each coefficient row, in row order:
    every alpha with |alpha| <= 2*level, graded-lex.
    """

    sdp: SdpProblem
    truncation: ConeTruncation
    block_ids: dict[tuple[int, ...], int]
    row_exponents: list[Exponent]

    def rows(self, f: Polynomial) -> Iterator[tuple[Exponent, BlockEntries, float]]:
        """(alpha, entries, f_alpha) of each row h_alpha = f_alpha, in row order.

        `entries` is a fresh dict holding B^J_alpha on each Gram block J; the
        caller may add other blocks.
        """
        for alpha in self.row_exponents:
            entries = {}
            for block in self.truncation.blocks:
                items = block.basis.entries(alpha)
                if items:
                    entries[self.block_ids[block.label]] = items
            yield alpha, entries, f.coefficient(alpha)

    def functional(self, y: np.ndarray) -> MomentSequence:
        """L with L(x^alpha_i) = -y_i: the row multipliers y, in row order."""
        trunc = self.truncation
        values = {a: -float(v) for a, v in zip(self.row_exponents, y)}
        return MomentSequence(trunc.system.dimension, 2 * trunc.level, values)

    def grams(self, sol: SdpSolution) -> dict[tuple[int, ...], np.ndarray]:
        """The solution's Gram matrix of each truncation block, by label."""
        return {
            block.label: sol.x_blocks[self.block_ids[block.label]]
            for block in self.truncation.blocks
        }


def gram_sdp(truncation: ConeTruncation, diag_sides: Sequence[int] = ()) -> GramSdp:
    """Empty GramSdp: the given nonnegative-diagonal blocks, then the Gram blocks."""
    sdp = SdpProblem()
    for side in diag_sides:
        sdp.add_diag_block(side)
    block_ids = {
        block.label: sdp.add_psd_block(block.side) for block in truncation.blocks
    }
    n, degree = truncation.system.dimension, 2 * truncation.level
    return GramSdp(sdp, truncation, block_ids, monomial_basis(n, degree))


def gram_reconstruct(
    truncation: ConeTruncation, grams: Sequence[np.ndarray]
) -> Polynomial:
    """Polynomial with h_alpha = sum_J <X_J, B^J_alpha> from PSD blocks X_J.

    By construction h lies in the truncated cone whenever every X_J is PSD.
    """
    if len(grams) != len(truncation.blocks):
        raise ConeModelError(
            f"expected {len(truncation.blocks)} Gram matrices, got {len(grams)}"
        )
    n = truncation.system.dimension
    coeffs: dict[Exponent, float] = {}
    for block, gram in zip(truncation.blocks, grams):
        gram = np.asarray(gram, dtype=float)
        if gram.shape != (block.side, block.side):
            raise ConeModelError(
                f"Gram for block {block.label} has shape {gram.shape}, "
                f"expected ({block.side}, {block.side})"
            )
        # <X, B> over the stored upper triangle of the symmetric B.
        sym = gram + gram.T
        for alpha in block.basis.nonzero_exponents():
            v = 0.0
            for i, j, b in block.basis.entries(alpha):
                v += b * float(gram[i, i] if i == j else sym[i, j])
            if v != 0.0:
                coeffs[alpha] = coeffs.get(alpha, 0.0) + v
    return Polynomial(n, coeffs)


# ---------------------------------------------------------------------------
# System file format: "n <n>", optional "cone quadratic|preorder", then one
# "g: <polynomial>" line per generator.  '#' starts a comment.
# ---------------------------------------------------------------------------

def format_system_text(system: SemialgebraicSystem) -> str:
    lines = [f"n {system.dimension}", f"cone {system.cone_kind.value}"]
    for g in system.generators:
        lines.append(f"g: {g}")
    return "\n".join(lines) + "\n"


def parse_system_text(text: str) -> SemialgebraicSystem:
    n = None
    kind = None
    gen_texts: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if toks[0] in ("n", "cone") and len(toks) != 2:
            raise ConeModelError(f"expected '{toks[0]} <value>', got {line!r}")
        if toks[0] == "n":
            if n is not None:
                raise ConeModelError(f"repeated 'n' line {line!r}")
            n = int(toks[1])
        elif toks[0] == "cone":
            if kind is not None:
                raise ConeModelError(f"repeated 'cone' line {line!r}")
            kind = ConeKind(toks[1])
        elif line.startswith("g:"):
            gen_texts.append(line[2:].strip())
        else:
            raise ConeModelError(f"unrecognized system line {line!r}")
    if n is None:
        raise ConeModelError("system file missing 'n <dimension>' line")
    generators = tuple(parse_polynomial(t, n) for t in gen_texts)
    return SemialgebraicSystem(n, generators, kind or ConeKind.QUADRATIC_MODULE)
