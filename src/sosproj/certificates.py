"""Cone membership tests and certificate searches for nonnegativity on K.

Membership at level k is a Gram feasibility SDP; a failed membership comes
back with a separating functional y whose localizing matrices are PSD and
with L_y(f) < 0, certifying that no level-k representation exists.  On top
of membership sit two searches: one perturbs f by eps times the truncated
exponential tower 1 + sum_i sum_k x_i^{2k}/(2k)!, the other by eps times
1 + sum_i x_i^{2d}.  Both return the first level that certifies, or an
honest not-found verdict up to the requested bound; no finite search can
decide the underlying "for every eps" statements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .cones import (
    ConeTruncation,
    SemialgebraicSystem,
    build_truncation,
    gram_reconstruct,
)
from .moments import MomentSequence, localizing_matrix, riesz
from .polynomials import Polynomial, WeightSequence, half_degree
from .projection import perturbation_basis
from .sdp import SdpStatus, SolverConfig, eig_range, psd_accepted, solve


class MembershipVerdict(Enum):
    IN_CONE = "in_cone"
    NOT_IN_CONE = "not_in_cone"
    INCONCLUSIVE = "inconclusive"


@dataclass
class MembershipResult:
    verdict: MembershipVerdict
    level: int
    grams: dict[tuple[int, ...], np.ndarray] | None = None
    reconstruction_error: float | None = None
    gram_min_eigs: dict[tuple[int, ...], float] | None = None
    separating: MomentSequence | None = None
    separation: float | None = None            # L_y(f) of the separating y
    separating_min_eigs: dict[tuple[int, ...], float] | None = None
    solver_status: SdpStatus | None = None
    solver_iterations: int = 0
    message: str = ""


def _psd_verdicts(mats) -> tuple[dict[tuple[int, ...], float], bool]:
    """Smallest eigenvalue per label of (label, matrix) pairs, and whether
    every matrix passes psd_accepted."""
    min_eigs = {}
    all_accepted = True
    for label, mat in mats:
        lmin, lmax = eig_range(mat)
        min_eigs[label] = lmin
        if not psd_accepted(lmin, lmax):
            all_accepted = False
    return min_eigs, all_accepted


def validate_grams(
    f: Polynomial, truncation: ConeTruncation, grams: dict[tuple[int, ...], np.ndarray]
) -> MembershipResult:
    """IN_CONE when the Grams are PSD and reconstruct f; else inconclusive."""
    result = MembershipResult(
        MembershipVerdict.INCONCLUSIVE, truncation.level, grams=grams
    )
    diff = gram_reconstruct(truncation, list(grams.values())) - f
    err = max((abs(c) for c in diff.terms.values()), default=0.0)
    result.reconstruction_error = err
    result.gram_min_eigs, eig_ok = _psd_verdicts(grams.items())
    scale = 1.0 + max(abs(c) for c in f.terms.values()) if f.terms else 1.0
    if err <= 1e-6 * scale and eig_ok:
        result.verdict = MembershipVerdict.IN_CONE
        result.message = "Gram reconstruction validated"
    else:
        result.message = "solver claimed optimality but revalidation failed"
    return result


def validate_separator(
    f: Polynomial, truncation: ConeTruncation, functional: MomentSequence
) -> MembershipResult:
    """NOT_IN_CONE when L(f) < 0 and every localizing matrix of the
    truncation is PSD; else inconclusive.

    The functional may have a higher level than the truncation: its
    localizing matrices at a lower level are principal submatrices of its
    own, and the check runs on the truncation's.
    """
    result = MembershipResult(
        MembershipVerdict.INCONCLUSIVE, truncation.level, separating=functional
    )
    result.separation = sep_value = riesz(functional, f)
    result.separating_min_eigs, eig_ok = _psd_verdicts(
        (block.label, localizing_matrix(functional, block.product, block.sos_order))
        for block in truncation.blocks
    )
    if sep_value < 0 and eig_ok:
        result.verdict = MembershipVerdict.NOT_IN_CONE
        result.message = "separating functional validated"
    else:
        result.message = "infeasibility ray failed revalidation"
    return result


def membership(
    f: Polynomial,
    system: SemialgebraicSystem,
    k: int,
    config: SolverConfig | None = None,
    *,
    min_trace: bool = False,
) -> MembershipResult:
    """Level-k Gram feasibility for f; validated either way.

    The SDP has no objective (C = 0), so the solver's central path heads
    for the relative interior of the feasible Grams, their analytic
    centre, and no low-rank face is left for the interior-point method to
    stall on.  It stops short of the centre, at its first iterate whose
    projection onto the coefficient equations is positive definite, and
    returns that projection: Grams that reproduce f to roundoff.  A Gram
    SDP with no interior has no such point and stops at its first iterate
    within both tolerances.  With min_trace the objective is the Grams'
    total trace instead, and the Grams returned are the low-rank
    decomposition on that face (for a sum of squares, often its own
    squares); such a face has no strictly complementary solution, so the
    solve takes more iterations and can end without converging.  InCone
    answers are revalidated by reconstructing f from the returned Grams
    (`validate_grams`); NotInCone answers are revalidated through the
    separating functional (`validate_separator`).  A numerical failure is
    reported as inconclusive, never as NotInCone.  The Gram SDP is the
    one kept by the truncation that `build_truncation(system, k)` returns.

    On R^n a level above ceil(deg f / 2) repeats that level's answer, but
    its Gram SDP has no interior, so the solve can end inconclusive, as
    (1 + x1^2*x2 - x2^2)^2 + (x1*x2)^2 does at k = 4 and 5 (in the cone
    at k = 3).  Searches skip such levels through
    `SemialgebraicSystem.distinct_levels`; direct callers should too.
    """
    system.check_polynomial(f)
    if f.degree > 2 * k:
        raise ValueError(f"deg f = {f.degree} exceeds cone degree {2 * k}")
    gs = build_truncation(system, k).membership_sdp(min_trace)
    sol = solve(gs.sdp.with_rhs(map(f.coefficient, gs.row_exponents)), config)
    if sol.status is SdpStatus.OPTIMAL:
        result = validate_grams(f, gs.truncation, gs.grams(sol))
    elif sol.status is SdpStatus.INFEASIBLE and sol.ray is not None:
        ray_y, _ray_s = sol.ray
        peak = float(np.max(np.abs(ray_y)))
        result = validate_separator(
            f, gs.truncation, gs.functional(ray_y / peak if peak > 0 else ray_y)
        )
    else:
        message = f"solver status {sol.status.value}: {sol.message}"
        result = MembershipResult(MembershipVerdict.INCONCLUSIVE, k, message=message)
    result.solver_status, result.solver_iterations = sol.status, sol.iterations
    return result


@dataclass
class _ReusingMembership:
    """Membership per cell of one search, tried first with the separating
    functionals that earlier cells of the search validated.

    A stored functional decides a cell only if its level is at least the
    cell's and `validate_separator` accepts it on the cell's candidate and
    truncation; otherwise `membership` solves the cell.
    Only a validated NotInCone that carries its functional is stored.
    """

    system: SemialgebraicSystem
    config: SolverConfig | None = None
    separators: list[MomentSequence] = field(default_factory=list)
    solves: int = 0
    reused: int = 0

    def __call__(self, f: Polynomial, level: int) -> MembershipResult:
        stored = [y for y in self.separators if y.max_degree >= 2 * level]
        trunc = build_truncation(self.system, level) if stored else None
        for functional in reversed(stored):
            member = validate_separator(f, trunc, functional)
            if member.verdict is MembershipVerdict.NOT_IN_CONE:
                self.reused += 1
                return member
        member = membership(f, self.system, level, self.config)
        self.solves += 1
        if (
            member.verdict is MembershipVerdict.NOT_IN_CONE
            and member.separating is not None
        ):
            self.separators.append(member.separating)
        return member


class PerturbationKind(Enum):
    # 1 + sum_i sum_{k=1..d} x_i^{2k}/(2k)!  (truncated exponential tower)
    EXP_PARTIAL_SUM = "exp-partial-sum"
    # 1 + sum_i x_i^{2d}
    TOP_EVEN_POWER = "top-even-power"


def perturbation_polynomial(
    n: int, d: int, kind: PerturbationKind
) -> Polynomial:
    """The matching norm's perturbation basis, summed (lw: tower, l1: top power)."""
    if kind is PerturbationKind.EXP_PARTIAL_SUM:
        norm = WeightSequence.lw()
    else:
        norm = WeightSequence.l1()
    return Polynomial(
        n, {alpha: scale for _key, alpha, scale in perturbation_basis(n, d, norm)}
    )


@dataclass(frozen=True)
class PsatzQuery:
    f: Polynomial
    system: SemialgebraicSystem
    epsilon: float
    d_max: int
    mode: PerturbationKind = PerturbationKind.EXP_PARTIAL_SUM

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if self.d_max < 1:
            raise ValueError(f"d_max must be >= 1, got {self.d_max}")
        self.system.check_polynomial(self.f)


@dataclass
class PsatzResult:
    certified: bool
    d: int | None = None
    level: int | None = None
    grams: dict[tuple[int, ...], np.ndarray] | None = None
    perturbed: Polynomial | None = None
    searched_up_to: int = 0
    inconclusive: list[tuple[int, int]] = field(default_factory=list)
    # Membership solves run, including the exponential tower's top cell
    # when a lower d certifies; cells decided by a stored separator count
    # in `reused` instead.
    solves: int = 0
    reused: int = 0

    def __str__(self):
        if self.certified:
            return f"CertifiedAt(d={self.d}, level={self.level})"
        return f"NotFoundUpTo({self.searched_up_to})"


def psatz_search(
    query: PsatzQuery, config: SolverConfig | None = None
) -> PsatzResult:
    """Smallest d whose eps-perturbation of f admits a cone certificate.

    Each d starts at level s = ceil(max(deg f, 2d) / 2), the only level
    solved on R^n; with generators the top-power mode sweeps s to max(s, d_max).
    Cells (d, level) are visited in ascending d, then level, and a cell is
    first tried with the separating functionals validated at earlier cells
    (`_ReusingMembership`).  The exponential tower solves its top cell d_max
    first: theta_d <= theta_{d+1} term by term and its level never drops as
    d grows, so that cell's separator, revalidated at each lower cell,
    refutes them all.  Inconclusive cells below the answer are recorded in
    ascending order and skipped, never treated as refutations.
    """
    f, system = query.f, query.system
    half_f = half_degree(f)
    top = query.d_max if query.mode is PerturbationKind.TOP_EVEN_POWER else 0

    def lift(d: int) -> Polynomial:
        pert = perturbation_polynomial(system.dimension, d, query.mode)
        return f + pert.scale(query.epsilon)

    cell = _ReusingMembership(system, config)
    decided: dict[tuple[int, int], MembershipResult] = {}
    if query.mode is PerturbationKind.EXP_PARTIAL_SUM:
        top_level = max(half_f, query.d_max)
        decided[query.d_max, top_level] = cell(lift(query.d_max), top_level)
    result = PsatzResult(False, searched_up_to=query.d_max)
    for d in range(1, query.d_max + 1):
        candidate = lift(d)
        levels = range(max(half_f, d), max(half_f, d, top) + 1)
        for level in system.distinct_levels(levels):
            member = decided.pop((d, level), None) or cell(candidate, level)
            if member.verdict is MembershipVerdict.IN_CONE:
                result.certified = True
                result.d, result.level, result.grams = d, member.level, member.grams
                result.perturbed, result.searched_up_to = candidate, d
                break
            if member.verdict is MembershipVerdict.INCONCLUSIVE:
                result.inconclusive.append((d, member.level))
        if result.certified:
            break
    result.solves, result.reused = cell.solves, cell.reused
    return result


def seq_closure_probe(
    f: Polynomial,
    system: SemialgebraicSystem,
    d: int,
    eps_list: list[float],
    t_max: int,
) -> list[tuple[float, int | None]]:
    """Minimal certificate level for f + eps(1 + sum x_i^{2d}) as eps drops.

    Only a finite eps table can be produced; membership of f itself in the
    sequential closure would need every eps > 0 at a single d.  Levels run
    from ceil(max(deg f, 2d) / 2) to t_max, only the first on R^n.  A row
    reads None when no level certifies, and also when a level below the
    first certifying one was inconclusive: the minimal level is then
    unknown, and a higher one would overstate it.  Each (eps, level) is
    first tried with the separating functionals validated earlier in the
    probe (`_ReusingMembership`): L(1 + sum x_i^{2d}) >= 0, so a separator
    at a larger eps also separates every smaller one at its level or below.
    """
    if not all(0 < e < math.inf for e in eps_list):
        raise ValueError("eps values must be finite and positive")
    if list(eps_list) != sorted(eps_list, reverse=True):
        raise ValueError("eps values must be decreasing")
    if t_max < max(half_degree(f), d):
        raise ValueError(f"t_max = {t_max} is below ceil(max(deg f, 2d) / 2)")
    n = system.dimension
    pert = perturbation_polynomial(n, d, PerturbationKind.TOP_EVEN_POWER)
    cell = _ReusingMembership(system)
    rows: list[tuple[float, int | None]] = []
    for eps in eps_list:
        candidate = f + pert.scale(eps)
        levels = range(half_degree(candidate), t_max + 1)
        for level in system.distinct_levels(levels):
            result = cell(candidate, level)
            if result.verdict is not MembershipVerdict.NOT_IN_CONE:
                break
        found = result.level if result.verdict is MembershipVerdict.IN_CONE else None
        rows.append((eps, found))
    return rows
