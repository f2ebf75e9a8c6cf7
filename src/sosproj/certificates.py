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

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .cones import SemialgebraicSystem, build_truncation, gram_reconstruct, gram_sdp
from .moments import MomentSequence, eig_range, localizing_matrix, psd_accepted
from .polynomials import Polynomial, WeightKind, monomial_basis
from .projection import default_solver_config, perturbation_basis
from .sdp import SdpStatus, SolverConfig, solve


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

    @property
    def in_cone(self) -> bool:
        return self.verdict is MembershipVerdict.IN_CONE


def membership(
    f: Polynomial,
    system: SemialgebraicSystem,
    k: int,
    config: SolverConfig | None = None,
) -> MembershipResult:
    """Level-k Gram feasibility for f; validated either way.

    A minimum-trace objective keeps the feasibility SDP bounded.  InCone
    answers are revalidated by reconstructing f from the returned Grams;
    NotInCone answers are revalidated through the separating functional.
    A numerical failure is reported as inconclusive, never as NotInCone.
    """
    if f.dimension != system.dimension:
        raise ValueError("polynomial and system dimensions differ")
    if f.degree > 2 * k:
        raise ValueError(f"deg f = {f.degree} exceeds cone degree {2 * k}")
    cfg = config or default_solver_config()
    trunc = build_truncation(system, k)

    gs = gram_sdp(trunc)
    gs.sdp.set_objective(
        {
            gs.block_ids[b.label]: [(i, i, 1.0) for i in range(b.side)]
            for b in trunc.blocks
        }
    )
    for alpha in monomial_basis(system.dimension, 2 * k):
        gs.sdp.add_constraint(gs.entries(alpha), f.coefficient(alpha))

    sol = solve(gs.sdp, cfg)

    if sol.status is SdpStatus.OPTIMAL:
        grams = gs.grams(sol)
        recon = gram_reconstruct(trunc, list(grams.values()))
        diff = recon - f
        err = max((abs(c) for c in diff.terms.values()), default=0.0)
        min_eigs = {}
        eig_ok = True
        for label, gram in grams.items():
            lmin, lmax = eig_range(np.atleast_2d(gram))
            min_eigs[label] = lmin
            if not psd_accepted(lmin, lmax):
                eig_ok = False
        scale = 1.0 + max(abs(c) for c in f.terms.values()) if f.terms else 1.0
        valid = err <= 1e-6 * scale and eig_ok
        return MembershipResult(
            MembershipVerdict.IN_CONE if valid else MembershipVerdict.INCONCLUSIVE,
            k,
            grams=grams,
            reconstruction_error=err,
            gram_min_eigs=min_eigs,
            solver_status=sol.status,
            solver_iterations=sol.iterations,
            message=(
                "Gram reconstruction validated"
                if valid
                else "solver claimed optimality but revalidation failed"
            ),
        )

    if sol.status is SdpStatus.INFEASIBLE and sol.ray is not None:
        ray_y, _ray_s = sol.ray
        alphas = monomial_basis(system.dimension, 2 * k)
        raw = {alpha: -float(v) for alpha, v in zip(alphas, ray_y)}
        peak = max(abs(v) for v in raw.values())
        if peak > 0:
            raw = {a: v / peak for a, v in raw.items()}
        separating = MomentSequence(system.dimension, 2 * k, raw)
        sep_value = sum(c * raw[a] for a, c in f.terms.items())
        sep_eigs = {}
        eig_ok = True
        for block in trunc.blocks:
            mat = localizing_matrix(separating, block.product, block.sos_order)
            lmin, lmax = eig_range(mat)
            sep_eigs[block.label] = lmin
            if not psd_accepted(lmin, lmax):
                eig_ok = False
        valid = sep_value < 0 and eig_ok
        return MembershipResult(
            MembershipVerdict.NOT_IN_CONE if valid else MembershipVerdict.INCONCLUSIVE,
            k,
            separating=separating,
            separation=sep_value,
            separating_min_eigs=sep_eigs,
            solver_status=sol.status,
            solver_iterations=sol.iterations,
            message=(
                "separating functional validated"
                if valid
                else "infeasibility ray failed revalidation"
            ),
        )

    return MembershipResult(
        MembershipVerdict.INCONCLUSIVE,
        k,
        solver_status=sol.status,
        solver_iterations=sol.iterations,
        message=f"solver status {sol.status.value}: {sol.message}",
    )


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
        weight = WeightKind.LW
    else:
        weight = WeightKind.L1
    return Polynomial(
        n, {alpha: scale for _key, alpha, scale in perturbation_basis(n, d, weight)}
    )


@dataclass(frozen=True)
class PsatzQuery:
    f: Polynomial
    system: SemialgebraicSystem
    epsilon: float
    d_max: int
    mode: PerturbationKind = PerturbationKind.EXP_PARTIAL_SUM

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.d_max < 1:
            raise ValueError(f"d_max must be >= 1, got {self.d_max}")
        if self.f.dimension != self.system.dimension:
            raise ValueError("polynomial and system dimensions differ")


@dataclass
class PsatzResult:
    certified: bool
    d: int | None = None
    level: int | None = None
    grams: dict[tuple[int, ...], np.ndarray] | None = None
    perturbed: Polynomial | None = None
    searched_up_to: int = 0
    inconclusive: list[tuple[int, int]] = field(default_factory=list)
    solves: int = 0                            # membership solves run

    def __str__(self):
        if self.certified:
            return f"CertifiedAt(d={self.d}, level={self.level})"
        return f"NotFoundUpTo({self.searched_up_to})"


def psatz_search(
    query: PsatzQuery, config: SolverConfig | None = None
) -> PsatzResult:
    """Smallest d whose eps-perturbation of f admits a cone certificate.

    The exponential-tower mode checks the perturbed polynomial at level
    max(ceil(deg f / 2), d); the top-power mode additionally sweeps the
    certificate level t up to d_max for each d.  Inconclusive solves are
    recorded and skipped, never treated as refutations.
    """
    f, system = query.f, query.system
    n = system.dimension
    half_f = (f.degree + 1) // 2
    inconclusive: list[tuple[int, int]] = []
    solves = 0
    for d in range(1, query.d_max + 1):
        pert = perturbation_polynomial(n, d, query.mode)
        candidate = f + pert.scale(query.epsilon)
        if query.mode is PerturbationKind.EXP_PARTIAL_SUM:
            levels = [max(half_f, d)]
        else:
            levels = list(range(max(half_f, d), query.d_max + 1))
        for level in levels:
            result = membership(candidate, system, level, config)
            solves += 1
            if result.verdict is MembershipVerdict.IN_CONE:
                return PsatzResult(
                    True,
                    d=d,
                    level=level,
                    grams=result.grams,
                    perturbed=candidate,
                    searched_up_to=d,
                    inconclusive=inconclusive,
                    solves=solves,
                )
            if result.verdict is MembershipVerdict.INCONCLUSIVE:
                inconclusive.append((d, level))
    return PsatzResult(
        False,
        searched_up_to=query.d_max,
        inconclusive=inconclusive,
        solves=solves,
    )


def seq_closure_probe(
    f: Polynomial,
    system: SemialgebraicSystem,
    d: int,
    eps_list: list[float],
    t_max: int,
    config: SolverConfig | None = None,
) -> list[tuple[float, int | None]]:
    """Minimal certificate level for f + eps(1 + sum x_i^{2d}) as eps drops.

    Only a finite eps table can be produced; membership of f itself in the
    sequential closure would need every eps > 0 at a single d.  A row reads
    None when no level up to t_max certifies, and also when a level below
    the first certifying one was inconclusive: the minimal level is then
    unknown, and a higher one would overstate it.
    """
    if any(e <= 0 for e in eps_list):
        raise ValueError("eps values must be positive")
    if list(eps_list) != sorted(eps_list, reverse=True):
        raise ValueError("eps values must be decreasing")
    n = system.dimension
    pert = perturbation_polynomial(n, d, PerturbationKind.TOP_EVEN_POWER)
    rows: list[tuple[float, int | None]] = []
    for eps in eps_list:
        candidate = f + pert.scale(eps)
        t_start = (candidate.degree + 1) // 2
        found: int | None = None
        for t in range(t_start, t_max + 1):
            verdict = membership(candidate, system, t, config).verdict
            if verdict is MembershipVerdict.IN_CONE:
                found = t
            if verdict is not MembershipVerdict.NOT_IN_CONE:
                break
        rows.append((eps, found))
    return rows
