"""Canonical weighted-l1 projections onto truncated cones, via SDP.

Two equivalent formulations are implemented and cross-checked.  The lambda
form perturbs f by a nonnegative combination of 1 and even variable powers
(x_i^{2k}/(2k)! under the factorial weights, x_i^{2d} under plain l1) and
minimizes the perturbation mass subject to cone membership; the general
form carries one weighted slack per monomial of the truncation degree.
Both share the optimal value; the projection itself need not be unique.

The moment-side dual maximizes -L_y(f) over sequences whose localizing
matrices are PSD and whose entries obey |y_alpha| <= w_alpha; its optimal
value equals the projection distance, giving an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cones import GramSdp, SemialgebraicSystem, build_truncation, gram_sdp
from .moments import MomentSequence, format_moment_text, parse_moment_text
from .polynomials import (
    Exponent,
    Polynomial,
    WeightKind,
    WeightSequence,
    monomial_basis,
)
from .sdp import (
    SdpSolution,
    SdpStatus,
    SolverConfig,
    solve,
)

# Defaults for projection solves: feasibility repair keeps the equality
# residual near roundoff, and the gap polishes well past gap_tol whenever
# the instance allows it.
def default_solver_config() -> SolverConfig:
    return SolverConfig(feas_tol=1e-8, gap_tol=1e-6)


# Computed lambda entries at or below this are flagged as effectively zero;
# raw values are always reported.
LAMBDA_ZERO_FLAG = 1e-7


class ProjectionFailure(RuntimeError):
    """Solver did not deliver a usable optimum for a projection SDP."""

    def __init__(self, message: str, solution: SdpSolution | None = None):
        super().__init__(message)
        self.solution = solution


@dataclass(frozen=True)
class ProjectionProblem:
    """Projection of f onto the level-t cone intersected with degree-2d.

    t defaults to d, the plain degree-bounded projection.  Requires
    2t >= max(2d, deg f); the target degree must also cover f, since the
    projection differs from f by low-degree perturbations only.
    """

    f: Polynomial
    system: SemialgebraicSystem
    norm: WeightSequence
    d: int
    t: int | None = None

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"truncation half-degree d must be >= 1, got {self.d}")
        t = self.d if self.t is None else self.t
        object.__setattr__(self, "t", t)
        if self.f.dimension != self.system.dimension:
            raise ValueError("polynomial and system dimensions differ")
        if 2 * t < max(2 * self.d, self.f.degree):
            raise ValueError(
                f"cone level t={t} too small: need 2t >= max(2d, deg f) "
                f"= {max(2 * self.d, self.f.degree)}"
            )
        if self.f.degree > 2 * self.d:
            raise ValueError(
                f"deg f = {self.f.degree} exceeds truncation degree {2 * self.d}; "
                "the perturbation cannot cancel the top coefficients"
            )


def perturbation_basis(
    n: int, d: int, kind: WeightKind
) -> list[tuple[tuple[int, int], Exponent, float]]:
    """((i, k), exponent, scale) triples; (0, 0) is the constant term.

    Factorial weights use x_i^{2k}/(2k)! for k = 1..d; plain l1 collapses
    to the single top power x_i^{2d} per variable.
    """
    out: list[tuple[tuple[int, int], Exponent, float]] = [
        ((0, 0), (0,) * n, 1.0)
    ]
    if kind is WeightKind.L1:
        for i in range(1, n + 1):
            alpha = tuple(2 * d if j == i - 1 else 0 for j in range(n))
            out.append(((i, d), alpha, 1.0))
    else:
        for i in range(1, n + 1):
            for k in range(1, d + 1):
                alpha = tuple(2 * k if j == i - 1 else 0 for j in range(n))
                out.append(((i, k), alpha, 1.0 / math.factorial(2 * k)))
    return out


@dataclass
class ProjectionCertificate:
    norm_kind: WeightKind
    d: int
    t: int
    p_value: float
    projection: Polynomial
    grams: dict[tuple[int, ...], np.ndarray]
    lambda0: float | None = None
    lambda_ik: dict[tuple[int, int], float] | None = None
    residuals: dict[Exponent, float] | None = None     # general form only
    dual_moments: MomentSequence | None = None
    lambda_effectively_zero: bool | None = None
    solver_status: SdpStatus = SdpStatus.OPTIMAL
    solver_iterations: int = 0
    solver_gap: float = 0.0

    def lambda_sum(self) -> float | None:
        if self.lambda0 is None:
            return None
        return self.lambda0 + sum(self.lambda_ik.values())


def _require_optimal(sol: SdpSolution, what: str) -> None:
    if sol.status is SdpStatus.OPTIMAL:
        return
    achieved = (
        f"relp {sol.primal_residual:.2e}, reld {sol.dual_residual:.2e}, "
        f"relgap {sol.relative_gap:.2e}"
    )
    if sol.status is SdpStatus.INFEASIBLE:
        # The lifted feasible set is never empty, so a reported infeasibility
        # can only be numerical.
        raise ProjectionFailure(
            f"{what}: solver reported infeasibility, which the lifted "
            f"formulation excludes; treating as numerical failure "
            f"({achieved}; {sol.message})",
            sol,
        )
    raise ProjectionFailure(
        f"{what}: solver status {sol.status.value} ({achieved}; {sol.message})",
        sol,
    )


@dataclass
class LambdaFormSdp(GramSdp):
    """The assembled lambda-form SDP plus the index maps to read it back."""

    lam_block: int
    pert: list[tuple[tuple[int, int], Exponent, float]]
    pert_index: dict[tuple[int, int], int]


def build_lambda_form_sdp(problem: ProjectionProblem) -> LambdaFormSdp:
    f, system, w = problem.f, problem.system, problem.norm
    n, d, t = system.dimension, problem.d, problem.t
    trunc = build_truncation(system, t)
    pert = perturbation_basis(n, d, w.kind)
    pert_by_alpha = {alpha: (key, scale) for key, alpha, scale in pert}
    pert_index = {key: p for p, (key, _a, _s) in enumerate(pert)}
    base = gram_sdp(trunc, (len(pert),))
    built = LambdaFormSdp(
        base.sdp, base.truncation, base.block_ids, 0, pert, pert_index
    )
    lam_blk = built.lam_block
    built.sdp.set_objective({lam_blk: [(p, p, 1.0) for p in range(len(pert))]})

    for alpha in monomial_basis(n, 2 * t):
        entries = built.entries(alpha)
        hit = pert_by_alpha.get(alpha)
        if hit is not None:
            key, scale = hit
            p = pert_index[key]
            entries.setdefault(lam_blk, []).append((p, p, -scale))
        built.sdp.add_constraint(entries, f.coefficient(alpha))
    return built


def project_lambda_form(
    problem: ProjectionProblem, config: SolverConfig | None = None
) -> ProjectionCertificate:
    """Minimal perturbation mass lambda lifting f into the truncated cone."""
    cfg = config or default_solver_config()
    f, w = problem.f, problem.norm
    n, d, t = problem.system.dimension, problem.d, problem.t
    built = build_lambda_form_sdp(problem)
    lam_blk, pert, pert_index = built.lam_block, built.pert, built.pert_index

    sol = solve(built.sdp, cfg)
    _require_optimal(sol, "lambda-form projection")

    lam_values = sol.x_blocks[lam_blk]
    lambda0 = float(lam_values[pert_index[(0, 0)]])
    lambda_ik = {
        key: float(lam_values[p])
        for key, p in pert_index.items()
        if key != (0, 0)
    }
    shift: dict[Exponent, float] = {}
    for key, alpha, scale in pert:
        value = float(lam_values[pert_index[key]]) * scale
        if value != 0.0:
            shift[alpha] = shift.get(alpha, 0.0) + value
    projection = f + Polynomial(n, shift)
    dual_moments = MomentSequence(
        n,
        2 * t,
        {alpha: -float(v) for alpha, v in zip(monomial_basis(n, 2 * t), sol.y)},
    )
    all_lambda = [lambda0] + list(lambda_ik.values())
    return ProjectionCertificate(
        norm_kind=w.kind,
        d=d,
        t=t,
        p_value=float(sol.primal_objective),
        projection=projection,
        grams=built.grams(sol),
        lambda0=lambda0,
        lambda_ik=lambda_ik,
        dual_moments=dual_moments,
        lambda_effectively_zero=all(v <= LAMBDA_ZERO_FLAG for v in all_lambda),
        solver_status=sol.status,
        solver_iterations=sol.iterations,
        solver_gap=sol.gap,
    )


def project_general_form(
    problem: ProjectionProblem, config: SolverConfig | None = None
) -> ProjectionCertificate:
    """Per-monomial slack formulation: minimize sum of w_alpha |f - h|_alpha."""
    cfg = config or default_solver_config()
    f, system, w = problem.f, problem.system, problem.norm
    n, d, t = system.dimension, problem.d, problem.t
    trunc = build_truncation(system, t)
    low = monomial_basis(n, 2 * d)
    low_index = {alpha: i for i, alpha in enumerate(low)}

    gs = gram_sdp(trunc, (len(low),) * 3)
    sdp = gs.sdp
    lam_blk, sp_blk, sm_blk = range(3)
    sdp.set_objective(
        {lam_blk: [(i, i, w.weight(alpha)) for i, alpha in enumerate(low)]}
    )

    for alpha in monomial_basis(n, 2 * t):
        h_entries = gs.entries(alpha)
        if sum(alpha) <= 2 * d:
            i = low_index[alpha]
            falpha = f.coefficient(alpha)
            plus = {blk: list(items) for blk, items in h_entries.items()}
            plus.setdefault(lam_blk, []).append((i, i, 1.0))
            plus.setdefault(sp_blk, []).append((i, i, -1.0))
            sdp.add_constraint(plus, falpha)
            minus = {
                blk: [(r, c, -v) for r, c, v in items]
                for blk, items in h_entries.items()
            }
            minus.setdefault(lam_blk, []).append((i, i, 1.0))
            minus.setdefault(sm_blk, []).append((i, i, -1.0))
            sdp.add_constraint(minus, -falpha)
        else:
            # Above the target degree the reconstruction must vanish.
            sdp.add_constraint(h_entries, 0.0)

    sol = solve(sdp, cfg)
    _require_optimal(sol, "general-form projection")

    from .cones import gram_reconstruct

    grams = gs.grams(sol)
    projection = gram_reconstruct(trunc, list(grams.values()))
    residuals = {
        alpha: float(sol.x_blocks[lam_blk][i]) for alpha, i in low_index.items()
    }
    return ProjectionCertificate(
        norm_kind=w.kind,
        d=d,
        t=t,
        p_value=float(sol.primal_objective),
        projection=projection,
        grams=grams,
        residuals=residuals,
        solver_status=sol.status,
        solver_iterations=sol.iterations,
        solver_gap=sol.gap,
    )


@dataclass
class DualMomentResult:
    moments: MomentSequence
    value: float                 # sup of -L_y(f); equals the projection distance
    riesz_of_f: float            # L_{y*}(f) recomputed from the sequence
    solution: SdpSolution


def dual_moment_problem(
    problem: ProjectionProblem, config: SolverConfig | None = None
) -> DualMomentResult:
    """Moment-side dual: sup -L_y(f) over PSD localizing, |y_a| <= w_a.

    Implemented for the t = d case, where the weight box bounds every
    moment the matrices touch.  The corner bounds L_y(1) <= 1 and
    L_y(x_i^{2k}) <= (2k)! are implied by the box and therefore not
    duplicated as rows.
    """
    cfg = config or default_solver_config()
    if problem.t != problem.d:
        raise ValueError(
            "dual moment form is defined for t = d; use closure_probe for "
            "higher cone levels"
        )
    f, system, w = problem.f, problem.system, problem.norm
    n, d = system.dimension, problem.d
    trunc = build_truncation(system, d)
    alphas = monomial_basis(n, 2 * d)
    aindex = {alpha: i for i, alpha in enumerate(alphas)}
    N = len(alphas)

    gs = gram_sdp(trunc, (N, N, N))
    sdp = gs.sdp
    u_blk, v_blk, box_blk = range(3)

    # minimize L_y(f) = sum f_alpha (u_alpha - v_alpha); report the negation.
    obj = {
        u_blk: [(aindex[a], aindex[a], c) for a, c in f.terms.items()],
        v_blk: [(aindex[a], aindex[a], -c) for a, c in f.terms.items()],
    }
    sdp.set_objective(obj)

    # Localizing-matrix linkage: Z_J[b,g] = sum_alpha B^J_alpha[b,g] y_alpha.
    for block in trunc.blocks:
        zb = gs.block_ids[block.label]
        side = block.side
        linkage: dict[tuple[int, int], list[tuple[int, float]]] = {}
        for alpha in block.basis.nonzero_exponents():
            i = aindex[alpha]
            for r, c, coeff in block.basis.entries(alpha):
                linkage.setdefault((r, c), []).append((i, coeff))
        for r in range(side):
            for c in range(r, side):
                entries: dict[int, list[tuple[int, int, float]]] = {
                    zb: [(r, c, 1.0 if r == c else 0.5)]
                }
                terms = linkage.get((r, c))
                if terms:
                    entries[u_blk] = [(i, i, -coeff) for i, coeff in terms]
                    entries[v_blk] = [(i, i, coeff) for i, coeff in terms]
                sdp.add_constraint(entries, 0.0)

    # Weight box: u_alpha + v_alpha + slack = w_alpha, so |y_alpha| <= w_alpha.
    for alpha in alphas:
        i = aindex[alpha]
        sdp.add_constraint(
            {
                u_blk: [(i, i, 1.0)],
                v_blk: [(i, i, 1.0)],
                box_blk: [(i, i, 1.0)],
            },
            w.weight(alpha),
        )

    sol = solve(sdp, cfg)
    _require_optimal(sol, "dual moment problem")
    y_values = {
        alpha: float(sol.x_blocks[u_blk][i] - sol.x_blocks[v_blk][i])
        for alpha, i in aindex.items()
    }
    moments = MomentSequence(n, 2 * d, y_values)
    riesz_f = sum(c * y_values[a] for a, c in f.terms.items())
    return DualMomentResult(
        moments=moments,
        value=-float(sol.primal_objective),
        riesz_of_f=riesz_f,
        solution=sol,
    )


@dataclass(frozen=True)
class ClosureRow:
    t: int
    p_value: float
    lambda0: float
    lambda_ik: dict[tuple[int, int], float]


def closure_probe(
    f: Polynomial,
    system: SemialgebraicSystem,
    d: int,
    t_list: list[int],
    norm: WeightSequence | None = None,
    config: SolverConfig | None = None,
) -> list[ClosureRow]:
    """Projection distance against growing cone level at fixed degree cap.

    The distances are monotone nonincreasing in t (larger cones).  Their
    limit is the distance to the closure of the degree-capped cone; only
    the finite prefix is computed here.  On R^n the top-degree forms of
    squares cannot cancel, so the level-t cone meets R[x]_{2d} in the
    level-d cone for every t >= d: one solve at t = d gives every row.
    A level asked for twice is solved once.
    With generators, for t > d the moment-side dual need not attain its
    supremum, the dual iterates can grow without bound, and computed
    values then carry an absolute error on the order of feas_tol times
    the dual norm.
    """
    w = norm or WeightSequence.lw()
    problems = [ProjectionProblem(f, system, w, d, t) for t in t_list]
    certs: dict[int, ProjectionCertificate] = {}
    rows = []
    for problem in problems:
        level = problem.t if system.generators else d
        if level not in certs:
            certs[level] = project_lambda_form(
                ProjectionProblem(f, system, w, d, level), config
            )
        cert = certs[level]
        rows.append(
            ClosureRow(problem.t, cert.p_value, cert.lambda0, dict(cert.lambda_ik))
        )
    return rows


# ---------------------------------------------------------------------------
# Certificate text format: sections LAMBDA, GRAMS, P_VALUE, PROJECTION in
# that order (an optional VERDICT section comes first when present).
# Matrices are row-major, 17 significant digits, stable field order.
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return "%.17g" % v


def _label_str(label: tuple[int, ...]) -> str:
    return "unit" if not label else ",".join(str(j) for j in label)


def _label_parse(text: str) -> tuple[int, ...]:
    if text == "unit":
        return ()
    return tuple(int(tok) for tok in text.split(","))


@dataclass
class CertificateDocument:
    """Parsed form of the certificate text; formats back byte-identically."""

    verdict: str | None
    lambda0: float | None
    lambda_ik: dict[tuple[int, int], float]
    zero_flag_line: str | None
    residuals: list[tuple[tuple[int, ...], float]]
    grams: list[tuple[tuple[int, ...], np.ndarray]]
    p_value: float
    projection_text: str
    # A refutation's separating functional, written after PROJECTION.
    separating_moments: MomentSequence | None = None


def parse_certificate(text: str) -> CertificateDocument:
    lines = text.splitlines()
    section = None
    verdict = None
    lambda0 = None
    lambda_ik: dict[tuple[int, int], float] = {}
    zero_flag_line = None
    residuals: list[tuple[tuple[int, ...], float]] = []
    grams: list[tuple[tuple[int, ...], np.ndarray]] = []
    p_value = None
    projection_text = None
    moment_lines: list[str] = []
    idx = 0
    while idx < len(lines):
        line = lines[idx]
        idx += 1
        if line in (
            "VERDICT", "LAMBDA", "GRAMS", "P_VALUE", "PROJECTION",
            "SEPARATING_MOMENTS",
        ):
            section = line
            continue
        if not line.strip():
            continue
        if section == "VERDICT":
            verdict = line
        elif section == "LAMBDA":
            toks = line.split()
            if toks[0] == "lambda0":
                lambda0 = float(toks[1])
            elif toks[0] == "lambda":
                lambda_ik[(int(toks[1]), int(toks[2]))] = float(toks[3])
            elif toks[0].startswith("effectively_zero_at_"):
                zero_flag_line = line
            elif toks[0] == "residual":
                residuals.append(
                    (tuple(int(t) for t in toks[1:-1]), float(toks[-1]))
                )
            else:
                raise ValueError(f"unrecognized LAMBDA line {line!r}")
        elif section == "GRAMS":
            toks = line.split()
            if toks[0] != "block":
                raise ValueError(f"expected block header, got {line!r}")
            label = _label_parse(toks[1])
            side = int(toks[3])
            mat = np.array(
                [
                    [float(v) for v in lines[idx + r].split()]
                    for r in range(side)
                ]
            )
            idx += side
            grams.append((label, mat))
        elif section == "P_VALUE":
            p_value = float(line)
        elif section == "PROJECTION":
            projection_text = line
        elif section == "SEPARATING_MOMENTS":
            moment_lines.append(line)
        else:
            raise ValueError(f"content before any section: {line!r}")
    if p_value is None or projection_text is None:
        raise ValueError("certificate text missing P_VALUE or PROJECTION")
    return CertificateDocument(
        verdict,
        lambda0,
        lambda_ik,
        zero_flag_line,
        residuals,
        grams,
        p_value,
        projection_text,
        parse_moment_text("\n".join(moment_lines)) if moment_lines else None,
    )


def format_certificate(
    cert: ProjectionCertificate,
    verdict: str | None = None,
    separating_moments: MomentSequence | None = None,
) -> str:
    zero_flag_line = None
    if cert.lambda0 is not None:
        flag = "true" if cert.lambda_effectively_zero else "false"
        zero_flag_line = f"effectively_zero_at_{_fmt(LAMBDA_ZERO_FLAG)} {flag}"
    residuals = sorted(
        (cert.residuals or {}).items(), key=lambda item: (sum(item[0]), item[0])
    )
    grams = [
        (label, np.asarray(cert.grams[label]))
        for label in sorted(cert.grams, key=lambda L: (len(L), L))
    ]
    doc = CertificateDocument(
        verdict,
        cert.lambda0,
        cert.lambda_ik or {},
        zero_flag_line,
        residuals,
        grams,
        cert.p_value,
        str(cert.projection),
        separating_moments,
    )
    return format_certificate_document(doc)


def format_certificate_document(doc: CertificateDocument) -> str:
    lines: list[str] = []
    if doc.verdict is not None:
        lines.append("VERDICT")
        lines.append(doc.verdict)
    lines.append("LAMBDA")
    if doc.lambda0 is not None:
        lines.append(f"lambda0 {_fmt(doc.lambda0)}")
        for (i, k), v in sorted(doc.lambda_ik.items()):
            lines.append(f"lambda {i} {k} {_fmt(v)}")
        if doc.zero_flag_line is not None:
            lines.append(doc.zero_flag_line)
    for alpha, v in doc.residuals:
        coords = " ".join(str(x) for x in alpha)
        lines.append(f"residual {coords} {_fmt(v)}")
    lines.append("GRAMS")
    for label, mat in doc.grams:
        lines.append(f"block {_label_str(label)} side {mat.shape[0]}")
        for row in mat:
            lines.append(" ".join(_fmt(v) for v in row))
    lines.append("P_VALUE")
    lines.append(_fmt(doc.p_value))
    lines.append("PROJECTION")
    lines.append(doc.projection_text)
    if doc.separating_moments is not None:
        lines.append("SEPARATING_MOMENTS")
        lines.extend(format_moment_text(doc.separating_moments).splitlines())
    return "\n".join(lines) + "\n"
