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
import re
from dataclasses import dataclass, field

import numpy as np

from .cones import GramSdp, SemialgebraicSystem, build_truncation, gram_sdp
from .moments import MomentSequence, format_moment_text, parse_moment_text, riesz
from .polynomials import (
    Exponent,
    Polynomial,
    WeightKind,
    WeightSequence,
    count_monomials,
    format_polynomial,
    max_variable_index,
    parse_polynomial,
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
    pert_index = {key: p for p, (key, _a, _s) in enumerate(pert)}
    base = gram_sdp(trunc, (len(pert),))
    built = LambdaFormSdp(**vars(base), lam_block=0, pert=pert, pert_index=pert_index)
    lam_blk = built.lam_block
    built.sdp.set_objective({lam_blk: [(p, p, 1.0) for p in range(len(pert))]})

    lam_entries = {alpha: [(p, p, -scale)] for p, (_k, alpha, scale) in enumerate(pert)}
    for alpha, entries, rhs in built.rows(f):
        if alpha in lam_entries:
            entries[lam_blk] = lam_entries[alpha]
        built.sdp.add_constraint(entries, rhs)
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
        dual_moments=built.functional(sol.y),
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
    # Rows run by degree, so the first N are the monomials of degree <= 2d.
    N = count_monomials(n, 2 * d)

    gs = gram_sdp(trunc, (N,) * 3)
    sdp = gs.sdp
    low = gs.row_exponents[:N]
    lam_blk, sp_blk, sm_blk = range(3)
    sdp.set_objective(
        {lam_blk: [(i, i, w.weight(alpha)) for i, alpha in enumerate(low)]}
    )

    # Two rows give r_alpha >= |f - h|_alpha up to degree 2d; above it h_alpha = 0.
    for i, (_alpha, h_entries, falpha) in enumerate(gs.rows(f)):
        if i < N:
            minus = {
                blk: [(r, c, -v) for r, c, v in items]
                for blk, items in h_entries.items()
            }
            sdp.add_constraint(
                {**h_entries, lam_blk: [(i, i, 1.0)], sp_blk: [(i, i, -1.0)]}, falpha
            )
            sdp.add_constraint(
                {**minus, lam_blk: [(i, i, 1.0)], sm_blk: [(i, i, -1.0)]}, -falpha
            )
        else:
            sdp.add_constraint(h_entries, falpha)

    sol = solve(sdp, cfg)
    _require_optimal(sol, "general-form projection")

    from .cones import gram_reconstruct

    grams = gs.grams(sol)
    projection = gram_reconstruct(trunc, list(grams.values()))
    residuals = {alpha: float(r) for alpha, r in zip(low, sol.x_blocks[lam_blk])}
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
    N = count_monomials(n, 2 * d)

    gs = gram_sdp(trunc, (N, N, N))
    sdp = gs.sdp
    alphas = gs.row_exponents
    aindex = {alpha: i for i, alpha in enumerate(alphas)}
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
        for r, c, terms in block.basis.positions():
            entries = {zb: [(r, c, 1.0 if r == c else 0.5)]}
            entries[u_blk] = [(aindex[a], aindex[a], -coeff) for a, coeff in terms]
            entries[v_blk] = [(aindex[a], aindex[a], coeff) for a, coeff in terms]
            sdp.add_constraint(entries, 0.0)

    # Weight box: u_alpha + v_alpha + slack = w_alpha, so |y_alpha| <= w_alpha.
    for i, alpha in enumerate(alphas):
        box = [(i, i, 1.0)]
        sdp.add_constraint({u_blk: box, v_blk: box, box_blk: box}, w.weight(alpha))

    sol = solve(sdp, cfg)
    _require_optimal(sol, "dual moment problem")
    y = sol.x_blocks[u_blk] - sol.x_blocks[v_blk]
    moments = MomentSequence(n, 2 * d, dict(zip(alphas, y)))
    return DualMomentResult(
        moments=moments,
        value=-float(sol.primal_objective),
        riesz_of_f=riesz(moments, f),
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
        level = system.distinct_levels(range(d, problem.t + 1))[-1]
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
# that order, after an optional VERDICT and before an optional
# SEPARATING_MOMENTS.  Matrices are row-major, 17 significant digits.
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return "%.17g" % v


def _number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"certificate number {text!r} is not finite")
    return value


def _zero_flag_line(flag: bool) -> str:
    return f"effectively_zero_at_{_fmt(LAMBDA_ZERO_FLAG)} {'true' if flag else 'false'}"


def _label_str(label: tuple[int, ...]) -> str:
    return "unit" if not label else ",".join(str(j) for j in label)


def _label_parse(text: str) -> tuple[int, ...]:
    if text == "unit":
        return ()
    label = tuple(int(tok) for tok in text.split(","))
    if label[0] < 1 or any(a >= b for a, b in zip(label, label[1:])):
        raise ValueError(
            f"block label {text!r} is neither 'unit' nor increasing generator "
            "indices >= 1"
        )
    return label


@dataclass
class CertificateDocument:
    """The certificate text as a record; formats back byte-identically.

    The writer orders lambdas by (i, k), residuals by degree then exponent,
    and Gram blocks by label size then label.
    """

    verdict: str | None = None
    lambda0: float | None = None
    lambda_ik: dict[tuple[int, int], float] = field(default_factory=dict)
    lambda_effectively_zero: bool | None = None
    residuals: dict[Exponent, float] = field(default_factory=dict)
    grams: dict[tuple[int, ...], np.ndarray] = field(default_factory=dict)
    p_value: float = 0.0
    projection_text: str = "0"
    # A refutation's separating functional, written after PROJECTION.
    separating_moments: MomentSequence | None = None


def _one_line(sections: dict[str, list[str]], name: str) -> str:
    lines = sections.get(name, [])
    if len(lines) != 1:
        raise ValueError(f"certificate section {name} needs one line, has {len(lines)}")
    return lines[0]


def parse_certificate(text: str) -> CertificateDocument:
    """Read certificate text; ValueError unless it formats back byte for byte."""
    sections: dict[str, list[str]] = {}
    current = None
    for line in text.splitlines():
        if line in (
            "VERDICT", "LAMBDA", "GRAMS", "P_VALUE", "PROJECTION",
            "SEPARATING_MOMENTS",
        ):
            current = sections.setdefault(line, [])
        elif not line.strip():
            continue
        elif current is None:
            raise ValueError(f"content before any section: {line!r}")
        else:
            current.append(line)

    doc = CertificateDocument()
    flags = {_zero_flag_line(True): True, _zero_flag_line(False): False}
    for line in sections.get("LAMBDA", []):
        toks = line.split()
        if toks[0] == "lambda0" and len(toks) == 2:
            doc.lambda0 = _number(toks[1])
        elif toks[0] == "lambda" and len(toks) == 4:
            doc.lambda_ik[(int(toks[1]), int(toks[2]))] = _number(toks[3])
        elif line in flags:
            doc.lambda_effectively_zero = flags[line]
        elif toks[0] == "residual" and len(toks) >= 3:
            alpha = tuple(int(tok) for tok in toks[1:-1])
            if min(alpha) < 0:
                raise ValueError(f"negative exponent in {line!r}")
            doc.residuals[alpha] = _number(toks[-1])
        else:
            raise ValueError(f"unrecognized LAMBDA line {line!r}")

    rows = sections.get("GRAMS", [])
    idx = 0
    while idx < len(rows):
        toks = rows[idx].split()
        if len(toks) != 4 or toks[0] != "block" or toks[2] != "side":
            raise ValueError(f"expected 'block <label> side <n>', got {rows[idx]!r}")
        side = int(toks[3])
        body = [row.split() for row in rows[idx + 1:idx + 1 + side]]
        if side < 1 or len(body) < side or any(len(r) != side for r in body):
            raise ValueError(f"block {toks[1]} needs {side} rows of {side} entries")
        gram = np.array([[_number(v) for v in row] for row in body])
        if not np.array_equal(gram, gram.T):
            raise ValueError(f"block {toks[1]} is not symmetric")
        doc.grams[_label_parse(toks[1])] = gram
        idx += 1 + side

    if "VERDICT" in sections:
        # Only the two lines certify writes; a separation prints back as itself.
        doc.verdict = line = _one_line(sections, "VERDICT")
        k = r"level (0|[1-9]\d*)"
        written = re.fullmatch(rf"in_cone {k}|not_in_cone {k} separation (\S+)", line)
        if not written or (written[3] and _fmt(_number(written[3])) != written[3]):
            raise ValueError(f"VERDICT {line!r} is not a line certify writes")
    doc.p_value = _number(_one_line(sections, "P_VALUE"))
    doc.projection_text = projection = _one_line(sections, "PROJECTION")
    n = max(1, max_variable_index(projection))
    if format_polynomial(parse_polynomial(projection, n)) != projection:
        raise ValueError(f"PROJECTION {projection!r} does not print back as itself")
    if "SEPARATING_MOMENTS" in sections:
        doc.separating_moments = parse_moment_text(
            "\n".join(sections["SEPARATING_MOMENTS"])
        )
    if format_certificate_document(doc) != text:
        raise ValueError("certificate text is not as format_certificate writes it")
    return doc


def format_certificate(cert: ProjectionCertificate) -> str:
    return format_certificate_document(
        CertificateDocument(
            lambda0=cert.lambda0,
            lambda_ik=cert.lambda_ik or {},
            lambda_effectively_zero=cert.lambda_effectively_zero,
            residuals=cert.residuals or {},
            grams=cert.grams,
            p_value=cert.p_value,
            projection_text=str(cert.projection),
        )
    )


def format_certificate_document(doc: CertificateDocument) -> str:
    lines: list[str] = []
    if doc.verdict is not None:
        lines += ["VERDICT", doc.verdict]
    lines.append("LAMBDA")
    if doc.lambda0 is not None:
        lines.append(f"lambda0 {_fmt(doc.lambda0)}")
        for (i, k), v in sorted(doc.lambda_ik.items()):
            lines.append(f"lambda {i} {k} {_fmt(v)}")
        if doc.lambda_effectively_zero is not None:
            lines.append(_zero_flag_line(doc.lambda_effectively_zero))
    for alpha in sorted(doc.residuals, key=lambda a: (sum(a), a)):
        coords = " ".join(str(x) for x in alpha)
        lines.append(f"residual {coords} {_fmt(doc.residuals[alpha])}")
    lines.append("GRAMS")
    for label in sorted(doc.grams, key=lambda L: (len(L), L)):
        mat = doc.grams[label]
        lines.append(f"block {_label_str(label)} side {mat.shape[0]}")
        for row in mat:
            lines.append(" ".join(_fmt(v) for v in row))
    lines += ["P_VALUE", _fmt(doc.p_value), "PROJECTION", doc.projection_text]
    if doc.separating_moments is not None:
        lines.append("SEPARATING_MOMENTS")
        lines.extend(format_moment_text(doc.separating_moments).splitlines())
    return "\n".join(lines) + "\n"
