"""Command-line front end.

Subcommands: project, certify, psatz, moments-check, export-sdpa, and
repro-motzkin.  Exit codes are uniform: 0 success, 1 bad input, 2 numerical
failure, 3 searched-but-not-certified (or tolerance failure).  A config
file of key=value lines may set defaults; explicit flags win.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields, replace

from .certificates import (
    MembershipVerdict,
    PerturbationKind,
    PsatzQuery,
    membership,
    psatz_search,
)
from .cones import ConeKind, SemialgebraicSystem, parse_system_text
from .moments import format_moment_text, kmoment_condition_check, parse_moment_text
from .polynomials import (
    PolynomialError,
    WeightSequence,
    max_variable_index,
    parse_polynomial,
)
from .projection import (
    LAMBDA_ZERO_FLAG,
    ProjectionCertificate,
    ProjectionFailure,
    ProjectionProblem,
    build_lambda_form_sdp,
    format_certificate,
    project_lambda_form,
)
from .sdp import SolverConfig
from .sdpa_io import export_sdpa
from .instances import (
    MOTZKIN_P_RELATIVE_TOL,
    MOTZKIN_REFERENCE,
    MOTZKIN_SYMMETRY_RELATIVE_TOL,
    free_plane,
    motzkin_polynomial,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2
EXIT_NOT_CERTIFIED = 3


@dataclass
class RunConfig:
    norm: str = "lw"
    cone: str = "quadratic"
    d: int = 1
    t: int | None = None
    eps: float = 1e-2
    dmax: int = 4
    feas_tol: float = 1e-8
    gap_tol: float = 1e-6
    format: str = "text"
    out: str | None = None

    def __post_init__(self):
        if self.feas_tol <= 0 or self.gap_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        # Config-file values do not pass through argparse's choices.
        if self.format not in ("text", "structured"):
            raise ValueError(f"format must be text or structured, got {self.format!r}")
        if self.norm not in ("l1", "lw"):
            raise ValueError(f"norm must be l1 or lw, got {self.norm!r}")

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        values = {}
        with open(path) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"bad config line {line!r}; expected key=value")
                key, val = (part.strip() for part in line.split("=", 1))
                values[key] = val
        return cls().merged(values)

    def merged(self, overrides: dict) -> "RunConfig":
        kwargs = {}
        typed = {f.name: f for f in fields(self)}
        for key, val in overrides.items():
            if val is None:
                continue
            if key not in typed:
                raise ValueError(f"unknown config key {key!r}")
            if isinstance(val, str):
                if key in ("d", "dmax"):
                    val = int(val)
                elif key == "t":
                    val = None if val in ("", "none") else int(val)
                elif key in ("eps", "feas_tol", "gap_tol"):
                    val = float(val)
                elif key == "out" and val == "":
                    val = None
            kwargs[key] = val
        return replace(self, **kwargs)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(feas_tol=self.feas_tol, gap_tol=self.gap_tol)


def _add_common(sub: argparse.ArgumentParser, with_f: bool = True) -> None:
    if with_f:
        sub.add_argument("--f", help="polynomial over x1..xn")
    sub.add_argument("--system", help="semialgebraic system file")
    sub.add_argument("--norm", choices=["l1", "lw"], default=None)
    sub.add_argument("--cone", choices=["quadratic", "preorder"], default=None)
    sub.add_argument("--d", type=int, default=None)
    sub.add_argument("--t", type=int, default=None)
    sub.add_argument("--eps", type=float, default=None)
    sub.add_argument("--dmax", type=int, default=None)
    sub.add_argument("--format", choices=["text", "structured"], default=None)
    sub.add_argument("--out", default=None)
    sub.add_argument("--feas-tol", dest="feas_tol", type=float, default=None)
    sub.add_argument("--gap-tol", dest="gap_tol", type=float, default=None)
    sub.add_argument("--config", default=None, help="key=value defaults file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sosproj",
        description=(
            "Weighted-l1 projections onto truncated SOS cones, cone "
            "membership certificates, and moment diagnostics"
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("project", help="canonical projection onto the cone")
    _add_common(p)
    p = subs.add_parser("certify", help="cone membership at level --d")
    _add_common(p)
    p = subs.add_parser("psatz", help="certificate search for f >= 0 on K")
    _add_common(p)
    p = subs.add_parser("moments-check", help="necessary moment conditions")
    _add_common(p, with_f=False)
    p.add_argument("--moments", help="moment sequence file", required=True)
    p = subs.add_parser("export-sdpa", help="write the projection SDP (.dat-s)")
    _add_common(p)
    p = subs.add_parser("repro-motzkin", help="rerun the bundled Motzkin table")
    _add_common(p, with_f=False)
    return parser


def _load_config(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        cfg = RunConfig.from_file(args.config)
    # Every RunConfig field has a flag of the same name; set flags win.
    overrides = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    return cfg.merged(overrides)


def _build_system(args, cfg: RunConfig) -> SemialgebraicSystem:
    kind = ConeKind(cfg.cone)
    if getattr(args, "system", None):
        with open(args.system) as fh:
            system = parse_system_text(fh.read())
        if args.cone is not None and system.cone_kind is not kind:
            system = SemialgebraicSystem(
                system.dimension, system.generators, kind
            )
        return system
    f_text = getattr(args, "f", None) or ""
    n = max(1, max_variable_index(f_text))
    return SemialgebraicSystem(n, (), kind)


def _parse_f(args, system: SemialgebraicSystem):
    if not getattr(args, "f", None):
        raise PolynomialError("missing --f polynomial")
    return parse_polynomial(args.f, system.dimension)


def _emit(text: str, cfg: RunConfig) -> None:
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_project(args) -> int:
    cfg = _load_config(args)
    system = _build_system(args, cfg)
    f = _parse_f(args, system)
    norm = WeightSequence.from_name(cfg.norm)
    problem = ProjectionProblem(f, system, norm, cfg.d, cfg.t)
    try:
        cert = project_lambda_form(problem, cfg.solver_config())
    except ProjectionFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    lam_bits = " ".join(
        f"lambda[{i},{k}]={v:.6e}" for (i, k), v in sorted(cert.lambda_ik.items())
    )
    print(f"p_value {cert.p_value:.12e}")
    print(f"lambda0 {cert.lambda0:.6e} {lam_bits}")
    if cert.lambda_effectively_zero:
        print(
            f"lambda effectively zero at {LAMBDA_ZERO_FLAG:g}; "
            "f is in the cone numerically"
        )
    certificate = format_certificate(cert)
    if cfg.out or cfg.format == "structured":
        _emit(certificate, cfg)
    return EXIT_OK


def cmd_certify(args) -> int:
    cfg = _load_config(args)
    system = _build_system(args, cfg)
    f = _parse_f(args, system)
    result = membership(f, system, cfg.d, cfg.solver_config())
    print(f"verdict {result.verdict.value} level {result.level}")
    if result.verdict is MembershipVerdict.INCONCLUSIVE:
        print(f"inconclusive: {result.message}")
        return EXIT_NUMERICAL
    in_cone = result.verdict is MembershipVerdict.IN_CONE
    if in_cone:
        print(f"reconstruction_error {result.reconstruction_error:.3e}")
        verdict = f"in_cone level {cfg.d}"
    else:
        print(f"separation L_y(f) = {result.separation:.6e}")
        verdict = f"not_in_cone level {cfg.d} separation {result.separation:.17g}"
    if cfg.out or cfg.format == "structured":
        cert = ProjectionCertificate(
            norm_kind=WeightSequence.from_name(cfg.norm).kind,
            d=cfg.d,
            t=cfg.d,
            p_value=0.0,
            projection=f,
            grams=result.grams or {},
        )
        body = format_certificate(cert, verdict=verdict)
        if not in_cone:
            body += "SEPARATING_MOMENTS\n" + format_moment_text(result.separating)
        _emit(body, cfg)
    return EXIT_OK if in_cone else EXIT_NOT_CERTIFIED


def cmd_psatz(args) -> int:
    cfg = _load_config(args)
    system = _build_system(args, cfg)
    f = _parse_f(args, system)
    # The top-even-power perturbation is the one whose certification level
    # tracks the projection lambdas; the exponential tower is available
    # through the library API.
    query = PsatzQuery(
        f, system, cfg.eps, cfg.dmax, PerturbationKind.TOP_EVEN_POWER
    )
    result = psatz_search(query, cfg.solver_config())
    print(str(result))
    if result.certified:
        return EXIT_OK
    if result.inconclusive and len(result.inconclusive) == result.solves:
        print("all membership solves were inconclusive", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_NOT_CERTIFIED


def cmd_moments_check(args) -> int:
    cfg = _load_config(args)
    if not getattr(args, "system", None):
        print("moments-check requires --system", file=sys.stderr)
        return EXIT_INPUT
    with open(args.system) as fh:
        system = parse_system_text(fh.read())
    with open(args.moments) as fh:
        y = parse_moment_text(fh.read())
    report = kmoment_condition_check(y, system, cfg.d)
    print(str(report))
    for check in report.checks:
        status = "skipped" if check.skipped else ("ok" if check.psd_ok else "VIOLATED")
        print(
            f"generator {check.label} order {check.order} "
            f"min_eig {check.min_eigenvalue:.6e} {status}"
        )
    return EXIT_OK if report.necessary_conditions_hold else EXIT_NOT_CERTIFIED


def cmd_export_sdpa(args) -> int:
    cfg = _load_config(args)
    system = _build_system(args, cfg)
    f = _parse_f(args, system)
    norm = WeightSequence.from_name(cfg.norm)
    problem = ProjectionProblem(f, system, norm, cfg.d, cfg.t)
    built = build_lambda_form_sdp(problem)
    comment = (
        f"projection SDP: norm={cfg.norm} d={cfg.d} t={problem.t} "
        f"generators={system.num_generators}"
    )
    _emit(export_sdpa(built.sdp, comments=(comment,)), cfg)
    return EXIT_OK


def cmd_repro_motzkin(args) -> int:
    cfg = _load_config(args)
    f = motzkin_polynomial()
    system = free_plane()
    norm = WeightSequence.l1()
    all_pass = True
    print("d   p_computed     p_reference  lambda_computed                    "
          "lambda_reference                 verdict")
    for row in MOTZKIN_REFERENCE:
        problem = ProjectionProblem(f, system, norm, row.d)
        try:
            cert = project_lambda_form(problem, cfg.solver_config())
        except ProjectionFailure as exc:
            print(f"{row.d}   solver failure: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        lam1 = cert.lambda_ik[(1, row.d)]
        lam2 = cert.lambda_ik[(2, row.d)]
        p_ok = abs(cert.p_value - row.p) <= MOTZKIN_P_RELATIVE_TOL * row.p
        sym_ok = abs(lam1 - lam2) <= MOTZKIN_SYMMETRY_RELATIVE_TOL * max(
            abs(lam1), abs(lam2), 1e-30
        )
        ok = p_ok and sym_ok
        all_pass = all_pass and ok
        lam_c = f"({cert.lambda0:.3e}, {lam1:.3e}, {lam2:.3e})"
        lam_r = "({:.3e}, {:.3e}, {:.3e})".format(*row.lambdas)
        print(
            f"{row.d}   {cert.p_value:.6e}   {row.p:.1e}      {lam_c}  {lam_r}  "
            f"{'PASS' if ok else 'FAIL'}"
        )
    return EXIT_OK if all_pass else EXIT_NOT_CERTIFIED


COMMANDS = {
    "project": cmd_project,
    "certify": cmd_certify,
    "psatz": cmd_psatz,
    "moments-check": cmd_moments_check,
    "export-sdpa": cmd_export_sdpa,
    "repro-motzkin": cmd_repro_motzkin,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (PolynomialError, ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ProjectionFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
