"""Command-line front end.

Each subcommand in COMMANDS takes only the options it reads; OPTIONS gives
each option's type, choices and default once.  Exit codes: 0 success, 1 bad
input, 2 numerical failure, 3 searched but not certified (or tolerance
failure).  A key=value config file may set defaults; explicit flags win.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from typing import Callable, NamedTuple

from .certificates import (
    MembershipVerdict,
    PerturbationKind,
    PsatzQuery,
    membership,
    psatz_search,
)
from .cones import ConeKind, SemialgebraicSystem, parse_system_text
from .moments import kmoment_condition_check, parse_moment_text
from .polynomials import (
    Polynomial,
    PolynomialError,
    WeightSequence,
    parse_polynomial,
    text_dimension,
)
from .projection import (
    LAMBDA_ZERO_FLAG,
    CertificateDocument,
    ProjectionFailure,
    ProjectionProblem,
    build_lambda_form_sdp,
    format_certificate,
    format_certificate_document,
    project_lambda_form,
    verdict_line,
)
from .sdp import SolverConfig
from .sdpa_io import export_sdpa

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2
EXIT_NOT_CERTIFIED = 3


def _positive(convert: Callable[[str], float]) -> Callable[[str], float]:
    def positive(text: str) -> float:
        value = convert(text)
        if not 0 < value < math.inf:
            raise ValueError(f"{text!r} is not finite and positive")
        return value

    return positive


class Option(NamedTuple):
    # The flag --name (dashes for underscores); also a config-file key when
    # `config` is true.  A config value in `unset` leaves the option unset.
    default: object = None
    type: Callable[[str], object] = str
    choices: tuple[str, ...] | None = None
    help: str | None = None
    config: bool = True
    unset: tuple[str, ...] = ()


OPTIONS = {
    "f": Option(help="polynomial over x1..xn", config=False),
    "system": Option(help="semialgebraic system file", config=False),
    "moments": Option(help="moment sequence file", config=False),
    "norm": Option("lw", choices=("l1", "lw")),
    "cone": Option("quadratic", choices=("quadratic", "preorder")),
    "d": Option(1, _positive(int)),
    "t": Option(None, int, unset=("", "none")),
    "eps": Option(1e-2, float),
    "dmax": Option(4, int),
    "format": Option("text", choices=("text", "structured")),
    "out": Option(None, unset=("",)),
    "feas_tol": Option(SolverConfig.feas_tol, _positive(float)),
    "gap_tol": Option(SolverConfig.gap_tol, _positive(float)),
}


class _Parser(argparse.ArgumentParser):
    # Bad flags are bad input (exit 1); argparse's own exit 2 would read as
    # a numerical failure.
    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sosproj",
        description=(
            "Weighted-l1 projections onto truncated SOS cones, cone "
            "membership certificates, and moment diagnostics"
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        # No prefix aliases: `--c` must not mean --config where --cone is absent.
        sub = subs.add_parser(name, help=command.help, allow_abbrev=False)
        for option in command.options.split():
            spec = OPTIONS[option]
            sub.add_argument(
                "--" + option.replace("_", "-"), type=spec.type, choices=spec.choices,
                required=option in command.required.split(), help=spec.help,
            )
        sub.add_argument("--config", help="key=value defaults file")
    return parser


def _read_config(path: str) -> dict:
    """Every value is converted and checked as its flag's would be, also
    for keys the subcommand does not read."""
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line {line!r}; expected key=value")
            key, text = (part.strip() for part in line.split("=", 1))
            spec = OPTIONS.get(key)
            if spec is None or not spec.config:
                raise ValueError(f"unknown config key {key!r}")
            try:
                value = None if text in spec.unset else spec.type(text)
                if spec.choices and value not in spec.choices:
                    raise ValueError(f"{text!r} is not one of {spec.choices}")
            except ValueError as exc:
                raise ValueError(f"config key {key}: {exc}") from None
            values[key] = value
    return values


def _fill_defaults(args, options: list[str]) -> None:
    """Options left unset on the command line take the config file's value,
    else the table default.  A system file's cone line outranks both: only
    an explicit --cone overrides it."""
    values = {name: OPTIONS[name].default for name in options}
    if args.config:
        values.update(_read_config(args.config))
    for name in options:
        if getattr(args, name) is None and not (name == "cone" and args.system):
            setattr(args, name, values[name])


def _solver_config(args) -> SolverConfig:
    return SolverConfig(feas_tol=args.feas_tol, gap_tol=args.gap_tol)


def read_system_and_f(
    f_text: str | None, system_path: str | None, cone: str | None = None
) -> tuple[SemialgebraicSystem, Polynomial | None]:
    """The system file's system, or R^n in f's variables, with cone kind
    `cone` if given; and f in the system's variables (None without f)."""
    if system_path:
        with open(system_path) as fh:
            system = parse_system_text(fh.read())
    else:
        system = SemialgebraicSystem(text_dimension(f_text))
    if cone is not None:
        system = replace(system, cone_kind=ConeKind(cone))
    f = None if f_text is None else parse_polynomial(f_text, system.dimension)
    return system, f


def _projection_problem(args) -> ProjectionProblem:
    system, f = read_system_and_f(args.f, args.system, args.cone)
    norm = WeightSequence.from_name(args.norm)
    return ProjectionProblem(f, system, norm, args.d, args.t)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_project(args) -> int:
    problem = _projection_problem(args)
    try:
        cert = project_lambda_form(problem, _solver_config(args))
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
    if args.out or args.format == "structured":
        _emit(certificate, args.out)
    return EXIT_OK


def cmd_certify(args) -> int:
    system, f = read_system_and_f(args.f, args.system, args.cone)
    # The published Gram is the low-rank one on the minimum-trace face.
    result = membership(f, system, args.d, _solver_config(args), min_trace=True)
    print(f"verdict {result.verdict.value} level {result.level}")
    if result.verdict is MembershipVerdict.INCONCLUSIVE:
        print(f"inconclusive: {result.message}")
        return EXIT_NUMERICAL
    in_cone = result.verdict is MembershipVerdict.IN_CONE
    if in_cone:
        print(f"reconstruction_error {result.reconstruction_error:.3e}")
    else:
        print(f"separation L_y(f) = {result.separation:.6e}")
    if args.out or args.format == "structured":
        doc = CertificateDocument(
            verdict=verdict_line(
                result.level, None if in_cone else result.separation
            ),
            grams=result.grams or {}, p_value=0.0,
            projection_text=str(f), separating_moments=result.separating,
        )
        _emit(format_certificate_document(doc), args.out)
    return EXIT_OK if in_cone else EXIT_NOT_CERTIFIED


def cmd_psatz(args) -> int:
    system, f = read_system_and_f(args.f, args.system, args.cone)
    # The top-even-power perturbation is the one whose certification level
    # tracks the projection lambdas; the exponential tower is available
    # through the library API.
    query = PsatzQuery(
        f, system, args.eps, args.dmax, PerturbationKind.TOP_EVEN_POWER
    )
    result = psatz_search(query, _solver_config(args))
    print(str(result))
    if result.inconclusive:
        pairs = ", ".join(f"({d}, {level})" for d, level in result.inconclusive)
        print(f"inconclusive (d, level): {pairs}", file=sys.stderr)
    if result.certified:
        return EXIT_OK
    if result.inconclusive and len(result.inconclusive) == result.solves:
        print("all membership solves were inconclusive", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_NOT_CERTIFIED


def cmd_moments_check(args) -> int:
    system, _f = read_system_and_f(None, args.system)
    with open(args.moments) as fh:
        y = parse_moment_text(fh.read())
    report = kmoment_condition_check(y, system, args.d)
    print(str(report))
    for check in report.checks:
        status = "skipped" if check.skipped else ("ok" if check.psd_ok else "VIOLATED")
        print(
            f"generator {check.label} order {check.order} "
            f"min_eig {check.min_eigenvalue:.6e} {status}"
        )
    return EXIT_OK if report.necessary_conditions_hold else EXIT_NOT_CERTIFIED


def cmd_export_sdpa(args) -> int:
    problem = _projection_problem(args)
    built = build_lambda_form_sdp(problem)
    comment = (
        f"projection SDP: norm={args.norm} d={args.d} t={problem.t} "
        f"generators={problem.system.num_generators}"
    )
    _emit(export_sdpa(built.sdp, comments=(comment,)), args.out)
    return EXIT_OK


# The scaled Motzkin variant: nonnegative on R^2 but not a sum of squares;
# degree 6, minimum 0 at the four points (+-1/sqrt(3), +-1/sqrt(3)).
MOTZKIN_TEXT = "x1^2*x2^2*(x1^2+x2^2-1)+1/27"

# (d, (lambda0, lambda1, lambda2), p): reference optima of its plain-l1
# projection onto the degree-2d SOS cone.  A row passes when p is within
# MOTZKIN_P_RELATIVE_TOL of the reference and lambda1 and lambda2 agree to
# MOTZKIN_SYMMETRY_RELATIVE_TOL; the lambda split is informational (the
# optimizer set is not a singleton).
MOTZKIN_REFERENCE = (
    (3, (5.445e-3, 5.367e-3, 5.367e-3), 1.6e-2),
    (4, (2.4e-4, 9.36e-4, 9.36e-4), 2.0e-3),
    (5, (0.04e-5, 4.34e-5, 4.34e-5), 8.0e-5),
)
MOTZKIN_P_RELATIVE_TOL = 0.15
MOTZKIN_SYMMETRY_RELATIVE_TOL = 1e-2


def cmd_repro_motzkin(args) -> int:
    f = parse_polynomial(MOTZKIN_TEXT, 2)
    system = SemialgebraicSystem(2, ())
    norm = WeightSequence.l1()
    all_pass = True
    print("d   p_computed     p_reference  lambda_computed                    "
          "lambda_reference                 verdict")
    for d, lambdas, p_ref in MOTZKIN_REFERENCE:
        problem = ProjectionProblem(f, system, norm, d)
        try:
            cert = project_lambda_form(problem, _solver_config(args))
        except ProjectionFailure as exc:
            print(f"{d}   solver failure: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        lam1 = cert.lambda_ik[(1, d)]
        lam2 = cert.lambda_ik[(2, d)]
        p_ok = abs(cert.p_value - p_ref) <= MOTZKIN_P_RELATIVE_TOL * p_ref
        sym_ok = abs(lam1 - lam2) <= MOTZKIN_SYMMETRY_RELATIVE_TOL * max(
            abs(lam1), abs(lam2), 1e-30
        )
        ok = p_ok and sym_ok
        all_pass = all_pass and ok
        lam_c = f"({cert.lambda0:.3e}, {lam1:.3e}, {lam2:.3e})"
        lam_r = "({:.3e}, {:.3e}, {:.3e})".format(*lambdas)
        print(
            f"{d}   {cert.p_value:.6e}   {p_ref:.1e}      {lam_c}  {lam_r}  "
            f"{'PASS' if ok else 'FAIL'}"
        )
    return EXIT_OK if all_pass else EXIT_NOT_CERTIFIED


class Command(NamedTuple):
    handler: Callable[[argparse.Namespace], int]
    help: str
    options: str  # the OPTIONS keys it reads, in --help order
    required: str = ""


COMMANDS = {
    "project": Command(
        cmd_project, "canonical projection onto the cone",
        "f system norm cone d t format out feas_tol gap_tol", "f",
    ),
    "certify": Command(
        cmd_certify, "cone membership at level --d",
        "f system cone d format out feas_tol gap_tol", "f",
    ),
    "psatz": Command(
        cmd_psatz, "certificate search for f >= 0 on K",
        "f system cone eps dmax feas_tol gap_tol", "f",
    ),
    "moments-check": Command(
        cmd_moments_check, "necessary moment conditions",
        "moments system d", "moments system",
    ),
    "export-sdpa": Command(
        cmd_export_sdpa, "write the projection SDP (.dat-s)",
        "f system norm cone d t out", "f",
    ),
    "repro-motzkin": Command(
        cmd_repro_motzkin, "rerun the bundled Motzkin table", "feas_tol gap_tol"
    ),
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        command = COMMANDS[args.command]
        _fill_defaults(args, command.options.split())
        return command.handler(args)
    except (PolynomialError, ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
