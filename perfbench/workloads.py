"""The benchmark's workloads: their inputs, fixed call lists and output checks.

Each workload is a fixed list of top-level calls; one pass runs the list
once, one call at a time.  Every call returns a JSON-able summary (status,
p-value, iterations, m, block sides, residuals, ...) that is checked against
the stored references in `references.json`, which `record_references.py`
recorded with one BLAS thread when the benchmark was added.

A call ends in one of three outcomes:

- `ok`: optimal or the expected verdict, p-value within 1e-9 relative of
  its reference, every oracle cross-check and round trip holds;
- `known_failure`: the reference itself is a failure (sextic d=6 lambda
  form ends in numerical_failure, general-form sextic d=4 in max_iter) and
  the call fails again;
- `deviation`: anything else, including a raise, a new failure, a p-value
  off its reference, a disagreeing oracle or a wrong CLI exit code or output.

Why each workload exists, and which layers it should and should not move,
is written in README.md beside this file.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "data"
OUT_DIR = ROOT / ".perfbench_out"   # records, spans and scratch files

WORKLOADS = ("ladder", "search", "crosscheck", "cli")

MOTZKIN = "x1^2*x2^2*(x1^2+x2^2-1)+1/27"
SEXTIC = "x1^2*x2^2*(x1^2+x2^2-3*x3^2)+x3^6"
BALL_QUARTIC = "x1^2*x2^2 + x2^2*x3^2 + x3^2*x1^2 - x1*x2*x3 - x1^3*x2 - 1/20"
CHOI_LAM = "x1^2*x2^2 + x2^2*x3^2 + x3^2*x1^2 + x4^4 - 4*x1*x2*x3*x4"
PLANE_QUARTIC = "x1^3*x2 - x1*x2 + 1/10 - x2^4"
CERTIFY_F = "(x1^2+x2^2-1)^2+(x1*x2-1/2)^2"

# ROADMAP rule: a p-value more than this far (relative) from its reference
# is a regression.
P_REL_TOL = 1e-9
# Oracle tolerances of the acceptance suite (criteria 2 and 3): general form
# against lambda form, and moment dual against lambda form.
GENERAL_TOL = (1e-6, 1e-5)
DUAL_TOL = (1e-6, 1e-6)
# A known failure that starts to converge must land near the p-value of its
# stored last iterate (sextic d=6 stops at relative gap 2.6e-8).
RECOVERED_REL_TOL = 1e-6

# The seed draws psatz eps values from this band.  When the references were
# recorded, both searches gave one result across it (exponential tower: not
# found up to d=5; top even power: certified at d=3, level 3, after an
# inconclusive solve at d=2, level 5), so every seed makes about the same
# work and one stored reference per mode covers all of them.
PSATZ_EPS_BAND = (0.010, 0.015)
PSATZ_DMAX = 5
CLOSURE_EPS = (1e-1, 1e-2, 1e-3)
MEMBERSHIP_LEVELS = (3, 4, 5)


@dataclass
class Call:
    """One top-level call: `run` is timed, `summarize` and `check` are not."""

    key: str
    kind: str
    inputs: dict                 # what the program is given, as text
    run: Callable
    summarize: Callable
    expect: dict | None = None   # expectations fixed by construction
    ref_key: str | None = None   # stored reference, when not under `key`


def describe_system(system) -> dict:
    return {
        "n": system.dimension,
        "cone": system.cone_kind.value,
        "generators": [str(g) for g in system.generators],
    }


def describe_problem(problem) -> dict:
    return {
        "f": str(problem.f),
        "system": describe_system(problem.system),
        "norm": problem.norm.kind.value,
        "d": problem.d,
        "t": problem.t,
    }


def rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def oracle_close(value: float, p: float, tol: tuple[float, float]) -> bool:
    atol, rtol = tol
    return abs(value - p) <= max(atol, rtol * abs(p))


# ---------------------------------------------------------------------------
# In-process calls
# ---------------------------------------------------------------------------

def lambda_certificate(problem, built, sol):
    """ProjectionCertificate of an optimal lambda-form solve.

    Reads the solution back exactly as `project_lambda_form` does, so the
    stepwise pipeline can end in `format_certificate`.
    """
    from sosproj.polynomials import Polynomial
    from sosproj.projection import LAMBDA_ZERO_FLAG, ProjectionCertificate

    lam = sol.x_blocks[built.lam_block]
    shift: dict = {}
    for key, alpha, scale in built.pert:
        value = float(lam[built.pert_index[key]]) * scale
        if value != 0.0:
            shift[alpha] = shift.get(alpha, 0.0) + value
    lambda0 = float(lam[built.pert_index[(0, 0)]])
    lambda_ik = {
        key: float(lam[p]) for key, p in built.pert_index.items() if key != (0, 0)
    }
    return ProjectionCertificate(
        norm_kind=problem.norm.kind,
        d=problem.d,
        t=problem.t,
        p_value=float(sol.primal_objective),
        projection=problem.f + Polynomial(problem.system.dimension, shift),
        grams={
            b.label: sol.x_blocks[built.block_ids[b.label]]
            for b in built.truncation.blocks
        },
        lambda0=lambda0,
        lambda_ik=lambda_ik,
        lambda_effectively_zero=all(
            v <= LAMBDA_ZERO_FLAG for v in [lambda0, *lambda_ik.values()]
        ),
        solver_status=sol.status,
        solver_iterations=sol.iterations,
        solver_gap=sol.gap,
    )


def _cert_roundtrip(tr, text: str) -> bool:
    from sosproj.projection import format_certificate_document, parse_certificate

    doc = tr.call("projection.parse_certificate", parse_certificate, text)
    again = tr.call(
        "projection.format_certificate_document", format_certificate_document, doc
    )
    return again == text


def _solution_fields(sol) -> dict:
    return {
        "status": sol.status.value,
        "p": float(sol.primal_objective),
        "iterations": sol.iterations,
        "primal_residual": sol.primal_residual,
        "dual_residual": sol.dual_residual,
        "relative_gap": sol.relative_gap,
    }


def lambda_call(key: str, problem, roundtrip: bool) -> Call:
    """Stepwise lambda form: assemble, solve, check, format (and round trips)."""

    def run(tr):
        from sosproj.projection import (
            build_lambda_form_sdp,
            default_solver_config,
            format_certificate,
        )
        from sosproj.sdp import SdpStatus, check_certificate, solve
        from sosproj.sdpa_io import export_sdpa, parse_sdpa

        built = tr.call("projection.build_lambda_form_sdp", build_lambda_form_sdp, problem)
        sol = tr.call("sdp.solve", solve, built.sdp, default_solver_config())
        report = tr.call("sdp.check_certificate", check_certificate, built.sdp, sol)
        out = {"built": built, "sol": sol, "report": report, "text": None}
        if sol.status is SdpStatus.OPTIMAL:
            cert = lambda_certificate(problem, built, sol)
            out["text"] = tr.call("projection.format_certificate", format_certificate, cert)
        if roundtrip:
            if out["text"] is not None:
                out["cert_roundtrip"] = _cert_roundtrip(tr, out["text"])
            sdpa = tr.call("sdpa_io.export_sdpa", export_sdpa, built.sdp)
            parsed, comments = tr.call("sdpa_io.parse_sdpa", parse_sdpa, sdpa)
            again = tr.call("sdpa_io.export_sdpa", export_sdpa, parsed, comments)
            out["sdpa_roundtrip"] = again == sdpa
            out["sdpa"] = sdpa
        return out

    def summarize(out) -> dict:
        sdp_problem, report = out["built"].sdp, out["report"]
        summary = _solution_fields(out["sol"])
        summary.update(
            m=sdp_problem.num_constraints,
            block_sides=[s.side for s in sdp_problem.blocks],
            check_constraint_residual=report.constraint_residual,
        )
        for name in ("cert_roundtrip", "sdpa_roundtrip"):
            if name in out:
                summary[name] = out[name]
        if "sdpa" in out:
            summary["sdpa_sha256"] = hashlib.sha256(out["sdpa"].encode()).hexdigest()
        return summary

    return Call(key, "lambda", describe_problem(problem), run, summarize)


def general_call(key: str, problem) -> Call:
    def run(tr):
        from sosproj.projection import (
            ProjectionFailure,
            format_certificate,
            project_general_form,
        )

        try:
            cert = tr.call("projection.project_general_form", project_general_form, problem)
        except ProjectionFailure as exc:
            return {"failure": exc}
        text = tr.call("projection.format_certificate", format_certificate, cert)
        return {"cert": cert, "cert_roundtrip": _cert_roundtrip(tr, text)}

    def summarize(out) -> dict:
        if "failure" in out:
            return _solution_fields(out["failure"].solution)
        cert = out["cert"]
        return {
            "status": cert.solver_status.value,
            "p": cert.p_value,
            "iterations": cert.solver_iterations,
            "cert_roundtrip": out["cert_roundtrip"],
        }

    return Call(key, "general", describe_problem(problem), run, summarize)


def dual_call(key: str, problem) -> Call:
    def run(tr):
        from sosproj.projection import ProjectionFailure, dual_moment_problem

        try:
            return {"dual": tr.call("projection.dual_moment_problem", dual_moment_problem, problem)}
        except ProjectionFailure as exc:
            return {"failure": exc}

    def summarize(out) -> dict:
        if "failure" in out:
            fields = _solution_fields(out["failure"].solution)
            fields["p"] = -fields["p"]
            return fields
        dual = out["dual"]
        fields = _solution_fields(dual.solution)
        fields.update(p=dual.value, riesz_of_f=dual.riesz_of_f)
        return fields

    return Call(key, "dual", describe_problem(problem), run, summarize)


def membership_call(key: str, f, system, level: int, expect: str) -> Call:
    def run(tr):
        from sosproj.certificates import membership

        return tr.call("certificates.membership", membership, f, system, level)

    def summarize(res) -> dict:
        summary = {
            "verdict": res.verdict.value,
            "status": res.solver_status.value if res.solver_status else None,
            "iterations": res.solver_iterations,
            "oracle": _membership_oracle(f, system, res),
        }
        return summary

    inputs = {"f": str(f), "system": describe_system(system), "level": level}
    return Call(key, "membership", inputs, run, summarize, {"verdict": expect})


def _membership_oracle(f, system, res) -> bool:
    """Independent recheck of a conclusive membership verdict."""
    if res.verdict.value == "in_cone":
        return gram_recheck(f, system, res.level, res.grams)
    if res.verdict.value == "not_in_cone":
        return separation_recheck(f, res)
    return False


def gram_recheck(f, system, level: int, grams: dict) -> bool:
    """f equals the Gram reconstruction and every Gram matrix is PSD."""
    import numpy as np
    from sosproj.cones import build_truncation, gram_reconstruct

    trunc = build_truncation(system, level)
    mats = [grams[b.label] for b in trunc.blocks]
    diff = gram_reconstruct(trunc, mats) - f
    err = max((abs(c) for c in diff.terms.values()), default=0.0)
    scale = 1.0 + max(abs(c) for c in f.terms.values())
    psd = all(
        np.linalg.eigvalsh((g + g.T) / 2)[0] >= -1e-8 * max(1.0, np.abs(g).max())
        for g in mats
    )
    return bool(err <= 1e-6 * scale and psd)


def separation_recheck(f, res) -> bool:
    """L_y(f) < 0, recomputed, and the moment matrix of y is PSD."""
    import numpy as np
    from sosproj.moments import moment_matrix

    y = res.separating
    value = sum(c * y.value(a) for a, c in f.terms.items())
    mat = moment_matrix(y, res.level)
    lmin = np.linalg.eigvalsh(mat)[0]
    return bool(
        value < 0
        and abs(value - res.separation) <= 1e-12
        and lmin >= -1e-8 * max(1.0, np.abs(mat).max())
    )


def psatz_call(key: str, f, system, eps: float, mode, ref_key: str | None = None) -> Call:
    def run(tr):
        from sosproj.certificates import PsatzQuery, psatz_search

        query = PsatzQuery(f, system, eps, PSATZ_DMAX, mode)
        return tr.call("certificates.psatz_search", psatz_search, query)

    def summarize(res) -> dict:
        return {
            "certified": res.certified,
            "d": res.d,
            "level": res.level,
            "inconclusive": [list(pair) for pair in res.inconclusive],
            "oracle": not res.certified
            or gram_recheck(res.perturbed, system, res.level, res.grams),
        }

    inputs = {
        "f": str(f), "system": describe_system(system), "eps": eps,
        "d_max": PSATZ_DMAX, "mode": mode.value,
    }
    return Call(key, "psatz", inputs, run, summarize, ref_key=ref_key)


def closure_call(key: str, f, system) -> Call:
    def run(tr):
        from sosproj.certificates import seq_closure_probe

        return tr.call(
            "certificates.seq_closure_probe",
            seq_closure_probe, f, system, 3, list(CLOSURE_EPS), 5,
        )

    def summarize(rows) -> dict:
        return {"rows": [[eps, t] for eps, t in rows]}

    inputs = {
        "f": str(f), "system": describe_system(system), "d": 3,
        "eps": list(CLOSURE_EPS), "t_max": 5,
    }
    return Call(key, "closure", inputs, run, summarize)


def _problem(tr, text: str, n: int, system, norm: str, d: int):
    from sosproj.polynomials import WeightSequence, parse_polynomial
    from sosproj.projection import ProjectionProblem

    f = tr.call("polynomials.parse_polynomial", parse_polynomial, text, n)
    return ProjectionProblem(f, system, WeightSequence.from_name(norm), d)


def _systems(tr):
    from sosproj.cones import ConeKind, SemialgebraicSystem
    from sosproj.polynomials import parse_polynomial

    def parse(text, n):
        return tr.call("polynomials.parse_polynomial", parse_polynomial, text, n)

    return {
        "plane": SemialgebraicSystem(2, ()),
        "space": SemialgebraicSystem(3, ()),
        "space4": SemialgebraicSystem(4, ()),
        "ball2": SemialgebraicSystem(2, (parse("1 - x1^2 - x2^2", 2),)),
        "ball3": SemialgebraicSystem(3, (parse("1 - x1^2 - x2^2 - x3^2", 3),)),
        "box": SemialgebraicSystem(
            2,
            (parse("1 - x1^2", 2), parse("1 - x2^2", 2)),
            ConeKind.PREORDERING,
        ),
    }


def ladder_calls(tr) -> list[Call]:
    sy = _systems(tr)
    instances = [
        ("motzkin/l1/d5", MOTZKIN, 2, "plane", "l1", 5),
        ("sextic/l1/d4", SEXTIC, 3, "space", "l1", 4),
        ("sextic/l1/d5", SEXTIC, 3, "space", "l1", 5),
        ("sextic/l1/d6", SEXTIC, 3, "space", "l1", 6),
        ("ball-quartic/l1/d3", BALL_QUARTIC, 3, "ball3", "l1", 3),
        ("choi-lam/lw/d2", CHOI_LAM, 4, "space4", "lw", 2),
    ]
    return [
        lambda_call(f"ladder/{name}", _problem(tr, text, n, sy[s], norm, d), False)
        for name, text, n, s, norm, d in instances
    ]


def crosscheck_calls(tr) -> list[Call]:
    sy = _systems(tr)
    calls = []
    for name, text, n, s, d in (
        ("motzkin", MOTZKIN, 2, "plane", 3),
        ("motzkin", MOTZKIN, 2, "plane", 4),
        ("sextic", SEXTIC, 3, "space", 3),
        ("sextic", SEXTIC, 3, "space", 4),
    ):
        problem = _problem(tr, text, n, sy[s], "l1", d)
        tag = f"{name}/l1/d{d}"
        calls.append(lambda_call(f"crosscheck/lambda/{tag}", problem, True))
        calls.append(general_call(f"crosscheck/general/{tag}", problem))
        calls.append(dual_call(f"crosscheck/dual/{tag}", problem))
    for s in ("ball2", "box"):
        problem = _problem(tr, PLANE_QUARTIC, 2, sy[s], "lw", 2)
        calls.append(lambda_call(f"crosscheck/lambda/{s}/lw/d2", problem, True))
    return calls


def search_inputs(seed: int) -> dict:
    """The seeded part of `search`, as plain numbers (no sosproj objects)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    eps = sorted(float(e) for e in rng.uniform(*PSATZ_EPS_BAND, size=2))
    grams = {}
    rescalings = {}
    for k in MEMBERSHIP_LEVELS:
        for s in ("plane", "ball2"):
            grams[(s, k)] = int(rng.integers(2**31))
        rescalings[k] = [
            (
                float(rng.uniform(0.8, 1.25)),
                float(rng.uniform(0.8, 1.25)),
                float(rng.uniform(0.5, 2.0)),
            )
            for _ in range(2)
        ]
    return {"eps": eps, "gram_seeds": grams, "rescalings": rescalings}


def _sos_by_construction(tr, system, level: int, gram_seed: int):
    """Reconstructs f from random positive definite Grams: f is in the cone."""
    import numpy as np
    from sosproj.cones import build_truncation, gram_reconstruct

    rng = np.random.default_rng(gram_seed)
    trunc = tr.call("cones.build_truncation", build_truncation, system, level)
    grams = []
    for block in trunc.blocks:
        m = rng.normal(size=(block.side, block.side))
        grams.append(m @ m.T / block.side + 0.1 * np.eye(block.side))
    return tr.call("cones.gram_reconstruct", gram_reconstruct, trunc, grams)


def search_calls(tr, seed: int) -> list[Call]:
    from sosproj.certificates import PerturbationKind
    from sosproj.polynomials import parse_polynomial

    sy = _systems(tr)
    inputs = search_inputs(seed)
    motzkin = tr.call("polynomials.parse_polynomial", parse_polynomial, MOTZKIN, 2)
    calls = []
    for i, eps in enumerate(inputs["eps"]):
        for mode in PerturbationKind:
            ref_key = f"search/psatz/{mode.value}"
            calls.append(
                psatz_call(f"{ref_key}/eps{i}", motzkin, sy["plane"], eps, mode, ref_key)
            )
    calls.append(closure_call("search/closure/motzkin/d3", motzkin, sy["plane"]))
    for k in MEMBERSHIP_LEVELS:
        for s in ("plane", "ball2"):
            f = _sos_by_construction(tr, sy[s], k, inputs["gram_seeds"][(s, k)])
            calls.append(membership_call(f"search/membership/sos-{s}/k{k}", f, sy[s], k, "in_cone"))
        for i, (c1, c2, scale) in enumerate(inputs["rescalings"][k]):
            text = f"({scale!r})*(({c1!r}*x1)^2*({c2!r}*x2)^2*(({c1!r}*x1)^2+({c2!r}*x2)^2-1)+1/27)"
            f = tr.call("polynomials.parse_polynomial", parse_polynomial, text, 2)
            calls.append(
                membership_call(f"search/membership/motzkin-rescaled{i}/k{k}", f, sy["plane"], k, "not_in_cone")
            )
    return calls


# ---------------------------------------------------------------------------
# CLI calls: one fresh `sosproj` interpreter each
# ---------------------------------------------------------------------------

CLI_CALLS = (
    ("project", ["project", "--f", MOTZKIN, "--norm", "l1", "--d", "4", "--out", "{tmp}/cert.txt"], ("cert.txt",)),
    ("certify", ["certify", "--f", CERTIFY_F, "--d", "2", "--format", "structured"], ()),
    ("psatz", ["psatz", "--f", MOTZKIN, "--eps", "0.01", "--dmax", "4"], ()),
    ("export-sdpa", ["export-sdpa", "--f", SEXTIC, "--norm", "l1", "--d", "5", "--out", "{tmp}/sextic_d5.dat-s"], ("sextic_d5.dat-s",)),
    ("moments-check", ["moments-check", "--moments", "{data}/point.mom", "--system", "{data}/ball.sys", "--d", "2"], ()),
    ("repro-motzkin", ["repro-motzkin"], ()),
)


class CliRunner:
    """Runs `sosproj` subcommands in fresh interpreters, traced or not.

    Untraced runs execute `python -m sosproj.cli` itself.  Traced runs go
    through `cli_traced.py`, which times the import and wraps the names the
    CLI module binds, then hands its spans back through a file.
    """

    def __init__(self, tmp: Path, env: dict):
        self.tmp = tmp
        self.env = env

    def argv(self, args: list[str]) -> list[str]:
        return [a.format(tmp=self.tmp, data=DATA) for a in args]

    def __call__(self, tr, key: str, args: list[str], files: tuple[str, ...]):
        for name in files:
            (self.tmp / name).unlink(missing_ok=True)
        env = dict(self.env)
        if tr.enabled:
            spans_path = self.tmp / "spans.json"
            env["PERFBENCH_SPANS"] = str(spans_path)
            cmd = [sys.executable, str(HERE / "cli_traced.py"), *self.argv(args)]
        else:
            cmd = [sys.executable, "-m", "sosproj.cli", *self.argv(args)]
        proc = tr.call(
            "cli.process", subprocess.run, cmd,
            env=env, cwd=ROOT, capture_output=True, timeout=120,
        )
        if tr.enabled:
            process_span = tr.spans[-1]  # the span just closed above
            tr.adopt(json.loads(spans_path.read_text()), process_span["id"], key)
        return {
            "exit": proc.returncode,
            "stdout": proc.stdout.decode(),
            "files": {name: (self.tmp / name).read_text() for name in files},
        }


def cli_calls(runner: CliRunner) -> list[Call]:
    calls = []
    for name, args, files in CLI_CALLS:
        key = f"cli/{name}"

        def run(tr, key=key, args=args, files=files):
            return runner(tr, key, args, files)

        calls.append(Call(key, "cli", {"argv": args}, run, _cli_summary))
    return calls


def _cli_summary(out) -> dict:
    summary = {"exit": out["exit"], "stdout": out["stdout"], "files": {}}
    for name, text in out["files"].items():
        if name.endswith(".dat-s"):
            summary["files"][name] = {
                "sha256": hashlib.sha256(text.encode()).hexdigest(),
                "bytes": len(text.encode()),
            }
        else:
            summary["files"][name] = {"text": text, "roundtrip": _file_roundtrip(text)}
    if "VERDICT" in out["stdout"]:
        cert = out["stdout"][out["stdout"].index("VERDICT"):]
        summary["stdout_cert_roundtrip"] = _file_roundtrip(cert)
    return summary


def _file_roundtrip(text: str) -> bool:
    from sosproj.projection import format_certificate_document, parse_certificate

    return format_certificate_document(parse_certificate(text)) == text


NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def text_close(ref: str, got: str, rtol: float = 1e-6, atol: float = 1e-9) -> bool:
    """Same text with every number replaced by '#', numbers within tolerance.

    Digits that come out of the solver beyond the ROADMAP's p tolerance
    depend on the BLAS kernel the CPU selects, so solver output is compared
    by structure and value; outputs that skip the solver (the SDPA export)
    are compared byte for byte through their hash.
    """
    if NUMBER.sub("#", ref) != NUMBER.sub("#", got):
        return False
    pairs = zip(NUMBER.findall(ref), NUMBER.findall(got))
    return all(
        abs(float(a) - float(b)) <= atol + rtol * max(abs(float(a)), abs(float(b)))
        for a, b in pairs
    )


def _p_line(text: str, prefix: str) -> float | None:
    for line in text.splitlines():
        if line.startswith(prefix):
            return float(line.split()[1])
    return None


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check(call: Call, summary: dict, refs: dict) -> tuple[str, str]:
    """(outcome, reason) of one call against its reference and oracles."""
    if "error" in summary:
        return "deviation", f"raised {summary['error']}"
    if call.kind == "membership":
        return _check_membership(call, summary)
    ref = refs.get(call.ref_key or call.key)
    if ref is None:
        return "deviation", "no stored reference"
    if call.kind in ("lambda", "general", "dual"):
        return _check_projection(call, summary, ref, refs)
    if call.kind == "psatz":
        return _check_psatz(summary, ref)
    if call.kind == "closure":
        same = summary["rows"] == ref["rows"]
        return ("ok", "") if same else ("deviation", "rows differ from reference")
    return _check_cli(summary, ref)


def _check_psatz(summary: dict, ref: dict) -> tuple[str, str]:
    """A search that met an inconclusive solve counts as failed (ROADMAP 3).

    A search may end earlier than its reference only by certifying at a
    (d, level) the reference could not decide, with Grams that recheck.
    """
    if not summary["oracle"]:
        return "deviation", "returned Grams fail the recheck"
    found = [summary["certified"], summary["d"], summary["level"]]
    if found != [ref["certified"], ref["d"], ref["level"]]:
        if not (summary["certified"] and [summary["d"], summary["level"]] in ref["inconclusive"]):
            return "deviation", "result differs from reference"
    if summary["inconclusive"]:
        if ref["inconclusive"]:
            return "known_failure", "inconclusive solves, as in the reference"
        return "deviation", "inconclusive solves"
    return "ok", ""


def _check_membership(call: Call, summary: dict) -> tuple[str, str]:
    if summary["verdict"] != call.expect["verdict"]:
        return "deviation", f"verdict {summary['verdict']}, expected {call.expect['verdict']}"
    if not summary["oracle"]:
        return "deviation", "independent recheck failed"
    return "ok", ""


def _lambda_reference_p(call: Call, refs: dict) -> float | None:
    tag = call.key.split("/", 2)[2]
    ref = refs.get(f"crosscheck/lambda/{tag}")
    return None if ref is None else ref["p"]


def _check_projection(call: Call, summary: dict, ref: dict, refs: dict) -> tuple[str, str]:
    optimal = summary["status"] == "optimal"
    lambda_p = _lambda_reference_p(call, refs) if call.kind != "lambda" else None
    tol = GENERAL_TOL if call.kind == "general" else DUAL_TOL
    if ref["status"] != "optimal":
        if not optimal:
            return "known_failure", f"{summary['status']}, as in the reference"
        # The known failure converged: hold it to its oracle instead.
        if lambda_p is not None and oracle_close(summary["p"], lambda_p, tol):
            return "ok", "known failure now converges"
        if lambda_p is None and rel_close(summary["p"], ref["p"], RECOVERED_REL_TOL):
            return "ok", "known failure now converges"
        return "deviation", "converged to a p-value away from the reference"
    if not optimal:
        return "deviation", f"status {summary['status']}"
    if not rel_close(summary["p"], ref["p"], P_REL_TOL):
        return "deviation", f"p {summary['p']!r} vs reference {ref['p']!r}"
    if lambda_p is not None and not oracle_close(summary["p"], lambda_p, tol):
        return "deviation", "disagrees with the lambda form"
    if call.kind == "dual" and abs(summary["p"] + summary["riesz_of_f"]) > 1e-9:
        return "deviation", "dual value differs from -L_y(f)"
    if call.kind == "lambda":
        if summary["check_constraint_residual"] > 1e-6 * (1.0 + abs(ref["p"])):
            return "deviation", "check_certificate residual too large"
        if "sdpa_sha256" in ref and summary.get("sdpa_sha256") != ref["sdpa_sha256"]:
            return "deviation", "SDPA export bytes changed"
    for name in ("cert_roundtrip", "sdpa_roundtrip"):
        if name in summary and not summary[name]:
            return "deviation", f"{name} not byte-identical"
    return "ok", ""


def _check_cli(summary: dict, ref: dict) -> tuple[str, str]:
    if summary["exit"] != ref["exit"]:
        return "deviation", f"exit {summary['exit']}, expected {ref['exit']}"
    if not text_close(ref["stdout"], summary["stdout"]):
        return "deviation", "stdout differs"
    ref_p = _p_line(ref["stdout"], "p_value ")
    if ref_p is not None and not rel_close(_p_line(summary["stdout"], "p_value "), ref_p, P_REL_TOL):
        return "deviation", "p_value off its reference"
    if summary.get("stdout_cert_roundtrip") is False:
        return "deviation", "certificate on stdout does not round-trip"
    for name, want in ref["files"].items():
        got = summary["files"].get(name)
        if got is None:
            return "deviation", f"{name} not written"
        if "sha256" in want and got["sha256"] != want["sha256"]:
            return "deviation", f"{name} bytes changed"
        if "text" in want:
            if not got["roundtrip"]:
                return "deviation", f"{name} does not round-trip"
            if NUMBER.sub("#", want["text"]) != NUMBER.sub("#", got["text"]):
                return "deviation", f"{name} structure differs"
            if not rel_close(_p_line_after(got["text"]), _p_line_after(want["text"]), P_REL_TOL):
                return "deviation", f"{name} P_VALUE off its reference"
    return "ok", ""


def _p_line_after(cert_text: str) -> float:
    lines = cert_text.splitlines()
    return float(lines[lines.index("P_VALUE") + 1])


# ---------------------------------------------------------------------------

def build_calls(workload: str, seed: int, tr, runner: CliRunner | None = None) -> list[Call]:
    """The workload's call list; builds every input it needs."""
    if workload == "cli":
        return cli_calls(runner)
    if workload == "search":
        return search_calls(tr, seed)
    return {"ladder": ladder_calls, "crosscheck": crosscheck_calls}[workload](tr)


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def child_env(root: Path = ROOT, pin_blas: bool = True) -> dict:
    """Environment of every workload process: the checkout's sources and,
    unless asked otherwise, one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for name in BLAS_VARS:
        if pin_blas:
            env[name] = "1"
        else:
            env.pop(name, None)
    return env

