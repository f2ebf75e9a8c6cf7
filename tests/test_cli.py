import re
from pathlib import Path

import numpy as np
import pytest

from sosproj import certificates as certificates_module
from sosproj import cli as cli_module
from sosproj import projection as projection_module
from sosproj.certificates import MembershipResult, MembershipVerdict
from sosproj.cli import main, read_system_and_f
from sosproj.moments import MomentSequence, format_moment_text
from sosproj.polynomials import WeightSequence
from sosproj.projection import (
    ProjectionFailure,
    closure_probe,
    format_certificate_document,
    parse_certificate,
)
from sosproj.sdp import SdpSolution, SdpStatus

MOTZKIN = "x1^2*x2^2*(x1^2+x2^2-1)+1/27"
SWEEP = Path(__file__).resolve().parents[1] / "scripts" / "closure_sweep.py"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_project_motzkin(capsys):
    code, out, _err = run(
        capsys, "project", "--f", MOTZKIN, "--norm", "l1", "--d", "3"
    )
    assert code == 0
    p_line = [ln for ln in out.splitlines() if ln.startswith("p_value")][0]
    p = float(p_line.split()[1])
    assert abs(p - 1.6e-2) <= 0.15 * 1.6e-2


def test_project_zero_polynomial(capsys):
    code, out, _err = run(capsys, "project", "--f", "0", "--d", "1")
    assert code == 0
    p = float(out.splitlines()[0].split()[1])
    assert p <= 1e-7
    assert "effectively zero" in out


def test_project_lw_square(capsys):
    code, out, _err = run(
        capsys, "project", "--f", "x1^2", "--d", "1", "--norm", "lw"
    )
    assert code == 0
    p = float(out.splitlines()[0].split()[1])
    assert p <= 1e-7


def test_project_writes_certificate(tmp_path, capsys):
    out_path = tmp_path / "cert.txt"
    code, _out, _err = run(
        capsys,
        "project",
        "--f",
        MOTZKIN,
        "--norm",
        "l1",
        "--d",
        "3",
        "--out",
        str(out_path),
    )
    assert code == 0
    doc = parse_certificate(out_path.read_text())
    assert doc.lambda0 is not None


def test_structured_output_round_trips(capsys):
    code, out, _err = run(
        capsys,
        "project",
        "--f",
        "x1^4 - x1 + 1/3",
        "--d",
        "2",
        "--norm",
        "l1",
        "--format",
        "structured",
    )
    assert code == 0
    start = out.index("LAMBDA")
    doc = parse_certificate(out[start:])
    assert format_certificate_document(doc) == out[start:]


def test_certify_structured_output_round_trips(capsys):
    code, out, _err = run(
        capsys,
        "certify",
        "--f",
        "(1+x1+x2)^2",
        "--d",
        "1",
        "--format",
        "structured",
    )
    assert code == 0
    text = out[out.index("VERDICT\n"):]
    assert text.startswith("VERDICT\nin_cone level 1")
    assert "P_VALUE\n0\n" in text
    assert format_certificate_document(parse_certificate(text)) == text


def test_bad_polynomial_exit_code(capsys):
    code, _out, err = run(capsys, "project", "--f", "x1 + @", "--d", "1")
    assert code == 1
    assert "input error" in err


def test_certify_exit_codes(capsys):
    code, out, _err = run(capsys, "certify", "--f", "(1+x1+x2)^2", "--d", "1")
    assert code == 0
    assert "in_cone" in out
    code, out, _err = run(capsys, "certify", "--f", MOTZKIN, "--d", "3")
    assert code == 3
    assert "not_in_cone" in out


def test_certify_never_refutes_a_sum_of_squares_above_its_half_degree(capsys):
    # 1 + x1^2 + x2^4 lies in the level-2 cone on R^2, so in the level-3 one.
    # Level 3 repeats level 2's answer, so certify solves level 2 and its
    # certificate names that level, the one its Gram sides belong to.
    code, out, _err = run(
        capsys, "certify", "--f", "1 + x1^2 + x2^4", "--d", "3",
        "--format", "structured",
    )
    assert code == 0
    assert out.startswith("verdict in_cone level 2\n")
    text = out[out.index("VERDICT\n"):]
    assert text.startswith("VERDICT\nin_cone level 2\n")
    doc = parse_certificate(text)
    assert doc.grams[()].shape == (6, 6)
    assert format_certificate_document(doc) == text


def test_psatz_certifies_and_rejects(tmp_path, capsys):
    code, out, _err = run(
        capsys, "psatz", "--f", MOTZKIN, "--eps", "1e-2", "--dmax", "4"
    )
    assert code == 0
    assert "CertifiedAt" in out
    system = tmp_path / "seg.sys"
    system.write_text("n 1\ncone quadratic\ng: x1\ng: 1 - x1\n")
    code, out, _err = run(
        capsys,
        "psatz",
        "--f",
        "-1",
        "--system",
        str(system),
        "--eps",
        "0.1",
        "--dmax",
        "4",
    )
    assert code == 3
    assert "NotFoundUpTo(4)" in out


def test_moments_check(tmp_path, capsys):
    system = tmp_path / "ball.sys"
    system.write_text("n 2\ncone quadratic\ng: 1 - x1^2 - x2^2\n")
    inside = tmp_path / "inside.mom"
    inside.write_text(format_moment_text(MomentSequence.dirac([0.2, 0.1], 4)))
    outside = tmp_path / "outside.mom"
    outside.write_text(format_moment_text(MomentSequence.dirac([2.0, 0.5], 4)))
    code, out, _err = run(
        capsys,
        "moments-check",
        "--moments",
        str(inside),
        "--system",
        str(system),
        "--d",
        "1",
    )
    assert code == 0
    assert "NecessaryConditionsHold" in out
    code, out, _err = run(
        capsys,
        "moments-check",
        "--moments",
        str(outside),
        "--system",
        str(system),
        "--d",
        "1",
    )
    assert code == 3
    assert "Violated" in out


def test_moments_check_reads_moments_up_to_degree_2d(tmp_path, capsys):
    # Degree-172 moments past --d 1: their lw weights would overflow, but
    # the check reads only degree 2.
    system = tmp_path / "line.sys"
    system.write_text("n 1\n")
    moments = tmp_path / "deep.mom"
    moments.write_text(format_moment_text(MomentSequence.dirac([0.5], 172)))
    code, out, err = run(
        capsys, "moments-check", "--moments", str(moments), "--system",
        str(system), "--d", "1",
    )
    assert code == 0
    assert out.startswith("NecessaryConditionsHold(M=1)\n")
    assert err == ""


def test_moments_check_at_d_86_bounds_past_double_range(tmp_path, capsys):
    # --d 86 reads degree 172, whose lw weight 172! is past double range.
    system = tmp_path / "line.sys"
    system.write_text("n 1\n")
    moments = tmp_path / "deep.mom"
    moments.write_text(format_moment_text(MomentSequence.dirac([0.5], 172)))
    code, out, err = run(
        capsys, "moments-check", "--moments", str(moments), "--system",
        str(system), "--d", "86",
    )
    assert code == 0
    assert out.startswith("NecessaryConditionsHold(M=1)\n")
    assert err == ""


# A 1-D moment file against a system in x1, x2: a generator's exponents
# must not be truncated to the moments' one variable, and a system without
# generators still names its variables.
@pytest.mark.parametrize(
    "system_text",
    ["n 2\ncone quadratic\ng: 1 - x1^2 - x2^2\n", "n 2\n"],
    ids=["unit disk", "no generators"],
)
def test_moments_check_dimension_mismatch_is_input_error(
    tmp_path, capsys, system_text
):
    system = tmp_path / "plane.sys"
    system.write_text(system_text)
    moments = tmp_path / "dirac.mom"
    moments.write_text(format_moment_text(MomentSequence.dirac([0.5], 4)))
    code, out, err = run(
        capsys,
        "moments-check",
        "--moments",
        str(moments),
        "--system",
        str(system),
        "--d",
        "1",
    )
    assert code == 1
    assert out == ""
    assert "input error: system in 2 variables, moments in 1" in err


@pytest.mark.parametrize(
    "text", ["1e400*x1", "1e400*x1 - 1e400*x1 + 1", "1" + "0" * 400 + "/3*x1^2"]
)
def test_non_finite_coefficient_is_a_polynomial_input_error(capsys, text):
    code, out, err = run(capsys, "project", "--f", text)
    assert code == 1
    assert out == ""
    assert err.startswith("input error: coefficient")
    assert "right-hand side" not in err


def test_too_long_rational_literal_is_a_polynomial_input_error(capsys):
    text = "1" + "0" * 5000 + "/3*x1^2"
    code, out, err = run(capsys, "project", "--f", text, "--norm", "l1", "--d", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("input error: rational literal")
    assert err.rstrip().endswith("(at position 0)")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_moments_check_non_finite_moment_is_input_error(tmp_path, capsys, value):
    system = tmp_path / "line.sys"
    system.write_text("n 1\n")
    moments = tmp_path / "bad.mom"
    moments.write_text(f"n 1 degree 2\n0 {value}\n1 0.0\n2 1.0\n")
    code, out, err = run(
        capsys, "moments-check", "--moments", str(moments), "--system",
        str(system), "--d", "1",
    )
    assert code == 1
    assert out == ""
    assert "not finite" in err


def test_moments_check_prints_skipped_generator(tmp_path, capsys):
    # v = ceil(4 / 2) = 2 exceeds d = 1: order -1, nothing to check.
    system = tmp_path / "quartic.sys"
    system.write_text("n 1\ncone quadratic\ng: 1 - x1^4\n")
    moments = tmp_path / "dirac.mom"
    moments.write_text(format_moment_text(MomentSequence.dirac([0.5], 4)))
    code, out, _err = run(
        capsys,
        "moments-check",
        "--moments",
        str(moments),
        "--system",
        str(system),
        "--d",
        "1",
    )
    assert code == 0
    assert "generator 1 order -1 min_eig 0.000000e+00 skipped" in out.splitlines()


def test_export_sdpa_deterministic(tmp_path, capsys):
    args = ["export-sdpa", "--f", MOTZKIN, "--norm", "l1", "--d", "3"]
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert out1.splitlines()[1] == "28"  # constraints: monomials of N^2_6


def test_fresh_interpreter_cli_matches_main(fresh_python, tmp_path, capsys):
    def fresh(*argv):
        proc = fresh_python("-m", "sosproj.cli", *argv)
        return proc.returncode, proc.stdout

    project = ("project", "--f", MOTZKIN, "--norm", "l1", "--d", "3")
    assert fresh(*project) == run(capsys, *project)[:2]
    export = ("export-sdpa", "--f", MOTZKIN, "--norm", "l1", "--d", "3", "--out")
    fresh_file, main_file = tmp_path / "fresh.dat-s", tmp_path / "main.dat-s"
    assert fresh(*export, str(fresh_file)) == run(capsys, *export, str(main_file))[:2]
    assert fresh_file.read_bytes() == main_file.read_bytes()


@pytest.mark.parametrize("system_text", [None, "n 2\ng: 1 - x1^4 - x2^4\n"],
                         ids=["R^n", "system file"])
def test_closure_sweep_reads_its_inputs_as_the_cli_does(
    fresh_python, tmp_path, system_text
):
    # In the disk's quadratic module, but 2 away from the SOS cone of R^2.
    f_text = "1 - x1^4 - x2^4"
    argv = [str(SWEEP), "--f", f_text, "--d", "2", "--t", "2", "--norm", "l1"]
    path = None
    if system_text is not None:
        path = tmp_path / "disk.txt"
        path.write_text(system_text)
        argv += ["--system", str(path)]
    proc = fresh_python(*argv)
    assert proc.returncode == 0, proc.stderr

    system, f = read_system_and_f(f_text, path and str(path))
    [row] = closure_probe(f, system, 2, [2], WeightSequence.l1())
    header, line = proc.stdout.splitlines()
    assert header == "t    p_t            lambda0"
    t, p, _lambda0 = line.split()
    assert t == "2" and float(p) == pytest.approx(row.p_value, abs=1e-8)
    assert row.p_value == pytest.approx(2.0 if system_text is None else 0.0, abs=1e-6)


def test_repro_motzkin(capsys):
    code, out, _err = run(capsys, "repro-motzkin")
    assert code == 0
    header, *lines = out.splitlines()
    assert header.split() == [
        "d", "p_computed", "p_reference", "lambda_computed",
        "lambda_reference", "verdict",
    ]
    assert len(lines) == 3
    references = [
        ("3", "1.6e-02", "(5.445e-03, 5.367e-03, 5.367e-03)"),
        ("4", "2.0e-03", "(2.400e-04, 9.360e-04, 9.360e-04)"),
        ("5", "8.0e-05", "(4.000e-07, 4.340e-05, 4.340e-05)"),
    ]
    for line, (d, p_ref, lambdas_ref) in zip(lines, references):
        fields = line.split()
        assert fields[0] == d
        assert fields[2] == p_ref
        assert line.endswith(f"  {lambdas_ref}  PASS")


def test_repro_motzkin_solver_failure_exits_numerical(monkeypatch, capsys):
    def failing(problem, config=None):
        raise ProjectionFailure("forced")

    monkeypatch.setattr(cli_module, "project_lambda_form", failing)
    code, _out, err = run(capsys, "repro-motzkin")
    assert code == 2
    assert err == "3   solver failure: forced\n"


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\nnorm=l1\n\nd=3  # half-degree\nformat=text\n")
    code, out, _err = run(
        capsys, "project", "--f", MOTZKIN, "--config", str(cfg)
    )
    assert code == 0
    p = float(out.splitlines()[0].split()[1])
    assert abs(p - 1.6e-2) <= 0.15 * 1.6e-2
    # flags override the config file
    code, out, _err = run(
        capsys, "project", "--f", MOTZKIN, "--config", str(cfg), "--d", "4"
    )
    assert code == 0
    p4 = float(out.splitlines()[0].split()[1])
    assert abs(p4 - 2.0e-3) <= 0.15 * 2.0e-3


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus=1\n")
    code, _out, err = run(capsys, "project", "--f", "0", "--config", str(cfg))
    assert code == 1
    assert "bogus" in err


@pytest.mark.parametrize("command", ["certify", "project", "psatz"])
@pytest.mark.parametrize(
    "line",
    ["format = structurd", "norm = l2", "feas_tol = inf", "gap_tol = nan", "norm l1"],
)
def test_config_value_outside_choices_rejected(
    tmp_path, capsys, monkeypatch, command, line
):
    # Config-file values skip argparse's choices; they must still be checked
    # before any solve runs, also for a key the subcommand does not read.
    def no_solve(*args, **kwargs):
        raise AssertionError("solve ran with a rejected config")

    monkeypatch.setattr(cli_module, "membership", no_solve)
    monkeypatch.setattr(cli_module, "project_lambda_form", no_solve)
    monkeypatch.setattr(cli_module, "psatz_search", no_solve)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code, _out, err = run(
        capsys, command, "--f", "x1^2", "--config", str(cfg)
    )
    assert code == 1
    assert "input error" in err


@pytest.mark.parametrize("command", ["project", "export-sdpa"])
def test_lw_weight_past_double_range_is_an_input_error(
    capsys, monkeypatch, command
):
    # 2d = 172 > 170: the perturbation scale 1/172! is out of double range.
    def no_solve(*args, **kwargs):
        raise AssertionError("solve ran past the weight range")

    monkeypatch.setattr(projection_module, "solve", no_solve)
    code, out, err = run(
        capsys, command, "--f", "x1^2", "--d", "86", "--norm", "lw"
    )
    assert code == 1
    assert out == ""
    assert err == (
        "input error: (2*ceil(172/2))! exceeds double range (degree > 170)\n"
    )


def test_project_with_system_file(tmp_path, capsys):
    system = tmp_path / "ball.sys"
    system.write_text("n 2\ncone quadratic\ng: 1 - x1^2 - x2^2\n")
    code, out, _err = run(
        capsys,
        "project",
        "--f",
        "x1^4",
        "--system",
        str(system),
        "--d",
        "2",
        "--norm",
        "lw",
    )
    assert code == 0
    p = float(out.splitlines()[0].split()[1])
    assert p <= 1e-6


def test_certify_not_in_cone_writes_verdict(tmp_path, capsys):
    out_path = tmp_path / "refutation.txt"
    code, out, _err = run(
        capsys,
        "certify",
        "--f",
        MOTZKIN,
        "--d",
        "3",
        "--out",
        str(out_path),
    )
    assert code == 3
    text = out_path.read_text()
    assert text.startswith("VERDICT\nnot_in_cone level 3")
    doc = parse_certificate(text)
    assert doc.separating_moments is not None
    assert format_certificate_document(doc) == text


def test_psatz_all_inconclusive_exits_numerical(monkeypatch, capsys):
    # Every membership solve inconclusive: exit 2, not "searched, not
    # certified" (3), whatever the number of (d, level) pairs searched.
    def fake_membership(f, system, k, config=None):
        return MembershipResult(MembershipVerdict.INCONCLUSIVE, k, message="forced")

    monkeypatch.setattr(certificates_module, "membership", fake_membership)
    code, out, err = run(
        capsys, "psatz", "--f", MOTZKIN, "--eps", "0.01", "--dmax", "4"
    )
    assert code == 2
    assert out == "NotFoundUpTo(4)\n"
    assert "inconclusive" in err


def test_psatz_some_inconclusive_exits_not_certified(monkeypatch, capsys):
    verdicts = iter([MembershipVerdict.INCONCLUSIVE])

    def fake_membership(f, system, k, config=None):
        verdict = next(verdicts, MembershipVerdict.NOT_IN_CONE)
        return MembershipResult(verdict, k, message="forced")

    monkeypatch.setattr(certificates_module, "membership", fake_membership)
    code, out, err = run(
        capsys, "psatz", "--f", MOTZKIN, "--eps", "0.01", "--dmax", "4"
    )
    assert code == 3
    assert out == "NotFoundUpTo(4)\n"
    # The skipped (d, level) pair is named on stderr.
    assert err == "inconclusive (d, level): (1, 3)\n"


def test_certify_inconclusive_exits_numerical(monkeypatch, capsys):
    def fake_membership(f, system, k, config=None, min_trace=False):
        return MembershipResult(MembershipVerdict.INCONCLUSIVE, k, message="forced")

    monkeypatch.setattr(cli_module, "membership", fake_membership)
    code, out, _err = run(capsys, "certify", "--f", "x1^2", "--d", "2")
    assert code == 2
    assert out == "verdict inconclusive level 2\ninconclusive: forced\n"


def test_project_inaccurate_exits_numerical(monkeypatch, capsys):
    # An inaccurate solve is no projection: exit 2, with the achieved
    # residuals next to the status on stderr.
    def fake_solve(problem, config=None):
        return SdpSolution(
            status=SdpStatus.INACCURATE,
            x_blocks=[],
            y=np.zeros(problem.num_constraints),
            s_blocks=[],
            primal_objective=0.0,
            dual_objective=0.0,
            gap=2e-8,
            relative_gap=2e-8,
            primal_residual=3e-8,
            dual_residual=4e-9,
            iterations=22,
            message="forced",
        )

    monkeypatch.setattr(projection_module, "solve", fake_solve)
    code, out, err = run(capsys, "project", "--f", MOTZKIN, "--d", "3")
    assert code == 2
    assert out == ""
    assert (
        "solver status inaccurate (relp 3.00e-08, reld 4.00e-09, "
        "relgap 2.00e-08; forced)" in err
    )


@pytest.mark.parametrize(
    "command, flags",
    [
        ("project", "f system norm cone d t format out feas-tol gap-tol"),
        ("certify", "f system cone d format out feas-tol gap-tol"),
        ("psatz", "f system cone eps dmax feas-tol gap-tol"),
        ("moments-check", "moments system d"),
        ("export-sdpa", "f system norm cone d t out"),
        ("repro-motzkin", "feas-tol gap-tol"),
    ],
)
def test_each_subcommand_takes_only_the_flags_it_reads(capsys, command, flags):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == {"--" + flag for flag in flags.split()} | {"--config", "--help"}


@pytest.mark.parametrize(
    "argv",
    [
        ["psatz", "--f", MOTZKIN, "--out", "F", "--format", "structured"],
        ["repro-motzkin", "--system", "/nonexistent", "--d", "9"],
        ["project", "--f", "x1^2", "--norm", "l2"],
        ["project", "--f", "x1^2", "--d", "0"],
        ["project"],
        ["project", "--f", "x1^2", "--no", "l1"],
        [
            "project", "--f", "x1^4 - x1 + 1", "--d", "2", "--norm", "l1",
            "--feas-tol", "inf", "--gap-tol", "inf",
        ],
        ["project", "--f", "x1^4 - x1 + 1", "--d", "2", "--feas-tol", "nan"],
    ],
    ids=[
        "unread-flags", "repro-unread-flags", "bad-choice", "bad-level", "no-f",
        "flag-prefix", "infinite-tols", "nan-feas-tol",
    ],
)
def test_bad_command_line_exits_input_error(
    tmp_path, monkeypatch, capsys, argv
):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("input error: ")
    assert not list(tmp_path.iterdir())


def test_config_cone_does_not_override_system_file(tmp_path, capsys):
    box = "n 2\ncone {}\ng: 1 - x1^2\ng: 1 - x2^2\n"
    quadratic = tmp_path / "quadratic.sys"
    quadratic.write_text(box.format("quadratic"))
    preorder = tmp_path / "preorder.sys"
    preorder.write_text(box.format("preorder"))
    cfg = tmp_path / "cone.cfg"
    cfg.write_text("cone=preorder\n")
    args = ["export-sdpa", "--f", "x1^2*x2^2", "--d", "2"]
    _, as_quadratic, _ = run(capsys, *args, "--system", str(quadratic))
    _, as_preorder, _ = run(capsys, *args, "--system", str(preorder))
    assert as_quadratic != as_preorder
    code, out, _ = run(
        capsys, *args, "--system", str(quadratic), "--config", str(cfg)
    )
    assert code == 0
    assert out == as_quadratic
    code, out, _ = run(
        capsys, *args, "--system", str(quadratic), "--config", str(cfg),
        "--cone", "preorder",
    )
    assert code == 0
    assert out == as_preorder


@pytest.mark.parametrize("unset", ["t=none\nout=\n", "t=\nout=\n"])
def test_config_values_that_leave_an_option_unset(
    tmp_path, monkeypatch, capsys, unset
):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d=3\n" + unset)
    args = ["export-sdpa", "--f", MOTZKIN, "--norm", "l1"]
    code, expected, _ = run(capsys, *args, "--d", "3")
    assert code == 0
    assert "t=3" in expected.splitlines()[0]
    code, out, _ = run(capsys, *args, "--config", str(cfg))
    assert code == 0
    assert out == expected
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]
