import importlib.util
from pathlib import Path

import numpy as np
import pytest

from sosproj.cones import build_truncation, gram_reconstruct
from sosproj.certificates import MembershipResult, MembershipVerdict

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "soundness_census.py"


@pytest.fixture(scope="module")
def census():
    spec = importlib.util.spec_from_file_location("soundness_census", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fake_verdicts(monkeypatch, census, wrong_call=None):
    """Answer every membership call rightly, except call `wrong_call`."""
    negatives = set()
    calls = []
    draw = census.negative_polynomial

    def negative(*args):
        f = draw(*args)
        negatives.add(f)
        return f

    def fake_membership(f, system, level):
        calls.append(level)
        right = f not in negatives
        if len(calls) == wrong_call:
            right = not right
        verdict = MembershipVerdict.IN_CONE if right else MembershipVerdict.NOT_IN_CONE
        return MembershipResult(verdict, level)

    monkeypatch.setattr(census, "negative_polynomial", negative)
    monkeypatch.setattr(census, "membership", fake_membership)
    return negatives, calls


def test_census_exits_0_when_every_verdict_is_right(monkeypatch, capsys, census):
    negatives, calls = _fake_verdicts(monkeypatch, census)
    assert census.main(["--seed", "5", "--trials", "12"]) == 0
    out, err = capsys.readouterr()
    assert negatives and len(calls) == 3 * 12
    assert err == ""
    assert out.splitlines()[-1] == "seed 5, 12 trials: 0 wrong of 36 membership calls"


@pytest.mark.parametrize("wrong_call", [1, 20, 36])
def test_census_exits_1_on_one_wrong_verdict(monkeypatch, capsys, census, wrong_call):
    _fake_verdicts(monkeypatch, census, wrong_call)
    assert census.main(["--seed", "5", "--trials", "12"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == "seed 5, 12 trials: 1 wrong of 36 membership calls"
    assert len(err.splitlines()) == 1
    assert err.startswith(f"trial {(wrong_call - 1) // 3}: ")


@pytest.mark.parametrize("name", ["R2", "R3", "disk", "ball3", "box2"])
def test_product_built_polynomial_is_the_gram_reconstruction(census, name):
    system = census.SYSTEMS[name]
    rng = np.random.default_rng(3)
    for k in census.LEVELS:
        for low_rank in (False, True):
            f, grams = census.in_cone_polynomial(rng, system, k, low_rank)
            diff = gram_reconstruct(build_truncation(system, k), grams) - f
            assert max(map(abs, diff.terms.values()), default=0.0) <= 1e-12
            if low_rank:
                assert all(
                    np.linalg.matrix_rank(g) <= max(1, len(g) // 2) for g in grams
                )
