import numpy as np
import pytest

from sosproj.cones import (
    ConeKind,
    ConeModelError,
    SemialgebraicSystem,
    build_truncation,
    format_system_text,
    gram_reconstruct,
    parse_system_text,
)
from sosproj.polynomials import Polynomial, parse_polynomial

RNG = np.random.default_rng(99)


def ball_system(kind=ConeKind.QUADRATIC_MODULE):
    return SemialgebraicSystem(2, (parse_polynomial("1 - x1^2 - x2^2", 2),), kind)


def test_no_generators_single_block():
    system = SemialgebraicSystem(2, ())
    for kind in ConeKind:
        trunc = build_truncation(
            SemialgebraicSystem(2, (), kind), 3
        )
        assert len(trunc.blocks) == 1
        assert trunc.blocks[0].label == ()
        assert trunc.blocks[0].sos_order == 3


def test_preordering_subset_blocks():
    gens = (parse_polynomial("x1", 2), parse_polynomial("x2", 2))
    system = SemialgebraicSystem(2, gens, ConeKind.PREORDERING)
    trunc = build_truncation(system, 2)
    labels = [b.label for b in trunc.blocks]
    assert labels == [(), (1,), (2,), (1, 2)]
    # product polynomial for {1,2} is x1*x2
    assert trunc.block_by_label((1, 2)).product == parse_polynomial("x1*x2", 2)


def test_quadratic_module_block_count_and_orders():
    system = ball_system()
    trunc = build_truncation(system, 2)
    assert [b.label for b in trunc.blocks] == [(), (1,)]
    assert [b.sos_order for b in trunc.blocks] == [2, 1]


def test_low_level_excludes_high_degree_generator():
    gens = (parse_polynomial("x1^3", 1),)
    system = SemialgebraicSystem(1, gens)
    trunc = build_truncation(system, 1)
    assert [b.label for b in trunc.blocks] == [()]
    assert trunc.excluded == (((1,), 2),)


def test_preorder_cap():
    gens = tuple(Polynomial.variable(13, i + 1) for i in range(13))
    with pytest.raises(ConeModelError):
        SemialgebraicSystem(13, gens, ConeKind.PREORDERING)


def test_gram_reconstruct_identity_block():
    system = SemialgebraicSystem(1, ())
    trunc = build_truncation(system, 1)
    h = gram_reconstruct(trunc, [np.eye(2)])
    assert h == parse_polynomial("1 + x1^2", 1)


def test_gram_reconstruct_zero():
    trunc = build_truncation(ball_system(), 2)
    h = gram_reconstruct(trunc, [np.zeros((b.side, b.side)) for b in trunc.blocks])
    assert h.is_zero()


def test_gram_reconstruct_dimension_check():
    trunc = build_truncation(ball_system(), 2)
    with pytest.raises(ConeModelError):
        gram_reconstruct(trunc, [np.eye(2), np.eye(3)])


def sample_in_ball(rng):
    while True:
        p = rng.uniform(-1, 1, size=2)
        if p @ p <= 1.0:
            return p


def test_reconstruction_nonnegative_on_set():
    # Random PSD grams produce polynomials nonnegative where all g_j >= 0.
    for kind in ConeKind:
        system = ball_system(kind)
        trunc = build_truncation(system, 2)
        grams = []
        scale = 0.0
        for block in trunc.blocks:
            M = RNG.normal(size=(block.side, block.side))
            G = M @ M.T
            grams.append(G)
            scale += float(np.trace(G))
        h = gram_reconstruct(trunc, grams)
        assert h.degree <= 2 * trunc.level
        for _ in range(20):
            p = sample_in_ball(RNG)
            assert h.evaluate(p) >= -1e-9 * scale


def test_system_text_round_trip():
    system = SemialgebraicSystem(
        2,
        (parse_polynomial("x1", 2), parse_polynomial("1 - x1*x2", 2)),
        ConeKind.PREORDERING,
    )
    text = format_system_text(system)
    back = parse_system_text(text)
    assert back.dimension == 2
    assert back.cone_kind is ConeKind.PREORDERING
    assert back.generators == system.generators


def test_system_text_errors():
    with pytest.raises(ConeModelError):
        parse_system_text("cone quadratic\ng: x1\n")
    with pytest.raises(ConeModelError):
        parse_system_text("n 2\nbogus line\n")


def test_system_text_rejects_repeated_lines():
    with pytest.raises(ConeModelError, match="repeated 'n'"):
        parse_system_text("n 1\nn 2\ng: x1\n")
    with pytest.raises(ConeModelError, match="repeated 'cone'"):
        parse_system_text("n 2\ncone preorder\ncone quadratic\n")
