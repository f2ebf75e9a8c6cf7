import numpy as np
import pytest

from sosproj.cones import (
    PREORDER_CAP,
    ConeKind,
    ConeModelError,
    SemialgebraicSystem,
    build_truncation,
    format_system_text,
    gram_reconstruct,
    gram_sdp,
    parse_system_text,
)
from sosproj.moments import localizing_matrix
from sosproj.polynomials import (
    Polynomial, half_degree, monomial_basis, parse_polynomial,
)

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
    blocks = {b.label: b for b in trunc.blocks}
    # product polynomial for {1,2} is x1*x2
    assert blocks[(1, 2)].product == parse_polynomial("x1*x2", 2)
    assert (3,) not in blocks


def test_quadratic_module_block_count_and_orders():
    system = ball_system()
    trunc = build_truncation(system, 2)
    assert [b.label for b in trunc.blocks] == [(), (1,)]
    assert [b.sos_order for b in trunc.blocks] == [2, 1]


def test_low_level_excludes_high_degree_generator():
    gens = (parse_polynomial("x1^3", 1),)
    system = SemialgebraicSystem(1, gens)
    trunc = build_truncation(system, 1)
    # Label (1,) has no block: its product x1^3 has v = 2 > 1.
    assert [b.label for b in trunc.blocks] == [()]
    assert half_degree(system.product((1,))) == 2


def test_preorder_cap():
    gens = tuple(Polynomial.variable(13, i + 1) for i in range(13))
    with pytest.raises(ConeModelError):
        SemialgebraicSystem(13, gens, ConeKind.PREORDERING)


def test_rows_and_functional_follow_the_row_exponents():
    gs = gram_sdp(build_truncation(ball_system(), 2))
    assert gs.row_exponents == monomial_basis(2, 4)
    # A reordered row list reorders both the rows and the functional.
    gs.row_exponents = gs.row_exponents[::-1]
    f = parse_polynomial("1 + 2*x1 - x2^3", 2)
    rows = list(gs.rows(f))
    assert [alpha for alpha, _e, _c in rows] == gs.row_exponents
    for alpha, entries, coeff in rows:
        assert coeff == f.coefficient(alpha)
        assert entries == {
            gs.block_ids[b.label]: b.basis.entries(alpha)
            for b in gs.truncation.blocks
            if b.basis.entries(alpha)
        }
    y = np.arange(1.0, len(rows) + 1.0)
    L = gs.functional(y)
    assert [L.value(alpha) for alpha in gs.row_exponents] == list(-y)


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


@pytest.mark.parametrize(
    "build",
    [
        lambda: SemialgebraicSystem(0),
        lambda: SemialgebraicSystem(2, (parse_polynomial("x1", 1),)),
        lambda: build_truncation(ball_system(), -1),
        lambda: gram_reconstruct(build_truncation(ball_system(), 2), [np.eye(6)]),
        lambda: SemialgebraicSystem(
            1, (parse_polynomial("1 - x1^2", 1),) * (PREORDER_CAP + 1),
            ConeKind.PREORDERING,
        ),
    ],
    ids=[
        "dimension 0", "generator of another dimension", "level -1",
        "one Gram for two blocks", "preordering above the cap",
    ],
)
def test_cone_model_rejects_bad_input(build):
    with pytest.raises(ConeModelError):
        build()


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
    back = parse_system_text(f"# a comment\n\n{text}")
    assert back.dimension == 2
    assert back.cone_kind is ConeKind.PREORDERING
    assert back.generators == system.generators


def test_system_text_errors():
    with pytest.raises(ConeModelError):
        parse_system_text("cone quadratic\ng: x1\n")
    with pytest.raises(ConeModelError):
        parse_system_text("n 2\nbogus line\n")
    for text in ("n 2 3\n", "n 2\ncone preorder junk\n", "n\n"):
        with pytest.raises(ConeModelError, match="expected"):
            parse_system_text(text)


def test_system_text_rejects_repeated_lines():
    with pytest.raises(ConeModelError, match="repeated 'n'"):
        parse_system_text("n 1\nn 2\ng: x1\n")
    with pytest.raises(ConeModelError, match="repeated 'cone'"):
        parse_system_text("n 2\ncone preorder\ncone quadratic\n")


# The unit disc as a quadratic module, and as a preordering of two
# generators whose product block is nontrivial.
DISC_SYSTEMS = {
    "quadratic": ball_system(),
    "preorder": SemialgebraicSystem(
        2,
        (parse_polynomial("1 - x1^2 - x2^2", 2), parse_polynomial("1 - x2^2", 2)),
        ConeKind.PREORDERING,
    ),
}


@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("cone", list(DISC_SYSTEMS))
def test_gram_sdp_rows_sum_to_the_reconstruction(cone, level):
    trunc = build_truncation(DISC_SYSTEMS[cone], level)
    gs = gram_sdp(trunc)
    rng = np.random.default_rng(level)
    grams = {}
    for block in trunc.blocks:
        M = rng.normal(size=(block.side, block.side))
        grams[gs.block_ids[block.label]] = M @ M.T
    h = gram_reconstruct(trunc, list(grams.values()))
    alphas = []
    for alpha, entries, rhs in gs.rows(h):
        alphas.append(alpha)
        assert rhs == h.coefficient(alpha)
        # <B^J_alpha, X_J> over the stored upper triangle of the symmetric B.
        value = sum(
            b * grams[blk][i, j] * (1.0 if i == j else 2.0)
            for blk, items in entries.items()
            for i, j, b in items
        )
        assert value == pytest.approx(h.coefficient(alpha), rel=1e-12, abs=1e-12)
    assert alphas == monomial_basis(2, 2 * level)


@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("cone", list(DISC_SYSTEMS))
def test_gram_sdp_functional_localizes_the_row_multipliers(cone, level):
    # A refutation reads L(x^alpha_i) = -y_i; its localizing matrix on each
    # Gram block must be -sum_i y_i B^J_alpha_i.
    trunc = build_truncation(DISC_SYSTEMS[cone], level)
    gs = gram_sdp(trunc)
    alphas = [alpha for alpha, _entries, _rhs in gs.rows(Polynomial(2, {}))]
    y = np.random.default_rng(10 + level).normal(size=len(alphas))
    functional = gs.functional(y)
    for block in trunc.blocks:
        expected = -sum(v * block.basis.matrix(a) for v, a in zip(y, alphas))
        np.testing.assert_allclose(
            localizing_matrix(functional, block.product, block.sos_order),
            expected,
            rtol=1e-12,
            atol=1e-12,
        )
