"""The one expansion g(x) v(x) v(x)^T = sum_alpha x^alpha B_alpha.

Moment and localizing matrices and the moment dual's linkage rows all read
it.  Each is held here, byte for byte, to the entrywise loop it replaced:
`tobytes()` tells a -0.0 moment from a 0.0 one.
"""

import numpy as np
import pytest

from sosproj import projection as projection_module
from sosproj.cones import SemialgebraicSystem, build_truncation, gram_sdp
from sosproj.moments import (
    BasisMatrixSet,
    MomentSequence,
    localizing_matrix,
    moment_matrix,
)
from sosproj.polynomials import (
    Polynomial,
    WeightSequence,
    monomial_basis,
    parse_polynomial,
)
from sosproj.projection import ProjectionProblem, dual_moment_problem


def reference_localizing_matrix(y, g, d):
    basis = monomial_basis(y.dimension, d)
    s = len(basis)
    mat = np.zeros((s, s))
    for i, beta in enumerate(basis):
        for j in range(i, s):
            gamma = basis[j]
            v = 0.0
            for delta, coeff in g.terms.items():
                v += coeff * y.value(
                    tuple(b + gg + dd for b, gg, dd in zip(beta, gamma, delta))
                )
            mat[i, j] = v
            mat[j, i] = v
    return mat


def reference_dual_constraints(problem):
    """The moment dual's rows, its linkage read by inverting B_alpha's entries."""
    f, system, w = problem.f, problem.system, problem.norm
    n, d = system.dimension, problem.d
    trunc = build_truncation(system, d)
    alphas = monomial_basis(n, 2 * d)
    aindex = {alpha: i for i, alpha in enumerate(alphas)}
    N = len(alphas)
    gs = gram_sdp(trunc, (N, N, N))
    sdp = gs.sdp
    u_blk, v_blk, box_blk = range(3)
    for block in trunc.blocks:
        zb = gs.block_ids[block.label]
        side = block.side
        linkage = {}
        for alpha in block.basis.nonzero_exponents():
            i = aindex[alpha]
            for r, c, coeff in block.basis.entries(alpha):
                linkage.setdefault((r, c), []).append((i, coeff))
        for r in range(side):
            for c in range(r, side):
                entries = {zb: [(r, c, 1.0 if r == c else 0.5)]}
                terms = linkage.get((r, c))
                if terms:
                    entries[u_blk] = [(i, i, -coeff) for i, coeff in terms]
                    entries[v_blk] = [(i, i, coeff) for i, coeff in terms]
                sdp.add_constraint(entries, 0.0)
    for alpha in alphas:
        i = aindex[alpha]
        sdp.add_constraint(
            {u_blk: [(i, i, 1.0)], v_blk: [(i, i, 1.0)], box_blk: [(i, i, 1.0)]},
            w.weight(alpha),
        )
    return sdp.constraints


GENERATORS = {
    1: ["1", "5/2", "x1", "1 - x1^2", "x1 - 2*x1^3 + 1/3"],
    2: ["1", "x1*x2", "1 - x1^2 - x2^2", "(1 - x1^2)*(1 - x2^2)", "x1^3*x2 - x1*x2 + 1/10"],
    3: ["1", "x3^2", "1 - x1^2 - x2^2 - x3^2", "x1*x2*x3 - x1^2 + 2"],
}


def _sequences(n, degree, rng):
    """A random sequence, and atomic ones whose moments include -0.0."""
    yield MomentSequence.from_function(
        n, degree, lambda a: float(rng.uniform(-1, 1))
    )
    points = rng.uniform(-1.5, 1.5, size=(3, n))
    yield MomentSequence.from_atoms(points, [1.0, 0.5, 2.0], degree)
    point = [-0.0] + [float(x) for x in rng.uniform(-1, 1, size=n - 1)]
    yield MomentSequence.dirac(point, degree)
    yield MomentSequence.from_atoms([point, [0.0] * n], [1.0, -1.0], degree)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_moment_and_localizing_matrices_match_the_entrywise_loops(n):
    rng = np.random.default_rng(n)
    unit = Polynomial.constant(n, 1.0)
    signed_zeros = 0
    for text in GENERATORS[n]:
        g = parse_polynomial(text, n)
        for d in range(3):
            for y in _sequences(n, 2 * d + g.degree, rng):
                got = localizing_matrix(y, g, d)
                assert got.tobytes() == reference_localizing_matrix(y, g, d).tobytes()
                # The moment matrix is the localizing matrix of 1.
                got = moment_matrix(y, d)
                assert got.tobytes() == reference_localizing_matrix(y, unit, d).tobytes()
                moments = np.array(list(y.values.values()))
                signed_zeros += int(np.sum((moments == 0.0) & np.signbit(moments)))
    # The atomic sequences hold -0.0 moments.
    assert signed_zeros > 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_positions_invert_the_basis_matrix_entries(n):
    for text in GENERATORS[n]:
        g = parse_polynomial(text, n)
        for order in range(3):
            B = BasisMatrixSet(g, order)
            by_position = {}
            for alpha in B.nonzero_exponents():
                for i, j, coeff in B.entries(alpha):
                    by_position.setdefault((i, j), []).append((alpha, coeff))
            positions = list(B.positions())
            side = B.side
            assert [(i, j) for i, j, _t in positions] == [
                (i, j) for i in range(side) for j in range(i, side)
            ]
            assert all(terms == by_position[i, j] for i, j, terms in positions)


class _Captured(Exception):
    pass


@pytest.mark.parametrize(
    "f, system, d",
    [
        ("x1^2*x2^2*(x1^2+x2^2-1)+1/27", SemialgebraicSystem(2, ()), 3),
        (
            "x1^2*x2^2 + x2^2*x3^2 + x3^2*x1^2 - x1*x2*x3 - x1^3*x2 - 1/20",
            SemialgebraicSystem(3, (parse_polynomial("1 - x1^2 - x2^2 - x3^2", 3),)),
            3,
        ),
    ],
    ids=["motzkin-l1-d3", "ball-quartic-l1-d3"],
)
def test_dual_moment_problem_adds_the_reference_constraints(monkeypatch, f, system, d):
    problem = ProjectionProblem(
        parse_polynomial(f, system.dimension), system, WeightSequence.l1(), d
    )
    captured = {}

    def capture(sdp, config=None):
        captured["sdp"] = sdp
        raise _Captured

    monkeypatch.setattr(projection_module, "solve", capture)
    with pytest.raises(_Captured):
        dual_moment_problem(problem)
    assert captured["sdp"].constraints == reference_dual_constraints(problem)
