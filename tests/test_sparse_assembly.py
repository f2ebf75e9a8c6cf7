"""The sparse basis matrices and the in-place row buffer reproduce the dense
constructions they replace, value for value."""

import numpy as np
import pytest

from sosproj import projection as projection_module
from sosproj.cones import (
    ConeKind,
    SemialgebraicSystem,
    build_truncation,
    gram_reconstruct,
)
from sosproj.moments import BasisMatrixSet
from sosproj.polynomials import WeightSequence, monomial_basis, parse_polynomial
from sosproj.projection import ProjectionProblem, dual_moment_problem
from sosproj.sdp import (
    SdpProblem,
    SdpSolution,
    SdpStatus,
    _row_buffer,
    _scale_rows,
    _Workspace,
    check_certificate,
)

BALL = parse_polynomial("1 - x1^2 - x2^2", 2)
BOX = SemialgebraicSystem(
    2,
    (parse_polynomial("1 - x1^2", 2), parse_polynomial("1 - x2^2", 2)),
    ConeKind.PREORDERING,
)


def dense_basis_matrices(g, order):
    """Reference: one dense s x s matrix per exponent, accumulated entrywise."""
    basis = monomial_basis(g.dimension, order)
    side = len(basis)
    mats = {}
    for bi, beta in enumerate(basis):
        for gi in range(bi, side):
            for delta, coeff in g.terms.items():
                alpha = tuple(b + c + d for b, c, d in zip(beta, basis[gi], delta))
                mat = mats.setdefault(alpha, np.zeros((side, side)))
                mat[bi, gi] += coeff
                if gi != bi:
                    mat[gi, bi] += coeff
    return mats


def dense_entries(mat):
    side = mat.shape[0]
    return [
        (i, j, float(mat[i, j]))
        for i in range(side)
        for j in range(i, side)
        if mat[i, j] != 0.0
    ]


@pytest.mark.parametrize(
    "g, order",
    [
        (BALL, 2),
        (BOX.product((1, 2)), 1),   # preordering product (1-x1^2)(1-x2^2)
        (BOX.product((1, 2)), 2),
    ],
)
def test_sparse_basis_matrices_match_dense(g, order):
    B = BasisMatrixSet(g, order)
    dense = dense_basis_matrices(g, order)
    assert B.nonzero_exponents() == sorted(dense, key=lambda a: (sum(a), a))
    for alpha in B.exponents():
        ref = dense.get(alpha, np.zeros((B.side, B.side)))
        assert np.array_equal(B.matrix(alpha), ref)
        assert B.entries(alpha) == dense_entries(ref)


def test_entries_are_copies():
    B = BasisMatrixSet(BALL, 1)
    alpha = B.nonzero_exponents()[0]
    B.entries(alpha).append((0, 0, 5.0))
    assert (0, 0, 5.0) not in B.entries(alpha)


def test_gram_reconstruct_matches_dense_inner_products():
    rng = np.random.default_rng(5)
    trunc = build_truncation(BOX, 2)
    grams = [rng.normal(size=(b.side, b.side)) for b in trunc.blocks]
    h = gram_reconstruct(trunc, grams)
    expected = {}
    for block, gram in zip(trunc.blocks, grams):
        for alpha, mat in dense_basis_matrices(block.product, block.sos_order).items():
            expected[alpha] = expected.get(alpha, 0.0) + float(np.tensordot(gram, mat))
    assert set(h.terms) == set(expected)
    for alpha, v in expected.items():
        assert h.coefficient(alpha) == pytest.approx(v, rel=1e-12, abs=1e-12)


SIDES = [(4, "psd"), (3, "diag"), (5, "psd"), (2, "diag")]


def mixed_problem(rng):
    """Random constraints on PSD and diagonal blocks."""
    prob = SdpProblem()
    for side, kind in SIDES:
        if kind == "psd":
            prob.add_psd_block(side)
        else:
            prob.add_diag_block(side)

    def random_entries():
        entries = {}
        for blk, (side, kind) in enumerate(SIDES):
            if kind == "psd":
                entries[blk] = [
                    (i, j, rng.normal()) for i in range(side) for j in range(i, side)
                ]
            else:
                entries[blk] = [(i, i, rng.normal()) for i in range(side)]
        return entries

    prob.set_objective(random_entries())
    for _ in range(9):
        prob.add_constraint(random_entries(), rng.normal())
    return prob


def test_check_certificate_matches_dense_operator():
    rng = np.random.default_rng(11)
    prob = mixed_problem(rng)
    X = []
    for side, kind in SIDES:
        if kind == "psd":
            m = rng.normal(size=(side, side))
            X.append(m @ m.T)
        else:
            X.append(rng.uniform(0.1, 1.0, size=side))
    y = rng.normal(size=prob.num_constraints)
    sol = SdpSolution(SdpStatus.OPTIMAL, X, y, [], 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1)
    rep = check_certificate(prob, sol)

    def dense(entries):
        return [prob.dense_coefficient(entries, blk) for blk in range(len(SIDES))]

    def inner(P, Q):
        return sum(float(np.vdot(p, q)) for p, q in zip(P, Q))

    C = dense(prob.objective)
    A = [dense(entries) for entries, _rhs in prob.constraints]
    b = np.array([rhs for _e, rhs in prob.constraints])
    resid = np.array([inner(Ai, X) for Ai in A]) - b
    ATy = [sum(yi * Ai[blk] for yi, Ai in zip(y, A)) for blk in range(len(SIDES))]
    S = [c - a for c, a in zip(C, ATy)]

    def approx(v):
        return pytest.approx(v, rel=1e-12, abs=1e-12)

    assert rep.constraint_residual == approx(np.max(np.abs(resid)))
    assert rep.primal_objective == approx(inner(C, X))
    assert rep.dual_objective == approx(float(b @ y))
    assert rep.complementarity == approx(inner(X, S))
    for got, s in zip(rep.dual_min_eigs, S):
        want = s.min() if s.ndim == 1 else np.linalg.eigvalsh(s)[0]
        assert got == approx(want)


def test_row_buffer_matches_hstack():
    rng = np.random.default_rng(3)
    prob = mixed_problem(rng)
    ws = _Workspace(prob)
    G = [None] * len(SIDES)
    w_diag = [None] * len(SIDES)
    for blk, (side, kind) in enumerate(SIDES):
        if kind == "psd":
            G[blk] = rng.normal(size=(side, side))
        else:
            w_diag[blk] = rng.uniform(0.5, 2.0, size=side)
    rows, views = _row_buffer(ws)
    _scale_rows(ws, G, w_diag, views)
    parts = []
    for blk, (side, kind) in enumerate(SIDES):
        if kind == "psd":
            g = G[blk]
            ahat = np.einsum("ki,mij,jl->mkl", g.T, ws.A[blk], g, optimize=True)
            parts.append(ahat.reshape(ws.m, -1))
        else:
            parts.append(ws.A[blk] * w_diag[blk][None, :])
    expected = np.hstack(parts)
    assert rows.shape == expected.shape and rows.flags.c_contiguous
    assert np.array_equal(rows, expected)
    assert np.array_equal(rows @ rows.T, expected @ expected.T)


class _Captured(Exception):
    pass


def dense_dual_linkage(trunc, z_ids, u_blk, v_blk, aindex):
    """Reference: the linkage rows read off dense basis matrices, per (r, c)."""
    out = []
    for block in trunc.blocks:
        mats = dense_basis_matrices(block.product, block.sos_order)
        alphas = sorted(mats, key=lambda a: (sum(a), a))
        for r in range(block.side):
            for c in range(r, block.side):
                entries = {z_ids[block.label]: [(r, c, 1.0 if r == c else 0.5)]}
                ulist, vlist = [], []
                for alpha in alphas:
                    coeff = float(mats[alpha][r, c])
                    if coeff != 0.0:
                        i = aindex[alpha]
                        ulist.append((i, i, -coeff))
                        vlist.append((i, i, coeff))
                if ulist:
                    entries[u_blk] = ulist
                    entries[v_blk] = vlist
                out.append(entries)
    return out


@pytest.mark.parametrize(
    "f, system, d",
    [
        ("x1^2*x2^2*(x1^2+x2^2-1)+1/27", SemialgebraicSystem(2, ()), 3),
        ("x1^3*x2 - x1*x2 + 1/10 - x2^4", SemialgebraicSystem(2, (BALL,)), 2),
        ("x1^3*x2 - x1*x2 + 1/10 - x2^4", BOX, 2),
    ],
)
def test_dual_constraints_match_dense_assembly(monkeypatch, f, system, d):
    captured = {}

    def capture(sdp, config=None):
        captured["sdp"] = sdp
        raise _Captured

    monkeypatch.setattr(projection_module, "solve", capture)
    problem = ProjectionProblem(
        parse_polynomial(f, system.dimension), system, WeightSequence.l1(), d
    )
    with pytest.raises(_Captured):
        dual_moment_problem(problem)
    sdp = captured["sdp"]

    trunc = build_truncation(system, d)
    alphas = monomial_basis(system.dimension, 2 * d)
    aindex = {alpha: i for i, alpha in enumerate(alphas)}
    z_ids = {block.label: 3 + k for k, block in enumerate(trunc.blocks)}
    ref = SdpProblem()
    for spec in sdp.blocks:
        ref.add_block(spec.side, spec.kind)
    for entries in dense_dual_linkage(trunc, z_ids, 0, 1, aindex):
        ref.add_constraint(entries, 0.0)
    n_link = ref.num_constraints
    assert sdp.constraints[:n_link] == ref.constraints
    assert len(sdp.constraints) == n_link + len(alphas)
