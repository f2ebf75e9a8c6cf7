"""The sparse basis matrices, the sparse PSD constraint storage of the
solver workspace, the in-place row buffer and the slabbed row scaling
reproduce the dense constructions they replace, value for value."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from sosproj import projection as projection_module
from sosproj import sdp as sdp_module
from sosproj.cones import (
    ConeKind,
    SemialgebraicSystem,
    build_truncation,
    gram_reconstruct,
)
from sosproj.moments import BasisMatrixSet
from sosproj.polynomials import WeightSequence, monomial_basis, parse_polynomial
from sosproj.projection import (
    ProjectionProblem,
    build_lambda_form_sdp,
    dual_moment_problem,
    project_general_form,
)
from sosproj.sdp import (
    EQUILIBRATE_ROUNDS,
    SLAB_MIN_FLOPS,
    BlockKind,
    SdpProblem,
    SdpSolution,
    SdpStatus,
    SolverConfig,
    _row_buffer,
    _scale_rows,
    _scale_slab,
    _solve_once,
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


def dense_A(ws, blk):
    """The dense (m, side, side) constraint tensor of a workspace PSD block,
    scattered from its stored nonzeros."""
    rows = ws.A[blk]
    out = np.zeros((ws.m, rows.side * rows.side))
    out[rows.row, rows.pos] = rows.val
    return out.reshape(ws.m, rows.side, rows.side)


def test_row_buffer_matches_hstack():
    rng = np.random.default_rng(3)
    prob = mixed_problem(rng)
    ws = _Workspace(prob)
    G = []
    for side, kind in SIDES:
        if kind == "psd":
            G.append(rng.normal(size=(side, side)))
        else:
            G.append(rng.uniform(0.5, 2.0, size=side))
    rows, views = _row_buffer(ws)
    _scale_rows(ws, G, views)
    parts = []
    for blk, (side, kind) in enumerate(SIDES):
        if kind == "psd":
            g = G[blk]
            ahat = np.einsum("ki,mij,jl->mkl", g.T, dense_A(ws, blk), g, optimize=True)
            parts.append(ahat.reshape(ws.m, -1))
        else:
            parts.append(ws.A[blk] * G[blk][None, :])
    expected = np.hstack(parts)
    assert rows.shape == expected.shape and rows.flags.c_contiguous
    assert np.array_equal(rows, expected)
    assert np.array_equal(rows @ rows.T, expected @ expected.T)


def psd_rows_workspace(rng, m, side):
    """A workspace of one PSD block and m random sparse symmetric
    constraints, each with side entries in its upper triangle."""
    prob = SdpProblem()
    blk = prob.add_psd_block(side)
    upper = np.transpose(np.triu_indices(side))
    for _ in range(m):
        picked = upper[rng.choice(len(upper), size=side, replace=False)]
        values = rng.normal(size=side)
        prob.add_constraint(
            {blk: [(int(i), int(j), v) for (i, j), v in zip(picked, values)]}, 1.0
        )
    return _Workspace(prob)


def slab_sizes(monkeypatch, ws, g):
    """Run _scale_rows once and return its rows and the size of every slab."""
    sizes = []
    scale_slab = sdp_module._scale_slab

    def counting_scale_slab(a, *args):
        sizes.append(a.shape[0])
        return scale_slab(a, *args)

    rows, views = _row_buffer(ws)
    monkeypatch.setattr(sdp_module, "_scale_slab", counting_scale_slab)
    _scale_rows(ws, [g], views)
    monkeypatch.undo()
    return rows, sizes


# The ladder's and crosscheck's largest blocks; at side 35, slabs below the
# floor would go through a gemm kernel that rounds differently.
@pytest.mark.parametrize("m, side", [(455, 84), (286, 56), (330, 35), (795, 35)])
def test_scale_rows_slabs_match_whole_block(monkeypatch, m, side):
    rng = np.random.default_rng(m + side)
    ws = psd_rows_workspace(rng, m, side)
    g = rng.normal(size=(side, side))
    rows, sizes = slab_sizes(monkeypatch, ws, g)
    whole = np.einsum("ki,mij,jl->mkl", g.T, dense_A(ws, 0), g, optimize=True)
    assert np.array_equal(rows, whole.reshape(m, -1))
    assert len(sizes) > 1 and sum(sizes) == m
    assert min(sizes) >= math.ceil(SLAB_MIN_FLOPS / side**3)


def test_scale_rows_small_block_is_one_call(monkeypatch):
    m, side = 66, 21
    assert m * side**3 < SLAB_MIN_FLOPS
    rng = np.random.default_rng(5)
    ws = psd_rows_workspace(rng, m, side)
    _, sizes = slab_sizes(monkeypatch, ws, rng.normal(size=(side, side)))
    assert sizes == [m]


SEXTIC = "x1^2*x2^2*(x1^2+x2^2-3*x3^2)+x3^6"


def sextic_sdp(monkeypatch, form, d):
    """The SDP of one projection form of the n=3 sextic at l1 degree d."""
    problem = ProjectionProblem(
        parse_polynomial(SEXTIC, 3), SemialgebraicSystem(3, ()), WeightSequence.l1(), d
    )
    if form == "lambda":
        return build_lambda_form_sdp(problem).sdp
    forms = {"general": project_general_form, "dual": dual_moment_problem}
    return _captured_sdp(monkeypatch, problem, forms[form])


def negate_every_third(sdp):
    """A copy of sdp with every third constraint negated (not every other:
    the general form's rows come in plus/minus pairs)."""
    out = SdpProblem()
    for spec in sdp.blocks:
        out.add_block(spec.side, spec.kind)
    out.objective = sdp.objective
    for k, (entries, rhs) in enumerate(sdp.constraints):
        sign = -1.0 if k % 3 == 1 else 1.0
        out.add_constraint(
            {blk: [(i, j, sign * v) for i, j, v in items] for blk, items in entries.items()},
            sign * rhs,
        )
    return out


def scalings_with_zeros(rng, blocks):
    """One random scaling per block, about a quarter of it exact zeros."""
    G = []
    for spec in blocks:
        if spec.kind is PSD:
            g = rng.normal(size=(spec.side, spec.side))
            g[rng.random(g.shape) < 0.25] = 0.0
            G.append(g)
        else:
            G.append(rng.uniform(0.5, 2.0, size=spec.side))
    return G


# The Gram blocks of the ladder's sextic lambda forms and the Gram and
# moment blocks of crosscheck's general and dual forms (m = 795 at side 35).
@pytest.mark.parametrize(
    "form, d, m", [("lambda", 4, 165), ("lambda", 5, 286), ("lambda", 6, 455),
                   ("general", 4, 330), ("dual", 4, 795)]
)
def test_gathered_rows_equal_both_gemms_to_the_byte(monkeypatch, form, d, m):
    ws = _Workspace(negate_every_third(sextic_sdp(monkeypatch, form, d)))
    assert ws.m == m
    rng = np.random.default_rng(d)
    G = scalings_with_zeros(rng, ws.blocks)
    _, views = _row_buffer(ws)
    monkeypatch.setattr(sdp_module, "_scale_slab", None)  # never called
    _scale_rows(ws, G, views)
    monkeypatch.undo()
    for blk in ws.psd:
        stored = ws.A[blk]
        assert stored.col is not None
        assert (stored.v < 0).any() and (stored.v > 0).any()
        g, side = G[blk], stored.side
        slabbed = np.empty((ws.m, side, side))
        for lo, hi, a in ws.slabs(blk):
            _scale_slab(a, g, ws.scale_scratch, slabbed[lo:hi])
        whole = np.einsum("ki,mij,jl->mkl", g.T, dense_A(ws, blk), g, optimize=True)
        assert views[blk].tobytes() == slabbed.tobytes() == whole.tobytes()


def test_block_with_two_nonzeros_in_a_row_runs_both_gemms(monkeypatch):
    # Block 0 holds two nonzeros in row 0 of one constraint; block 1 holds at
    # most one nonzero in every row of every constraint.
    prob = SdpProblem()
    prob.add_psd_block(4)
    prob.add_psd_block(3)
    prob.add_constraint({0: [(0, 0, 1.0)], 1: [(0, 1, -2.0)]}, 1.0)
    prob.add_constraint({0: [(0, 1, 0.5), (0, 2, -3.0)], 1: [(2, 2, 4.0)]}, 0.0)
    prob.add_constraint({0: [(3, 3, 2.0)], 1: [(0, 0, 1.0), (1, 2, 0.25)]}, 2.0)
    ws = _Workspace(prob)
    assert ws.A[0].col is None and ws.A[1].col is not None
    assert ws.A[1].col.reshape(3, 3)[2].tolist() == [0, 2, 1]
    rng = np.random.default_rng(4)
    G = [rng.normal(size=(4, 4)), rng.normal(size=(3, 3))]
    shapes = []
    scale_slab = sdp_module._scale_slab

    def recording_scale_slab(a, *args):
        shapes.append(a.shape)
        return scale_slab(a, *args)

    monkeypatch.setattr(sdp_module, "_scale_slab", recording_scale_slab)
    _, views = _row_buffer(ws)
    _scale_rows(ws, G, views)
    monkeypatch.undo()
    assert shapes == [(3, 4, 4)]
    for blk, g in enumerate(G):
        want = np.einsum("ki,mij,jl->mkl", g.T, dense_A(ws, blk), g, optimize=True)
        assert views[blk].tobytes() == want.tobytes()


@pytest.mark.parametrize("form, d", [("lambda", 6), ("dual", 4)])
def test_gathered_rows_allocate_no_slab(monkeypatch, form, d):
    """A call on gathered blocks allocates far less than one slab: the
    gather writes into the workspace's scratch, and the only temporaries
    are a transposed copy of G (side^2 doubles) and numpy's buffers."""
    ws = _Workspace(sextic_sdp(monkeypatch, form, d))
    (blk,) = ws.psd
    assert ws.A[blk].col is not None and len(ws.slab_bounds[blk]) > 2
    slab_bytes = ws.scale_scratch[0].nbytes
    G = scalings_with_zeros(np.random.default_rng(d), ws.blocks)
    _, views = _row_buffer(ws)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _scale_rows(ws, G, views)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < slab_bytes / 4


class _Captured(Exception):
    pass


def _captured_sdp(monkeypatch, problem, form=dual_moment_problem):
    """The SDP that a projection form (by default dual_moment_problem)
    builds, captured before any solve."""
    captured = {}

    def capture(sdp, config=None):
        captured["sdp"] = sdp
        raise _Captured

    monkeypatch.setattr(projection_module, "solve", capture)
    with pytest.raises(_Captured):
        form(problem)
    monkeypatch.undo()
    return captured["sdp"]


@pytest.mark.parametrize(
    "f, system, weights, d",
    [
        ("x1^2*x2^2*(x1^2+x2^2-1)+1/27", SemialgebraicSystem(2, ()), WeightSequence.l1(), 3),
        ("x1^3*x2 - x1*x2 + 1/10 - x2^4", SemialgebraicSystem(2, (BALL,)), WeightSequence.lw(), 2),
        ("x1^3*x2 - x1*x2 + 1/10 - x2^4", BOX, WeightSequence.l1(), 2),
    ],
)
def test_equilibrated_psd_constraints_are_exactly_symmetric(
    monkeypatch, f, system, weights, d
):
    # _scale_slab multiplies A_i itself where einsum multiplied A_i^T, so
    # the rows stay bit-identical only while every A_i is exactly symmetric.
    problem = ProjectionProblem(
        parse_polynomial(f, system.dimension), system, weights, d
    )
    sdps = [
        build_lambda_form_sdp(problem).sdp,
        _captured_sdp(monkeypatch, problem),
    ]
    for sdp in sdps:
        ws = _Workspace(sdp)
        assert ws.psd
        for blk in ws.psd:
            A = dense_A(ws, blk)
            assert np.array_equal(A, A.transpose(0, 2, 1))


def test_scale_rows_peak_memory():
    """One call at the ladder's largest block size (a dense A would be
    25.7 MB) stays far below the 77 MB that a whole-block einsum allocates."""
    rng = np.random.default_rng(7)
    ws = psd_rows_workspace(rng, 455, 84)
    g = rng.normal(size=(84, 84))
    _, views = _row_buffer(ws)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _scale_rows(ws, [g], views)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_scale_rows_allocates_no_scratch():
    """The row scaling runs in the workspace's one scratch of the largest
    slab, so a call allocates almost nothing: far less than one block's
    share of the row buffer, which a scratch of its own would double."""
    rng = np.random.default_rng(22)
    m, side = 400, 22
    problem = random_problem(rng, [(side, PSD)] * 2, m, 0.05)
    ws = _Workspace(problem)
    assert [len(ws.slab_bounds[blk]) for blk in ws.psd] == [2, 2]
    G = [rng.normal(size=(side, side)) for _ in ws.blocks]
    _, views = _row_buffer(ws)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _scale_rows(ws, G, views)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 8 * m * side * side


def test_solve_loop_holds_three_schur_sized_matrices():
    """With m well above the block sides the m x m matrices dominate a
    solve: the constraint-Gram factor, the Schur complement and its factor.
    The previous Schur complement and factor are released before the next
    is formed, so the peak stays below the row buffer, the workspace and
    3.5 m^2 doubles (four m^2 were live while the next was formed)."""
    rng = np.random.default_rng(5)
    layout = [(15, PSD)] * 5
    problem = random_problem(rng, layout, 500, 0.025, presence=0.4)
    # X = I is feasible and (y, S) = (0, I) strictly dual feasible, so the
    # run iterates to an optimum.
    problem.constraints = [
        (entries, sum(v for items in entries.values() for i, j, v in items if i == j))
        for entries, _rhs in problem.constraints
    ]
    problem.set_objective(
        {blk: [(i, i, 1.0) for i in range(side)] for blk, (side, _) in enumerate(layout)}
    )
    m = problem.num_constraints
    tracemalloc.start()
    try:
        ws = _Workspace(problem)
        workspace = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sol = _solve_once(ws, SolverConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.status is SdpStatus.OPTIMAL and sol.iterations > 2
    row_buffer = 8 * m * sum(side * side for side, _ in layout)
    assert peak < workspace + row_buffer + 3.5 * 8 * m * m


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
    problem = ProjectionProblem(
        parse_polynomial(f, system.dimension), system, WeightSequence.l1(), d
    )
    sdp = _captured_sdp(monkeypatch, problem)

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


def old_workspace(problem):
    """Reference: the dense constraint tensors (m x side x side per PSD block)
    and their Ruiz equilibration, built as the workspace built them before
    it stored PSD blocks as their nonzeros."""
    m = problem.num_constraints
    A, C = [], []
    for blk, spec in enumerate(problem.blocks):
        if spec.kind is BlockKind.PSD:
            mats = np.zeros((m, spec.side, spec.side))
            for ci, (entries, _rhs) in enumerate(problem.constraints):
                for i, j, v in entries.get(blk, []):
                    mats[ci, i, j] = v
                    mats[ci, j, i] = v
        else:
            mats = np.zeros((m, spec.side))
            for ci, (entries, _rhs) in enumerate(problem.constraints):
                for i, _j, v in entries.get(blk, []):
                    mats[ci, i] = v
        A.append(mats)
        C.append(problem.dense_coefficient(problem.objective, blk))
    b = np.array([rhs for _e, rhs in problem.constraints])
    c_peak = max((float(np.max(np.abs(c))) for c in C if c.size), default=0.0)
    if c_peak > 0:
        for c in C:
            c /= c_peak
    b_peak = float(np.max(np.abs(b)))
    if b_peak > 0:
        b = b / b_peak
    t_scale = [np.ones(spec.side) for spec in problem.blocks]
    r_scale = np.ones(m)
    for _ in range(EQUILIBRATE_ROUNDS):
        moved = False
        for blk, spec in enumerate(problem.blocks):
            if spec.kind is BlockKind.PSD:
                peak = float(np.max(np.abs(A[blk])))
                if peak > 0:
                    factor = peak ** -0.25
                    moved = moved or factor != 1.0
                    t_scale[blk] *= factor
                    A[blk] *= factor * factor
                    C[blk] *= factor * factor
            else:
                peaks = np.max(np.abs(A[blk]), axis=0)
                factors = np.where(peaks > 0, peaks**-0.25, 1.0)
                moved = moved or bool(np.any(factors != 1.0))
                t_scale[blk] *= factors
                A[blk] *= (factors * factors)[None, :]
                C[blk] *= factors * factors
        row_peak = np.zeros(m)
        for a in A:
            row_peak = np.maximum(row_peak, np.abs(a.reshape(m, -1)).max(axis=1))
        factors = np.where(row_peak > 0, row_peak**-0.5, 1.0)
        moved = moved or bool(np.any(factors != 1.0))
        r_scale *= factors
        for a in A:
            a *= factors.reshape((m,) + (1,) * (a.ndim - 1))
        b *= factors
        if not moved:
            break
    return SimpleNamespace(A=A, C=C, b=b, t_scale=t_scale, r_scale=r_scale)


def old_scaled_rows(ref, blocks, G):
    """Reference: the rows G^T A_i G (diagonal blocks: w * a_i, with w in G's
    slot) of the dense tensors, scaled in the near-equal slabs of at least
    SLAB_MIN_FLOPS."""
    m = len(ref.b)
    parts = []
    for blk, spec in enumerate(blocks):
        a = ref.A[blk]
        if spec.kind is BlockKind.PSD:
            side = spec.side
            slabs = max(1, m // -(-SLAB_MIN_FLOPS // side**3))
            out = np.empty((m, side, side))
            scratch = np.empty((2, -(-m // slabs) * side * side))
            for k in range(slabs):
                lo, hi = m * k // slabs, m * (k + 1) // slabs
                sdp_module._scale_slab(a[lo:hi], G[blk], scratch, out[lo:hi])
            parts.append(out.reshape(m, -1))
        else:
            parts.append(a * G[blk][None, :])
    return np.hstack(parts)


def assert_workspace_matches_old(problem, seed):
    """Every stored value and operator of the workspace equals the dense
    reference's, bit for bit."""
    rng = np.random.default_rng(seed)
    ws = _Workspace(problem)
    ref = old_workspace(problem)
    for blk, spec in enumerate(problem.blocks):
        stored = dense_A(ws, blk) if spec.kind is BlockKind.PSD else ws.A[blk]
        assert np.array_equal(stored, ref.A[blk])
        assert np.array_equal(ws.C[blk], ref.C[blk])
        assert np.array_equal(ws.t_scale[blk], ref.t_scale[blk])
    assert np.array_equal(ws.r_scale, ref.r_scale)
    assert np.array_equal(ws.b, ref.b)

    X, G = [], []
    for spec in problem.blocks:
        if spec.kind is BlockKind.PSD:
            h = rng.normal(size=(spec.side, spec.side))
            X.append(h + h.T)
            G.append(rng.normal(size=(spec.side, spec.side)))
        else:
            X.append(rng.uniform(0.1, 1.0, size=spec.side))
            G.append(rng.uniform(0.5, 2.0, size=spec.side))
    y = rng.normal(size=ws.m)
    AX = np.zeros(ws.m)  # PSD blocks first, as the solver adds them
    for blk in ws.psd:
        AX += np.einsum("mij,ij->m", ref.A[blk], X[blk])
    for blk in ws.diag:
        AX += ref.A[blk] @ X[blk]
    assert np.array_equal(ws.apply_A(X), AX)
    for blk, (got, spec) in enumerate(zip(ws.apply_AT(y), problem.blocks)):
        if spec.kind is BlockKind.PSD:
            want = np.einsum("m,mij->ij", y, ref.A[blk])
        else:
            want = y @ ref.A[blk]
        assert got.dtype == want.dtype and np.array_equal(got, want)
    rows, views = _row_buffer(ws)
    _scale_rows(ws, G, views)
    assert np.array_equal(rows, old_scaled_rows(ref, problem.blocks, G))
    # A streamed block leaves the shared slab buffer cleared.
    assert not ws._buffer.any()
    return ws


def random_problem(rng, layout, m, density, presence=1.0):
    """m random constraints on blocks of the given (side, kind) layout: each
    constraint touches a block with probability presence and then each of
    its upper-triangle (diagonal) positions with probability density."""
    prob = SdpProblem()
    for side, kind in layout:
        prob.add_block(side, kind)

    def random_entries():
        entries = {}
        for blk, (side, kind) in enumerate(layout):
            if rng.random() >= presence:
                continue
            cells = [
                (i, j)
                for i in range(side)
                for j in range(i, side)
                if (i == j or kind is BlockKind.PSD) and rng.random() < density
            ]
            if cells:
                entries[blk] = [(i, j, rng.normal()) for i, j in cells]
        return entries or {0: [(0, 0, rng.normal())]}

    prob.set_objective(random_entries())
    for _ in range(m):
        prob.add_constraint(random_entries(), rng.normal())
    return prob


PSD, DIAG = BlockKind.PSD, BlockKind.NONNEG_DIAG


@pytest.mark.parametrize("seed", range(4))
def test_workspace_matches_dense_reference_on_mixed_problems(seed):
    rng = np.random.default_rng(seed)
    assert_workspace_matches_old(mixed_problem(rng), seed)
    # Side 40 at m = 200 is three slabs, streamed through the shared buffer.
    layout = [(40, PSD), (3, DIAG), (6, PSD)]
    ws = assert_workspace_matches_old(random_problem(rng, layout, 200, 0.02), seed)
    assert len(ws.slab_bounds[0]) == 4 and 0 not in ws._dense


def test_side_one_block_keeps_the_einsum_reduction():
    # From 16 constraints on, einsum sums a side-1 block with SIMD partial
    # sums, which a sequential sum over the nonzeros does not reproduce.
    rng = np.random.default_rng(2)
    problem = random_problem(rng, [(1, PSD), (3, PSD), (2, DIAG)], 64, 1.0)
    assert_workspace_matches_old(problem, 2)


@pytest.mark.parametrize(
    "system, weights",
    [
        (SemialgebraicSystem(2, (BALL,)), WeightSequence.lw()),
        (BOX, WeightSequence.l1()),
    ],
)
def test_workspace_matches_dense_reference_on_generator_blocks(
    monkeypatch, system, weights
):
    # Localizing blocks of the ball and box generators: several constraints
    # share each Gram position.
    problem = ProjectionProblem(
        parse_polynomial("x1^3*x2 - x1*x2 + 1/10 - x2^4", 2), system, weights, 2
    )
    for sdp in (
        build_lambda_form_sdp(problem).sdp,
        _captured_sdp(monkeypatch, problem),
    ):
        assert_workspace_matches_old(sdp, 0)


def test_workspace_matches_dense_reference_on_absent_blocks():
    # Each block is missing from about half the constraints, and the side-3
    # block from all of them.
    rng = np.random.default_rng(9)
    layout = [(4, PSD), (2, DIAG), (5, PSD), (3, PSD)]
    problem = random_problem(rng, layout[:3], 30, 0.4, presence=0.5)
    problem.add_psd_block(3)
    ws = assert_workspace_matches_old(problem, 9)
    assert ws.A[3].val.size == 0


def test_sextic_workspace_peak_memory():
    """The workspace of the ladder's largest solve, sextic l1 d=6 (m = 455,
    PSD side 84), and one row scaling stay far below the 25.7 MB of its
    dense constraint tensor (51.5 MB peak when the workspace held it)."""
    problem = ProjectionProblem(
        parse_polynomial("x1^2*x2^2*(x1^2+x2^2-3*x3^2)+x3^6", 3),
        SemialgebraicSystem(3, ()),
        WeightSequence.l1(),
        6,
    )
    sdp = build_lambda_form_sdp(problem).sdp
    assert sdp.num_constraints == 455 and max(b.side for b in sdp.blocks) == 84
    rng = np.random.default_rng(13)
    G = []
    for spec in sdp.blocks:
        if spec.kind is PSD:
            G.append(rng.normal(size=(spec.side, spec.side)))
        else:
            G.append(rng.uniform(0.5, 2.0, size=spec.side))
    tracemalloc.start()
    try:
        ws = _Workspace(sdp)
        build_peak = tracemalloc.get_traced_memory()[1]
        _, views = _row_buffer(ws)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        _scale_rows(ws, G, views)
        scale_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert build_peak < 5e6
    assert scale_peak < 5e6
