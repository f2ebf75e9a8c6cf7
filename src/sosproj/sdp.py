"""Block-diagonal SDP data model and a dense primal-dual interior-point solver.

Standard form:  minimize <C, X>  subject to  <A_i, X> = b_i,  X in the cone
of block-diagonal matrices with PSD blocks and nonnegative diagonal blocks.
The solver is an infeasible-start path-following method with Nesterov-Todd
scaling and a Mehrotra predictor-corrector step, using dense Cholesky per
block.  Free variables are not supported; formulate with slacks.

Primal infeasibility is reported with a dual improving ray (y, S): S PSD,
A^T y + S = 0 and b^T y = 1, which certifies that no feasible X exists.
Every iteration checks whether its dual iterate y is such a Farkas
certificate (b.y > 0 and -A^T y positive definite where a constraint
touches it), with or without an objective.  Every SDP sosproj builds
either minimizes an objective that is bounded below or has no objective
at all (C = 0, a feasibility problem), so there is no maximization sense
and no unboundedness exit: a problem that is unbounded below ends without
convergence.  A feasibility problem stops at its first primal
certificate: an iterate whose projection onto A x = b is positive
definite, which is the point returned.  A feasible problem with no
interior has no such point; it stops at its first iterate within both
tolerances.  Both certificates and the Nesterov-Todd scaling decide
"interior" by one test, _interior_factor.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum

import numpy as np

Entry = tuple[int, int, float]
BlockEntries = dict[int, list[Entry]]

# Fraction of the distance to the cone boundary that each step covers.
STEP_FRACTION = 0.98
# Lower clamp on the Mehrotra centering parameter sigma.
SIGMA_MIN = 1e-8
# Upper clamp on sigma, and its value when the complementarity mu is zero.
SIGMA_MAX = 0.99999
# Schur-diagonal regularization, relative to the largest diagonal entry.
REG_INIT = 1e-12
# A symmetric matrix is accepted as PSD iff lmin >= -PSD_TOL * max(1, |lmax|).
PSD_TOL = 1e-8
# Iterations without a 10% merit improvement before a run counts as stalled.
STALL_PATIENCE = 25
# Iteration cap of one interior-point run.
MAX_ITER = 200
# A failed run whose best iterate meets gap_tol with residuals within this
# multiple of feas_tol is returned as INACCURATE.
INACCURATE_FACTOR = 10.0
# The message of a feasibility solve that ends at a primal certificate.
PRIMAL_CERTIFICATE = "primal certificate (projected iterate is positive definite)"
# Cap on Ruiz equilibration rounds; a round of unit factors ends it sooner.
EQUILIBRATE_ROUNDS = 8
# Least multiply-add count (constraints * side**3) of one constraint slab in
# _scale_rows.  OpenBLAS runs smaller gemms through a small-matrix kernel
# that rounds differently, so a smaller slab would change the iterates.
SLAB_MIN_FLOPS = 1 << 22

# The LAPACK routines behind scipy.linalg's cho_factor, cho_solve and
# solve_triangular, called with the arguments those wrappers pass: on the
# small systems solved here the wrappers' validation costs more than the
# routine.  They come from scipy's Fortran extension, found through scipy's
# package directories and loaded on its own: neither the scipy package
# (scipy._lib and its test and version helpers) nor scipy.linalg (numpy.f2py,
# numpy.testing, numpy.random and numpy.ma through its array-API layer) is
# imported, and together they are most of a fresh interpreter's start-up.
# They must be the objects get_lapack_funcs returns for float64 arrays, so
# that every call is the one the wrappers make.
def _lapack_routines():
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        scipy_spec = importlib.util.find_spec("scipy")
        dirs = scipy_spec.submodule_search_locations if scipy_spec else []
        spec = importlib.machinery.PathFinder.find_spec(
            name, [os.path.join(path, "linalg") for path in dirs]
        )
        if spec is None:
            from importlib.metadata import version

            raise ImportError(f"scipy {version('scipy')} has no extension {name}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module.dpotrf, module.dpotrs, module.dtrtrs


_POTRF, _POTRS, _TRTRS = _lapack_routines()


class BlockKind(Enum):
    PSD = "psd"
    NONNEG_DIAG = "diag"


@dataclass(frozen=True)
class BlockSpec:
    side: int
    kind: BlockKind


class SdpModelError(ValueError):
    pass


def dense_symmetric(side: int, entries) -> np.ndarray:
    """The side x side symmetric matrix of upper-triangle (i, j, value) entries."""
    mat = np.zeros((side, side))
    for i, j, v in entries:
        mat[i, j] = v
        mat[j, i] = v
    return mat


class SdpProblem:
    """Equality-constrained block SDP: objective, constraints, block layout."""

    def __init__(self):
        self.blocks: list[BlockSpec] = []
        self.constraints: list[tuple[BlockEntries, float]] = []
        self.objective: BlockEntries = {}
        # The _Prepared this problem shares with the problems with_rhs made
        # from it or it from; None while it shares none.
        self._prepared: _Prepared | None = None

    def add_block(self, side: int, kind: BlockKind) -> int:
        if side < 1:
            raise SdpModelError(f"block side must be >= 1, got {side}")
        self.blocks.append(BlockSpec(side, kind))
        self._prepared = None
        return len(self.blocks) - 1

    def add_psd_block(self, side: int) -> int:
        return self.add_block(side, BlockKind.PSD)

    def add_diag_block(self, side: int) -> int:
        return self.add_block(side, BlockKind.NONNEG_DIAG)

    def _normalize(self, entries: BlockEntries) -> BlockEntries:
        clean: BlockEntries = {}
        for blk, items in entries.items():
            if not 0 <= blk < len(self.blocks):
                raise SdpModelError(f"block index {blk} out of range")
            spec = self.blocks[blk]
            # An entry that comes in its stored form, a tuple (i, j, v) with
            # i <= j and a float v, is kept as that object, so that problems
            # built from shared entries (a truncation's basis matrices) hold
            # no copies of them.
            merged: dict[tuple[int, int], Entry] = {}
            for entry in items:
                i, j, v = entry
                if i > j:
                    i, j = j, i
                if not 0 <= i <= j < spec.side:
                    raise SdpModelError(
                        f"entry ({i},{j}) outside block of side {spec.side}"
                    )
                if spec.kind is BlockKind.NONNEG_DIAG and i != j:
                    raise SdpModelError(
                        "nonnegative-diagonal blocks take diagonal entries only"
                    )
                v = float(v)
                if v == 0.0:
                    continue
                if (i, j) in merged:
                    entry = (i, j, merged[i, j][2] + v)
                elif entry[2] is not v or entry != (i, j, v):
                    entry = (i, j, v)
                merged[i, j] = entry
            if not all(math.isfinite(v) for _i, _j, v in merged.values()):
                raise SdpModelError(f"block {blk} has a coefficient that is not finite")
            items_out = [
                entry for _ij, entry in sorted(merged.items()) if entry[2] != 0.0
            ]
            if items_out:
                clean[blk] = items_out
        return clean

    def add_constraint(self, entries: BlockEntries, rhs: float) -> int:
        clean = self._normalize(entries)
        if not clean:
            raise SdpModelError("constraint has no nonzero coefficients")
        rhs = float(rhs)
        if not math.isfinite(rhs):
            raise SdpModelError(f"right-hand side {rhs} is not finite")
        self.constraints.append((clean, rhs))
        self._prepared = None
        return len(self.constraints) - 1

    def set_objective(self, entries: BlockEntries) -> None:
        self.objective = self._normalize(entries)
        self._prepared = None

    def with_rhs(self, rhs) -> SdpProblem:
        """This problem with the right-hand sides rhs, one per constraint.

        The two share what the solver prepares from the blocks, the
        constraint matrices and the objective (_Prepared): it is built here
        once for this problem and every problem made from it, and each
        solve supplies only its right-hand side.  Their solves are the
        ones of problems built afresh, to the bit.  A later add_block,
        add_constraint or set_objective on either problem ends its sharing.
        """
        rhs = [float(v) for v in rhs]
        if len(rhs) != self.num_constraints:
            raise SdpModelError(
                f"{len(rhs)} right-hand sides for {self.num_constraints} constraints"
            )
        if not all(map(math.isfinite, rhs)):
            raise SdpModelError("a right-hand side is not finite")
        if self._prepared is None:
            self._prepared = _Prepared(self)
        out = SdpProblem()
        out.blocks, out.objective = list(self.blocks), dict(self.objective)
        out.constraints = [
            (entries, v) for (entries, _rhs), v in zip(self.constraints, rhs)
        ]
        out._prepared = self._prepared
        return out

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def dense_coefficient(self, entries: BlockEntries, blk: int) -> np.ndarray:
        spec = self.blocks[blk]
        if spec.kind is BlockKind.PSD:
            return dense_symmetric(spec.side, entries.get(blk, []))
        vec = np.zeros(spec.side)
        for i, _j, v in entries.get(blk, []):
            vec[i] = v
        return vec


@dataclass
class SolverConfig:
    # The feasibility repair keeps the equality residual near roundoff.  With
    # an objective the gap polishes well past gap_tol whenever the instance
    # allows it; a problem with no objective stops at a positive definite
    # projection within feas_tol, or else once within both.  The ray check
    # takes neither: a ray holds by the interior test (_Exits._dual_ray).
    feas_tol: float = 1e-8
    gap_tol: float = 1e-6

    def __post_init__(self):
        if not (0 < self.feas_tol < math.inf and 0 < self.gap_tol < math.inf):
            raise SdpModelError("tolerances must be finite and positive")


class SdpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    MAX_ITER = "max_iter"
    NUMERICAL_FAILURE = "numerical_failure"
    # Stopped short of feas_tol, but near convergence (see INACCURATE_FACTOR).
    INACCURATE = "inaccurate"


@dataclass
class SdpSolution:
    status: SdpStatus
    x_blocks: list[np.ndarray]
    y: np.ndarray
    s_blocks: list[np.ndarray]
    primal_objective: float
    dual_objective: float
    gap: float                      # |pobj - dobj|
    relative_gap: float
    primal_residual: float          # relative equality violation
    dual_residual: float
    iterations: int
    ray: tuple[np.ndarray, list[np.ndarray]] | None = None
    message: str = ""

    def residuals_text(self) -> str:
        """How far the run got: its relative residuals and gap, for messages."""
        return (
            f"relp {self.primal_residual:.2e}, reld {self.dual_residual:.2e}, "
            f"relgap {self.relative_gap:.2e}"
        )


@dataclass(frozen=True)
class CertificateReport:
    """Independent recomputation of residuals from problem data alone."""

    constraint_residual: float          # max_i |<A_i, X> - b_i|
    primal_min_eigs: tuple[float, ...]  # per block
    dual_min_eigs: tuple[float, ...]    # of S = C - A^T y, per block
    primal_objective: float
    dual_objective: float
    duality_gap: float                  # pobj - dobj
    complementarity: float              # <X, S>


def _sym(a: np.ndarray) -> np.ndarray:
    """(a + a^T) / 2; a 1-D array comes back exactly."""
    return (a + a.T) / 2.0


def eig_range(mat: np.ndarray) -> tuple[float, float]:
    """(smallest, largest) eigenvalue of a symmetric matrix; for a diagonal
    block's vector, its smallest and largest entry."""
    if mat.ndim == 1:
        return (float(mat.min()), float(mat.max()))
    vals = np.linalg.eigvalsh(_sym(mat))
    return (float(vals[0]), float(vals[-1]))


def psd_accepted(lmin: float, lmax: float) -> bool:
    """The PSD acceptance rule, given a matrix's eig_range."""
    return lmin >= -PSD_TOL * max(1.0, abs(lmax))


def _inner(X: list[np.ndarray], S: list[np.ndarray]) -> float:
    return sum(float(np.vdot(x, s)) for x, s in zip(X, S))


class _PsdRows:
    """The constraint matrices of one PSD block, stored as their nonzeros in
    constraint order: constraint row[k] holds val[k] at flat position pos[k]
    (i * side + j, both triangles), and constraint i owns ptr[i]:ptr[i + 1].

    If no row of any constraint matrix holds two nonzeros, as in a Gram
    block (B_alpha[beta, gamma] = 1 iff beta + gamma = alpha) or a moment
    block tied to y by linkage rows, record_rows() also keeps each row as
    its one nonzero: row r of constraint k holds v[k * side + r] in column
    col[k * side + r] (value 0 and column 0 in an empty row).  Otherwise col
    and v are None.
    """

    def __init__(self, problem: SdpProblem, blk: int, side: int):
        row, pos, val = [], [], []
        for ci, (entries, _rhs) in enumerate(problem.constraints):
            for i, j, v in entries.get(blk, []):
                row.append(ci)
                pos.append(i * side + j)
                val.append(v)
                if i != j:
                    row.append(ci)
                    pos.append(j * side + i)
                    val.append(v)
        self.side = side
        self.row = np.array(row, dtype=np.intp)
        self.pos = np.array(pos, dtype=np.intp)
        self.val = np.array(val, dtype=float)
        self.ptr = np.searchsorted(self.row, np.arange(problem.num_constraints + 1))
        self.col = self.v = None

    def record_rows(self) -> None:
        """Set col and v from the current values, if no row has two nonzeros."""
        size = (len(self.ptr) - 1) * self.side
        r, c = np.divmod(self.pos, self.side)
        at = self.row * self.side + r
        # bincount, not np.unique, whose first call in a process costs about
        # 16 ms, more than a small solve.
        if np.bincount(at).max(initial=0) <= 1:
            self.col = np.zeros(size, dtype=np.intp)
            self.col[at] = c
            self.v = np.zeros(size)
            self.v[at] = self.val


class _Prepared:
    """The part of a solve that the constraint matrices A and the objective C
    fix, whatever the right-hand side b.

    A PSD block's constraints are kept as their nonzeros (_PsdRows), a
    diagonal block's as a dense (m, side) array.  A and C are stored
    equilibrated, beside the factors that did it: the column factors
    t_scale, the objective scale c_scale and the row factors of each Ruiz
    round, which each _Workspace applies to its b round by round.  The
    constraint-Gram factor is left to the first solve (_solve_once), which
    keeps it here.  Nothing here holds a dense copy of A: the dense copies,
    the row buffer and the scratch belong to each _Workspace.
    """

    def __init__(self, problem: SdpProblem):
        self.blocks = list(problem.blocks)
        self.m = problem.num_constraints
        self.psd: list[int] = []
        self.diag: list[int] = []
        self.A: list[_PsdRows | np.ndarray] = []
        self.C: list[np.ndarray] = []
        for blk, spec in enumerate(self.blocks):
            if spec.kind is BlockKind.PSD:
                self.psd.append(blk)
                self.A.append(_PsdRows(problem, blk, spec.side))
            else:
                self.diag.append(blk)
                self.A.append(np.array([
                    problem.dense_coefficient(entries, blk)
                    for entries, _rhs in problem.constraints
                ]))
            self.C.append(problem.dense_coefficient(problem.objective, blk))
        self.nu = sum(s.side for s in self.blocks)
        # Cone-preserving Ruiz equilibration: X' = T X T with diagonal T > 0
        # (a scalar per PSD block, entrywise on diagonal blocks) plus row
        # scalings.  The wildly mixed coefficient magnitudes of factorial
        # weights would otherwise wreck the Schur conditioning.
        self.norm_C_user = math.sqrt(sum(float(np.sum(c * c)) for c in self.C))
        self.t_scale: list[float | np.ndarray] = [
            1.0 if spec.kind is BlockKind.PSD else np.ones(spec.side)
            for spec in self.blocks
        ]
        self.r_scale = np.ones(self.m)
        self.row_factors: list[np.ndarray] = []
        self.c_scale = 1.0
        # Scalar cost normalization in user units first (b's is _Workspace's),
        # then Ruiz equilibration of the constraint data.  Convergence
        # metrics are always evaluated in the user's units, independent of
        # both.
        c_peak = max(
            (float(np.max(np.abs(c))) for c in self.C if c.size), default=0.0
        )
        if c_peak > 0:
            self.c_scale = c_peak
            for c in self.C:
                c /= c_peak
        self._equilibrate()
        for blk in self.psd:
            self.A[blk].record_rows()
        self.t2 = [t * t for t in self.t_scale]
        # Near-equal slabs of constraints, each of at least SLAB_MIN_FLOPS
        # in _scale_rows.
        self.slab_bounds: dict[int, list[int]] = {}
        for blk in self.psd:
            side = self.A[blk].side
            parts = max(1, self.m // -(-SLAB_MIN_FLOPS // (side * side * side)))
            self.slab_bounds[blk] = [self.m * k // parts for k in range(parts + 1)]
        self.repair_chol: np.ndarray | None = None

    def _equilibrate(self) -> None:
        # Each factor multiplies each stored value once and leaves zeros
        # zero, so a PSD block's nonzeros take the values its dense tensor
        # would.
        for _ in range(EQUILIBRATE_ROUNDS):
            moved = False
            # Column pass: X -> T X T keeps PSD blocks PSD for diagonal T;
            # a uniform scalar is used per PSD block, entrywise on diag ones.
            for blk, spec in enumerate(self.blocks):
                if spec.kind is BlockKind.PSD:
                    val = self.A[blk].val
                    peak = float(np.max(np.abs(val))) if val.size else 0.0
                    if peak > 0:
                        factor = peak ** -0.25
                        moved = moved or factor != 1.0
                        self.t_scale[blk] *= factor
                        val *= factor * factor
                        self.C[blk] *= factor * factor
                else:
                    peaks = np.max(np.abs(self.A[blk]), axis=0)
                    # An entry no constraint touches keeps factor 1; the
                    # power is taken only where it is finite.
                    factors = np.power(
                        peaks, -0.25, out=np.ones_like(peaks), where=peaks > 0
                    )
                    moved = moved or bool(np.any(factors != 1.0))
                    self.t_scale[blk] *= factors
                    self.A[blk] *= (factors * factors)[None, :]
                    self.C[blk] *= factors * factors
            # Row pass.
            row_peak = np.zeros(self.m)
            for blk in self.psd:
                rows = self.A[blk]
                np.maximum.at(row_peak, rows.row, np.abs(rows.val))
            for blk in self.diag:
                row_peak = np.maximum(row_peak, np.abs(self.A[blk]).max(axis=1))
            factors = np.where(row_peak > 0, row_peak**-0.5, 1.0)
            moved = moved or bool(np.any(factors != 1.0))
            self.r_scale *= factors
            for blk in self.psd:
                rows = self.A[blk]
                rows.val *= factors[rows.row]
            for blk in self.diag:
                self.A[blk] *= factors[:, None]
            self.row_factors.append(factors)
            if not moved:
                # A round of unit factors leaves the data as it was, so every
                # later round would repeat it.
                break


class _Workspace:
    """Per-call data for one solve: the problem's right-hand side b over its
    _Prepared, which is the problem's shared one (SdpProblem.with_rhs) or
    one built for this call.

    A PSD block's constraints are handed out as dense slabs of constraints
    by slabs(); a diagonal block's are multiplied by BLAS gemv.
    """

    def __init__(self, problem: SdpProblem):
        self.prepared = prepared = problem._prepared or _Prepared(problem)
        # The prepared fields that a solve reads; it writes none of them.
        self.blocks, self.m, self.nu = prepared.blocks, prepared.m, prepared.nu
        self.psd, self.diag, self.A, self.C = (
            prepared.psd, prepared.diag, prepared.A, prepared.C
        )
        self.t_scale, self.t2, self.r_scale = (
            prepared.t_scale, prepared.t2, prepared.r_scale
        )
        self.c_scale, self.norm_C_user = prepared.c_scale, prepared.norm_C_user
        self.slab_bounds = prepared.slab_bounds
        b = np.array([rhs for _e, rhs in problem.constraints])
        self.norm_b_user = float(np.linalg.norm(b))
        # b in user units is normalized by its peak, then takes the row
        # factors of every equilibration round in turn, as A's rows did.
        self.b_scale = 1.0
        b_peak = float(np.max(np.abs(b)))
        if b_peak > 0:
            self.b_scale = b_peak
            b = b / b_peak
        for factors in prepared.row_factors:
            b *= factors
        self.b = b
        # A block of one slab is densified once and kept; the others stream
        # through one buffer of the largest slab.  Every slab is scaled in
        # the two rows of one scratch of the largest slab.
        self._dense: dict[int, np.ndarray] = {}
        buffer_size = scratch_size = 0
        for blk in self.psd:
            rows, bounds = self.A[blk], self.slab_bounds[blk]
            size = rows.side * rows.side
            slab_size = -(-self.m // (len(bounds) - 1)) * size
            scratch_size = max(scratch_size, slab_size)
            if len(bounds) == 2:
                dense = np.zeros((self.m, size))
                dense[rows.row, rows.pos] = rows.val
                self._dense[blk] = dense.reshape(self.m, rows.side, rows.side)
            else:
                buffer_size = max(buffer_size, slab_size)
        self._buffer = np.zeros(buffer_size)
        self.scale_scratch = np.empty((2, scratch_size))
        self.obj_scale = self.c_scale * self.b_scale
        self.row_unscale = self.b_scale / self.r_scale

    def slabs(self, blk: int):
        """Yield (lo, hi, A[lo:hi]) for PSD block blk, slab by slab, each
        A[lo:hi] a C-contiguous (hi - lo, side, side) array.

        A block of one slab yields its kept dense copy.  Otherwise each slab
        is scattered into the shared buffer and cleared again once the next
        is drawn, so only one slab iteration may run at a time.
        """
        dense = self._dense.get(blk)
        if dense is not None:
            yield 0, self.m, dense
            return
        rows = self.A[blk]
        size = rows.side * rows.side
        bounds = self.slab_bounds[blk]
        for lo, hi in zip(bounds, bounds[1:]):
            nz = slice(rows.ptr[lo], rows.ptr[hi])
            at = (rows.row[nz] - lo) * size + rows.pos[nz]
            flat = self._buffer[: (hi - lo) * size]
            flat[at] = rows.val[nz]
            try:
                yield lo, hi, flat.reshape(hi - lo, rows.side, rows.side)
            finally:
                flat[at] = 0.0

    def unscale_primal(self, X: list[np.ndarray]) -> list[np.ndarray]:
        """Map a solver-space primal point back to the user's variables."""
        # b X t t, not b X t2, on a diagonal block: the two round differently.
        out = []
        for blk, spec in enumerate(self.blocks):
            if spec.kind is BlockKind.PSD:
                out.append(self.b_scale * X[blk] * self.t2[blk])
            else:
                t = self.t_scale[blk]
                out.append(self.b_scale * X[blk] * t * t)
        return out

    def unscale_dual(
        self, y: np.ndarray, S: list[np.ndarray]
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        out = [self.c_scale * sb / t2 for sb, t2 in zip(S, self.t2)]
        return self.c_scale * self.r_scale * y, out

    def apply_A(self, X: list[np.ndarray]) -> np.ndarray:
        # einsum sums each constraint over its SIMD lanes, an order no sparse
        # sum reproduces, so it runs per dense slab; a slab's rows equal the
        # whole block's.
        out = np.zeros(self.m)
        for blk in self.psd:
            for lo, hi, a in self.slabs(blk):
                out[lo:hi] += np.einsum("mij,ij->m", a, X[blk])
        for blk in self.diag:
            out += self.A[blk] @ X[blk]
        return out

    def apply_AT(self, y: np.ndarray) -> list[np.ndarray]:
        out = []
        for blk, spec in enumerate(self.blocks):
            if spec.kind is BlockKind.NONNEG_DIAG:
                out.append(y @ self.A[blk])
            elif spec.side == 1:
                # einsum reduces a lone constraint axis with SIMD partial
                # sums; a side-1 block is always one slab, so it is kept.
                out.append(np.einsum("m,mij->ij", y, self._dense[blk]))
            else:
                # einsum adds y_i A_i in constraint order, as bincount adds
                # the nonzeros; a block with no nonzeros counts as integers.
                rows, side = self.A[blk], spec.side
                total = np.bincount(rows.pos, y[rows.row] * rows.val, side * side)
                out.append(total.astype(float, copy=False).reshape(side, side))
        return out

    def inner(self, X: list[np.ndarray], S: list[np.ndarray]) -> float:
        return sum(float(np.vdot(X[blk], S[blk])) for blk in self.psd + self.diag)


def _row_buffer(ws: _Workspace) -> tuple[np.ndarray, list[np.ndarray]]:
    """One (m, sum of block widths) array and its per-block views.

    Each block owns as many columns as its objective block has entries, and
    its view has the objective block's shape after the constraint axis: a
    PSD block of side s owns s*s columns, viewed as (m, s, s); a diagonal
    block owns s columns.  The buffer's layout is that of
    np.hstack([rows_blk.reshape(m, -1) for each block]).
    """
    rows = np.empty((ws.m, sum(c.size for c in ws.C)))
    views = []
    start = 0
    for c in ws.C:
        views.append(rows[:, start:start + c.size].reshape(ws.m, *c.shape))
        start += c.size
    return rows, views


def _cho_factor(a: np.ndarray, shift: float) -> np.ndarray:
    """Lower Cholesky factor of a + shift * I, as
    scipy.linalg.cho_factor(a + shift * np.eye(len(a)), lower=True)[0] for
    an exactly symmetric C-contiguous a, which is left unchanged.

    The shifted copy is the only one made: its transpose is the Fortran-
    ordered array that potrf would otherwise copy a into, and potrf factors
    it in place.
    """
    shifted = a.copy()
    shifted.reshape(-1)[:: len(a) + 1] += shift
    c, info = _POTRF(shifted.T, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"potrf failed with info {info}")
    return c


def _cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """As scipy.linalg.cho_solve((c, True), b) for a factor c from _cho_factor."""
    x, info = _POTRS(c, b, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"potrs failed with info {info}")
    return x


def _solve_lower(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """As scipy.linalg.solve_triangular(L, b, lower=True) for a C-contiguous L,
    which that wrapper solves as the transposed upper-triangular system."""
    x, info = _TRTRS(L.T, b, lower=0, trans=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"trtrs failed with info {info}")
    return x


def _scale_slab(a: np.ndarray, g: np.ndarray, scratch: np.ndarray, out: np.ndarray) -> None:
    """out[i] = g^T a[i] g for a slab of exactly symmetric a[i].

    These are the two gemms, with their operands and memory layouts, of
    np.einsum("ki,mij,jl->mkl", g.T, a, g, optimize=True) on numpy 2.4:
    a @ g (einsum multiplies a transposed copy of a, equal to a by symmetry),
    then that product reordered to (column, constraint, row) @ g, which is
    reordered back into out.  A block with at most one nonzero in each row
    of each A_i skips the first gemm and its reordering (_gather_slab).
    """
    n, s = a.shape[0], a.shape[1]
    size = n * s * s
    prod = scratch[0, :size].reshape(n * s, s)
    np.matmul(a.reshape(n * s, s), g, out=prod)
    turned = scratch[1, :size].reshape(s, n, s)
    turned[...] = prod.reshape(n, s, s).transpose(2, 0, 1)
    _scale_turned(turned, g, scratch, out)


def _gather_slab(
    rows: _PsdRows, lo: int, hi: int, g: np.ndarray, scratch: np.ndarray, out: np.ndarray
) -> None:
    """out[i] = g^T A_i g for constraints lo:hi of a block with at most one
    nonzero in each row (_PsdRows.record_rows), equal to _scale_slab's to the
    bit.

    The first gemm of _scale_slab sums, for row r of A_i, one nonzero term
    v * g[col] from +0, so it rounds that product once, as a multiply does.
    Here the rows of g are gathered by col straight into the reordered
    (column, constraint, row) layout and multiplied by v, so that gemm and
    the reordering copy are skipped; the second gemm is the same.
    """
    s = rows.side
    size = (hi - lo) * s * s
    turned = scratch[1, :size].reshape(s, size // s)
    # Any mode but "raise" writes straight into turned, with no buffered copy.
    np.take(g.T, rows.col[lo * s:hi * s], axis=1, out=turned, mode="clip")
    turned *= rows.v[lo * s:hi * s]
    _scale_turned(turned, g, scratch, out)


def _scale_turned(
    turned: np.ndarray, g: np.ndarray, scratch: np.ndarray, out: np.ndarray
) -> None:
    """The second gemm of _scale_slab: out[i] = (turned @ g) reordered, for
    turned in the (column, constraint, row) layout, through scratch[0]."""
    n, s = out.shape[0], out.shape[1]
    prod = scratch[0, :n * s * s].reshape(s * n, s)
    np.matmul(turned.reshape(s * n, s), g, out=prod)
    out[...] = prod.reshape(s, n, s).transpose(1, 0, 2)


def _scale_rows(ws: _Workspace, G: list[np.ndarray], views: list[np.ndarray]) -> None:
    """Write the scaled rows G^T A_i G (diagonal blocks: w * a_i, with the
    vector w in G's slot) into views.

    PSD blocks are scaled in the workspace's slabs of constraints, each of
    at least SLAB_MIN_FLOPS, through the workspace's scratch, so nothing is
    allocated per call; a block below SLAB_MIN_FLOPS is one slab.  A block
    with at most one nonzero in each row gathers its first product; any
    other block runs both gemms on its dense slabs.
    """
    for blk in ws.psd:
        rows, g = ws.A[blk], G[blk]
        if rows.col is None:
            for lo, hi, a in ws.slabs(blk):
                _scale_slab(a, g, ws.scale_scratch, views[blk][lo:hi])
        else:
            bounds = ws.slab_bounds[blk]
            for lo, hi in zip(bounds, bounds[1:]):
                _gather_slab(rows, lo, hi, g, ws.scale_scratch, views[blk][lo:hi])
    for blk in ws.diag:
        np.multiply(ws.A[blk], G[blk][None, :], out=views[blk])


def _interior_factor(blk: np.ndarray) -> np.ndarray | None:
    """The solver's one interior test: blk's lower Cholesky factor if every
    pivot is positive, a diagonal block itself if every entry is, else
    None.  A NaN fails (numpy's Cholesky passes it through)."""
    try:
        fac = blk if blk.ndim == 1 else np.linalg.cholesky(blk)
    except np.linalg.LinAlgError:
        return None
    pivots = fac if fac.ndim == 1 else np.diag(fac)
    return fac if np.all(pivots > 0) else None


def _nt_scaling(x_blk: np.ndarray, s_blk: np.ndarray):
    """Nesterov-Todd scaling of one block, or None if it is not interior:
    (G, sigma, x factor, s factor) with G^T S G = G^-1 X G^-T = diag(sigma)
    and the Cholesky factors of X and S; on a diagonal block, the vector
    w = sqrt(x / s), sigma = sqrt(x * s), and x and s themselves."""
    lx = _interior_factor(x_blk)
    ls = None if lx is None else _interior_factor(s_blk)
    if ls is None:
        return None
    if x_blk.ndim == 1:
        return np.sqrt(x_blk / s_blk), np.sqrt(x_blk * s_blk), x_blk, s_blk
    _u, sig, vt = np.linalg.svd(ls.T @ lx)
    if sig[-1] <= 0:
        return None
    return (lx @ vt.T) / np.sqrt(sig), sig, lx, ls


def _congruence(g: np.ndarray, n: np.ndarray) -> np.ndarray:
    """G^T N G for a scaling matrix G; w * n for a diagonal block's w."""
    if g.ndim == 1:
        return g * n
    return g.T @ n @ g


def _max_step_psd(chol_lower: np.ndarray, delta: np.ndarray) -> float:
    """Largest t with X + t*delta PSD, given X = L L^T; NaN if delta is not
    finite."""
    tmp = _solve_lower(chol_lower, delta)
    scaled = _solve_lower(chol_lower, tmp.T)
    if not np.isfinite(scaled).all():
        return math.nan
    lmin = eig_range(scaled)[0]
    if lmin >= -1e-14:
        return np.inf
    return -1.0 / lmin


def _max_step_diag(x: np.ndarray, dx: np.ndarray) -> float:
    if not np.isfinite(dx).all():
        return math.nan
    neg = dx < 0
    if not np.any(neg):
        return np.inf
    return float(np.min(-x[neg] / dx[neg]))


def _step_length(step: float, fraction: float = 1.0) -> float:
    """min(1, fraction * step), NaN for a NaN step (min(1.0, nan) is 1.0)."""
    return min(1.0, fraction * step) if step == step else math.nan


def solve(problem: SdpProblem, config: SolverConfig | None = None) -> SdpSolution:
    """Solve the block SDP with one interior-point run.

    Deterministic for fixed input and config.
    """
    if problem.num_constraints == 0:
        raise SdpModelError("problem needs at least one constraint")
    return _solve_once(_Workspace(problem), config or SolverConfig())


def _flat(blocks) -> np.ndarray:
    return np.concatenate([np.asarray(b).reshape(-1) for b in blocks])


def _shift_to_cone(blocks: list[np.ndarray]) -> list[np.ndarray]:
    """v + (1 + max(0, -lambda_min(v))) e per block, e the unit of its cone
    (the identity, or all ones), guaranteeing PD."""
    return [
        v + (1.0 + max(0.0, -eig_range(v)[0]))
        * (np.eye(len(v)) if v.ndim == 2 else np.ones(len(v)))
        for v in blocks
    ]


# A point of the homogeneous self-dual embedding, or a direction in its space.
_Iterate = namedtuple("_Iterate", "x y s tau kappa")
# An iterate with A^T y, its residuals rx, ry and rt, its b.y and
# complementarity mu, and its convergence measures in the user's units.
_Residuals = namedtuple(
    "_Residuals", "it ATy rx ry rt by mu pobj dobj relp reld relgap relmu"
)


def _residuals(ws: _Workspace, it: _Iterate) -> _Residuals:
    x, y, s, tau, kappa = it
    ATy = ws.apply_AT(y)
    rx = [a + sb - c * tau for a, sb, c in zip(ATy, s, ws.C)]
    ry = ws.b * tau - ws.apply_A(x)
    cx = ws.inner(ws.C, x)
    by = float(ws.b @ y)
    xs = ws.inner(x, s)
    rt = kappa + cx - by
    mu = (xs + tau * kappa) / (ws.nu + 1.0)

    # All convergence metrics live in the user's units.
    pobj = cx / tau * ws.obj_scale
    dobj = by / tau * ws.obj_scale
    relp = float(np.linalg.norm(ws.row_unscale * ry)) / (tau * (1.0 + ws.norm_b_user))
    total = sum(float(np.sum((r / t2) ** 2)) for r, t2 in zip(rx, ws.t2))
    reld = ws.c_scale * math.sqrt(total) / (tau * (1.0 + ws.norm_C_user))
    relgap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    relmu = xs * ws.obj_scale / (tau * tau * (1.0 + abs(pobj)))
    return _Residuals(
        it, ATy, rx, ry, rt, by, mu, pobj, dobj, relp, reld, relgap, relmu
    )


class _Failure(Exception):
    """A Newton system that cannot be formed; the message says why."""


class _Newton:
    """One iteration's Newton system: NT scalings, the Schur complement M and
    its factor, and the reduced system in dtau.  Raises _Failure if a block
    or M cannot be factored."""

    def __init__(self, ws: _Workspace, res: _Residuals, rows: np.ndarray,
                 row_views: list[np.ndarray], repair_chol: np.ndarray):
        self.ws, self.res, self.rows, self.repair_chol = ws, res, rows, repair_chol
        # Nesterov-Todd scaling per block, plus the scalar pair (tau, kappa).
        scalings = []
        for xb, sb in zip(res.it.x, res.it.s):
            nt = _nt_scaling(xb, sb)
            if nt is None:
                raise _Failure("block factorization failed")
            scalings.append(nt)
        self.G, self.sigv, self.Fx, self.Fs = zip(*scalings)
        # Scaled constraints; Schur complement M = rows rows^T (+ reg).
        _scale_rows(ws, self.G, row_views)
        self.schur = rows @ rows.T  # exactly symmetric: numpy computes it by syrk
        if not np.isfinite(self.schur).all():
            raise _Failure("nonfinite Schur complement")
        diag_scale = max(1.0, float(np.max(np.diag(self.schur))))
        try:
            self.chol = _cho_factor(self.schur, REG_INIT * diag_scale)
        except np.linalg.LinAlgError:
            raise _Failure("Schur complement factorization failed") from None

        self.chat_flat = _flat(self._scale_down(ws.C))
        rxhat_flat = _flat(self._scale_down(res.rx))
        self.rows_rxhat = rows @ rxhat_flat
        self.chat_rxhat = float(self.chat_flat @ rxhat_flat)
        self.q = rows @ self.chat_flat                     # A(W c W)
        h = float(self.chat_flat @ self.chat_flat)         # c' W c W
        self.u1 = self._schur_solve(ws.b + self.q)
        self.denom = float((self.q - ws.b) @ self.u1) - h - res.it.kappa / res.it.tau

    def _scale_down(self, blocks):
        """Block map N -> G^T N G (diag: w * n)."""
        return [_congruence(g, n) for g, n in zip(self.G, blocks)]

    def _schur_solve(self, rhs: np.ndarray) -> np.ndarray:
        sol0 = _cho_solve(self.chol, rhs)
        # One refinement pass against the unregularized matrix.
        return sol0 + _cho_solve(self.chol, rhs - self.schur @ sol0)

    def direction(self, eta: float, Rc_hat, rc_tk: float, repair: bool = True):
        """The direction d (an _Iterate) for residual weight eta and scaled
        complementarity right-hand side (Rc_hat, rc_tk), as (d, dxhat, dshat)."""
        ws, res, it = self.ws, self.res, self.res.it
        rc_flat = _flat(Rc_hat)
        g2 = eta * res.ry - self.rows @ rc_flat - eta * self.rows_rxhat
        u2 = self._schur_solve(g2)
        num = (
            -eta * res.rt
            - rc_tk / it.tau
            - float(self.chat_flat @ rc_flat)
            - eta * self.chat_rxhat
            - float((self.q - ws.b) @ u2)
        )
        dtau = num / self.denom
        dy = u2 + dtau * self.u1
        ATdy = ws.apply_AT(dy)
        ds = [-eta * r - a + c * dtau for r, a, c in zip(res.rx, ATdy, ws.C)]
        dshat = self._scale_down(ds)
        dxhat = [rc - dsh for rc, dsh in zip(Rc_hat, dshat)]
        # G dxhat G^T (diag: w * dxhat), symmetrized.
        dx = [_sym(_congruence(g.T, n)) for g, n in zip(self.G, dxhat)]
        if repair:
            # Correct dx so that A dx = eta ry + b dtau holds to roundoff.
            defect = eta * res.ry + ws.b * dtau - ws.apply_A(dx)
            corr = ws.apply_AT(_cho_solve(self.repair_chol, defect))
            dx = [_sym(d + c) for d, c in zip(dx, corr)]
        dkappa = (rc_tk - it.kappa * dtau) / it.tau
        return _Iterate(dx, dy, ds, dtau, dkappa), dxhat, dshat

    def max_step(self, d: _Iterate) -> float:
        """Largest step along d that stays in the cone; NaN if d is not
        finite (min() would drop a NaN bound that is not first)."""
        it = self.res.it
        bounds = [np.inf]
        for fx, fs, dxb, dsb in zip(self.Fx, self.Fs, d.x, d.s):
            block_step = _max_step_diag if fx.ndim == 1 else _max_step_psd
            bounds += [block_step(fx, dxb), block_step(fs, dsb)]
        pairs = ((it.tau, d.tau), (it.kappa, d.kappa))
        bounds += [-v / dv for v, dv in pairs if dv < 0]
        if any(b != b for b in (*bounds, d.tau, d.kappa)):
            return math.nan
        return min(bounds)

    def rc(self, target_mu: float, predictor, second_order: bool):
        """Scaled complementarity right-hand side toward target_mu; with
        second_order, less the predictor's second-order term (Mehrotra)."""
        d_a, dxhat_a, dshat_a = predictor
        out = []
        for g, sig, dxh, dsh in zip(self.G, self.sigv, dxhat_a, dshat_a):
            if g.ndim == 2:
                target = target_mu * np.eye(len(sig)) - np.diag(sig**2)
                if second_order:
                    target = target - (dxh @ dsh + dsh @ dxh) / 2.0
                out.append(target / ((sig[:, None] + sig[None, :]) / 2.0))
            else:
                target = target_mu - sig**2
                if second_order:
                    target = target - dxh * dsh
                out.append(target / sig)
        rc_tk = target_mu - self.res.it.tau * self.res.it.kappa
        if second_order:
            rc_tk = rc_tk - d_a.tau * d_a.kappa
        return out, rc_tk


class _Exits:
    """The snapshot, stall and exit rules of one run.  Every exit packs a
    stored point: the best iterate, or at the ray exit the current one."""

    def __init__(self, ws: _Workspace, cfg: SolverConfig):
        self.ws, self.cfg = ws, cfg
        # A problem with no objective (every block of C zero) asks only
        # whether a feasible X exists, so check does not polish its gap.
        self.feasibility = ws.norm_C_user == 0.0
        self.iterations = 0
        self.stagnant = 0
        self.best_merit = np.inf
        self.best_gap_feasible = np.inf
        self.snapshot = None
        self.snapshot_merit = np.inf

    def check(self, k: int, res: _Residuals) -> SdpSolution | None:
        """The converged, ray or stall exit that iteration k calls for, if any."""
        cfg = self.cfg
        self.iterations = k + 1
        feasible_now = res.relp <= cfg.feas_tol and res.reld <= cfg.feas_tol
        gap_now = min(res.relgap, res.relmu)
        merit = max(
            res.relp / cfg.feas_tol, res.reld / cfg.feas_tol, gap_now / cfg.gap_tol
        )
        # Best iterate so far, by what still blocks termination; failure
        # exits hand this point back rather than a later, worse one.
        if (feasible_now and gap_now < self.best_gap_feasible) or (
            self.snapshot is None or merit < 0.5 * self.snapshot_merit
        ):
            if feasible_now:
                self.best_gap_feasible = min(self.best_gap_feasible, gap_now)
            self.snapshot_merit = merit
            self.snapshot = res

        if merit < 0.9 * self.best_merit:
            self.best_merit = merit
            self.stagnant = 0
        else:
            self.stagnant += 1

        if self.feasibility:
            sol = self._primal_certificate(res)
            if sol is not None:
                return sol

        if feasible_now and gap_now <= cfg.gap_tol:
            # Inside tolerance; with an objective, keep polishing while the
            # gap still drops.
            if self.feasibility or self.stagnant >= 1 or gap_now <= 1e-10:
                return self._pack(self.snapshot, SdpStatus.OPTIMAL, "converged")

        ray = self._dual_ray(res)
        if ray is not None:
            message = "improving ray certifies primal infeasibility"
            return self._pack(res, SdpStatus.INFEASIBLE, message, ray)

        # Long non-improving phases do occur on curved central paths; only
        # give up after substantial patience.
        if self.stagnant >= STALL_PATIENCE:
            stalled = "progress stalled before reaching the requested tolerance"
            return self.finish(stalled, SdpStatus.MAX_ITER)
        return None

    def finish(self, message: str, status=SdpStatus.NUMERICAL_FAILURE) -> SdpSolution:
        """Exit without full convergence through the best iterate."""
        cfg = self.cfg
        if self.best_gap_feasible <= cfg.gap_tol:
            return self._pack(
                self.snapshot, SdpStatus.OPTIMAL, f"converged (best iterate; {message})"
            )
        sol = self._pack(self.snapshot, status, message)
        if sol.relative_gap <= cfg.gap_tol and max(
            sol.primal_residual, sol.dual_residual
        ) <= INACCURATE_FACTOR * cfg.feas_tol:
            sol.status = SdpStatus.INACCURATE
            sol.message = (
                f"{message}; best iterate within {INACCURATE_FACTOR:g}x feas_tol "
                f"({sol.residuals_text()})"
            )
        return sol

    def _pack(self, res: _Residuals, status: SdpStatus, message: str, ray=None,
              x=None):
        """The solution at (X, y, S) / tau of res's iterate, or at the
        solver-space primal point x and res's (y, S) / tau."""
        ws, it = self.ws, res.it
        t = max(it.tau, 1e-300)
        yu, Su = ws.unscale_dual(it.y / t, [sb / t for sb in it.s])
        return SdpSolution(
            status=status,
            x_blocks=ws.unscale_primal(x or [xb / t for xb in it.x]),
            y=yu,
            s_blocks=Su,
            primal_objective=res.pobj,
            dual_objective=res.dobj,
            gap=abs(res.pobj - res.dobj),
            relative_gap=res.relgap,
            primal_residual=res.relp if np.isfinite(res.relp) else np.inf,
            dual_residual=res.reld if np.isfinite(res.reld) else np.inf,
            iterations=self.iterations,
            ray=ray,
            message=message,
        )

    def _primal_certificate(self, res: _Residuals) -> SdpSolution | None:
        """The OPTIMAL solution at the projection of res's x / tau onto
        {A x = b}, x / tau + A^T (A A^T)^-1 (b - A x / tau) through the
        constraint-Gram factor, if that point is a primal certificate: every
        block passes _interior_factor and the relative primal residual is
        within feas_tol."""
        ws, it = self.ws, res.it
        x = [xb / it.tau for xb in it.x]
        defect = ws.b - ws.apply_A(x)
        corr = ws.apply_AT(_cho_solve(ws.prepared.repair_chol, defect))
        x = [_sym(xb + c) for xb, c in zip(x, corr)]
        if any(_interior_factor(xb) is None for xb in x):
            return None
        ry = ws.row_unscale * (ws.b - ws.apply_A(x))
        relp = float(np.linalg.norm(ry)) / (1.0 + ws.norm_b_user)
        if not relp <= self.cfg.feas_tol:
            return None
        return self._pack(
            res._replace(relp=relp), SdpStatus.OPTIMAL, PRIMAL_CERTIFICATE, x=x
        )

    def _dual_ray(self, res: _Residuals) -> tuple[np.ndarray, list[np.ndarray]] | None:
        """The improving ray (y, -A^T y) / b.y of res's iterate, if it is a
        Farkas certificate of primal infeasibility: b.y > 0 and every block
        of -A^T y / b.y passes _interior_factor."""
        ws, by = self.ws, res.by
        if not 0.0 < by < math.inf:
            return None
        rS = [-a / by for a in res.ATy]
        for s_blk in rS:
            # An exactly zero row, a coordinate that no constraint touches,
            # is PSD on its own: it is tested with 1 on its diagonal.
            zero = s_blk == 0 if s_blk.ndim == 1 else np.diag(~s_blk.any(axis=1))
            if _interior_factor(s_blk + zero) is None:
                return None
        # Renormalize so the user-space ray has b . y = 1 exactly.
        yu, Su = ws.unscale_dual(res.it.y / by, rS)
        return yu / ws.obj_scale, [sb / ws.obj_scale for sb in Su]


def _solve_once(ws: _Workspace, cfg: SolverConfig) -> SdpSolution:
    """One interior-point run on the homogeneous self-dual embedding.

    The iterate (x, y, s, tau, kappa) starts strictly feasible for the
    embedding and residuals shrink proportionally to the complementarity
    measure.  At every iteration the dual iterate y / b.y is a candidate
    improving ray, an infeasibility certificate: it ends the run once
    b.y > 0 and -A^T y / b.y is positive definite on the coordinates that
    some constraint touches, with an objective or without.  With no
    objective (C = 0) each iterate is first projected onto A x = b through
    the constraint-Gram factor, and the run returns that projection once it
    is positive definite and within feas_tol (_Exits._primal_certificate);
    a feasible run whose projections never are, on a problem with no
    interior, stops at its first iterate within feas_tol and gap_tol.
    Neither polishes the gap.

    Each iteration hands the _residuals of its _Iterate to _Exits.check,
    then steps along the predictor-corrector (or centering) direction of
    one _Newton system.  Every exit without convergence is _Exits.finish.
    """
    # Gram of the constraint operator, factored once for every right-hand
    # side: initial-point solves and the per-iteration repair that keeps
    # A dx = eta ry + b dtau exact.
    rows, row_views = _row_buffer(ws)
    if ws.prepared.repair_chol is None:
        for blk in ws.psd:
            for lo, hi, a in ws.slabs(blk):
                row_views[blk][lo:hi] = a
        for blk in ws.diag:
            row_views[blk][...] = ws.A[blk]
        gram = rows @ rows.T
        gram_scale = max(1.0, float(np.max(np.diag(gram))))
        try:
            ws.prepared.repair_chol = _cho_factor(gram, 1e-14 * gram_scale)
        except np.linalg.LinAlgError:
            raise SdpModelError("constraint rows are numerically dependent") from None
        del gram
    repair_chol = ws.prepared.repair_chol

    # Least-squares initial point in the spirit of conelp: the min-norm
    # solution of A x = b shifted into the cone, and the least-squares
    # dual pair (y, c - A^T y) shifted likewise.
    u0 = _cho_solve(repair_chol, ws.b)
    x = _shift_to_cone(ws.apply_AT(u0))
    y = _cho_solve(repair_chol, ws.apply_A(ws.C))
    s = _shift_to_cone([c - a for c, a in zip(ws.C, ws.apply_AT(y))])
    it = _Iterate(x, y, s, 1.0, 1.0)

    exits = _Exits(ws, cfg)
    for k in range(MAX_ITER):
        res = _residuals(ws, it)
        sol = exits.check(k, res)
        if sol is not None:
            return sol

        # The previous system goes first, so that beside the row buffer at
        # most three m x m matrices are live: the constraint Gram factor, M
        # and M's factor.
        newton = None
        try:
            newton = _Newton(ws, res, rows, row_views, repair_chol)
        except _Failure as failure:
            return exits.finish(str(failure))
        if abs(newton.denom) < 1e-300:
            return exits.finish("singular reduced system")

        # Predictor: eta = 1, complementarity target zero.
        Rc_aff = [
            -np.diag(sig) if g.ndim == 2 else -sig
            for g, sig in zip(newton.G, newton.sigv)
        ]
        predictor = newton.direction(1.0, Rc_aff, -it.tau * it.kappa)
        d_a = predictor[0]
        alpha_aff = _step_length(newton.max_step(d_a))
        if math.isnan(alpha_aff):
            return exits.finish("nonfinite step length")
        xa = [b + alpha_aff * d for b, d in zip(it.x, d_a.x)]
        sa = [b + alpha_aff * d for b, d in zip(it.s, d_a.s)]
        mu_aff = (
            ws.inner(xa, sa)
            + (it.tau + alpha_aff * d_a.tau) * (it.kappa + alpha_aff * d_a.kappa)
        ) / (ws.nu + 1.0)
        mu_aff = max(mu_aff, 0.0)
        sigma = (mu_aff / res.mu) ** 3 if res.mu > 0 else SIGMA_MAX
        sigma = min(max(sigma, SIGMA_MIN), SIGMA_MAX)

        Rc, rc_tk = newton.rc(sigma * res.mu, predictor, True)
        d = newton.direction(1.0 - sigma, Rc, rc_tk)[0]

        alpha = _step_length(newton.max_step(d), STEP_FRACTION)
        if alpha < 1e-4:
            # Rescue: a pure centering direction at the current mu restores
            # room to move when the combined step jams on the cone boundary.
            Rc_center, rc_center_tk = newton.rc(res.mu, predictor, False)
            # The feasibility repair ignores the cone and can itself keep
            # the step jammed; then the centering step goes without it.
            for repair in (True, False):
                d_c = newton.direction(0.0, Rc_center, rc_center_tk, repair)[0]
                alpha_c = _step_length(newton.max_step(d_c), STEP_FRACTION)
                if alpha_c > alpha:
                    d, alpha = d_c, alpha_c
                if alpha >= 1e-4:
                    break
        if not np.isfinite(alpha):
            return exits.finish("nonfinite step length")

        it = _Iterate(
            [b + alpha * v for b, v in zip(it.x, d.x)],
            it.y + alpha * d.y,
            [b + alpha * v for b, v in zip(it.s, d.s)],
            it.tau + alpha * d.tau,
            it.kappa + alpha * d.kappa,
        )

    return exits.finish(f"no convergence in {MAX_ITER} iterations", SdpStatus.MAX_ITER)


def check_certificate(problem: SdpProblem, sol: SdpSolution) -> CertificateReport:
    """Recompute residuals and eigenvalue margins straight from problem data."""
    X = [np.asarray(x, dtype=float) for x in sol.x_blocks]
    y = np.asarray(sol.y, dtype=float)
    b = np.array([rhs for _e, rhs in problem.constraints])
    C = [
        problem.dense_coefficient(problem.objective, blk)
        for blk in range(len(problem.blocks))
    ]
    # <A_i, X> and A^T y from the stored upper-triangle entries: an
    # off-diagonal entry v at (i, j) stands for v at (i, j) and at (j, i).
    AX = np.zeros(len(b))
    ATy = [np.zeros_like(c) for c in C]
    for ci, (entries, _rhs) in enumerate(problem.constraints):
        for blk, items in entries.items():
            x, at = X[blk], ATy[blk]
            for i, j, v in items:
                if x.ndim == 1:
                    AX[ci] += v * x[i]
                    at[i] += y[ci] * v
                elif i == j:
                    AX[ci] += v * x[i, i]
                    at[i, i] += y[ci] * v
                else:
                    AX[ci] += v * (x[i, j] + x[j, i])
                    at[i, j] += y[ci] * v
                    at[j, i] += y[ci] * v
    resid = AX - b
    # Dual slack C - A^T y implied by y alone, independent of the solver's
    # S iterate.
    S_implied = [c - a for c, a in zip(C, ATy)]
    pobj = _inner(C, X)
    dobj = float(b @ y)
    return CertificateReport(
        constraint_residual=float(np.max(np.abs(resid))) if len(b) else 0.0,
        primal_min_eigs=tuple(eig_range(x)[0] for x in sol.x_blocks),
        dual_min_eigs=tuple(eig_range(s)[0] for s in S_implied),
        primal_objective=pobj,
        dual_objective=dobj,
        duality_gap=pobj - dobj,
        complementarity=_inner(X, S_implied),
    )
