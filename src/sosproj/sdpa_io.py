"""SDPA sparse (.dat-s) export and parsing for block SDPs.

The file encodes the pair (P): min c'x s.t. sum_i x_i F_i - F0 >= 0 whose
dual is our standard form max F0 . Y s.t. F_i . Y = c_i, Y >= 0.  A problem
min <C, X> s.t. <A_i, X> = b_i therefore maps to c = b, F_i = A_i and
F0 = -C.  Matrix 0 is the objective, matrices 1..m the constraints; only
upper-triangle entries are written, 1-indexed, with 17 significant digits,
so output is byte-stable across runs and platforms.  Nonnegative-diagonal
blocks use the negative-block-size convention.  Comment lines start with
a double quote and round-trip through the parser.
"""

from __future__ import annotations

from .polynomials import format_float
from .sdp import BlockKind, SdpModelError, SdpProblem


def export_sdpa(problem: SdpProblem, comments: tuple[str, ...] = ()) -> str:
    """Serialize to SDPA sparse format; deterministic entry order."""
    lines: list[str] = []
    for comment in comments:
        lines.append(f'"{comment}')
    m = problem.num_constraints
    lines.append(str(m))
    lines.append(str(len(problem.blocks)))
    sizes = [
        str(spec.side if spec.kind is BlockKind.PSD else -spec.side)
        for spec in problem.blocks
    ]
    lines.append(" ".join(sizes))
    lines.append(" ".join(format_float(rhs) for _e, rhs in problem.constraints))

    # SdpProblem stores only nonzero entries; a +-1 scale keeps them nonzero.
    def emit(matno: int, entries, scale: float) -> None:
        for blk in sorted(entries):
            for i, j, v in entries[blk]:
                lines.append(
                    f"{matno} {blk + 1} {i + 1} {j + 1} {format_float(scale * v)}"
                )

    emit(0, problem.objective, -1.0)
    for ci, (entries, _rhs) in enumerate(problem.constraints):
        emit(ci + 1, entries, 1.0)
    return "\n".join(lines) + "\n"


def parse_sdpa(text: str) -> tuple[SdpProblem, tuple[str, ...]]:
    """Parse SDPA sparse text back into a problem; inverse of export_sdpa."""
    comments: list[str] = []
    data_lines: list[str] = []
    for raw in text.splitlines():
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith('"') or stripped.startswith("*"):
            comments.append(stripped.lstrip('"*'))
            continue
        data_lines.append(stripped)
    if len(data_lines) < 4:
        raise SdpModelError("SDPA text too short")
    m = int(data_lines[0])
    nblocks = int(data_lines[1])
    sizes = [int(tok) for tok in data_lines[2].replace(",", " ").split()]
    if len(sizes) != nblocks:
        raise SdpModelError(
            f"block-size line has {len(sizes)} entries, expected {nblocks}"
        )
    rhs = [float(tok) for tok in data_lines[3].replace(",", " ").split()]
    if len(rhs) != m:
        raise SdpModelError(f"rhs line has {len(rhs)} entries, expected {m}")

    problem = SdpProblem()
    for size in sizes:
        if size > 0:
            problem.add_psd_block(size)
        elif size < 0:
            problem.add_diag_block(-size)
        else:
            raise SdpModelError("zero block size")

    per_matrix: list[dict[int, list[tuple[int, int, float]]]] = [
        {} for _ in range(m + 1)
    ]
    for line in data_lines[4:]:
        toks = line.replace(",", " ").split()
        if len(toks) != 5:
            raise SdpModelError(f"bad entry line {line!r}")
        matno, blk, i, j = (int(t) for t in toks[:4])
        value = float(toks[4])
        if not 0 <= matno <= m:
            raise SdpModelError(f"matrix index {matno} out of range 0..{m}")
        per_matrix[matno].setdefault(blk - 1, []).append((i - 1, j - 1, value))

    problem.set_objective(
        {
            blk: [(i, j, -v) for i, j, v in items]
            for blk, items in per_matrix[0].items()
        }
    )
    for ci in range(m):
        problem.add_constraint(per_matrix[ci + 1], rhs[ci])
    return problem, tuple(comments)
