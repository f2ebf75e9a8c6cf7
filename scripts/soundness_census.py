#!/usr/bin/env python3
"""Count membership's verdicts on random polynomials whose answer is known.

Each trial picks a system K, a level k in {2, 3} and one of three kinds of
f, then runs `membership` at levels k, k + 1 and k + 2:

- full: f = sum_J g_J v^T G_J v over the blocks of the level-k truncation,
  with G_J = M M^T / side + 0.1 I for a random square M, so f is in Q_k;
- low-rank: the same with M of rank 1 to side/2 and no shift, so f is in
  Q_k, often on a face of it;
- negative: a full f minus (f(x0) + delta) at a random x0 in K, with
  delta = 10^U(-7, -2) * max(1, |f(x0)|), so f(x0) = -delta < 0.

Each f is built by polynomial products (squares of v^T m for the columns m
of M, times g_J), not by sosproj's Gram reconstruction, so the census does
not check the code with itself.  The level-k cone lies in the higher ones,
so a verdict is wrong when an in-cone f reads not_in_cone at any of the
three levels, or a negative f reads in_cone.

The census counts calls, not distinct solves.  On R^n `membership` solves
the level that decides f, ceil(deg f / 2), and every f here has degree 2k,
so on R2 and R3 the calls at k + 1 and k + 2 solve the same SDP, with the
same right-hand side, as the call at k.  At seed 7 with 150 trials the 450
calls are 338 distinct solves.  The repeated calls stay: they check
membership's choice of level.

Example:
    PYTHONPATH=src python scripts/soundness_census.py --seed 7 --trials 100

It prints a markdown table of the count per (system, kind, level, verdict)
and a summary line, names each wrong verdict on stderr, and exits 1 if any
verdict is wrong.  Only sosproj's public API is used.
"""

import argparse
import sys
from collections import Counter

import numpy as np

from sosproj import (
    ConeKind,
    Polynomial,
    SemialgebraicSystem,
    build_truncation,
    membership,
    monomial_basis,
    parse_polynomial,
)
from sosproj.certificates import MembershipVerdict

SYSTEMS = {
    "R2": SemialgebraicSystem(2),
    "R3": SemialgebraicSystem(3),
    "disk": SemialgebraicSystem(2, (parse_polynomial("1 - x1^2 - x2^2", 2),)),
    "ball3": SemialgebraicSystem(
        3, (parse_polynomial("1 - x1^2 - x2^2 - x3^2", 3),)
    ),
    "box2": SemialgebraicSystem(
        2,
        (parse_polynomial("1 - x1^2", 2), parse_polynomial("1 - x2^2", 2)),
        ConeKind.PREORDERING,
    ),
}
KINDS = ("full", "low-rank", "negative")
LEVELS = (2, 3)
OFFSETS = (0, 1, 2)


def in_cone_polynomial(
    rng: np.random.Generator, system: SemialgebraicSystem, k: int, low_rank: bool
) -> tuple[Polynomial, list[np.ndarray]]:
    """A random f in the level-k cone of `system`, and its Gram matrices.

    The Grams follow the order of `build_truncation(system, k).blocks`,
    each over the graded-lex monomial basis of its block's SOS order.
    """
    n = system.dimension
    f = Polynomial(n, {})
    grams = []
    for block in build_truncation(system, k).blocks:
        basis = monomial_basis(n, block.sos_order)
        side = len(basis)
        rank = int(rng.integers(1, max(1, side // 2) + 1)) if low_rank else side
        m = rng.standard_normal((side, rank))
        gram = m @ m.T / side
        sos = Polynomial(n, {})
        for column in m.T:
            root = Polynomial(n, dict(zip(basis, map(float, column))))
            sos = sos + root * root
        sos = sos.scale(1.0 / side)
        if not low_rank:
            gram = gram + 0.1 * np.eye(side)
            sos = sos + Polynomial(n, {tuple(2 * a for a in v): 0.1 for v in basis})
        f = f + block.product * sos
        grams.append(gram)
    return f, grams


def point_in(rng: np.random.Generator, system: SemialgebraicSystem) -> np.ndarray:
    """A uniform point of K inside the box [-1, 1]^n (by rejection)."""
    while True:
        x = rng.uniform(-1.0, 1.0, system.dimension)
        if all(g.evaluate(x) >= 0 for g in system.generators):
            return x


def negative_polynomial(
    rng: np.random.Generator, system: SemialgebraicSystem, k: int
) -> Polynomial:
    """A full in-cone f shifted to f(x0) = -delta < 0 at a random x0 in K."""
    f, _grams = in_cone_polynomial(rng, system, k, low_rank=False)
    value = f.evaluate(point_in(rng, system))
    delta = 10.0 ** rng.uniform(-7, -2) * max(1.0, abs(value))
    return f - Polynomial.constant(system.dimension, value + delta)


def is_wrong(kind: str, verdict: MembershipVerdict) -> bool:
    if kind == "negative":
        return verdict is MembershipVerdict.IN_CONE
    return verdict is MembershipVerdict.NOT_IN_CONE


def census(seed: int, trials: int) -> tuple[Counter, list[str]]:
    """Counts per (system, kind, level offset, verdict), and the wrong calls."""
    rng = np.random.default_rng(seed)
    names = list(SYSTEMS)
    counts: Counter = Counter()
    wrong = []
    for trial in range(trials):
        name = names[rng.integers(len(names))]
        system = SYSTEMS[name]
        k = LEVELS[rng.integers(len(LEVELS))]
        kind = KINDS[rng.integers(len(KINDS))]
        if kind == "negative":
            f = negative_polynomial(rng, system, k)
        else:
            f, _grams = in_cone_polynomial(rng, system, k, kind == "low-rank")
        for offset in OFFSETS:
            verdict = membership(f, system, k + offset).verdict
            counts[name, kind, offset, verdict.value] += 1
            if is_wrong(kind, verdict):
                wrong.append(
                    f"trial {trial}: {name} {kind} k={k} level {k + offset} "
                    f"{verdict.value}: {f}"
                )
    return counts, wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trials", type=int, required=True)
    args = parser.parse_args(argv)

    counts, wrong = census(args.seed, args.trials)
    print("| system | kind | level | verdict | count |")
    print("| --- | --- | --- | --- | --- |")
    for (name, kind, offset, verdict), count in sorted(counts.items()):
        print(f"| {name} | {kind} | k+{offset} | {verdict} | {count} |")
    print(
        f"\nseed {args.seed}, {args.trials} trials: {len(wrong)} wrong of "
        f"{sum(counts.values())} membership calls"
    )
    for line in wrong:
        print(line, file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
