#!/usr/bin/env python3
"""Sweep the cone level for a fixed degree cap and print the distance decay.

Example:
    python scripts/closure_sweep.py --f "0 - x1^2" --d 1 --t 1 2 3 --norm l1
"""

import argparse

from sosproj.cli import read_system_and_f
from sosproj.polynomials import WeightSequence
from sosproj.projection import closure_probe


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--f", required=True)
    parser.add_argument("--system")
    parser.add_argument("--d", type=int, required=True)
    parser.add_argument("--t", type=int, nargs="+", required=True)
    parser.add_argument("--norm", choices=["l1", "lw"], default="lw")
    args = parser.parse_args()

    system, f = read_system_and_f(args.f, args.system)
    rows = closure_probe(
        f, system, args.d, args.t, WeightSequence.from_name(args.norm)
    )
    print("t    p_t            lambda0")
    for row in rows:
        print(f"{row.t:<4d} {row.p_value:.8e} {row.lambda0:.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
