#!/usr/bin/env python3
"""Print the graded dual-pair decomposition tables for one case.

Usage: python scripts/graded_decompositions.py [case] [max_level]
Cases: splitJ-splitE, splitJ-mixedE, hermJ-mixedE, e62-spin8.
"""

import sys

from liedual.charalg import weight_dimension
from liedual.lattice import format_weight
from liedual.minrep import DUALPAIR_CASES, NotCoveredError, dualpair_graded


def main() -> int:
    case = sys.argv[1] if len(sys.argv) > 1 else "splitJ-mixedE"
    if case not in DUALPAIR_CASES:
        print(f"error: unknown case {case!r}; choose from {DUALPAIR_CASES}", file=sys.stderr)
        return 2
    arg = sys.argv[2] if len(sys.argv) > 2 else "4"
    if not arg.isdecimal():
        print(f"error: max level must be a non-negative integer, got {arg!r}", file=sys.stderr)
        return 2
    top = int(arg)
    graded = dualpair_graded(case, top)
    for n in range(top + 1):
        char = graded.levels[n]
        print(f"level {n}  (dim {char.total_dimension()})")
        for w, mult in char.terms:
            try:
                sign = f"  sign {graded.sign_of(n, w):+d}"
            except NotCoveredError:
                sign = ""
            dim = weight_dimension(char.group, w)
            print(f"  {mult} * {format_weight(w)}  dim {dim}{sign}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
