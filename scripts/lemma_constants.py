#!/usr/bin/env python3
"""Sweep the lattice-coset lemmas and print the empirical constants.

For every admissible (a, N) with N up to --nmax the box-count bound is
re-verified and the primitive-decomposition search reports the constant C1
its small-e branch would need; the running maximum is the empirical value of
the absolute constant.

Usage: python3 scripts/lemma_constants.py [--nmax 60]
"""

import argparse
from fractions import Fraction as F

from orbitforge.combinat import (admissible_cosets, coset_points_in_box,
                                 find_primitive_decomposition)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--nmax", type=int, default=60)
    args = ap.parse_args()

    worst_margin = None
    worst_c1 = F(0)
    worst_case = None
    cases = 0
    for S in admissible_cosets(17, args.nmax):
        cases += 1
        for c in (F(3, 4), F(1)):
            box = coset_points_in_box(S, c, max_witnesses=0)
            assert box.bound_ok, (S.a1, S.a2, S.N, c)
            margin = box.count / (float(S.N) ** (2 * float(c) - 1) / 4)
            if worst_margin is None or margin < worst_margin:
                worst_margin = margin
            w = find_primitive_decomposition(S, F(2), c)
            if not w.kinf_exceeds_C and w.c1_required > worst_c1:
                worst_c1 = w.c1_required
                worst_case = (S.a1, S.a2, S.N, str(c))
    print(f"cases swept:            {cases}")
    print(f"box-count violations:   0")
    print(f"tightest count margin:  {worst_margin:.3f} x bound")
    print(f"empirical C1 (C = 2):   {float(worst_c1):.3f}  at {worst_case}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
