#!/usr/bin/env python3
"""Compare the symbolic convergence rules against float partial sums.

Walks a grid of power-law exponents through each domain-condition kind and
prints the symbolic verdict next to a brute-force verdict computed from one
million terms.  Disagreements, if any, are flagged in the last column.
"""

import argparse
import os
import sys
from fractions import Fraction

import numpy as np

from opmx.domains import (
    DomainDescriptor,
    RationalWeight,
    ResidualL2,
    SeriesConverges,
    Verdict,
    WeightedL2,
    member,
)
from opmx.seqspace import ALTERNATING, PowerLaw, eval_family

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))
from oracles import weight_values  # noqa: E402


def numeric_verdict(atom, p, sign, nmax):
    k = np.arange(0.0, float(nmax))
    mags = (k + 1.0) ** (-float(p))
    if not np.isfinite(mags[-1]):
        return False
    ambient = np.cumsum(mags**2)
    if ambient[-1] - ambient[nmax // 10 - 1] > 0.05:
        return False
    if isinstance(atom, WeightedL2):
        terms = (weight_values(atom.weight, k) * mags) ** 2
        partial = np.cumsum(terms)
        return partial[-1] - partial[nmax // 10 - 1] < 0.05 and partial[-1] < 1e3
    if isinstance(atom, SeriesConverges):
        terms = np.abs(weight_values(atom.coeff, k)) * mags
        if sign == ALTERNATING:
            return terms[-1] < 0.01 * max(terms[0], 1.0)
        partial = np.cumsum(terms)
        return partial[-1] - partial[nmax // 10 - 1] < 0.05 and partial[-1] < 1e3
    if isinstance(atom, ResidualL2):
        gamma0 = float(eval_family(PowerLaw(p, sign), 0))
        residual = weight_values(atom.diag, k) * mags
        for j, w in atom.sources:
            if j == 0:
                residual = residual + weight_values(w, k) * gamma0
        terms = residual**2
        partial = np.cumsum(terms)
        return partial[-1] - partial[nmax // 10 - 1] < 0.05
    raise TypeError(atom)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nmax", type=int, default=1_000_000)
    args = parser.parse_args()

    w_sq = RationalWeight.poly(0, 0, 1)
    w_lin = RationalWeight.poly(0, 1)
    atoms = [
        ("weighted_l2[k^2]", WeightedL2(w_sq), "all_plus"),
        ("weighted_l2[k+1]", WeightedL2(RationalWeight.poly(1, 1)), "all_plus"),
        ("series[k] +", SeriesConverges(w_lin), "all_plus"),
        ("series[k] +-", SeriesConverges(w_lin), ALTERNATING),
        ("residual[k^2; 0<-k]", ResidualL2(w_sq, ((0, w_lin),)), "all_plus"),
    ]
    grid = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2),
            Fraction(5, 2), Fraction(3), Fraction(4)]

    print(f"{'condition':<22}{'p':>6}  {'symbolic':<9}{'numeric':<9}agree")
    disagreements = 0
    for label, atom, sign in atoms:
        descriptor = DomainDescriptor([atom])
        for p in grid:
            symbolic = member(PowerLaw(p, sign), descriptor)
            numeric = numeric_verdict(atom, p, sign, args.nmax)
            want = Verdict.YES if numeric else Verdict.NO
            agree = symbolic is want
            disagreements += 0 if agree else 1
            print(f"{label:<22}{str(p):>6}  {symbolic.value:<9}"
                  f"{'yes' if numeric else 'no':<9}{'ok' if agree else 'DISAGREE'}")
    print(f"\n{disagreements} disagreements")
    return 0 if disagreements == 0 else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
