"""Acceptance suite: one test per criterion, exact tolerances pinned here.

Each test prints a PASS line when its assertions hold, so a verbose run
yields one verdict line per criterion.
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from opmx.calculus import (
    ColOp,
    RowOp,
    col_adjoint_via_bounded_factor,
    closure_via_bounded_factor,
    col_formal_adjoint,
    matrix_formal_adjoint,
    row_adjoint,
)
from opmx.domains import RationalWeight, Verdict
from opmx.gallery import (
    GridDerivativePair,
    _case_i_matrix,
    _case_ii_matrix,
    _case_iv_matrix,
    e1_witness,
    family_corpus,
    harmonic_witness,
    shifted_diagonal,
    summing_functional,
    unbounded_pair_row,
)
from opmx.operators import StructuredOperator, formal_adjoint_op, truncation_matrix
from opmx.seqspace import (
    FiniteSupport,
    PowerLaw,
    SparseVector,
    Truncation,
    norm_squared,
)
from opmx.verify import (
    SubspaceSpec,
    check_compression_transpose,
    check_inclusion,
    check_pairing,
    check_strict_gap,
    core_criterion,
    denseness_obstruction,
    run_witness,
)

import oracles

e = SparseVector.unit


def test_criterion_01_vanishing_witness_exact_and_fast():
    row = unbounded_pair_row()
    witness = e1_witness()
    start = time.perf_counter()
    for n in range(1, 10_001):
        blocks = witness.inputs(n)
        total = sum(norm_squared(b.vector) for b in blocks)
        assert total == Fraction(2, n * n)  # input norm is exactly sqrt(2)/n
    report = run_witness(row, witness, range(1, 10_001))
    elapsed = time.perf_counter() - start
    assert report.verdict == "pass"
    assert report.certificate["image_exact"] is True
    assert report.certificate["image"] == [e(0)]
    assert elapsed < 1.0, f"witness replay took {elapsed:.2f}s"
    print(f"ACCEPTANCE 1: PASS (10^4 witness steps, exact, {elapsed:.2f}s)")


def test_criterion_02_pairing_identity_exact_for_all_matrices():
    start = time.perf_counter()
    for mat in (_case_i_matrix(), _case_ii_matrix(), _case_iv_matrix()):
        report = check_pairing(mat, matrix_formal_adjoint(mat), samples=1000,
                               seed=42)
        assert report.verdict == "pass"
        assert report.certificate["exact"] is True
        assert report.tolerance is None
        assert report.certificate["pairs"] >= 1000
    pair = GridDerivativePair(64)
    rng = random.Random(42)
    for _ in range(1000):
        f, g, u, v = ([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                       for _ in range(64)] for _ in range(4))
        a1, a2 = pair.block_apply(f, g)
        b1, b2 = pair.block_apply_t(u, v)
        lhs = sum(x * y for x, y in zip(a1, u)) + sum(x * y for x, y in zip(a2, v))
        rhs = sum(x * y for x, y in zip(f, b1)) + sum(x * y for x, y in zip(g, b2))
        assert lhs == rhs
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"pairing checks took {elapsed:.2f}s"
    print(f"ACCEPTANCE 2: PASS (1000 exact pairs per matrix, {elapsed:.2f}s)")


def test_criterion_03_row_compressions_are_exact_transposes():
    rows = [unbounded_pair_row(),
            col_formal_adjoint(ColOp((shifted_diagonal(),
                                      StructuredOperator.zero()
                                      - shifted_diagonal())))]
    for row in rows:
        adjoint = row_adjoint(row)
        for n in (4, 64, 256):
            report = check_compression_transpose(row, adjoint, Truncation(n))
            assert report.verdict == "pass", (row, n)
    print("ACCEPTANCE 3: PASS (row compressions transpose exactly, N in {4,64,256})")


def test_criterion_04_obstruction_with_brute_force_cross_check():
    adjoint = matrix_formal_adjoint(_case_ii_matrix())
    report = denseness_obstruction(adjoint.column_domains[0])
    assert report.verdict == "fail"
    assert sorted(report.certificate["forced"]) == [0]

    n = 200
    t = Truncation(n)
    stacked = np.vstack([
        truncation_matrix(adjoint.grid[0][0], t).astype(float),
        truncation_matrix(adjoint.grid[1][0], t).astype(float)])
    gram = np.eye(n) + stacked.T @ stacked
    solved = np.linalg.solve(gram, np.eye(n)[0])
    max_ratio = math.sqrt(solved[0])
    # Independent closed form for the same maximum.
    analytic = 1.0 / math.sqrt(1.0 + sum(1.0 / (4 * k * k) for k in range(1, n))
                               + sum(k * k for k in range(1, n)) / 2.0)
    assert max_ratio == pytest.approx(analytic, rel=1e-6)
    assert max_ratio < 1e-2

    rng = np.random.default_rng(42)
    for _ in range(25):
        g = rng.standard_normal(n)
        graph = math.sqrt(g @ g + (stacked @ g) @ (stacked @ g))
        g *= 1e3 / graph
        graph = math.sqrt(g @ g + (stacked @ g) @ (stacked @ g))
        assert abs(g[0]) < 1e-2 * graph
    print(f"ACCEPTANCE 4: PASS (forced {{0}}; graph-norm ratio {max_ratio:.2e} < 1e-2)")


def test_criterion_05_bounded_factor_formulas():
    inverse = StructuredOperator.diagonal(RationalWeight.ratio([1], [1, 1]))
    row_rep = closure_via_bounded_factor(shifted_diagonal(),
                                         StructuredOperator.identity(), inverse)
    raw_row = RowOp((shifted_diagonal(), StructuredOperator.identity()))
    rng = random.Random(42)

    def sample():
        return FiniteSupport(SparseVector(tuple(
            (rng.randint(0, 24), Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            for _ in range(3))))

    for _ in range(100):
        blocks = (sample(), sample())
        assert row_rep.apply(blocks) == raw_row.apply(blocks)

    formal, adjoint = col_adjoint_via_bounded_factor(
        shifted_diagonal(), StructuredOperator.identity(), inverse)
    raw_formal = RowOp((formal_adjoint_op(shifted_diagonal()),
                        StructuredOperator.identity()))
    for _ in range(100):
        blocks = (sample(), sample())
        assert formal.apply(blocks) == raw_formal.apply(blocks)

    singles = family_corpus()
    pairs = [(a, b) for a in singles for b in singles]
    report = check_inclusion(formal.domain, adjoint.domain, pairs)
    assert report.verdict == "pass"
    assert report.certificate["violations"] == 0
    print("ACCEPTANCE 5: PASS (100 exact agreements each; domain inclusion holds)")


def test_criterion_06_strict_gap_reproduced():
    for label in ("t1591", "case_IV reduction"):
        report = check_strict_gap(shifted_diagonal(), StructuredOperator.zero(),
                                  PowerLaw(Fraction(1)), samples=100, seed=42,
                                  corpus=family_corpus())
        assert report.verdict == "pass", label
        assert report.certificate["outside_formal_adjoint_domain"] is Verdict.NO
        assert report.certificate["inside_total_adjoint_domain"] is Verdict.YES
        assert report.certificate["pairings_checked"] == 100
        assert report.certificate["exact"] is True
    print("ACCEPTANCE 6: PASS (membership (No, Yes); 100 exactly-zero pairings)")


def test_criterion_07_core_criterion_matches_oracle():
    rng = random.Random(42)
    tol = 1e-10
    disagreements = 0
    for _ in range(200):
        n = rng.randint(2, 6)
        cmat = np.array([[rng.randint(-2, 2) for _ in range(n)]
                         for _ in range(n)], dtype=float)

        def basis():
            dim = rng.randint(1, min(3, n))
            while True:
                b = np.array([[rng.randint(-3, 3) for _ in range(n)]
                              for _ in range(dim)], dtype=float)
                if np.linalg.matrix_rank(b) == dim:
                    return b

        b0, b1 = basis(), basis()
        report = core_criterion(cmat, SubspaceSpec(tuple(map(tuple, b0)), n),
                                SubspaceSpec(tuple(map(tuple, b1)), n))
        w_rows = b0 @ (np.eye(n) + cmat @ cmat.T).T
        oracle_fail = oracles.subspaces_intersect_nontrivially(w_rows, b1, tol)
        if report.verdict != ("fail" if oracle_fail else "pass"):
            disagreements += 1
    assert disagreements == 0
    print("ACCEPTANCE 7: PASS (200 instances agree with the null-space oracle)")


def test_criterion_08_grid_pair_identities():
    rng = random.Random(42)
    for n in (2, 8, 64, 512):
        pair = GridDerivativePair(n)
        assert ((pair.d0_matrix().T + pair.d1_matrix()) == Fraction(0)).all()
        for _ in range(50):
            f = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            _, second = pair.block_apply(f, f)
            assert all(x == 0 for x in second)
    print("ACCEPTANCE 8: PASS (transpose identity and vanishing second row, exact)")


def test_criterion_09_harmonic_witness_band():
    ns = (64, 256, 1024)
    report = run_witness(summing_functional(), harmonic_witness(), ns)
    assert report.verdict == "pass"
    norms = report.certificate["image_norms"]
    input_norms = []
    for n, got in zip(ns, norms):
        assert 0.69 <= got <= 0.70
        block = harmonic_witness().inputs(n)[0].vector
        oracle_sum = sum(1.0 / k for k, _ in block.entries)
        assert got == pytest.approx(oracle_sum, rel=1e-12)
        input_norms.append(math.sqrt(float(norm_squared(block))))
    assert all(x < 0.13 for x in input_norms)
    assert input_norms == sorted(input_norms, reverse=True)
    print(f"ACCEPTANCE 9: PASS (image norms {', '.join(f'{x:.4f}' for x in norms)};"
          f" inputs below 0.13)")


def test_criterion_10_cli_suite_within_budget():
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "opmx.cli", "--case", "all",
         "--truncation", "256"],
        capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    assert result.returncode == 0, result.stderr
    reports = [json.loads(line) for line in result.stdout.splitlines()]
    assert reports and all(r["match"] for r in reports)
    assert elapsed < 60.0, f"CLI suite took {elapsed:.1f}s"
    print(f"ACCEPTANCE 10: PASS (full suite at N=256 in {elapsed:.1f}s, exit 0)")
