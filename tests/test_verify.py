import random
from fractions import Fraction

import numpy as np
import pytest

from opmx.calculus import OpMatrix, matrix_formal_adjoint, row_adjoint
from opmx.domains import DomainDescriptor, RationalWeight, WeightedL2, intersect
from opmx.errors import DegenerateInput, DomainViolation, HypothesisViolated, NoValidSamples
from opmx.gallery import (
    _case_ii_matrix,
    collecting_unbounded_entry,
    e1_witness,
    family_corpus,
    harmonic_witness,
    shifted_diagonal,
    squared_diagonal,
    summing_functional,
    unbounded_pair_row,
)
from opmx.operators import StructuredOperator, apply, domain_of, formal_adjoint_op
from opmx.seqspace import FiniteSupport, PowerLaw, SparseVector, Truncation, unit_family
from opmx.verify import (
    SubspaceSpec,
    WitnessFamily,
    check_compression_transpose,
    check_inclusion,
    check_pairing,
    check_strict_gap,
    core_criterion,
    core_vector_hypothesis,
    denseness_obstruction,
    run_witness,
)

import oracles

e = SparseVector.unit


def top_row_matrix() -> OpMatrix:
    zero = StructuredOperator.zero
    return OpMatrix(((squared_diagonal(), collecting_unbounded_entry()),
                     (zero(), zero())))


# --- pairing ---------------------------------------------------------------

def test_pairing_example_values_by_hand():
    mat = top_row_matrix()
    adj = matrix_formal_adjoint(mat)
    f = (FiniteSupport(e(1)), FiniteSupport(e(2)))
    g = (FiniteSupport(e(1)), FiniteSupport(SparseVector()))
    af = mat.apply(f)
    assert af[0].to_sparse() == e(0).scale(2) + e(1) + e(2).scale(4)
    bg = adj.apply(g)
    assert bg[0].to_sparse() == e(1) and bg[1].to_sparse() == e(1)
    lhs = sum(av.inner_family(fam) for av, fam in zip(af, g))
    rhs = sum(av.inner_family(fam) for av, fam in zip(bg, f))
    assert lhs == rhs == 1


def test_pairing_passes_on_matrix():
    report = check_pairing(top_row_matrix(), matrix_formal_adjoint(top_row_matrix()),
                           samples=150, seed=3)
    assert report.verdict == "pass"
    assert report.certificate["exact"] is True
    assert report.tolerance is None


def test_pairing_zero_matrix():
    zero = StructuredOperator.zero
    mat = OpMatrix(((zero(), zero()), (zero(), zero())))
    report = check_pairing(mat, matrix_formal_adjoint(mat), samples=10, seed=0)
    assert report.verdict == "pass"


def test_pairing_detects_sign_flip():
    mat = top_row_matrix()
    adj = matrix_formal_adjoint(mat)
    tampered = OpMatrix(((adj.grid[0][0], adj.grid[0][1]),
                         (-adj.grid[1][0], adj.grid[1][1])))
    report = check_pairing(mat, tampered, samples=50, seed=3)
    assert report.verdict == "fail"
    assert "lhs" in report.certificate and "rhs" in report.certificate


def test_pairing_no_valid_samples():
    blocked = StructuredOperator(
        RationalWeight.constant(0),
        sources=tuple((j, RationalWeight.constant(1)) for j in range(24)))
    with pytest.raises(NoValidSamples):
        check_pairing(blocked, formal_adjoint_op(blocked), samples=5, seed=1,
                      basis_sweep=0)


# --- witnesses ----------------------------------------------------------------

def test_witness_vanishing_row_inputs():
    report = run_witness(unbounded_pair_row(), e1_witness(), range(1, 2001))
    assert report.verdict == "pass"
    assert report.certificate["image_exact"] is True


def test_witness_shape_mismatch_is_domain_violation():
    col = row_adjoint(unbounded_pair_row())
    with pytest.raises(DomainViolation):
        run_witness(col, e1_witness(), range(1, 10))


def test_witness_input_outside_domain():
    bad = WitnessFamily(inputs=lambda n: (PowerLaw(Fraction(1)),),
                        claim="image_constant",
                        expected_images=(unit_family(0),))
    with pytest.raises(DomainViolation):
        run_witness(squared_diagonal(), bad, range(1, 3))


def test_witness_harmonic_band():
    report = run_witness(summing_functional(), harmonic_witness(), (64, 256, 1024))
    assert report.verdict == "pass"
    for value in report.certificate["image_norms"]:
        assert 0.69 <= value <= 0.70


def test_witness_run_too_short_to_vanish_is_undecided():
    # The image claim holds and the norms decrease, but at n = 1000 the input
    # norm sqrt(2)/1000 is still above the 1e-3 threshold: no counter-instance.
    report = run_witness(unbounded_pair_row(), e1_witness(), range(1, 1001))
    assert report.verdict == "undecided"
    assert report.certificate["n_tested"] == 1000
    assert report.certificate["final_input_norm"] > report.certificate["threshold"]


def test_witness_fails_when_norms_grow():
    growing = WitnessFamily(inputs=lambda n: (FiniteSupport(e(0).scale(n)),),
                            claim="image_constant",
                            expected_images=(FiniteSupport(SparseVector()),))
    report = run_witness(squared_diagonal(), growing, range(1, 5))
    assert report.verdict == "fail"


# --- denseness obstruction -------------------------------------------------------

def test_denseness_obstruction_on_adjoint_intersection():
    adj = row_adjoint(unbounded_pair_row())
    report = denseness_obstruction(adj.domain)
    assert report.verdict == "fail"
    assert sorted(report.certificate["forced"]) == [0]


def test_denseness_of_plain_weighted_domain():
    report = denseness_obstruction(domain_of(squared_diagonal()))
    assert report.verdict == "pass"


def test_denseness_of_full_domain():
    assert denseness_obstruction(DomainDescriptor.all()).verdict == "pass"


def test_denseness_undecided_for_lone_residual():
    report = denseness_obstruction(domain_of(
        formal_adjoint_op(collecting_unbounded_entry())))
    assert report.verdict == "undecided"


# --- core criterion -----------------------------------------------------------------

def test_core_criterion_full_d0():
    d0 = SubspaceSpec(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 3)
    d1 = SubspaceSpec(((1, 1, 0),), 3)
    report = core_criterion(np.zeros((3, 3)), d0, d1)
    assert report.verdict == "pass"
    assert report.certificate["dim_w_perp"] == 0


def test_core_criterion_detects_gap():
    d0 = SubspaceSpec(((1, 0, 0),), 3)
    d1 = SubspaceSpec(((0, 1, 0),), 3)
    report = core_criterion(np.zeros((3, 3)), d0, d1)
    assert report.verdict == "fail"


def test_core_criterion_diagonal_example():
    d0 = SubspaceSpec(((1, 0),), 2)
    d1 = SubspaceSpec(((1, 1),), 2)
    report = core_criterion(np.diag([1.0, 2.0]), d0, d1)
    assert report.verdict == "pass"


def test_core_criterion_rejects_rank_deficient_basis():
    d0 = SubspaceSpec(((1, 0, 0), (2, 0, 0)), 3)
    d1 = SubspaceSpec(((0, 1, 0),), 3)
    with pytest.raises(DegenerateInput):
        core_criterion(np.zeros((3, 3)), d0, d1)


def _random_instance(rng: random.Random):
    n = rng.randint(2, 6)
    cmat = np.array([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)],
                    dtype=float)

    def random_basis():
        dim = rng.randint(1, min(3, n))
        while True:
            basis = np.array([[rng.randint(-3, 3) for _ in range(n)]
                              for _ in range(dim)], dtype=float)
            if np.linalg.matrix_rank(basis) == dim:
                return basis

    return n, cmat, random_basis(), random_basis()


def test_core_criterion_agrees_with_nullspace_oracle():
    rng = random.Random(42)
    tol = 1e-10
    for _ in range(200):
        n, cmat, b0, b1 = _random_instance(rng)
        report = core_criterion(cmat, SubspaceSpec(tuple(map(tuple, b0)), n),
                                SubspaceSpec(tuple(map(tuple, b1)), n))
        w_rows = b0 @ (np.eye(n) + cmat @ cmat.T).T
        want_fail = oracles.subspaces_intersect_nontrivially(w_rows, b1, tol)
        assert report.verdict == ("fail" if want_fail else "pass")


def test_core_criterion_is_exact_on_a_near_degenerate_basis():
    # W = span{(1e-12, 1)} and D1 = span{(1, 0)}: W^perp is spanned by
    # (1, -1e-12), which is not in D1.  A relative cut-off on singular values
    # reads the product 1e-12 as zero and reports a gap that is not there.
    d0 = SubspaceSpec(((1e-12, 1),), 2)
    d1 = SubspaceSpec(((1, 0),), 2)
    report = core_criterion([[0, 0], [0, 0]], d0, d1)
    assert report.verdict == "pass"
    assert report.certificate["intersection_trivial"] is True
    assert report.tolerance is None


def test_core_vector_hypothesis_on_fractions():
    kmat = [[Fraction(1, 3), 0], [0, Fraction(2)]]
    v0 = (Fraction(1, 7), 0)
    inside = SubspaceSpec(((Fraction(-1, 21), 0, Fraction(1, 7), 0),), 4)
    outside = SubspaceSpec(((Fraction(-1, 20), 0, Fraction(1, 7), 0),), 4)
    assert core_vector_hypothesis(kmat, inside, v0).verdict == "pass"
    assert core_vector_hypothesis(kmat, outside, v0).verdict == "fail"
    report = core_vector_hypothesis(kmat, inside, (Fraction(0), Fraction(0)))
    assert report.verdict == "fail"
    assert report.certificate == {"reason": "v0 is zero"}


def test_core_vector_hypothesis():
    kmat = np.diag([1.0, 2.0])
    v0 = (1.0, 0.0)
    stacked = ((-1.0, 0.0, 1.0, 0.0),)
    report = core_vector_hypothesis(kmat, SubspaceSpec(stacked, 4), v0)
    assert report.verdict == "pass"
    report = core_vector_hypothesis(kmat, SubspaceSpec(stacked, 4), (0.0, 0.0))
    assert report.verdict == "fail"


# --- strict gap -----------------------------------------------------------------------

def test_strict_gap_certified():
    report = check_strict_gap(shifted_diagonal(), StructuredOperator.zero(),
                              PowerLaw(Fraction(1)), samples=100,
                              corpus=family_corpus())
    assert report.verdict == "pass"
    assert report.certificate["pairings_checked"] == 100
    assert report.certificate["exact"] is True


def test_strict_gap_fails_for_finite_support_vector():
    report = check_strict_gap(shifted_diagonal(), StructuredOperator.zero(),
                              unit_family(3), samples=10, corpus=family_corpus())
    assert report.verdict == "fail"
    assert report.certificate["outside_formal_adjoint_domain"].value == "yes"


def test_strict_gap_rejects_a_witness_with_float_values():
    # PowerLaw(1.25) evaluates in floats; an exact certificate cannot rest on it.
    with pytest.raises(HypothesisViolated):
        check_strict_gap(shifted_diagonal(), StructuredOperator.zero(),
                         PowerLaw(1.25), samples=10, corpus=family_corpus())


def test_strict_gap_hypothesis_violated():
    with pytest.raises(HypothesisViolated):
        check_strict_gap(StructuredOperator.identity(), squared_diagonal(),
                         PowerLaw(Fraction(1)), samples=5, corpus=family_corpus())


# --- inclusion -------------------------------------------------------------------------

def test_inclusion_trivial_and_reflexive():
    d = domain_of(collecting_unbounded_entry())
    report = check_inclusion(d, d, family_corpus())
    assert report.verdict == "pass"


def test_inclusion_detects_violation():
    d_all = DomainDescriptor.all()
    d_small = DomainDescriptor([WeightedL2(RationalWeight.poly(0, 0, 1))])
    report = check_inclusion(d_all, d_small, family_corpus())
    assert report.verdict == "fail"
    assert report.certificate["violations"] > 0


def test_inclusion_of_intersection_in_factor():
    d1 = domain_of(squared_diagonal())
    both = intersect(d1, domain_of(collecting_unbounded_entry()))
    report = check_inclusion(both, d1, family_corpus())
    assert report.verdict == "pass"


# --- compression transpose ---------------------------------------------------------------

def test_transpose_check_passes_and_fails():
    op = collecting_unbounded_entry()
    good = check_compression_transpose(op, formal_adjoint_op(op), Truncation(6))
    assert good.verdict == "pass"
    bad = check_compression_transpose(op, op, Truncation(6))
    assert bad.verdict == "fail"
    assert "entry" in bad.certificate


@pytest.mark.parametrize("n", [3, 17])
def test_transpose_failure_names_the_first_differing_entry(n):
    mat = _case_ii_matrix()
    grid = [list(row) for row in matrix_formal_adjoint(mat).grid]
    grid[1][0] = grid[1][0] + StructuredOperator.identity()
    report = check_compression_transpose(mat, OpMatrix(tuple(map(tuple, grid))),
                                         Truncation(n))
    assert report.verdict == "fail"
    assert report.to_json()["certificate"] == {"n": n, "entry": [n, 0], "b": 1, "a_t": 0}


def test_transpose_of_a_row_against_itself_is_a_shape_mismatch():
    row = unbounded_pair_row()
    report = check_compression_transpose(row, row, Truncation(5))
    assert report.verdict == "fail"
    assert report.certificate == {"n": 5, "reason": "shape mismatch",
                                  "a_shape": [5, 10], "b_shape": [5, 10]}
