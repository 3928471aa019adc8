import dataclasses
import random
from fractions import Fraction

import pytest

from opmx.calculus import (
    ClosureSide,
    ColOp,
    OpMatrix,
    RowOp,
    adjoint_when_mostly_bounded,
    assemble,
    col_adjoint_via_bounded_factor,
    col_formal_adjoint,
    closure_via_bounded_factor,
    composite_from_json,
    composite_to_json,
    matrix_formal_adjoint,
    row_adjoint,
)
from opmx.domains import (
    DomainDescriptor,
    RationalWeight,
    Verdict,
    excluded_coordinates,
    forced_coordinates,
)
from opmx.errors import (
    FactorCheckFailed,
    NotApplicable,
    NotBounded,
    NotDenselyDefined,
    NotInjective,
    ShapeMismatch,
)
from opmx.gallery import (
    collecting_unbounded_entry,
    family_corpus,
    shifted_diagonal,
    squared_diagonal,
    unbounded_pair_row,
)
from opmx.operators import StructuredOperator, domain_of
from opmx.seqspace import FiniteSupport, SparseVector, Truncation, unit_family
from opmx.verify import check_inclusion

e = SparseVector.unit

INV_SHIFT = RationalWeight.ratio([1], [1, 1])  # 1 / (k + 1)


def bounded_inverse() -> StructuredOperator:
    return StructuredOperator.diagonal(INV_SHIFT, name="diag_inv_shift")


# --- assembly ---------------------------------------------------------------

def test_assemble_row_records_block_domains():
    row = assemble("row", [squared_diagonal(), collecting_unbounded_entry()])
    assert isinstance(row, RowOp)
    assert row.block_domains == (domain_of(squared_diagonal()),
                                 domain_of(collecting_unbounded_entry()))


def test_assemble_top_row_matrix_column_domains():
    mat = assemble("matrix", [[squared_diagonal(), collecting_unbounded_entry()],
                              [StructuredOperator.zero(), StructuredOperator.zero()]])
    assert mat.column_domains[0] == domain_of(squared_diagonal())
    assert mat.column_domains[1] == domain_of(collecting_unbounded_entry())
    assert mat.column_dense_flags == (True, True)


def test_assemble_col_of_zero_has_full_domain():
    col = assemble("col", [StructuredOperator.zero()])
    assert col.domain.is_all


def test_assemble_rejects_ragged_grid():
    with pytest.raises(ShapeMismatch):
        assemble("matrix", [[StructuredOperator.zero()],
                            [StructuredOperator.zero(), StructuredOperator.zero()]])


# --- row adjoint ---------------------------------------------------------------

def test_row_adjoint_forces_leading_coordinate():
    adj = row_adjoint(unbounded_pair_row())
    assert isinstance(adj, ColOp)
    assert forced_coordinates(adj.domain) == frozenset({0})


def test_row_adjoint_of_diagonal_row():
    row = RowOp((shifted_diagonal(), StructuredOperator.zero()))
    adj = row_adjoint(row)
    assert adj.entries[0].diag == shifted_diagonal().diag
    assert adj.entries[1].is_zero_op


def test_row_adjoint_compression_is_transpose():
    row = unbounded_pair_row()
    adj = row_adjoint(row)
    t = Truncation(4)
    assert (adj.truncation(t) == row.truncation(t).T).all()


def test_row_adjoint_requires_densely_defined_entries():
    bad = StructuredOperator(RationalWeight.constant(0),
                             sources=((0, RationalWeight.constant(1)),))
    with pytest.raises(NotDenselyDefined):
        row_adjoint(RowOp((bad,)))


# --- column formal adjoint --------------------------------------------------------

def test_col_formal_adjoint_is_involutive_on_structure():
    col = row_adjoint(unbounded_pair_row())
    back = col_formal_adjoint(col)
    assert back.entries == unbounded_pair_row().entries


def test_col_formal_adjoint_of_opposite_pair():
    a = shifted_diagonal()
    col = ColOp((a, -a))
    adj = col_formal_adjoint(col)
    assert adj.entries[0].diag == a.diag
    assert adj.entries[1].diag == (-a).diag


def test_col_formal_adjoint_zero_column():
    adj = col_formal_adjoint(ColOp((StructuredOperator.zero(),
                                    StructuredOperator.zero())))
    assert all(op.is_zero_op for op in adj.entries)


# --- matrix formal adjoint ----------------------------------------------------------

def _corner_matrix() -> OpMatrix:
    zero = StructuredOperator.zero
    return OpMatrix(((shifted_diagonal(), zero()),
                     (-shifted_diagonal(), zero())))


def test_matrix_formal_adjoint_transposes_grid():
    adj = matrix_formal_adjoint(_corner_matrix())
    assert adj.grid[0][0].diag == shifted_diagonal().diag
    assert adj.grid[0][1].diag == (-shifted_diagonal()).diag
    assert adj.grid[1][0].is_zero_op and adj.grid[1][1].is_zero_op


def test_matrix_double_formal_adjoint_is_identity():
    mat = _corner_matrix()
    assert matrix_formal_adjoint(matrix_formal_adjoint(mat)) == mat


def test_matrix_formal_adjoint_zero():
    zero = StructuredOperator.zero
    mat = OpMatrix(((zero(), zero()), (zero(), zero())))
    adj = matrix_formal_adjoint(mat)
    assert all(op.is_zero_op for row in adj.grid for op in row)


def test_matrix_adjoint_block_domain_forces_coordinate():
    mat = assemble("matrix", [[squared_diagonal(), collecting_unbounded_entry()],
                              [StructuredOperator.zero(), collecting_unbounded_entry()]])
    adj = matrix_formal_adjoint(mat)
    assert forced_coordinates(adj.column_domains[0]) == frozenset({0})
    assert adj.column_dense_flags[0] is False


# --- closure via bounded factor -------------------------------------------------------

def test_closure_rep_action_matches_expansion():
    rep = closure_via_bounded_factor(shifted_diagonal(),
                                     StructuredOperator.identity(),
                                     bounded_inverse())
    out = rep.apply((FiniteSupport(e(2)), FiniteSupport(e(5))))
    assert out.to_sparse() == e(2).scale(3) + e(5)


def test_closure_rep_agrees_with_raw_row():
    rep = closure_via_bounded_factor(shifted_diagonal(),
                                     StructuredOperator.identity(),
                                     bounded_inverse())
    row = RowOp((shifted_diagonal(), StructuredOperator.identity()))
    rng = random.Random(7)
    for _ in range(100):
        f = SparseVector(tuple((rng.randint(0, 20), Fraction(rng.randint(-9, 9),
                                                             rng.randint(1, 9)))
                               for _ in range(3)))
        g = SparseVector(tuple((rng.randint(0, 20), Fraction(rng.randint(-9, 9),
                                                             rng.randint(1, 9)))
                               for _ in range(3)))
        blocks = (FiniteSupport(f), FiniteSupport(g))
        assert rep.apply(blocks) == row.apply(blocks)


def test_closure_rep_rejects_wrong_factor():
    with pytest.raises(FactorCheckFailed):
        closure_via_bounded_factor(shifted_diagonal(),
                                   StructuredOperator.identity(),
                                   StructuredOperator.identity())


def test_closure_rep_rejects_unbounded_factor():
    with pytest.raises(NotBounded):
        closure_via_bounded_factor(shifted_diagonal(), squared_diagonal(),
                                   shifted_diagonal())


def test_closure_rep_rejects_non_injective_base():
    with pytest.raises(NotInjective):
        closure_via_bounded_factor(squared_diagonal(),
                                   StructuredOperator.identity(),
                                   bounded_inverse())


def test_closure_domain_membership():
    rep = closure_via_bounded_factor(shifted_diagonal(),
                                     StructuredOperator.identity(),
                                     bounded_inverse())
    assert rep.domain.member((unit_family(1), unit_family(4))) is Verdict.YES


# --- column adjoints via bounded factor -------------------------------------------------

def _column_reps():
    return col_adjoint_via_bounded_factor(shifted_diagonal(),
                                          StructuredOperator.identity(),
                                          bounded_inverse())


def test_col_reps_action_values():
    formal, adjoint = _column_reps()
    blocks = (FiniteSupport(e(2)), FiniteSupport(e(5)))
    assert formal.apply(blocks).to_sparse() == e(2).scale(3) + e(5)
    assert adjoint.apply(blocks).to_sparse() == e(2).scale(3) + e(5)


def test_col_reps_agree_on_formal_domain():
    formal, adjoint = _column_reps()
    rng = random.Random(11)
    count = 0
    while count < 100:
        f = SparseVector(tuple((rng.randint(0, 20), Fraction(rng.randint(-9, 9),
                                                             rng.randint(1, 9)))
                               for _ in range(3)))
        g = SparseVector(tuple((rng.randint(0, 20), Fraction(rng.randint(-9, 9),
                                                             rng.randint(1, 9)))
                               for _ in range(3)))
        blocks = (FiniteSupport(f), FiniteSupport(g))
        if formal.domain.member(blocks) is not Verdict.YES:
            continue
        assert formal.apply(blocks) == adjoint.apply(blocks)
        count += 1


def test_col_reps_formal_domain_inside_adjoint_domain():
    formal, adjoint = _column_reps()
    singles = family_corpus()
    pairs = [(a, b) for a in singles for b in singles[:8]]
    report = check_inclusion(formal.domain, adjoint.domain, pairs)
    assert report.verdict == "pass"
    assert report.certificate["violations"] == 0


def test_col_reps_sides_are_labelled():
    formal, adjoint = _column_reps()
    assert formal.side is ClosureSide.COL_FORMAL_ADJOINT
    assert adjoint.side is ClosureSide.COL_ADJOINT


def test_col_factor_requires_nested_domains():
    from opmx.errors import HypothesisViolated

    # First entry everywhere defined, second entry strictly more restrictive.
    with pytest.raises((HypothesisViolated, FactorCheckFailed)):
        col_adjoint_via_bounded_factor(StructuredOperator.identity(),
                                       shifted_diagonal(), bounded_inverse())


# --- adjoint shortcut ---------------------------------------------------------------------

def test_shortcut_column_single_unbounded_entry():
    col = ColOp((shifted_diagonal(), StructuredOperator.identity()))
    certified = adjoint_when_mostly_bounded(col)
    assert isinstance(certified.operator, RowOp)
    assert certified.operator.entries[0].diag == shifted_diagonal().diag
    assert "true adjoint" in certified.certificate


def test_shortcut_matrix_single_unbounded_corner():
    zero = StructuredOperator.zero
    ident = StructuredOperator.identity
    mat = OpMatrix(((shifted_diagonal(), ident()), (zero(), ident())))
    certified = adjoint_when_mostly_bounded(mat)
    assert isinstance(certified.operator, OpMatrix)
    assert certified.operator.grid[0][0].diag == shifted_diagonal().diag


def test_shortcut_rejects_two_unbounded_entries():
    col = ColOp(unbounded_pair_row().entries)
    with pytest.raises(NotApplicable):
        adjoint_when_mostly_bounded(col)


def test_shortcut_row_gives_densely_defined_adjoint():
    row = RowOp((shifted_diagonal(), StructuredOperator.identity()))
    certified = adjoint_when_mostly_bounded(row)
    assert isinstance(certified.operator, ColOp)
    assert certified.operator.densely_defined
    with pytest.raises(NotApplicable):
        adjoint_when_mostly_bounded(unbounded_pair_row())


# --- double-adjoint structure -----------------------------------------------------------

def test_double_formal_adjoint_domain_contains_original_descriptors():
    # Row side: the second formal adjoint reproduces the row, so domains agree.
    row = unbounded_pair_row()
    back = col_formal_adjoint(row_adjoint(row))
    assert [domain_of(op) for op in back.entries] == \
        [domain_of(op) for op in row.entries]


# --- JSON ------------------------------------------------------------------------------

def test_composite_json_round_trip_matrix():
    mat = _corner_matrix()
    encoded = composite_to_json(mat)
    assert encoded["grid"][0][1] == "zero"
    decoded = composite_from_json(encoded)
    assert decoded == mat


def test_composite_json_round_trip_row_and_col():
    row = unbounded_pair_row()
    assert composite_from_json(composite_to_json(row)) == row
    col = ColOp((shifted_diagonal(),))
    assert composite_from_json(composite_to_json(col)) == col


# --- derived structure computed once ----------------------------------------------

def _sample_composites():
    zero = StructuredOperator.zero()
    return [
        RowOp((squared_diagonal(), collecting_unbounded_entry())),
        ColOp((squared_diagonal(), collecting_unbounded_entry())),
        OpMatrix(((squared_diagonal(), collecting_unbounded_entry()),
                  (zero, collecting_unbounded_entry()))),
        matrix_formal_adjoint(OpMatrix(((squared_diagonal(), zero),
                                        (shifted_diagonal(), squared_diagonal())))),
    ]


def test_cached_domains_equal_a_fresh_computation():
    for x in _sample_composites():
        cached_blocks = x.block_domains
        assert x.block_domains is cached_blocks
        fresh = dataclasses.replace(x)
        assert fresh.block_domains == cached_blocks
        for d, d_fresh in zip(cached_blocks, fresh.block_domains):
            assert forced_coordinates(d) == forced_coordinates(
                DomainDescriptor(d_fresh.atoms))
            assert excluded_coordinates(d) == excluded_coordinates(
                DomainDescriptor(d_fresh.atoms))
            assert forced_coordinates(d) is forced_coordinates(d)
        ops = x.entries if hasattr(x, "entries") else [op for row in x.grid for op in row]
        for op in ops:
            assert domain_of(op) is domain_of(op)
            assert domain_of(op) == domain_of(dataclasses.replace(op))
    col = _sample_composites()[1]
    assert col.domain is col.domain
    assert col.domain == dataclasses.replace(col).domain


def test_caching_leaves_equality_and_hash_unchanged():
    for x in _sample_composites():
        before = hash(x)
        fresh = dataclasses.replace(x)
        for d in x.block_domains:
            forced_coordinates(d)
            excluded_coordinates(d)
        assert hash(x) == before == hash(fresh)
        assert x == fresh and fresh == x
        for d, d_fresh in zip(x.block_domains, fresh.block_domains):
            assert hash(d) == hash(DomainDescriptor(d_fresh.atoms))
    w = RationalWeight.ratio([1, 2], [3, 1])
    assert w == RationalWeight.ratio([1, 2], [3, 1])
    assert hash(w) == hash(RationalWeight.ratio([1, 2], [3, 1]))
    assert repr(w) == repr(RationalWeight.ratio([1, 2], [3, 1]))
