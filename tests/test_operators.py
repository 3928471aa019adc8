from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opmx.domains import (
    DomainDescriptor,
    RationalWeight,
    ResidualL2,
    SeriesConverges,
    Verdict,
    WeightedL2,
    excluded_coordinates,
    member,
)
from opmx.errors import NotInDomain
from opmx.gallery import (
    GridDerivativePair,
    _case_ii_matrix,
    collecting_unbounded_entry,
    shifted_diagonal,
    squared_diagonal,
    summing_functional,
)
from opmx.operators import (
    AppliedVector,
    StructuredOperator,
    apply,
    apply_coordinate,
    compression,
    domain_of,
    formal_adjoint_op,
    is_bounded,
    operator_from_json,
    operator_to_json,
    truncation_matrix,
)
from opmx.seqspace import FiniteSupport, SparseVector, Truncation

import oracles

e = SparseVector.unit

W_SQ = RationalWeight.poly(0, 0, 1)
W_LIN = RationalWeight.poly(0, 1)


def gallery_ops():
    return [squared_diagonal(), collecting_unbounded_entry(), shifted_diagonal(),
            summing_functional(), StructuredOperator.zero(),
            StructuredOperator.identity(),
            StructuredOperator.diagonal(RationalWeight.ratio([1], [1, 1]),
                                        name="diag_inv"),
            formal_adjoint_op(collecting_unbounded_entry()),
            formal_adjoint_op(summing_functional())]


# --- apply ----------------------------------------------------------------------

def test_apply_collecting_entry_on_basis():
    out = apply(collecting_unbounded_entry(), e(3))
    assert out.to_sparse() == e(0).scale(3) + e(3).scale(9)


def test_apply_squared_diagonal_kills_e0():
    assert apply(squared_diagonal(), e(0)).to_sparse() == SparseVector()


def test_apply_adjoint_rejects_forbidden_coordinate():
    adj = formal_adjoint_op(collecting_unbounded_entry())
    with pytest.raises(NotInDomain):
        apply(adj, e(0))


def test_apply_adjoint_keeps_l2_tail_symbolic():
    op = StructuredOperator(RationalWeight.constant(0),
                            sources=((0, RationalWeight.ratio([1], [1, 1])),))
    out = apply(op, e(0))
    assert not out.is_sparse and out.is_ell2
    assert out.coordinate(3) == Fraction(1, 4)


def test_apply_coordinate_matches_apply():
    op = collecting_unbounded_entry()
    f = FiniteSupport(e(1).scale(2) + e(4))
    full = apply(op, f)
    for k in range(8):
        assert apply_coordinate(op, f, k) == full.coordinate(k)


def _reference_apply(op, sv):
    """The image written out term by term, canonicalised by the public
    SparseVector constructor."""
    entries = [(k, op.diag.eval(k) * v) for k, v in sv.entries]
    entries += [(j, sum(w.eval(k) * v for k, v in sv.entries)) for j, w in op.sinks]
    tails = tuple((w, sv.get(j)) for j, w in op.sources)
    return AppliedVector(SparseVector(tuple(entries)), tails)


def test_apply_drops_a_diagonal_that_vanishes_on_the_support():
    op = StructuredOperator.diagonal(RationalWeight.poly(0, -3, 1))  # k(k - 3)
    sv = SparseVector(((0, 5), (1, Fraction(1, 2)), (3, -7), (5, 2)))
    out = apply(op, sv)
    assert out.finite.entries == ((1, -1), (5, 20))
    assert out.tails == ()
    assert out == _reference_apply(op, sv)
    assert oracles.is_canonical(out.finite)


def test_apply_sinks_landing_on_support_coordinates():
    op = StructuredOperator(RationalWeight.poly(1, 1),
                            sinks=((0, W_LIN), (3, RationalWeight.constant(-1))))
    sv = SparseVector(((0, 2), (3, Fraction(1, 3)), (4, -1)))
    out = apply(op, sv)
    # coordinate 0: 1 * 2 + (3 * 1/3 + 4 * -1); coordinate 3: 4 * 1/3 - (2 + 1/3 - 1)
    assert out.finite == SparseVector(((0, -1), (3, 0), (4, -5)))
    assert out == _reference_apply(op, sv)
    assert oracles.is_canonical(out.finite)


def test_apply_sources_become_tails():
    w = RationalWeight.ratio([1], [1, 1])
    op = StructuredOperator(W_LIN, sources=((2, w), (7, W_SQ)))
    sv = SparseVector(((1, 3), (2, Fraction(-1, 2))))
    out = apply(op, sv)
    assert out.finite == SparseVector(((1, 3), (2, -1)))
    assert out.tails == ((w, Fraction(-1, 2)),)
    assert out == _reference_apply(op, sv)


def test_apply_zero_operator_gives_the_empty_image():
    sv = SparseVector(((0, 1), (4, Fraction(2, 3))))
    out = apply(StructuredOperator.zero(), sv)
    assert out.finite.entries == () and out.tails == ()
    assert out == _reference_apply(StructuredOperator.zero(), sv)


APPLY_OPS = [*gallery_ops(),
             StructuredOperator.diagonal(RationalWeight.poly(0, -3, 1)),
             StructuredOperator(RationalWeight.poly(1, 1),
                                sinks=((0, W_LIN), (3, RationalWeight.constant(-1)))),
             StructuredOperator(RationalWeight.constant(0), sinks=((2, W_SQ),),
                                sources=((1, RationalWeight.ratio([1], [1, 1])),))]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(APPLY_OPS),
       st.lists(st.tuples(st.integers(0, 6),
                          st.one_of(st.integers(-4, 4),
                                    st.fractions(-4, 4, max_denominator=5))),
                max_size=6))
def test_apply_equals_the_reference_image(op, raw):
    sv = SparseVector(tuple(raw))
    if member(FiniteSupport(sv), domain_of(op)) is not Verdict.YES:
        with pytest.raises(NotInDomain):
            apply(op, sv)
        return
    out = apply(op, sv)
    assert out == _reference_apply(op, sv)
    assert oracles.is_canonical(out.finite)


# --- formal adjoint ---------------------------------------------------------------

def test_formal_adjoint_swaps_sink_to_source():
    adj = formal_adjoint_op(collecting_unbounded_entry())
    assert adj.sinks == ()
    assert adj.sources == ((0, W_LIN),)
    assert adj.diag == W_SQ


def test_formal_adjoint_of_diagonal_is_itself():
    d = shifted_diagonal()
    assert formal_adjoint_op(d).diag == d.diag
    assert formal_adjoint_op(d).is_diagonal


def test_formal_adjoint_is_involutive():
    for op in gallery_ops():
        assert formal_adjoint_op(formal_adjoint_op(op)) == op


# --- domains -----------------------------------------------------------------------

def test_domain_of_squared_diagonal():
    assert domain_of(squared_diagonal()) == DomainDescriptor([WeightedL2(W_SQ)])


def test_domain_of_collecting_entry():
    assert domain_of(collecting_unbounded_entry()) == DomainDescriptor(
        [WeightedL2(W_SQ), SeriesConverges(W_LIN)])


def test_domain_of_adjoint_is_residual():
    adj = formal_adjoint_op(collecting_unbounded_entry())
    assert domain_of(adj) == DomainDescriptor([ResidualL2(W_SQ, ((0, W_LIN),))])


def test_domain_admits_finite_vectors_avoiding_bad_sources():
    for op in gallery_ops():
        d = domain_of(op)
        banned = excluded_coordinates(d)
        candidates = [k for k in range(6) if k not in banned]
        v = SparseVector(tuple((k, Fraction(1, k + 1)) for k in candidates))
        assert member(FiniteSupport(v), d) is Verdict.YES


# --- truncation -------------------------------------------------------------------

def test_truncation_of_collecting_entry():
    got = truncation_matrix(collecting_unbounded_entry(), Truncation(3))
    assert got.tolist() == [[0, 1, 2], [0, 1, 0], [0, 0, 4]]


def test_truncation_of_squared_diagonal():
    got = truncation_matrix(squared_diagonal(), Truncation(3))
    assert got.tolist() == [[0, 0, 0], [0, 1, 0], [0, 0, 4]]


def test_truncation_of_adjoint_is_transpose():
    got = truncation_matrix(formal_adjoint_op(collecting_unbounded_entry()),
                            Truncation(3))
    want = truncation_matrix(collecting_unbounded_entry(), Truncation(3)).T
    assert (got == want).all()


@pytest.mark.parametrize("n", [1, 4, 64, 256])
def test_compression_adjoint_compatibility(n):
    t = Truncation(n)
    for op in gallery_ops():
        a = truncation_matrix(op, t)
        b = truncation_matrix(formal_adjoint_op(op), t)
        assert (b == a.T).all()


def test_dense_views_equal_their_entry_maps():
    n = 5
    t = Truncation(n)
    views = [(truncation_matrix(op, t), compression(op, n)) for op in gallery_ops()]
    mat = _case_ii_matrix()
    views.append((mat.truncation(t), mat.compression(n)))
    pair = GridDerivativePair(n)
    views += [(pair.d0_matrix(), pair.d0_entries()), (pair.d1_matrix(), pair.d1_entries())]
    for dense, entries in views:
        assert dense.dtype == object
        assert all(type(x) is Fraction for x in dense.flat)
        assert all(v != 0 for v in entries.values())
        nonzero = {(i, j): dense[i, j] for i, j in np.ndindex(*dense.shape)
                   if dense[i, j] != 0}
        assert nonzero == entries
        assert all(dense.T[j, i] == v for (i, j), v in entries.items())
        assert dense.astype(float).tolist() == [[float(x) for x in row]
                                                for row in dense.tolist()]


# --- boundedness -------------------------------------------------------------------

def test_bounded_inverse_diagonal():
    op = StructuredOperator.diagonal(RationalWeight.ratio([1], [1, 1]))
    assert is_bounded(op) is Verdict.YES


def test_unbounded_collecting_entry():
    assert is_bounded(collecting_unbounded_entry()) is Verdict.NO


def test_zero_operator_is_bounded():
    assert is_bounded(StructuredOperator.zero()) is Verdict.YES


def test_sink_with_l2_weight_is_bounded():
    op = StructuredOperator(RationalWeight.constant(1),
                            sinks=((0, RationalWeight.ratio([1], [1, 1])),))
    assert is_bounded(op) is Verdict.YES


def test_summing_functional_is_unbounded():
    assert is_bounded(summing_functional()) is Verdict.NO


# --- pairing exactness ---------------------------------------------------------------

scalars = st.fractions(min_value=-9, max_value=9)


def _admissible(op, rng_entries):
    banned = excluded_coordinates(domain_of(op))
    return SparseVector(tuple((k, v) for k, v in rng_entries if k not in banned))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 15), scalars), max_size=5),
       st.lists(st.tuples(st.integers(0, 15), scalars), max_size=5),
       st.sampled_from(range(9)))
def test_pairing_exactness(raw_f, raw_g, op_index):
    op = gallery_ops()[op_index]
    adj = formal_adjoint_op(op)
    f = _admissible(op, raw_f)
    g = _admissible(adj, raw_g)
    lhs = apply(op, f).inner_sparse(g)
    rhs = apply(adj, g).inner_sparse(f)
    assert lhs == rhs


def test_operator_arithmetic_merges_anchors():
    a = collecting_unbounded_entry()
    b = StructuredOperator(RationalWeight.constant(0), sinks=((0, W_LIN),))
    diff = a - b
    assert diff.sinks == ()
    assert diff.diag == W_SQ


def test_operator_json_round_trip():
    for op in gallery_ops():
        assert operator_from_json(operator_to_json(op)) == op


def test_operator_json_zero_literal():
    assert operator_from_json("zero").is_zero_op
