from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from opmx.seqspace import (
    ALTERNATING,
    FiniteSupport,
    PowerLaw,
    Scaled,
    SparseVector,
    Sum,
    Truncation,
    eval_family,
    family_from_json,
    family_to_json,
    inner,
    norm,
    norm_squared,
    truncate_family,
    unit_family,
)

import oracles

e = SparseVector.unit


def test_inner_orthonormal_basis():
    assert inner(e(0) + e(5).scale(2), e(5)) == 2


def test_inner_orthogonality():
    assert inner(e(3), e(4)) == 0


def test_inner_with_expanded_image():
    # 3 e_0 + 9 e_3 is the image of e_3 under the collecting entry.
    assert inner(e(0).scale(3) + e(3).scale(9), e(0)) == 3


def test_norm_of_scaled_basis_vector():
    u = e(10).scale(Fraction(1, 10))
    assert norm_squared(u) == Fraction(1, 100)
    assert norm(u) == pytest.approx(0.1)


def test_norm_zero_vector():
    assert norm(SparseVector()) == 0.0
    assert SparseVector().is_zero


def test_norm_pythagorean():
    assert norm(e(1).scale(3) + e(2).scale(4)) == pytest.approx(5.0)


def test_canonicalization_merges_and_drops():
    v = SparseVector(((2, 1), (0, 3), (2, -1)))
    assert v.entries == ((0, 3),)


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        SparseVector(((-1, 2),))


def test_eval_powerlaw_is_exact_fraction():
    assert eval_family(PowerLaw(1), 4) == Fraction(1, 5)
    assert float(eval_family(PowerLaw(1), 4)) == pytest.approx(0.2)


def test_eval_finite_support_outside_support():
    assert eval_family(unit_family(2), 3) == 0


def test_eval_alternating_sign_convention():
    f = PowerLaw(2, ALTERNATING)
    assert eval_family(f, 0) == 1
    assert eval_family(f, 1) == Fraction(-1, 4)
    assert eval_family(f, 2) == Fraction(1, 9)


def test_eval_non_integer_exponent_is_float():
    value = eval_family(PowerLaw(1.5), 3)
    assert value == pytest.approx(4 ** -1.5)


def test_truncate_drops_support_above_cut():
    assert truncate_family(unit_family(5), Truncation(3)) == SparseVector()


def test_truncate_powerlaw():
    assert truncate_family(PowerLaw(1), Truncation(2)) == SparseVector(
        ((0, 1), (1, Fraction(1, 2))))


def test_truncate_canonicalizes_sums():
    f = Sum((unit_family(0), Scaled(2, unit_family(0))))
    assert truncate_family(f, Truncation(4)) == e(0).scale(3)


def test_truncation_size_must_be_positive():
    with pytest.raises(ValueError):
        Truncation(0)


scalars = st.fractions(min_value=-100, max_value=100)
vectors = st.lists(st.tuples(st.integers(0, 40), scalars), max_size=8).map(
    lambda entries: SparseVector(tuple(entries)))


@given(vectors, vectors)
def test_cauchy_schwarz_exact(u, v):
    assert inner(u, v) ** 2 <= norm_squared(u) * norm_squared(v)


@given(vectors, st.integers(1, 30))
def test_truncation_is_a_projection(u, n):
    t = Truncation(n)
    once = truncate_family(FiniteSupport(u), t)
    assert truncate_family(FiniteSupport(once), t) == once


@given(st.integers(1, 20))
def test_truncate_then_pair_recovers_eval(n):
    f = Sum((PowerLaw(2), unit_family(1)))
    sv = truncate_family(f, Truncation(n))
    for k in range(n):
        assert inner(sv, e(k)) == eval_family(f, k)


def test_scaled_by_zero_collapses_to_zero():
    f = Scaled(0, PowerLaw(1))
    assert f.collapse() == SparseVector()
    assert f.is_structurally_zero


def test_family_json_round_trip():
    f = Sum((Scaled(Fraction(2, 3), PowerLaw(Fraction(3, 2))), unit_family(2)))
    assert family_from_json(family_to_json(f)) == f


def test_family_json_rational_scalars_survive():
    f = FiniteSupport(SparseVector(((1, Fraction(1, 3)),)))
    encoded = family_to_json(f)
    assert encoded["entries"] == [[1, "1/3"]]
    assert family_from_json(encoded) == f


# --- canonical by construction ------------------------------------------------

kernel_scalars = st.one_of(st.integers(-5, 5),
                           st.fractions(-5, 5, max_denominator=6),
                           st.floats(-5, 5, allow_nan=False))
raw_entries = st.lists(st.tuples(st.integers(0, 8), kernel_scalars), max_size=10)


@st.composite
def vector_pairs(draw):
    """Two vectors with shared indices, v cancelling some of u's entries."""
    u = SparseVector(tuple(draw(raw_entries)))
    cancel = draw(st.lists(st.sampled_from(u.entries), unique=True)) if u.entries else []
    v = SparseVector(tuple((k, -x) for k, x in cancel) + tuple(draw(raw_entries)))
    return u, v


@given(vector_pairs())
def test_arithmetic_equals_the_public_constructor(pair):
    u, v = pair
    negated = tuple((k, -x) for k, x in v.entries)
    for got, want in ((u + v, SparseVector(u.entries + v.entries)),
                      (u - v, SparseVector(u.entries + negated)),
                      (-v, SparseVector(negated))):
        assert got == want
        assert oracles.is_canonical(got)


@given(vector_pairs())
def test_cancelling_sum_is_canonical(pair):
    u, _ = pair
    assert (u - u).entries == ()
    assert (u + (-u)).is_zero


@given(st.integers(0, 10**6))
def test_unit_equals_the_public_constructor(k):
    assert e(k) == SparseVector(((k, 1),))
    assert oracles.is_canonical(e(k))


def test_unit_rejects_a_negative_index():
    with pytest.raises(ValueError):
        e(-1)
