import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from opmx.domains import (
    All,
    CoordinateZero,
    DomainDescriptor,
    RationalWeight,
    ResidualL2,
    _has_nonneg_integer_root,
    SeriesConverges,
    Verdict,
    WeightedL2,
    admits_all_finitely_supported,
    atom_verdict,
    conjunction,
    excluded_coordinates,
    forced_coordinates,
    intersect,
    member,
)
from opmx.gallery import family_corpus
from opmx.seqspace import (
    ALTERNATING,
    FiniteSupport,
    PowerLaw,
    Scaled,
    SparseVector,
    Sum,
    eval_family,
    unit_family,
)
from opmx.verify import _random_sparse

import oracles

W_SQ = RationalWeight.poly(0, 0, 1)     # k^2
W_LIN = RationalWeight.poly(0, 1)       # k
W_SHIFT = RationalWeight.poly(1, 1)     # k + 1
W_ONE = RationalWeight.constant(1)

D_DIAG_SQ = DomainDescriptor([WeightedL2(W_SQ)])
D_COLLECT = DomainDescriptor([WeightedL2(W_SQ), SeriesConverges(W_LIN)])
D_COLLECT_ADJ = DomainDescriptor([ResidualL2(W_SQ, ((0, W_LIN),))])


# --- weights ---------------------------------------------------------------

def test_denominator_vanishing_at_integer_rejected():
    with pytest.raises(ValueError):
        RationalWeight.ratio([1], [-2, 1])  # k - 2 vanishes at k = 2


def test_denominator_shifted_is_fine():
    w = RationalWeight.ratio([1], [1, 1])  # 1 / (k + 1)
    assert w.eval(3) == Fraction(1, 4)
    assert w.degree == -1 and w.is_ell2


def test_weight_degree_and_classes():
    assert W_SQ.degree == 2 and not W_SQ.is_ell2
    assert W_ONE.degree == 0 and W_ONE.is_bounded_seq and not W_ONE.is_ell2
    assert RationalWeight.constant(0).is_zero


def test_weight_arithmetic_and_rational_equality():
    w = RationalWeight.ratio([0, 1, 1], [1, 1])  # (k + k^2) / (k + 1) == k
    assert w.same_rational(W_LIN)
    assert (W_SQ - W_SQ).is_zero
    assert (W_LIN * W_LIN).same_rational(W_SQ)


def test_weight_json_round_trip():
    w = RationalWeight.ratio([Fraction(1, 2), 1], [1, 0, 1])
    assert RationalWeight.from_json(w.to_json()) == w


# --- weights in integer arithmetic ---------------------------------------------

RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def _rational_value(coeffs, k: int) -> Fraction:
    return sum((Fraction(c) * k ** i for i, c in enumerate(coeffs)), Fraction(0))


@settings(deadline=None)
@given(num=st.lists(RATIONALS, max_size=4), den=st.lists(RATIONALS, min_size=1, max_size=3),
       k=st.integers(0, 10**4))
def test_eval_matches_rational_arithmetic(num, den, k):
    try:
        w = RationalWeight(tuple(num), tuple(den))
    except ValueError:
        assume(False)
    assert w.eval(k) == _rational_value(num, k) / _rational_value(den, k)


@settings(deadline=None)
@given(num=st.lists(st.integers(-10**6, 10**6), max_size=5), k=st.integers(0, 10**4))
def test_eval_of_integer_polynomial_is_an_int(num, k):
    value = RationalWeight.poly(*num).eval(k)
    assert type(value) is int
    assert value == _rational_value(num, k)


def test_eval_types_match_the_weight_class():
    assert type(RationalWeight.poly(Fraction(1, 2), 1).eval(3)) is Fraction
    assert type(RationalWeight.ratio([1], [1, 1]).eval(3)) is Fraction
    assert type(RationalWeight.constant(0).eval(3)) is int


def _sympy_has_nonneg_integer_root(coeffs) -> bool:
    sympy = pytest.importorskip("sympy")
    if not any(coeffs):
        return True
    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed(coeffs)), x)
    if poly.degree() == 0:
        return False
    return any(r.is_integer and r >= 0 for r in sympy.real_roots(poly))


@st.composite
def integer_polys(draw):
    """Random integer polynomials, half of them built from chosen roots."""
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-30, 30), max_size=6))
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return tuple(coeffs)
    coeffs = [draw(st.integers(1, 5)) * draw(st.sampled_from([1, -1]))]
    for _ in range(draw(st.integers(1, 4))):
        p, q = draw(st.integers(-40, 40)), draw(st.integers(1, 3))
        # multiply by (q k - p): a root p/q, an integer when q divides p
        coeffs = [a - b for a, b in zip([0] + [q * c for c in coeffs],
                                        [p * c for c in coeffs] + [0])]
    return tuple(coeffs)


@settings(deadline=None, max_examples=150)
@given(coeffs=integer_polys())
def test_root_test_agrees_with_sympy(coeffs):
    assert _has_nonneg_integer_root(coeffs) == _sympy_has_nonneg_integer_root(coeffs)


@pytest.mark.parametrize("coeffs, expected", [
    ((10**9, 1), False),                              # k + 10^9
    ((-10**9, 1), True),                              # k - 10^9
    ((2 * 10**9 + 1, -2), False),                     # root 10^9 + 1/2
    ((-10**18, 0, 1), True),                          # k^2 - 10^18
    ((-(10**18 + 1), 0, 1), False),                   # k^2 - 10^18 - 1
    ((-10**400, 1, 0, 1), False),                     # k^3 + k - 10^400
    ((10**400, -(10**400 + 1), 1), True),             # (k - 1)(k - 10^400)
    ((9, -6, 1), True),                               # (k - 3)^2
    ((-7, 0, 0, 0, 0, 1), False),                     # k^5 - 7
])
def test_root_test_is_exact_and_fast_on_large_coefficients(coeffs, expected):
    start = time.perf_counter()
    assert _has_nonneg_integer_root(coeffs) is expected
    assert time.perf_counter() - start < 0.5


# --- descriptors ------------------------------------------------------------

def test_intersect_unit_law():
    assert intersect(DomainDescriptor([All()]), D_DIAG_SQ) == D_DIAG_SQ


def test_intersect_of_entry_domains():
    assert intersect(D_DIAG_SQ, D_COLLECT) == D_COLLECT


def test_intersect_idempotent():
    assert intersect(D_COLLECT, D_COLLECT) == D_COLLECT


def test_descriptor_equality_ignores_order():
    d1 = DomainDescriptor([WeightedL2(W_SQ), SeriesConverges(W_LIN)])
    d2 = DomainDescriptor([SeriesConverges(W_LIN), WeightedL2(W_SQ)])
    assert d1 == d2 and hash(d1) == hash(d2)


def test_bounded_weight_normalizes_away():
    assert DomainDescriptor([WeightedL2(W_ONE)]).is_all
    assert DomainDescriptor([SeriesConverges(RationalWeight.ratio([1], [1, 1]))]).is_all


def test_residual_with_bounded_diagonal_becomes_coordinate_conditions():
    d = DomainDescriptor([ResidualL2(RationalWeight.constant(0), ((0, W_ONE),))])
    assert d.atoms == (CoordinateZero(0),)


def test_residual_without_sources_is_weighted():
    d = DomainDescriptor([ResidualL2(W_SQ, ())])
    assert d == D_DIAG_SQ


def test_descriptor_json_round_trip():
    assert DomainDescriptor.from_json(D_COLLECT_ADJ.to_json()) == D_COLLECT_ADJ


# --- membership: frozen examples ----------------------------------------------

def test_member_powerlaw3_in_weighted_square():
    assert member(PowerLaw(Fraction(3)), D_DIAG_SQ) is Verdict.YES


def test_member_powerlaw2_not_in_weighted_square():
    assert member(PowerLaw(Fraction(2)), D_DIAG_SQ) is Verdict.NO


def test_member_alternating_series_condition():
    d = DomainDescriptor([SeriesConverges(W_LIN)])
    assert member(PowerLaw(1.5, ALTERNATING), d) is Verdict.YES
    assert member(PowerLaw(1.5), d) is Verdict.NO


def test_member_harmonic_not_in_shifted_diagonal_domain():
    d = DomainDescriptor([WeightedL2(W_SHIFT)])
    assert member(PowerLaw(Fraction(1)), d) is Verdict.NO


def test_member_finite_support_always_admitted_by_weighted_atoms():
    assert member(unit_family(7), D_COLLECT) is Verdict.YES


def test_member_residual_rejects_bad_source_coordinate():
    assert member(unit_family(0), D_COLLECT_ADJ) is Verdict.NO
    assert member(unit_family(1), D_COLLECT_ADJ) is Verdict.YES


def test_member_ambient_l2_is_required():
    assert member(PowerLaw(Fraction(1, 2)), DomainDescriptor.all()) is Verdict.NO
    assert member(PowerLaw(Fraction(1)), DomainDescriptor.all()) is Verdict.YES


def test_member_scaled_by_zero_is_everywhere():
    assert member(Scaled(0, PowerLaw(Fraction(1, 2))), D_COLLECT) is Verdict.YES


def test_member_mixed_sum_is_unknown_only_when_undecidable():
    two_bad = Sum((PowerLaw(Fraction(2)), Scaled(-1, PowerLaw(Fraction(2)))))
    assert member(two_bad, D_DIAG_SQ) is Verdict.UNKNOWN
    one_bad = Sum((unit_family(1), PowerLaw(Fraction(2))))
    assert member(one_bad, D_DIAG_SQ) is Verdict.NO
    all_good = Sum((unit_family(1), PowerLaw(Fraction(3))))
    assert member(all_good, D_DIAG_SQ) is Verdict.YES


# --- membership vs the partial-sum oracle ---------------------------------------

GRID = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2),
        Fraction(5, 2), Fraction(3), Fraction(4)]


def _oracle_weighted(w, p) -> bool:
    k = np.arange(0.0, float(oracles.NMAX))
    terms = (oracles.weight_values(w, k) * oracles.powerlaw_values(p, k)) ** 2
    return oracles.nonneg_series_converges(terms)


def _oracle_ambient(p) -> bool:
    k = np.arange(0.0, float(oracles.NMAX))
    return oracles.nonneg_series_converges(oracles.powerlaw_values(p, k) ** 2)


@pytest.mark.parametrize("p", GRID)
@pytest.mark.parametrize("w", [W_SQ, W_SHIFT, W_ONE], ids=["k2", "k+1", "1"])
def test_weighted_rule_matches_oracle(w, p):
    got = member(PowerLaw(p), DomainDescriptor([WeightedL2(w)]))
    want = _oracle_ambient(p) and _oracle_weighted(w, p)
    assert got is (Verdict.YES if want else Verdict.NO)


@pytest.mark.parametrize("p", GRID)
@pytest.mark.parametrize("w", [W_LIN, W_ONE], ids=["k", "1"])
def test_series_rule_matches_oracle_all_plus(w, p):
    got = member(PowerLaw(p), DomainDescriptor([SeriesConverges(w)]))
    k = np.arange(0.0, float(oracles.NMAX))
    terms = np.abs(oracles.weight_values(w, k)) * oracles.powerlaw_values(p, k)
    want = _oracle_ambient(p) and oracles.nonneg_series_converges(terms)
    assert got is (Verdict.YES if want else Verdict.NO)


@pytest.mark.parametrize("p", GRID)
@pytest.mark.parametrize("w", [W_LIN, W_ONE], ids=["k", "1"])
def test_series_rule_matches_oracle_alternating(w, p):
    got = member(PowerLaw(p, ALTERNATING), DomainDescriptor([SeriesConverges(w)]))
    k = np.arange(0.0, float(oracles.NMAX))
    mags = np.abs(oracles.weight_values(w, k)) * oracles.powerlaw_values(p, k)
    want = _oracle_ambient(p) and oracles.alternating_series_converges(mags)
    assert got is (Verdict.YES if want else Verdict.NO)


@pytest.mark.parametrize("p", GRID)
def test_residual_rule_matches_oracle(p):
    got = member(PowerLaw(p), D_COLLECT_ADJ)
    k = np.arange(0.0, float(oracles.NMAX))
    gamma0 = float(eval_family(PowerLaw(p), 0))
    residual = (oracles.weight_values(W_SQ, k) * oracles.powerlaw_values(p, k)
                + oracles.weight_values(W_LIN, k) * gamma0)
    want = _oracle_ambient(p) and oracles.nonneg_series_converges(residual ** 2)
    assert got is (Verdict.YES if want else Verdict.NO)


# --- forced coordinates -----------------------------------------------------------

def test_forced_on_adjoint_intersection():
    d = intersect(D_DIAG_SQ, D_COLLECT_ADJ)
    assert forced_coordinates(d) == frozenset({0})


def test_forced_nothing_for_pure_weights():
    assert forced_coordinates(D_DIAG_SQ) == frozenset()


def test_forced_coordinate_zero_atom():
    assert forced_coordinates(DomainDescriptor([CoordinateZero(3)])) == frozenset({3})


def test_forced_by_pairwise_difference():
    d = DomainDescriptor([ResidualL2(W_SQ, ((0, W_LIN),)),
                          ResidualL2(W_SQ, ((0, W_LIN + W_LIN), (1, RationalWeight.ratio([1], [1, 1]))))])
    assert forced_coordinates(d) == frozenset({0})


def test_forced_alone_residual_forces_nothing():
    # Without an independent bound on the diagonal part the source column
    # cannot be isolated.
    assert forced_coordinates(D_COLLECT_ADJ) == frozenset()


def test_forced_soundness_over_corpus():
    descriptors = [intersect(D_DIAG_SQ, D_COLLECT_ADJ),
                   DomainDescriptor([CoordinateZero(2)]),
                   DomainDescriptor([ResidualL2(RationalWeight.constant(0),
                                                ((1, W_ONE),))])]
    for d in descriptors:
        for j in forced_coordinates(d):
            for f in family_corpus():
                if member(f, d) is Verdict.YES:
                    assert eval_family(f, j) == 0


def test_membership_monotone_under_intersection():
    descriptors = [D_DIAG_SQ, D_COLLECT, D_COLLECT_ADJ,
                   DomainDescriptor([CoordinateZero(0)]), DomainDescriptor.all()]
    for d1 in descriptors:
        for d2 in descriptors:
            both = intersect(d1, d2)
            for f in family_corpus():
                if member(f, both) is Verdict.YES:
                    assert member(f, d1) is Verdict.YES
                    assert member(f, d2) is Verdict.YES


def test_admits_all_finitely_supported():
    assert admits_all_finitely_supported(D_COLLECT)
    assert not admits_all_finitely_supported(D_COLLECT_ADJ)
    assert admits_all_finitely_supported(DomainDescriptor.all())


def test_excluded_coordinates():
    assert excluded_coordinates(D_COLLECT_ADJ) == frozenset({0})
    assert excluded_coordinates(D_COLLECT) == frozenset()


# --- finitely supported membership: one rule -----------------------------------

WEIGHT_POOL = [
    RationalWeight.constant(0),
    RationalWeight.ratio([1], [1, 1]),             # 1 / (k + 1): l2
    RationalWeight.ratio([0, 1], [2, 3, 1]),       # k / ((k + 1)(k + 2)): l2
    RationalWeight.ratio([1], [1, 2, 1]),          # 1 / (k + 1)^2: l2
    W_ONE,                                         # bounded, not l2
    RationalWeight.ratio([2, 1], [1, 1]),          # (k + 2) / (k + 1): bounded
    W_LIN, W_SHIFT, W_SQ,                          # unbounded
    RationalWeight.poly(1, 0, 2),
]
weights = st.builds(lambda w, c: w.scale(c), st.sampled_from(WEIGHT_POOL),
                    st.sampled_from([1, -1, 2, Fraction(1, 3)]))
coords = st.integers(0, 7)
atoms = st.one_of(
    st.builds(WeightedL2, weights),
    st.builds(SeriesConverges, weights),
    st.builds(CoordinateZero, coords),
    st.builds(lambda diag, sources: ResidualL2(diag, tuple(sources.items())),
              weights, st.dictionaries(coords, weights, max_size=3)),
)
descriptors = st.builds(DomainDescriptor, st.lists(atoms, max_size=5))
sparse_families = st.builds(
    lambda entries: FiniteSupport(SparseVector(tuple(entries))),
    st.lists(st.tuples(st.integers(0, 9),
                       st.fractions(min_value=-3, max_value=3, max_denominator=5)),
             max_size=4))


@settings(deadline=None, max_examples=200)
@given(d=descriptors, f=sparse_families)
def test_finite_support_member_matches_the_per_atom_verdicts(d, f):
    assert member(f, d) is conjunction(atom_verdict(f, a) for a in d.atoms)


@settings(deadline=None, max_examples=200)
@given(d=descriptors)
def test_forced_coordinates_are_excluded(d):
    assert forced_coordinates(d) <= excluded_coordinates(d)


@settings(deadline=None, max_examples=200)
@given(d=descriptors)
def test_admits_all_finitely_supported_iff_nothing_is_excluded(d):
    assert admits_all_finitely_supported(d) == (not excluded_coordinates(d))


@settings(deadline=None, max_examples=100)
@given(d=descriptors, seed=st.integers(0, 2**32 - 1))
def test_draws_avoiding_the_excluded_set_are_members(d, seed):
    rng = random.Random(seed)
    for _ in range(5):
        f = FiniteSupport(_random_sparse(rng, excluded_coordinates(d), max_index=9))
        assert member(f, d) is Verdict.YES
        assert conjunction(atom_verdict(f, a) for a in d.atoms) is Verdict.YES
