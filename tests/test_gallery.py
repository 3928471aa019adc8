import random
from dataclasses import replace
from fractions import Fraction

import pytest

from opmx import gallery
from opmx.errors import InvalidDefinition, UnknownCase
from opmx.gallery import (
    CASE_NAMES,
    GridDerivativePair,
    RunParams,
    _random_grid_vector,
    _run_case_iii,
    build_case,
    family_corpus,
    list_cases,
)
from opmx.seqspace import Truncation

SMALL = RunParams(truncations=(8,), samples=40, witness_nmax=2000)


def test_list_cases_has_seven_entries():
    assert len(list_cases()) == 7
    assert [name for name, _, _ in list_cases()] == list(CASE_NAMES)


def test_list_cases_labels_the_taxonomy():
    labels = dict((name, claim) for name, claim, _ in list_cases())
    assert labels["case_I"] == "I: A is not closable"
    assert "not densely defined" in labels["case_II"]
    assert labels["case_III_discrete"].startswith("III")
    assert labels["case_IV"].startswith("IV")


def test_unknown_case_raises():
    with pytest.raises(UnknownCase):
        build_case("case_V")


@pytest.mark.parametrize("name", CASE_NAMES)
def test_every_case_reproduces_expected_verdicts(name):
    case = build_case(name)
    reports = case.run(SMALL)
    assert reports, "case produced no reports"
    for report in reports:
        assert report.match, (name, report.check, report.verdict, report.expected,
                              report.certificate)


@pytest.mark.parametrize("name", CASE_NAMES)
def test_verdict_table_covers_exactly_the_checks_a_case_reports(name):
    table = dict((case, expected) for case, _, expected in list_cases())[name]
    reports = build_case(name).run(RunParams(truncations=(4, 6), samples=5,
                                             witness_nmax=2))
    assert {r.check.split("@", 1)[0] for r in reports} == {check for check, _ in table}


@pytest.mark.parametrize("name", ["e1_row", "case_II"])
def test_denseness_forcing_another_coordinate_does_not_match(name):
    case = build_case(name)

    def runner(params):
        reports = case.runner(params)
        for r in reports:
            if "denseness" in r.check:
                assert r.certificate["forced"] == {0}
                r.certificate["forced"] = frozenset({1})
        return reports

    reports = replace(case, runner=runner).run(SMALL)
    denseness = [r for r in reports if "denseness" in r.check]
    assert len(denseness) == 1
    assert denseness[0].verdict == denseness[0].expected == "fail"
    assert denseness[0].match is False
    assert all(r.match for r in reports if r is not denseness[0])


def test_case_iii_accepts_sized_name():
    case = build_case("case_III_discrete(8)")
    reports = case.run(SMALL)
    assert any(r.check.endswith("@8") for r in reports)
    assert all(r.match for r in reports)
    assert GridDerivativePair(8).h == Fraction(1, 9)


@pytest.mark.parametrize("n", [2, 8, 64])
def test_grid_transpose_identity_exact(n):
    pair = GridDerivativePair(n)
    assert ((pair.d0_matrix().T + pair.d1_matrix()) == Fraction(0)).all()


def test_grid_matrix_free_matches_matrices():
    pair = GridDerivativePair(5)
    rng = random.Random(0)
    vec = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(5)]
    d0 = pair.d0_matrix()
    want = [sum(d0[i, j] * vec[j] for j in range(5)) for i in range(5)]
    assert pair.apply_d0(vec) == want
    d1t = pair.d1_matrix().T
    want_t = [sum(d1t[i, j] * vec[j] for j in range(5)) for i in range(5)]
    assert pair.apply_d1_t(vec) == want_t


def _fraction_draws(rng, n):
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]


@pytest.mark.parametrize("seed", [0, 1, 42, 2024])
def test_integer_grid_draws_are_the_fraction_draws_over_2520(seed):
    rng, ref = random.Random(seed), random.Random(seed)
    for n in (1, 7, 64):
        assert [Fraction(x, 2520) for x in _random_grid_vector(rng, n)] == \
            _fraction_draws(ref, n)
    assert rng.random() == ref.random()


@pytest.mark.parametrize("n", [1, 2, 9, 64])
def test_grid_block_maps_on_integers_are_2520_times_the_fraction_maps(n):
    pair = GridDerivativePair(n)
    rng = random.Random(n)
    ints = [_random_grid_vector(rng, n) for _ in range(2)]
    fracs = [[Fraction(x, 2520) for x in vec] for vec in ints]
    for method in (pair.block_apply, pair.block_apply_t):
        got, want = method(*ints), method(*fracs)
        for got_row, want_row in zip(got, want):
            assert all(type(x) is int for x in got_row)
            assert got_row == [2520 * x for x in want_row]


class _SkewedGridPair(GridDerivativePair):
    """d1^T with one wrong entry: row n-1 also picks up vec[0]."""

    def apply_d1_t(self, vec):
        out = super().apply_d1_t(vec)
        out[-1] += vec[0]
        return out


def test_grid_pairing_failure_residual_matches_a_fraction_replay(monkeypatch):
    n, seed = 6, 11
    monkeypatch.setattr(gallery, "GridDerivativePair", _SkewedGridPair)
    reports = _run_case_iii(RunParams(truncations=(n,), samples=30, seed=seed))
    pairing = next(r for r in reports if r.check == f"pairing@{n}")
    assert pairing.verdict == "fail"

    # The same stream, drawn as Fractions: 50 second-row vectors, then pairs.
    rng, pair = random.Random(seed), _SkewedGridPair(n)
    dot = lambda x, y: sum((p * q for p, q in zip(x, y)), Fraction(0))
    for _ in range(50):
        _fraction_draws(rng, n)
    for _ in range(30):
        f, g, u, v = (_fraction_draws(rng, n) for _ in range(4))
        a1, a2 = pair.block_apply(f, g)
        b1, b2 = pair.block_apply_t(u, v)
        residual = (dot(a1, u) + dot(a2, v)) - (dot(f, b1) + dot(g, b2))
        if residual:
            break
    assert residual != 0
    assert pairing.certificate["residual"] == residual
    assert type(pairing.certificate["residual"]) is Fraction


def test_grid_size_below_one_is_rejected():
    with pytest.raises(ValueError):
        GridDerivativePair(0)
    with pytest.raises(InvalidDefinition):
        build_case("case_III_discrete(0)")


def test_case_iv_truncation_transpose_identity():
    from opmx.calculus import matrix_formal_adjoint
    from opmx.gallery import _case_iv_matrix

    mat = _case_iv_matrix()
    adj = matrix_formal_adjoint(mat)
    for n in (2, 8, 64):
        t = Truncation(n)
        assert (adj.truncation(t) == mat.truncation(t).T).all()


def test_exports_have_replayable_shapes():
    assert "kind" in build_case("e1_row").export()
    assert "grid" in build_case("case_I").export()
    assert "grid_pair" in build_case("case_III_discrete").export()
    assert "diag" in build_case("remark_col3").export()


def test_family_corpus_is_diverse():
    kinds = {type(f).__name__ for f in family_corpus()}
    assert {"FiniteSupport", "PowerLaw", "Scaled", "Sum"} <= kinds
