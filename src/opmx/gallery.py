"""Canned constructions with attached expected verdicts.

Each case bundles a composite built from the structured operator class, the
checks that certify its claim, and the verdict every check is expected to
produce.  Replaying a case compares observed and expected verdicts and sets
the match flag on every report, which is what the command-line suite keys
its exit code on.

The seven cases:

* ``e1_row``            -- row of two closed unbounded diagonals sharing an
                           anchor coordinate; not closable, witnessed by
                           vanishing inputs with image exactly e_0.
* ``case_I``            -- the same row embedded in the top of a 2x2 matrix;
                           the matrix inherits the non-closability witness.
* ``case_II``           -- a 2x2 matrix that is closable while its formal
                           adjoint is not densely defined (first block forces
                           coordinate 0).
* ``case_III_discrete`` -- exact grid analogue of the first-derivative pair
                           with opposite boundary conditions; the transpose
                           identity and the vanishing second row are exact,
                           the infinite-dimensional closure strictness is
                           recorded as not checkable.
* ``case_IV``           -- [[B, 0], [-B, 0]] with B an unbounded closed
                           diagonal: double formal adjoint returns the
                           matrix, yet the true adjoint domain is strictly
                           larger than the formal one.
* ``t1591``             -- two-entry column (B, -B): the doubled vector
                           (f, f) lies in the true adjoint domain but not in
                           the formal adjoint domain.
* ``remark_col3``       -- rank-one compression of an unbounded diagonal,
                           written in the frame where the compression target
                           is e_0: a non-closable entry inside a closable
                           column, witnessed by harmonic blocks.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Sequence

from .calculus import (
    ColOp,
    OpMatrix,
    RowOp,
    col_formal_adjoint,
    composite_to_json,
    matrix_formal_adjoint,
    row_adjoint,
)
from .domains import RationalWeight
from .errors import InvalidDefinition, OpmxError, UnknownCase
from .operators import Entries, StructuredOperator, dense, operator_to_json
from .seqspace import (
    CoefficientFamily,
    FiniteSupport,
    PowerLaw,
    Scaled,
    SparseVector,
    Sum,
    Truncation,
    encode_scalar,
    unit_family,
)
from .verify import (
    FAIL,
    IMAGE_CONSTANT,
    INPUT_VANISHES,
    PASS,
    UNDECIDED,
    VerificationReport,
    WitnessFamily,
    check_compression_transpose,
    check_pairing,
    check_strict_gap,
    denseness_obstruction,
    run_witness,
)

@dataclass(frozen=True)
class RunParams:
    truncations: tuple[int, ...] = (64,)
    samples: int = 200
    seed: int = 42
    witness_nmax: int = 10_000
    # Reports of checks that several cases run with identical inputs, computed
    # once per RunParams (``replace`` shares the dict); see ``_strict_gap``.
    memo: dict = field(default_factory=dict, compare=False, repr=False)


@dataclass(frozen=True)
class GalleryCase:
    name: str
    claim: str
    classification: str | None
    expected: tuple[tuple[str, str], ...]
    runner: Callable[[RunParams], list[VerificationReport]]
    export: Callable[[], dict]
    sizes: tuple[int, ...] = ()  # the sizes of a sized name; () runs the truncations

    def run(self, params: RunParams | None = None,
            overrides: dict | None = None) -> list[VerificationReport]:
        """Run the checks and match each against its expected verdict: from
        ``overrides``, else ``expected``, looked up by the full check name,
        else by the name before '@'."""
        params = params or RunParams()
        if self.sizes:
            params = replace(params, truncations=self.sizes)
        reports = self.runner(params)
        table = {**dict(self.expected), **(overrides or {})}
        for rep in reports:
            expected = table.get(rep.check, table.get(rep.check.split("@", 1)[0]))
            if expected is not None:
                rep.with_expected(str(expected))
            # Every denseness claim of the gallery forces exactly coordinate 0.
            if "denseness" in rep.check and rep.certificate.get("forced") != {0}:
                rep.match = False
        return reports


# --- shared operators --------------------------------------------------------

def squared_diagonal() -> StructuredOperator:
    """Closed diagonal k^2 on its maximal domain."""
    return StructuredOperator.diagonal(RationalWeight.poly(0, 0, 1), name="diag_k2")


def collecting_unbounded_entry() -> StructuredOperator:
    """Diagonal k^2 plus a row collecting sum_k k gamma_k into coordinate 0."""
    return StructuredOperator(RationalWeight.poly(0, 0, 1),
                              sinks=((0, RationalWeight.poly(0, 1)),),
                              name="diag_k2_collect0")


def shifted_diagonal() -> StructuredOperator:
    """Injective unbounded diagonal k + 1."""
    return StructuredOperator.diagonal(RationalWeight.poly(1, 1), name="diag_k1")


def summing_functional() -> StructuredOperator:
    """Rank-one collector f -> (sum_k gamma_k) e_0 in the compression frame."""
    return StructuredOperator(RationalWeight.constant(0),
                              sinks=((0, RationalWeight.constant(1)),),
                              name="collect_all")


def unbounded_pair_row() -> RowOp:
    return RowOp((squared_diagonal(), collecting_unbounded_entry()))


def family_corpus() -> tuple[CoefficientFamily, ...]:
    """Test families covering the decidable class, shared by the checks."""
    halves = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2),
              Fraction(5, 2), Fraction(3), Fraction(4)]
    corpus: list[CoefficientFamily] = [unit_family(k) for k in range(5)]
    corpus.append(FiniteSupport(SparseVector(((1, 3), (2, 4)))))
    corpus.append(FiniteSupport(SparseVector(((0, 1), (3, -1)))))
    corpus.extend(PowerLaw(p) for p in halves)
    corpus.extend(PowerLaw(p, "alternating") for p in halves[1:4])
    corpus.append(PowerLaw(Fraction(2), offset=3))
    corpus.append(Scaled(Fraction(2, 3), PowerLaw(Fraction(3))))
    corpus.append(Sum((unit_family(0), PowerLaw(Fraction(2)))))
    corpus.append(Sum((PowerLaw(Fraction(3)), Scaled(-1, PowerLaw(Fraction(3))))))
    return tuple(corpus)


# --- witnesses -----------------------------------------------------------------

def _vanishing_pair_inputs(n: int) -> tuple[CoefficientFamily, ...]:
    v = SparseVector(((n, Fraction(1, n)),))
    return (FiniteSupport(-v), FiniteSupport(v))


def e1_witness() -> WitnessFamily:
    return WitnessFamily(inputs=_vanishing_pair_inputs, claim=IMAGE_CONSTANT,
                         expected_images=(unit_family(0),))


def case_i_witness() -> WitnessFamily:
    return WitnessFamily(inputs=_vanishing_pair_inputs, claim=IMAGE_CONSTANT,
                         expected_images=(unit_family(0),
                                          FiniteSupport(SparseVector())))


def _harmonic_block_inputs(n: int) -> tuple[CoefficientFamily, ...]:
    entries = tuple((k, Fraction(1, k)) for k in range(n, 2 * n))
    return (FiniteSupport(SparseVector(entries)),)


def harmonic_witness() -> WitnessFamily:
    # Image norm is the harmonic block sum over k = n .. 2n-1, which is
    # log 2 + 1/(4n) + O(1/n^2) and sits in [0.69, 0.70] from n = 64 on,
    # while the input norm is (sum 1/k^2 over the block)^(1/2) -> 0.
    return WitnessFamily(inputs=_harmonic_block_inputs, claim=INPUT_VANISHES,
                         image_norm_band=(0.69, 0.70), vanish_threshold=0.13)


# --- grid derivative pair --------------------------------------------------------

@dataclass(frozen=True)
class GridDerivativePair:
    """First differences on an n-point grid with opposite boundary rows.

    ``d0`` differences with a zero value pinned on the left boundary,
    ``d1`` with a zero value pinned on the right; d0^T = -d1 exactly.  The
    apply methods scale by the integer 1/h = n + 1 and accept ``int`` or
    ``Fraction`` vectors, returning the same kind.
    """

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("grid size must be >= 1")

    @property
    def h(self) -> Fraction:
        return Fraction(1, self.n + 1)

    def d0_entries(self) -> Entries:
        """The two bands of d0: 1/h on the diagonal, -1/h below it."""
        inv = 1 / self.h
        return {**{(i, i): inv for i in range(self.n)},
                **{(i, i - 1): -inv for i in range(1, self.n)}}

    def d1_entries(self) -> Entries:
        """The two bands of d1: -1/h on the diagonal, 1/h above it."""
        inv = 1 / self.h
        return {**{(i, i): -inv for i in range(self.n)},
                **{(i, i + 1): inv for i in range(self.n - 1)}}

    def d0_matrix(self):
        return dense(self.d0_entries(), (self.n, self.n))

    def d1_matrix(self):
        return dense(self.d1_entries(), (self.n, self.n))

    def apply_d0(self, vec: Sequence[int | Fraction]) -> list[int | Fraction]:
        inv = self.n + 1
        return [(vec[i] - (vec[i - 1] if i > 0 else 0)) * inv for i in range(self.n)]

    def apply_d1(self, vec: Sequence[int | Fraction]) -> list[int | Fraction]:
        inv = self.n + 1
        return [((vec[i + 1] if i + 1 < self.n else 0) - vec[i]) * inv
                for i in range(self.n)]

    def apply_d0_t(self, vec: Sequence[int | Fraction]) -> list[int | Fraction]:
        inv = self.n + 1
        return [(vec[i] - (vec[i + 1] if i + 1 < self.n else 0)) * inv
                for i in range(self.n)]

    def apply_d1_t(self, vec: Sequence[int | Fraction]) -> list[int | Fraction]:
        inv = self.n + 1
        return [((vec[i - 1] if i > 0 else 0) - vec[i]) * inv for i in range(self.n)]

    def block_apply(self, f, g):
        return self.apply_d0(f), self.apply_d1([a - b for a, b in zip(f, g)])

    def block_apply_t(self, u, v):
        d1t_v = self.apply_d1_t(v)
        return [a + b for a, b in zip(self.apply_d0_t(u), d1t_v)], [-x for x in d1t_v]

    def to_json(self) -> dict:
        enc = lambda mat: [[encode_scalar(x) for x in row] for row in mat.tolist()]
        return {"grid_pair": {"n": self.n,
                              "d0": enc(self.d0_matrix()),
                              "d1": enc(self.d1_matrix())}}


GRID_DENOMINATOR = 2520  # lcm(1..9), a common denominator of every grid draw


def _random_grid_vector(rng: random.Random, n: int) -> list[int]:
    """n draws p/q (|p| <= 9, 1 <= q <= 9), as numerators over GRID_DENOMINATOR."""
    return [rng.randint(-9, 9) * (GRID_DENOMINATOR // rng.randint(1, 9))
            for _ in range(n)]


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


# --- case runners ------------------------------------------------------------------

def composite_checks(x, adjoint, params: RunParams) -> list[VerificationReport]:
    """The pairing identity of x against its adjoint, and the exact transpose of
    their compressions at every truncation.  A pairing the checker refuses
    with an ``OpmxError`` (no admissible sample, say) is undecided."""
    try:
        pairing = check_pairing(x, adjoint, samples=params.samples, seed=params.seed)
    except OpmxError as exc:
        pairing = VerificationReport("pairing", UNDECIDED,
                                     certificate={"reason": str(exc)})
    reports = [pairing]
    for n in params.truncations:
        rep = check_compression_transpose(x, adjoint, Truncation(n))
        rep.check = f"transpose@{n}"
        reports.append(rep)
    return reports


def _witness_ns(nmax: int) -> range:
    return range(1, max(2, nmax) + 1)


def _run_e1_row(params: RunParams) -> list[VerificationReport]:
    row = unbounded_pair_row()
    adjoint = row_adjoint(row)
    dens = denseness_obstruction(adjoint.domain)
    dens.check = "adjoint_denseness"
    return [run_witness(row, e1_witness(), _witness_ns(params.witness_nmax)), dens,
            *composite_checks(row, adjoint, params)]


def _case_i_matrix() -> OpMatrix:
    zero = StructuredOperator.zero
    return OpMatrix(((squared_diagonal(), collecting_unbounded_entry()),
                     (zero(), zero())))


def _run_case_i(params: RunParams) -> list[VerificationReport]:
    mat = _case_i_matrix()
    witness = run_witness(mat, case_i_witness(), _witness_ns(params.witness_nmax))
    return [witness, *composite_checks(mat, matrix_formal_adjoint(mat), params)]


def _case_ii_matrix() -> OpMatrix:
    return OpMatrix(((squared_diagonal(), collecting_unbounded_entry()),
                     (StructuredOperator.zero(), collecting_unbounded_entry())))


def _run_case_ii(params: RunParams) -> list[VerificationReport]:
    mat = _case_ii_matrix()
    adj = matrix_formal_adjoint(mat)
    dens = denseness_obstruction(adj.column_domains[0])
    dens.check = "adjoint_block1_denseness"
    return [dens, *composite_checks(mat, adj, params)]


def _run_case_iii(params: RunParams) -> list[VerificationReport]:
    reports = []
    rng = random.Random(params.seed)
    for n in params.truncations:
        pair = GridDerivativePair(n)
        d0_t = {(j, i): v for (i, j), v in pair.d0_entries().items()}
        identity_ok = d0_t == {ij: -v for ij, v in pair.d1_entries().items()}
        reports.append(VerificationReport(
            f"grid_transpose@{n}", PASS if identity_ok else FAIL,
            certificate={"n": n, "exact": True}))

        vectors = (_random_grid_vector(rng, n) for _ in range(50))
        zero_ok = all(not any(pair.block_apply(f, f)[1]) for f in vectors)
        reports.append(VerificationReport(
            f"second_row_kills_diagonal@{n}", PASS if zero_ok else FAIL,
            certificate={"n": n, "vectors": 50}))

        residual = 0
        for _ in range(min(params.samples, 100)):
            f, g, u, v = (_random_grid_vector(rng, n) for _ in range(4))
            a1, a2 = pair.block_apply(f, g)
            b1, b2 = pair.block_apply_t(u, v)
            residual = (_dot(a1, u) + _dot(a2, v)) - (_dot(f, b1) + _dot(g, b2))
            if residual:
                break
        # The pairing is bilinear, and every draw carries GRID_DENOMINATOR.
        residual = Fraction(residual, GRID_DENOMINATOR ** 2)
        reports.append(VerificationReport(
            f"pairing@{n}", PASS if residual == 0 else FAIL,
            certificate={"n": n, "exact": True, "residual": residual}))

    reports.append(VerificationReport(
        "closure_strictness", UNDECIDED,
        certificate={"reason": "no finite certificate exists for strictness of "
                               "the closure inclusion; recorded, not checked"}))
    return reports


def _case_iv_matrix() -> OpMatrix:
    zero = StructuredOperator.zero
    return OpMatrix(((shifted_diagonal(), zero()),
                     (-shifted_diagonal(), zero())))


def _strict_gap(params: RunParams) -> VerificationReport:
    """The strict gap of case IV and t1591, which reduce to the same inputs.
    The check runs once per RunParams; each caller gets its own report."""
    report = params.memo.get("strict_gap")
    if report is None:
        report = params.memo["strict_gap"] = check_strict_gap(
            shifted_diagonal(), StructuredOperator.zero(), PowerLaw(Fraction(1)),
            samples=params.samples, seed=params.seed, corpus=family_corpus())
    return replace(report, certificate=dict(report.certificate))


def _run_case_iv(params: RunParams) -> list[VerificationReport]:
    mat = _case_iv_matrix()
    adj = matrix_formal_adjoint(mat)
    double = VerificationReport(
        "double_adjoint_identity",
        PASS if matrix_formal_adjoint(adj) == mat else FAIL,
        certificate={"structural": True})
    return [double, _strict_gap(params), *composite_checks(mat, adj, params)]


def _t1591_column() -> ColOp:
    first = shifted_diagonal()
    return ColOp((first, StructuredOperator.zero() - first))


def _run_t1591(params: RunParams) -> list[VerificationReport]:
    col = _t1591_column()
    return [_strict_gap(params), *composite_checks(col, col_formal_adjoint(col), params)]


def _run_remark_col3(params: RunParams) -> list[VerificationReport]:
    col = ColOp((summing_functional(),))
    witness = run_witness(col, harmonic_witness(), (64, 256, 1024))
    return [witness, *composite_checks(col, col_formal_adjoint(col), params)]


# --- registry ----------------------------------------------------------------------

_CASES = (
    GalleryCase(
        name="e1_row",
        claim="row of two closed unbounded entries that is not closable",
        classification=None,
        expected=(("witness", PASS), ("adjoint_denseness", FAIL),
                  ("pairing", PASS), ("transpose", PASS)),
        runner=_run_e1_row,
        export=lambda: composite_to_json(unbounded_pair_row())),
    GalleryCase(
        name="case_I",
        claim="A is not closable",
        classification="I",
        expected=(("witness", PASS), ("pairing", PASS), ("transpose", PASS)),
        runner=_run_case_i,
        export=lambda: composite_to_json(_case_i_matrix())),
    GalleryCase(
        name="case_II",
        claim="A is closable and A^x is not densely defined",
        classification="II",
        expected=(("adjoint_block1_denseness", FAIL), ("pairing", PASS),
                  ("transpose", PASS)),
        runner=_run_case_ii,
        export=lambda: composite_to_json(_case_ii_matrix())),
    GalleryCase(
        name="case_III_discrete",
        claim="A^x is densely defined but A' differs from the closure of A^x",
        classification="III",
        expected=(("grid_transpose", PASS), ("second_row_kills_diagonal", PASS),
                  ("pairing", PASS), ("closure_strictness", UNDECIDED)),
        runner=_run_case_iii,
        export=lambda: GridDerivativePair(8).to_json()),
    GalleryCase(
        name="case_IV",
        claim="A' equals the closure of A^x but A' differs from A^x",
        classification="IV",
        expected=(("double_adjoint_identity", PASS), ("strict_gap", PASS),
                  ("pairing", PASS), ("transpose", PASS)),
        runner=_run_case_iv,
        export=lambda: composite_to_json(_case_iv_matrix())),
    GalleryCase(
        name="t1591",
        claim="the formal adjoint domain of the column is strictly "
              "inside the true adjoint domain",
        classification=None,
        expected=(("strict_gap", PASS), ("pairing", PASS), ("transpose", PASS)),
        runner=_run_t1591,
        export=lambda: composite_to_json(_t1591_column())),
    GalleryCase(
        name="remark_col3",
        claim="closable column with a non-closable first entry",
        classification=None,
        expected=(("witness", PASS), ("pairing", PASS), ("transpose", PASS)),
        runner=_run_remark_col3,
        export=lambda: operator_to_json(summing_functional())),
)

CASE_NAMES = tuple(case.name for case in _CASES)


def build_case(name: str) -> GalleryCase:
    """Look up a gallery case; accepts 'case_III_discrete(8)' style names."""
    m = re.fullmatch(r"case_III_discrete\((\d+)\)", name)
    base = "case_III_discrete" if m else name
    for case in _CASES:
        if case.name == base:
            break
    else:
        raise UnknownCase(f"unknown case {name!r}; known: {', '.join(CASE_NAMES)}")
    if m:
        sized = (int(m.group(1)),)
        if sized[0] < 1:
            raise InvalidDefinition(f"case {name!r}: grid size must be >= 1")
        case = replace(case, sizes=sized)
    return case


def list_cases() -> list[tuple[str, str, tuple[tuple[str, str], ...]]]:
    """Names, claims, and expected verdicts, in canonical order."""
    out = []
    for case in _CASES:
        label = case.claim
        if case.classification:
            label = f"{case.classification}: {label}"
        out.append((case.name, label, case.expected))
    return out
