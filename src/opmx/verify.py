"""Machine-checkable certificates for the operator calculus.

Every check returns a VerificationReport: a verdict (pass / fail /
undecided), the strongest certificate computed, the tolerance (None: every
check is exact), and optionally the expected verdict with a match flag.  A
failing report always carries a concrete counter-instance.

The checks take an operator, a row, a column or a matrix, and see each as the
matrix it is (``calculus.as_matrix``).

Checks are pure given their inputs and seed, so the suite may run them in
any order or concurrently and merge reports by name.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from typing import Callable, Iterable, Sequence

from .calculus import as_matrix
from .domains import (
    DomainDescriptor,
    Verdict,
    admits_all_finitely_supported,
    excluded_coordinates,
    forced_coordinates,
    member,
)
from .errors import (
    DegenerateInput,
    DomainViolation,
    HypothesisViolated,
    NotInDomain,
    NoValidSamples,
    ShapeMismatch,
    Undecidable,
)
from .operators import (
    AppliedVector,
    StructuredOperator,
    apply,
    apply_coordinate,
    domain_of,
    formal_adjoint_op,
)
from .seqspace import (
    CoefficientFamily,
    FiniteSupport,
    Scalar,
    SparseVector,
    Truncation,
    encode_scalar,
    family_to_json,
    norm_squared,
)

PASS = "pass"
FAIL = "fail"
UNDECIDED = "undecided"


def _jsonable(value):
    if isinstance(value, Fraction):
        return encode_scalar(value)
    if isinstance(value, SparseVector):
        return [[k, encode_scalar(v)] for k, v in value.entries]
    if isinstance(value, CoefficientFamily):
        return family_to_json(value)
    if isinstance(value, Verdict):
        return value.value
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


@dataclass
class VerificationReport:
    check: str
    verdict: str
    certificate: dict = field(default_factory=dict)
    tolerance: float | None = None
    expected: str | None = None
    match: bool | None = None

    def with_expected(self, expected: str) -> "VerificationReport":
        self.expected = expected
        self.match = (self.verdict == expected)
        return self

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "verdict": self.verdict,
            "expected": self.expected,
            "match": self.match,
            "certificate": _jsonable(self.certificate),
            "tolerance": self.tolerance,
        }


# --- sampling ---------------------------------------------------------------

def _is_exact(*values: Scalar) -> bool:
    return all(isinstance(v, (int, Fraction)) for v in values)


def _random_sparse(rng: random.Random, excluded: frozenset[int],
                   max_index: int = 23, max_entries: int = 4) -> SparseVector:
    allowed = [k for k in range(max_index + 1) if k not in excluded]
    if not allowed:
        return SparseVector()
    count = rng.randint(1, max_entries)
    entries = []
    for _ in range(count):
        k = rng.choice(allowed)
        v = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        entries.append((k, v))
    return SparseVector(tuple(entries))


def _sample_blocks(rng: random.Random, descriptors: Sequence[DomainDescriptor]
                   ) -> tuple[CoefficientFamily, ...] | None:
    blocks = []
    nonzero = False
    for d in descriptors:
        sv = _random_sparse(rng, excluded_coordinates(d))
        nonzero = nonzero or not sv.is_zero
        blocks.append(FiniteSupport(sv))
    return tuple(blocks) if nonzero else None


def _pair_blocks(applied: tuple[AppliedVector, ...],
                 blocks: tuple[CoefficientFamily, ...]) -> Scalar:
    if len(applied) != len(blocks):
        raise ShapeMismatch("output arity does not match pairing partner")
    total: Scalar = 0
    for av, f in zip(applied, blocks):
        total += av.inner_family(f)
    return total


def _unit_blocks(descriptors: Sequence[DomainDescriptor], sweep: int
                 ) -> list[list[tuple[CoefficientFamily, ...]]]:
    """Per block position, each admissible unit vector e_i with i < sweep in
    that block and zero in the others."""
    zero = FiniteSupport(SparseVector())
    out = []
    for pos, d in enumerate(descriptors):
        excluded = excluded_coordinates(d)
        units = []
        for i in range(sweep):
            if i not in excluded:
                blocks = [zero] * len(descriptors)
                blocks[pos] = FiniteSupport(SparseVector.unit(i))
                units.append(tuple(blocks))
        out.append(units)
    return out


def check_pairing(a, b, samples: int = 200, seed: int = 42,
                  basis_sweep: int = 8) -> VerificationReport:
    """Certify <A f, g> == <f, B g> exactly on sampled admissible pairs.

    B must be shaped like the formal adjoint of A.  Samples are random
    finitely supported block vectors with rational entries and all excluded
    coordinates zeroed; a deterministic sweep over low basis vectors runs
    first so a corrupted entry cannot hide from sparse sampling.
    """
    a, b = as_matrix(a), as_matrix(b)
    in_a = a.block_domains
    in_b = b.block_domains
    if len(in_b) != a.output_arity or len(in_a) != b.output_arity:
        raise ShapeMismatch("pairing partner has incompatible arity")

    rng = random.Random(seed)
    units_f = _unit_blocks(in_a, basis_sweep)
    units_g = _unit_blocks(in_b, basis_sweep)
    pairs = [(f, g) for fs in units_f for gs in units_g for f in fs for g in gs]
    sampled = 0
    attempts = 0
    while sampled < samples and attempts < 20 * samples:
        attempts += 1
        f = _sample_blocks(rng, in_a)
        g = _sample_blocks(rng, in_b)
        if f is not None and g is not None:
            pairs.append((f, g))
            sampled += 1
    if not pairs or (samples > 0 and sampled == 0):
        raise NoValidSamples("every generated sample was rejected by the domain")

    for f, g in pairs:
        lhs = _pair_blocks(a.apply(f), g)
        rhs = _pair_blocks(b.apply(g), f)
        if lhs != rhs:
            return VerificationReport(
                "pairing", FAIL,
                certificate={"f": [fam.collapse() for fam in f],
                             "g": [fam.collapse() for fam in g],
                             "lhs": lhs, "rhs": rhs})
    return VerificationReport(
        "pairing", PASS,
        certificate={"pairs": len(pairs), "exact": True, "max_residual": 0.0})


def check_compression_transpose(a, b, t: Truncation) -> VerificationReport:
    """Certify that the compression of b is the exact transpose of that of a,
    as maps of nonzero entries; a failure names the first mismatch, row-major."""
    a, b = as_matrix(a), as_matrix(b)
    n = t.n
    if b.shape != a.shape[::-1]:
        return VerificationReport(
            "transpose", FAIL,
            certificate={"n": n, "reason": "shape mismatch",
                         "a_shape": [m * n for m in a.shape],
                         "b_shape": [m * n for m in b.shape]})
    mb = b.compression(n)
    ma_t = {(j, i): v for (i, j), v in a.compression(n).items()}
    if mb != ma_t:
        i, j = min(ij for ij in mb.keys() | ma_t.keys()
                   if mb.get(ij, 0) != ma_t.get(ij, 0))
        return VerificationReport(
            "transpose", FAIL,
            certificate={"n": n, "entry": [i, j],
                         "b": mb.get((i, j), 0), "a_t": ma_t.get((i, j), 0)})
    return VerificationReport(
        "transpose", PASS,
        certificate={"n": n, "exact": True, "shape": [m * n for m in b.shape]})


# --- witness families ---------------------------------------------------------

IMAGE_CONSTANT = "image_constant"
INPUT_VANISHES = "input_vanishes"


@dataclass(frozen=True)
class WitnessFamily:
    """Parametrized domain vectors whose images survive while inputs vanish.

    ``image_constant`` claims the image equals ``expected_images`` exactly for
    every n; ``input_vanishes`` claims the image norms stay inside
    ``image_norm_band`` while the input norms decrease below
    ``vanish_threshold``.  Either way a passing run certifies that the
    operator admits no closed extension.
    """

    inputs: Callable[[int], tuple[CoefficientFamily, ...]]
    claim: str = IMAGE_CONSTANT
    expected_images: tuple[CoefficientFamily, ...] | None = None
    image_norm_band: tuple[float, float] | None = None
    vanish_threshold: float = 1e-3

    def __post_init__(self):
        if self.claim not in (IMAGE_CONSTANT, INPUT_VANISHES):
            raise ValueError(f"unknown claim {self.claim!r}")
        if self.claim == IMAGE_CONSTANT and self.expected_images is None:
            raise ValueError("image_constant needs expected_images")
        if self.claim == INPUT_VANISHES and self.image_norm_band is None:
            raise ValueError("input_vanishes needs image_norm_band")


def _blocks_norm_squared(blocks) -> Scalar:
    total: Scalar = 0
    for f in blocks:
        sv = f.collapse() if isinstance(f, CoefficientFamily) else f
        if sv is None:
            raise DomainViolation("witness inputs must be finitely supported")
        total += norm_squared(sv)
    return total


def _applied_norm_squared(applied: tuple[AppliedVector, ...]) -> Scalar:
    total: Scalar = 0
    for av in applied:
        total += norm_squared(av.to_sparse())
    return total


def run_witness(op, w: WitnessFamily, ns: Iterable[int]) -> VerificationReport:
    """Replay the witness family over the given parameter values.

    Raises DomainViolation at the first n whose input leaves the domain.
    Passes when input norms are nonincreasing, the final norm is below the
    vanish threshold, and the image claim holds at every n.  When only the
    final norm is still above the threshold the run was too short to decide,
    and the verdict is undecided.
    """
    ns = list(ns)
    if not ns:
        raise ValueError("no witness parameters given")
    op = as_matrix(op)
    descriptors = op.block_domains
    expected_sparse = None
    if w.expected_images is not None:
        expected_sparse = tuple(f.collapse() for f in w.expected_images)

    prev_ns2: Scalar | None = None
    image_norms: list[float] = []
    last_ns2: Scalar = 0
    for n in ns:
        blocks = w.inputs(n)
        if len(blocks) != len(descriptors):
            raise DomainViolation(
                f"witness inputs have {len(blocks)} blocks, operator expects "
                f"{len(descriptors)}")
        ns2 = _blocks_norm_squared(blocks)
        if prev_ns2 is not None and ns2 > prev_ns2:
            return VerificationReport(
                "witness", FAIL,
                certificate={"reason": "input norms are not nonincreasing", "n": n})
        prev_ns2 = ns2
        last_ns2 = ns2
        try:
            applied = op.apply(blocks)
        except (NotInDomain, Undecidable) as exc:
            raise DomainViolation(
                f"witness input at n={n} is outside the domain") from exc
        if w.claim == IMAGE_CONSTANT:
            got = tuple(av.to_sparse() for av in applied)
            if got != expected_sparse:
                return VerificationReport(
                    "witness", FAIL,
                    certificate={"reason": "image differs from the expected image",
                                 "n": n, "image": list(got)})
        else:
            img_norm = math.sqrt(float(_applied_norm_squared(applied)))
            lo, hi = w.image_norm_band
            image_norms.append(img_norm)
            if not (lo <= img_norm <= hi):
                return VerificationReport(
                    "witness", FAIL,
                    certificate={"reason": "image norm left the certified band",
                                 "n": n, "image_norm": img_norm,
                                 "band": [lo, hi]})
    final_norm = math.sqrt(float(last_ns2))
    if final_norm > w.vanish_threshold:
        return VerificationReport(
            "witness", UNDECIDED,
            certificate={"reason": "input norms have not fallen below the "
                                   "threshold by the last parameter",
                         "n_tested": len(ns),
                         "final_input_norm": final_norm,
                         "threshold": w.vanish_threshold})
    cert = {
        "claim": w.claim,
        "n_tested": len(ns),
        "final_input_norm": final_norm,
        "input_norms_nonincreasing": True,
    }
    if w.claim == IMAGE_CONSTANT:
        cert["image_exact"] = True
        cert["image"] = list(expected_sparse)
    else:
        cert["image_norms"] = image_norms
        cert["band"] = list(w.image_norm_band)
    return VerificationReport("witness", PASS, certificate=cert)


# --- denseness obstruction -----------------------------------------------------

def denseness_obstruction(d: DomainDescriptor) -> VerificationReport:
    """Decide denseness of the described domain where a certificate exists.

    A nonempty forced-coordinate set J certifies non-denseness (every e_j,
    j in J, is orthogonal to the domain): verdict fail.  If the descriptor
    admits every finitely supported vector the domain is dense: verdict
    pass.  Otherwise the inference is incomplete: verdict undecided.
    """
    forced = forced_coordinates(d)
    if forced:
        return VerificationReport(
            "denseness", FAIL,
            certificate={"dense": False, "forced": forced})
    if admits_all_finitely_supported(d):
        return VerificationReport(
            "denseness", PASS,
            certificate={"dense": True,
                         "reason": "domain contains all finitely supported vectors"})
    return VerificationReport(
        "denseness", UNDECIDED,
        certificate={"dense": None,
                     "reason": "no forced coordinate found; inference incomplete"})


# --- finite-dimensional core criterion ------------------------------------------

def _rationals(rows) -> list[list[Fraction]]:
    """Rows of exact rationals; a float is read as the rational it is."""
    return [[Fraction(x) if isinstance(x, Rational) else Fraction(float(x))
             for x in row] for row in rows]


def _times_transpose(a, b) -> list[list[Fraction]]:
    return [[sum((x * y for x, y in zip(ra, rb, strict=True)), Fraction(0)) for rb in b]
            for ra in a]


def _rank(rows) -> int:
    """Rank over the rationals: each row is reduced by the pivot rows kept so far."""
    pivots: list[tuple[int, list[Fraction]]] = []
    for row in rows:
        for col, p in pivots:
            factor = row[col] / p[col]
            row = [x - factor * y for x, y in zip(row, p)]
        nonzero = [col for col, x in enumerate(row) if x]
        if nonzero:
            pivots.append((nonzero[0], row))
    return len(pivots)


@dataclass(frozen=True)
class SubspaceSpec:
    """Subspace of R^n given by a basis; rank-checked at use time."""

    basis: tuple[tuple[Scalar, ...], ...]
    n: int

    def matrix(self) -> list[list[Fraction]]:
        rows = _rationals(self.basis)
        if not rows or any(len(r) != self.n for r in rows):
            raise DegenerateInput("basis vectors must have length n")
        return rows


def core_criterion(cmat, d0: SubspaceSpec, d1: SubspaceSpec) -> VerificationReport:
    """Finite-dimensional core test: does (I + C C^T)(D0) leave no room in D1?

    Passes when the orthogonal complement of W = (I + C C^T)(D0) meets D1
    only in 0, that is when rank(W B1^T) = dim D1, decided exactly over the
    rationals.  This is the compression of the infinite-dimensional core
    criterion to R^n; no convergence claim is attached.
    """
    cmat = _rationals(cmat)
    n = len(cmat)
    if any(len(r) != n for r in cmat) or d0.n != n or d1.n != n:
        raise DegenerateInput("matrix and subspaces must share one dimension")
    b0 = d0.matrix()
    b1 = d1.matrix()
    if _rank(b0) < len(b0) or _rank(b1) < len(b1):
        raise DegenerateInput("a subspace basis is rank deficient")

    gram = _times_transpose(cmat, cmat)
    for i in range(n):
        gram[i][i] += 1
    # I + C C^T is invertible, so W has the dimension of D0.
    independent = _rank(_times_transpose(_times_transpose(b0, gram), b1)) == len(b1)
    cert = {"dim_w_perp": n - len(b0), "dim_d1": len(b1),
            "intersection_trivial": independent}
    return VerificationReport("core_criterion", PASS if independent else FAIL,
                              certificate=cert)


def core_vector_hypothesis(kmat, d0: SubspaceSpec, v0: Sequence[Scalar]
                           ) -> VerificationReport:
    """Check a user-supplied v0 != 0 with (-K^T v0, v0) inside span(D0),
    that is rank([B0; v]) = rank(B0), exactly."""
    (v0,) = _rationals([v0])
    if not any(v0):
        return VerificationReport("core_vector_hypothesis", FAIL,
                                  certificate={"reason": "v0 is zero"})
    (kt_v0,) = _times_transpose([v0], list(zip(*_rationals(kmat))))
    stacked_vec = [-x for x in kt_v0] + v0
    b0 = d0.matrix()
    if d0.n != len(stacked_vec):
        raise DegenerateInput("D0 must live in the doubled space")
    rank_d0 = _rank(b0)
    rank_with_v = _rank(b0 + [stacked_vec])
    return VerificationReport(
        "core_vector_hypothesis", PASS if rank_with_v == rank_d0 else FAIL,
        certificate={"rank_d0": rank_d0, "rank_with_vector": rank_with_v})


# --- strict domain gap -----------------------------------------------------------

def check_strict_gap(c1: StructuredOperator, t: StructuredOperator,
                     f: CoefficientFamily, samples: int = 100, seed: int = 42, *,
                     corpus: Sequence[CoefficientFamily]) -> VerificationReport:
    """Certify that the column (c1, t - c1) has a true adjoint beyond its
    formal adjoint.

    The witness vector f must avoid the domain of c1's adjoint while lying in
    the domain of t's adjoint; the sampled pairings then certify that the
    doubled vector (f, f) pairs like t* f against the whole column, so it
    belongs to the true adjoint domain but not to the formal one.  The
    pairings are exact, so f must have rational values.
    """
    dom_c1 = domain_of(c1)
    dom_t = domain_of(t)
    if check_inclusion(dom_c1, dom_t, corpus).verdict == FAIL:
        raise HypothesisViolated(
            "domain of the first entry must sit inside the domain of the total")

    verdict_c1 = member(f, domain_of(formal_adjoint_op(c1)))
    verdict_t = member(f, domain_of(formal_adjoint_op(t)))
    cert: dict = {"outside_formal_adjoint_domain": verdict_c1,
                  "inside_total_adjoint_domain": verdict_t}
    if verdict_c1 is not Verdict.NO or verdict_t is not Verdict.YES:
        return VerificationReport("strict_gap", FAIL, certificate=cert)

    second = t - c1
    t_adj = formal_adjoint_op(t)
    rng = random.Random(seed)
    excluded = excluded_coordinates(dom_c1)
    checked = 0
    attempts = 0
    while checked < samples and attempts < 20 * samples:
        attempts += 1
        h = _random_sparse(rng, excluded)
        if h.is_zero:
            continue
        lhs = apply(c1, h).inner_family(f) + apply(second, h).inner_family(f)
        rhs = sum((v * apply_coordinate(t_adj, f, k) for k, v in h.entries), 0)
        if not _is_exact(lhs, rhs):
            raise HypothesisViolated("the witness family must have rational values")
        if lhs != rhs:
            cert.update({"h": h, "lhs": lhs, "rhs": rhs})
            return VerificationReport("strict_gap", FAIL, certificate=cert)
        checked += 1
    if checked == 0:
        raise NoValidSamples("no admissible sample for the strict gap pairing")
    cert.update({"pairings_checked": checked, "exact": True})
    return VerificationReport("strict_gap", PASS, certificate=cert)


# --- descriptor inclusion ---------------------------------------------------------

def check_inclusion(d1, d2, corpus: Sequence) -> VerificationReport:
    """Test d1 <= d2 over a corpus: no member of d1 may be rejected by d2.

    Works for plain descriptors (corpus of families) and for pair domains
    (corpus of family pairs); anything with a ``member`` method qualifies.
    Undecided corpus entries are counted separately and do not fail the check.
    """
    corpus = list(corpus)
    violations = []
    undecided = 0
    for item in corpus:
        v1 = d1.member(item)
        v2 = d2.member(item)
        if v1 is Verdict.YES and v2 is Verdict.NO:
            violations.append(item)
        if v1 is Verdict.UNKNOWN or v2 is Verdict.UNKNOWN:
            undecided += 1
    cert = {"corpus_size": len(corpus), "undecided": undecided,
            "violations": len(violations)}
    if violations:
        first = violations[0]
        cert["counterexample"] = list(first) if isinstance(first, tuple) else first
        return VerificationReport("inclusion", FAIL, certificate=cert)
    return VerificationReport("inclusion", PASS, certificate=cert)
