"""Structured operators on l2: rational diagonal plus finite anchor rows/columns.

An operator in this class acts on a sequence (gamma_k) by

    image = (diag(k) gamma_k)_k
          + sum over sinks (j, w)   of (sum_k w(k) gamma_k) e_j
          + sum over sources (j, w) of gamma_j (w(k))_k.

A sink collects a weighted series into one coordinate; a source broadcasts
one coordinate along a weight sequence.  The formal adjoint swaps sinks and
sources (real coefficients, so conjugation is transposition), and the maximal
natural domain is read off symbolically: one series-convergence condition per
sink and a joint residual square-summability condition for the diagonal and
the source columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .domains import (
    DomainDescriptor,
    RationalWeight,
    ResidualL2,
    SeriesConverges,
    Verdict,
    WeightedL2,
    cached,
    member,
)
from .errors import InvalidDefinition, NotInDomain, Undecidable, UnsupportedOperand
from .seqspace import (
    CoefficientFamily,
    FiniteSupport,
    Scalar,
    SparseVector,
    Truncation,
    inner,
)

Anchor = tuple[int, RationalWeight]
Entries = dict[tuple[int, int], Scalar]  # the nonzero entries of a matrix


@dataclass(frozen=True)
class StructuredOperator:
    diag: RationalWeight
    sinks: tuple[Anchor, ...] = ()
    sources: tuple[Anchor, ...] = ()
    name: str = ""

    def __post_init__(self):
        sinks = tuple((j, w) for j, w in self.sinks if not w.is_zero)
        sources = tuple((j, w) for j, w in self.sources if not w.is_zero)
        for label, anchors in (("sink", sinks), ("source", sources)):
            coords = [j for j, _ in anchors]
            if any(j < 0 for j in coords):
                raise ValueError(f"{label} coordinate must be >= 0")
            if len(set(coords)) != len(coords):
                raise ValueError(f"duplicate {label} coordinates")
        object.__setattr__(self, "sinks", sinks)
        object.__setattr__(self, "sources", sources)

    @classmethod
    def zero(cls, name: str = "0") -> "StructuredOperator":
        return cls(RationalWeight.constant(0), name=name)

    @classmethod
    def identity(cls, name: str = "I") -> "StructuredOperator":
        return cls(RationalWeight.constant(1), name=name)

    @classmethod
    def diagonal(cls, weight: RationalWeight, name: str = "") -> "StructuredOperator":
        return cls(weight, name=name)

    @property
    def is_zero_op(self) -> bool:
        return self.diag.is_zero and not self.sinks and not self.sources

    @property
    def is_diagonal(self) -> bool:
        return not self.sinks and not self.sources

    def __neg__(self) -> "StructuredOperator":
        return StructuredOperator(
            -self.diag,
            tuple((j, -w) for j, w in self.sinks),
            tuple((j, -w) for j, w in self.sources),
            name=f"-{self.name}" if self.name else "")

    def __add__(self, other: "StructuredOperator") -> "StructuredOperator":
        def merge(a: tuple[Anchor, ...], b: tuple[Anchor, ...]) -> tuple[Anchor, ...]:
            acc: dict[int, RationalWeight] = dict(a)
            for j, w in b:
                acc[j] = acc[j] + w if j in acc else w
            return tuple(sorted(acc.items()))

        name = ""
        if self.name or other.name:
            name = f"({self.name or '0'}+{other.name or '0'})"
        return StructuredOperator(self.diag + other.diag,
                                  merge(self.sinks, other.sinks),
                                  merge(self.sources, other.sources),
                                  name=name)

    def __sub__(self, other: "StructuredOperator") -> "StructuredOperator":
        out = self + (-other)
        if self.name or other.name:
            object.__setattr__(out, "name", f"({self.name or '0'}-{other.name or '0'})")
        return out


@dataclass(frozen=True)
class AppliedVector:
    """Closed-form image: a finite part plus symbolic source tails.

    Each tail (w, a) stands for a * (w(k))_k; the image is an l2 vector
    exactly when every tail with a nonzero multiplier has an l2 weight.
    """

    finite: SparseVector = SparseVector()
    tails: tuple[tuple[RationalWeight, Scalar], ...] = ()

    def __post_init__(self):
        if not self.tails:
            return
        merged: list[tuple[RationalWeight, Scalar]] = []
        for w, a in self.tails:
            if a == 0 or w.is_zero:
                continue
            for i, (w2, a2) in enumerate(merged):
                if w2.same_rational(w):
                    merged[i] = (w2, a2 + a)
                    break
            else:
                merged.append((w, a))
        object.__setattr__(self, "tails",
                           tuple((w, a) for w, a in merged if a != 0))

    @property
    def is_sparse(self) -> bool:
        return not self.tails

    @property
    def is_ell2(self) -> bool:
        return all(w.is_ell2 for w, _ in self.tails)

    def to_sparse(self) -> SparseVector:
        if not self.is_sparse:
            raise UnsupportedOperand("image has a symbolic tail")
        return self.finite

    def coordinate(self, k: int) -> Scalar:
        return self.finite.get(k) + sum((a * w.eval(k) for w, a in self.tails), 0)

    def __add__(self, other: "AppliedVector") -> "AppliedVector":
        if not self.finite.entries and not self.tails:
            return other
        if not other.finite.entries and not other.tails:
            return self
        return AppliedVector(self.finite + other.finite, self.tails + other.tails)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AppliedVector):
            return NotImplemented
        if self.finite != other.finite or len(self.tails) != len(other.tails):
            return False
        remaining = list(other.tails)
        for w, a in self.tails:
            for i, (w2, a2) in enumerate(remaining):
                if a == a2 and w.same_rational(w2):
                    del remaining[i]
                    break
            else:
                return False
        return True

    def __hash__(self):
        return hash(self.finite)

    def inner_sparse(self, v: SparseVector) -> Scalar:
        total = inner(self.finite, v)
        for w, a in self.tails:
            total += a * sum((w.eval(k) * b for k, b in v.entries), 0)
        return total

    def inner_family(self, f: CoefficientFamily) -> Scalar:
        sv = f.collapse()
        if sv is not None:
            return self.inner_sparse(sv)
        if self.tails:
            raise UnsupportedOperand(
                "pairing a symbolic tail with an infinite family is not closed form")
        return sum((a * f.eval(k) for k, a in self.finite.entries), 0)


def domain_of(op: StructuredOperator) -> DomainDescriptor:
    """Maximal natural domain: all of l2 where the defining series land in l2."""
    return cached(op, "_domain", _natural_domain)


def _natural_domain(op: StructuredOperator) -> DomainDescriptor:
    atoms: list = [SeriesConverges(w) for _, w in op.sinks]
    if op.sources:
        atoms.append(ResidualL2(op.diag, op.sources))
    elif not op.diag.is_zero:
        atoms.append(WeightedL2(op.diag))
    return DomainDescriptor(atoms)


def formal_adjoint_op(op: StructuredOperator) -> StructuredOperator:
    """Transpose on the structured class: sinks and sources trade places."""
    name = op.name[:-1] if op.name.endswith("*") else (op.name + "*" if op.name else "")
    return StructuredOperator(op.diag, sinks=op.sources, sources=op.sinks, name=name)


def _check_membership(op: StructuredOperator, f: CoefficientFamily) -> None:
    verdict = member(f, domain_of(op))
    if verdict is Verdict.NO:
        raise NotInDomain(f"input is not in the domain of {op.name or 'operator'}")
    if verdict is Verdict.UNKNOWN:
        raise Undecidable("domain membership could not be decided")


def apply(op: StructuredOperator, f: CoefficientFamily | SparseVector) -> AppliedVector:
    """Exact image of a family the operator accepts.

    Raises NotInDomain / Undecidable on the membership verdict, and
    UnsupportedOperand when the family does not collapse to a finitely
    supported vector (the closed form then requires summing an infinite
    series against each sink).
    """
    if isinstance(f, SparseVector):
        f = FiniteSupport(f)
    _check_membership(op, f)
    if op.is_zero_op:
        return AppliedVector()
    sv = f.collapse()
    if sv is None:
        if not op.is_diagonal:
            raise UnsupportedOperand(
                "closed-form image of an infinite family needs a diagonal operator; "
                "use apply_coordinate for pointwise values")
        raise UnsupportedOperand(
            "diagonal image of an infinite family is outside the representation")
    if op.is_diagonal:
        # Support order is index order, and a zero product is dropped.
        diag = op.diag.eval
        image = []
        for k, v in sv.entries:
            x = diag(k) * v
            if x != 0:
                image.append((k, x))
        return AppliedVector(SparseVector._canonical(tuple(image)))
    finite_entries = [(k, op.diag.eval(k) * v) for k, v in sv.entries]
    for j, w in op.sinks:
        series = sum((w.eval(k) * v for k, v in sv.entries), 0)
        finite_entries.append((j, series))
    tails = tuple((w, sv.get(j)) for j, w in op.sources)
    return AppliedVector(SparseVector(tuple(finite_entries)), tails)


def apply_coordinate(op: StructuredOperator, f: CoefficientFamily, k: int) -> Scalar:
    """Coordinate k of the image, without forming the whole vector."""
    sv = f.collapse()
    if sv is None and op.sinks:
        raise UnsupportedOperand("sink series over an infinite family")
    value: Scalar = op.diag.eval(k) * f.eval(k)
    for j, w in op.sinks:
        if j == k:
            value += sum((w.eval(i) * v for i, v in sv.entries), 0)
    for j, w in op.sources:
        value += f.eval(j) * w.eval(k)
    return value


def dense(entries: Entries, shape: tuple[int, int]):
    """A numpy object matrix of exact Fractions, zero off the given entries."""
    import numpy as np
    mat = np.full(shape, Fraction(0), dtype=object)
    for (i, j), v in entries.items():
        mat[i, j] = Fraction(v)
    return mat


def compression(op: StructuredOperator, n: int) -> Entries:
    """Nonzero entries of the compression onto the first n coordinates: the
    diagonal, one row per sink and one column per source."""
    cells = [((k, k), op.diag, k) for k in range(n)]
    cells += [((j, k), w, k) for j, w in op.sinks if j < n for k in range(n)]
    cells += [((i, j), w, i) for j, w in op.sources if j < n for i in range(n)]
    entries: Entries = {}
    for ij, w, k in cells:
        entries[ij] = entries.get(ij, 0) + w.eval(k)
    return {ij: v for ij, v in entries.items() if v != 0}


def truncation_matrix(op: StructuredOperator, t: Truncation):
    """Compression onto the first n coordinates, a dense Fraction matrix."""
    return dense(compression(op, t.n), (t.n, t.n))


def is_bounded(op: StructuredOperator) -> Verdict:
    """Whether the operator is everywhere defined and continuous.

    Decidable for the structured class: the diagonal must stay bounded and
    every anchor weight must be an l2 sequence.
    """
    if not op.diag.is_bounded_seq:
        return Verdict.NO
    for _, w in op.sinks + op.sources:
        if not w.is_ell2:
            return Verdict.NO
    return Verdict.YES


# --- JSON --------------------------------------------------------------------

def operator_to_json(op: StructuredOperator) -> dict:
    out: dict = {"name": op.name, "diag": op.diag.to_json()}
    if op.sinks:
        out["sinks"] = [{"target": j, "weight": w.to_json()} for j, w in op.sinks]
    if op.sources:
        out["sources"] = [{"from": j, "weight": w.to_json()} for j, w in op.sources]
    return out


def operator_from_json(obj, path: str = "operator") -> StructuredOperator:
    if obj == "zero":
        return StructuredOperator.zero()
    if not isinstance(obj, dict):
        raise InvalidDefinition(f"{path}: expected an object or \"zero\"")
    if "diag" not in obj:
        raise InvalidDefinition(f"{path}.diag: missing")
    diag = RationalWeight.from_json(obj["diag"], f"{path}.diag")

    def parse_anchors(key: str, coord_key: str) -> tuple[Anchor, ...]:
        raw = obj.get(key, [])
        if not isinstance(raw, list):
            raise InvalidDefinition(f"{path}.{key}: expected a list")
        anchors = []
        for i, a in enumerate(raw):
            if not isinstance(a, dict) or coord_key not in a:
                raise InvalidDefinition(
                    f"{path}.{key}[{i}]: expected {coord_key} + weight")
            coord = a[coord_key]
            if not isinstance(coord, int) or coord < 0:
                raise InvalidDefinition(
                    f"{path}.{key}[{i}].{coord_key}: expected integer >= 0")
            anchors.append((coord, RationalWeight.from_json(
                a.get("weight"), f"{path}.{key}[{i}].weight")))
        return tuple(anchors)

    name = obj.get("name", "")
    if not isinstance(name, str):
        raise InvalidDefinition(f"{path}.name: expected a string")
    try:
        return StructuredOperator(diag, parse_anchors("sinks", "target"),
                                  parse_anchors("sources", "from"), name=name)
    except ValueError as exc:
        raise InvalidDefinition(f"{path}: {exc}") from exc
