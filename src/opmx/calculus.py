"""Row, column, and matrix composites with block-domain semantics.

A row acts on a direct sum, (f_1 + ... + f_n) -> sum_j R_j f_j, with the
direct sum of entry domains.  A column acts into a direct sum,
f -> (C_1 f, ..., C_n f), on the intersection of entry domains.  A matrix
combines both: the block domain of column j is the intersection of the entry
domains in that column.

The formal adjoint of a composite is the transposed composite of entrywise
adjoints.  For a densely defined row this equals the true adjoint; for
columns and matrices it is contained in the true adjoint and may be strictly
smaller, which is exactly what the verification layer certifies.

When one entry factors through the other by a bounded operator, the closure
of a two-entry row and both adjoints of a two-entry column have explicit
representations (``closure_via_bounded_factor``,
``col_adjoint_via_bounded_factor``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .domains import (
    All,
    Atom,
    CoordinateZero,
    DomainDescriptor,
    RationalWeight,
    ResidualL2,
    SeriesConverges,
    Verdict,
    WeightedL2,
    atom_verdict,
    cached,
    conjunction,
    forced_coordinates,
    linear_combination,
    member,
)
from .errors import (
    DomainViolation,
    FactorCheckFailed,
    HypothesisViolated,
    InvalidDefinition,
    NotApplicable,
    NotBounded,
    NotDenselyDefined,
    NotInjective,
    ShapeMismatch,
    UnsupportedOperand,
)
from .operators import (
    AppliedVector,
    StructuredOperator,
    apply,
    domain_of,
    formal_adjoint_op,
    is_bounded,
    operator_from_json,
    operator_to_json,
    truncation_matrix,
)
from .seqspace import CoefficientFamily, FiniteSupport, SparseVector, Truncation

Blocks = tuple[CoefficientFamily, ...]


def _as_blocks(x, arity: int) -> Blocks:
    if isinstance(x, (SparseVector,)):
        x = FiniteSupport(x)
    if isinstance(x, CoefficientFamily):
        x = (x,)
    blocks = tuple(FiniteSupport(b) if isinstance(b, SparseVector) else b for b in x)
    if len(blocks) != arity:
        raise DomainViolation(f"expected {arity} input blocks, got {len(blocks)}")
    return blocks


def _intersection(ops) -> DomainDescriptor:
    """Common domain of the operators, as one descriptor."""
    return DomainDescriptor(atom for op in ops for atom in domain_of(op).atoms)


@dataclass(frozen=True)
class RowOp:
    entries: tuple[StructuredOperator, ...]

    def __post_init__(self):
        if not self.entries:
            raise ShapeMismatch("a row needs at least one entry")

    @property
    def input_arity(self) -> int:
        return len(self.entries)

    @property
    def output_arity(self) -> int:
        return 1

    @property
    def block_domains(self) -> tuple[DomainDescriptor, ...]:
        return cached(self, "_block_domains",
                      lambda r: tuple(domain_of(e) for e in r.entries))

    @property
    def densely_defined(self) -> bool:
        return all(not forced_coordinates(d) for d in self.block_domains)

    def member(self, blocks) -> Verdict:
        blocks = _as_blocks(blocks, self.input_arity)
        return conjunction(member(b, d) for b, d in zip(blocks, self.block_domains))

    def apply(self, blocks) -> AppliedVector:
        blocks = _as_blocks(blocks, self.input_arity)
        out = AppliedVector()
        for op, b in zip(self.entries, blocks):
            out = out + apply(op, b)
        return out

    def truncation(self, t: Truncation) -> np.ndarray:
        return np.hstack([truncation_matrix(e, t) for e in self.entries])


@dataclass(frozen=True)
class ColOp:
    entries: tuple[StructuredOperator, ...]

    def __post_init__(self):
        if not self.entries:
            raise ShapeMismatch("a column needs at least one entry")

    @property
    def input_arity(self) -> int:
        return 1

    @property
    def output_arity(self) -> int:
        return len(self.entries)

    @property
    def domain(self) -> DomainDescriptor:
        return cached(self, "_domain", lambda c: _intersection(c.entries))

    @property
    def block_domains(self) -> tuple[DomainDescriptor, ...]:
        return cached(self, "_block_domains", lambda c: (c.domain,))

    @property
    def densely_defined(self) -> bool:
        return not forced_coordinates(self.domain)

    def member(self, blocks) -> Verdict:
        (f,) = _as_blocks(blocks, 1)
        return member(f, self.domain)

    def apply(self, blocks) -> tuple[AppliedVector, ...]:
        (f,) = _as_blocks(blocks, 1)
        return tuple(apply(op, f) for op in self.entries)

    def truncation(self, t: Truncation) -> np.ndarray:
        return np.vstack([truncation_matrix(e, t) for e in self.entries])


@dataclass(frozen=True)
class OpMatrix:
    grid: tuple[tuple[StructuredOperator, ...], ...]

    def __post_init__(self):
        if not self.grid or not self.grid[0]:
            raise ShapeMismatch("a matrix needs at least one entry")
        width = len(self.grid[0])
        if any(len(row) != width for row in self.grid):
            raise ShapeMismatch("ragged operator grid")

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.grid), len(self.grid[0])

    @property
    def input_arity(self) -> int:
        return self.shape[1]

    @property
    def output_arity(self) -> int:
        return self.shape[0]

    @property
    def column_domains(self) -> tuple[DomainDescriptor, ...]:
        return cached(self, "_column_domains",
                      lambda a: tuple(_intersection(col) for col in zip(*a.grid)))

    block_domains = column_domains

    @property
    def column_dense_flags(self) -> tuple[bool, ...]:
        """Recorded, not enforced: no provably forced coordinate per column."""
        return tuple(not forced_coordinates(d) for d in self.column_domains)

    @property
    def densely_defined(self) -> bool:
        return all(self.column_dense_flags)

    def member(self, blocks) -> Verdict:
        blocks = _as_blocks(blocks, self.input_arity)
        return conjunction(member(b, d) for b, d in zip(blocks, self.column_domains))

    def apply(self, blocks) -> tuple[AppliedVector, ...]:
        blocks = _as_blocks(blocks, self.input_arity)
        out = []
        for row in self.grid:
            acc = AppliedVector()
            for op, b in zip(row, blocks):
                acc = acc + apply(op, b)
            out.append(acc)
        return tuple(out)

    def truncation(self, t: Truncation) -> np.ndarray:
        return np.vstack([
            np.hstack([truncation_matrix(op, t) for op in row]) for row in self.grid])


Composite = RowOp | ColOp | OpMatrix


def assemble(kind: str, parts) -> Composite:
    """Build a composite; for matrices the per-column dense flags are recorded."""
    if kind == "row":
        return RowOp(tuple(parts))
    if kind == "col":
        return ColOp(tuple(parts))
    if kind == "matrix":
        rows = tuple(tuple(r) for r in parts)
        return OpMatrix(rows)
    raise ShapeMismatch(f"unknown composite kind {kind!r}")


def _require_densely_defined(op: StructuredOperator) -> None:
    forced = forced_coordinates(domain_of(op))
    if forced:
        raise NotDenselyDefined(
            f"entry {op.name or 'operator'} forces coordinates {sorted(forced)}")


def row_adjoint(r: RowOp) -> ColOp:
    """True adjoint of a densely defined row: the column of entry adjoints."""
    for e in r.entries:
        _require_densely_defined(e)
    return ColOp(tuple(formal_adjoint_op(e) for e in r.entries))


def col_formal_adjoint(c: ColOp) -> RowOp:
    """Row of entry adjoints; contained in the true adjoint, possibly strictly."""
    return RowOp(tuple(formal_adjoint_op(e) for e in c.entries))


def matrix_formal_adjoint(a: OpMatrix) -> OpMatrix:
    m, n = a.shape
    for row in a.grid:
        for op in row:
            _require_densely_defined(op)
    grid = tuple(tuple(formal_adjoint_op(a.grid[i][j]) for i in range(m))
                 for j in range(n))
    return OpMatrix(grid)


# --- pair domains for the explicit two-entry formulas -----------------------

def _pullback_atom(atom: Atom, w: "RationalWeight") -> Atom:
    """Condition on g equivalent to the atom holding for (w(k) g_k)_k."""
    if isinstance(atom, All):
        return All()
    if isinstance(atom, WeightedL2):
        return WeightedL2(atom.weight * w)
    if isinstance(atom, SeriesConverges):
        return SeriesConverges(atom.coeff * w)
    if isinstance(atom, ResidualL2):
        return ResidualL2(atom.diag * w,
                          tuple((j, c.scale(w.eval(j))) for j, c in atom.sources))
    if isinstance(atom, CoordinateZero):
        return atom if w.eval(atom.coord) != 0 else All()
    raise TypeError(f"not an atom: {atom!r}")


def pullback_through_diagonal(d: DomainDescriptor,
                              op: StructuredOperator) -> DomainDescriptor | None:
    """Descriptor of {g : op g in d} for an anchor-free op, else None."""
    if not op.is_diagonal:
        return None
    return DomainDescriptor(_pullback_atom(a, op.diag) for a in d.atoms)


@dataclass(frozen=True)
class BlockDomains:
    """Independent per-block conditions; None marks an inexpressible block."""

    blocks: tuple[DomainDescriptor | None, ...]

    def member(self, families) -> Verdict:
        blocks = _as_blocks(families, len(self.blocks))
        verdicts = []
        for f, d in zip(blocks, self.blocks):
            verdicts.append(Verdict.UNKNOWN if d is None else member(f, d))
        return conjunction(verdicts)


@dataclass(frozen=True)
class CoupledSumDomain:
    """Pairs (f, g) with f + (coupler g) in the base domain.

    Memberwise decision combines, atom by atom, the verdict for f with the
    verdict for g against the atom pulled back through the diagonal coupler.
    """

    base: DomainDescriptor
    coupler: StructuredOperator

    def member(self, families) -> Verdict:
        f, g = _as_blocks(families, 2)
        if not self.coupler.is_diagonal:
            return Verdict.UNKNOWN
        verdicts = [linear_combination([member(f, DomainDescriptor.all()),
                                        member(g, DomainDescriptor.all())])]
        for atom in self.base.atoms:
            pulled = _pullback_atom(atom, self.coupler.diag)
            verdicts.append(linear_combination([atom_verdict(f, atom),
                                                atom_verdict(g, pulled)]))
        return conjunction(verdicts)


class ClosureSide(enum.Enum):
    ROW_CLOSURE = "row_closure"
    COL_ADJOINT = "col_adjoint"
    COL_FORMAL_ADJOINT = "col_formal_adjoint"


@dataclass(frozen=True)
class ClosureRep:
    """Explicit representation of a closure or adjoint via a bounded factor.

    ``base`` is the closed single operator the action factors through and
    ``coupler`` the bounded operator mixed into the second block.  The action
    is base(f + coupler g) for the sum-coupled sides and
    base(f) + base(coupler g) for the formal-adjoint side.
    """

    base: StructuredOperator
    coupler: StructuredOperator
    side: ClosureSide
    domain: BlockDomains | CoupledSumDomain
    base_injective: bool = True

    def apply(self, families) -> AppliedVector:
        f, g = _as_blocks(families, 2)
        coupled = apply(self.coupler, g)
        if self.side is ClosureSide.COL_FORMAL_ADJOINT:
            return apply(self.base, f) + apply(self.base, coupled.to_sparse())
        fs = f.collapse()
        if fs is None:
            raise UnsupportedOperand("first block must be finitely supported")
        return apply(self.base, fs + coupled.to_sparse())


def _validate_factor(left: StructuredOperator, right: StructuredOperator,
                     target: StructuredOperator, columns: int) -> None:
    """Check left(right(e_k)) == target(e_k) for k below the validation bound.

    For the structured class the identity on finitely many basis vectors
    beyond all degree bounds settles the identity on the span.
    """
    for k in range(columns):
        e_k = SparseVector.unit(k)
        mid = apply(right, e_k)
        if not mid.is_sparse:
            raise UnsupportedOperand(
                "factor validation needs sparse basis images; "
                "the inner factor has a non-trivial source tail")
        lhs = apply(left, mid.to_sparse())
        rhs = apply(target, e_k)
        if lhs != rhs:
            raise FactorCheckFailed(
                f"extension identity fails at basis vector {k}")


def _require_bounded(k_op: StructuredOperator) -> None:
    if not is_bounded(k_op).is_yes:
        raise NotBounded(f"factor {k_op.name or 'K'} is not bounded")


def _require_injective_diagonal(op: StructuredOperator) -> None:
    if not op.is_diagonal:
        raise NotInjective(
            "injectivity is only decided for anchor-free diagonals")
    if op.diag.is_zero or op.diag.vanishes_at_some_index():
        raise NotInjective(f"diagonal of {op.name or 'operator'} vanishes at some k")


def closure_via_bounded_factor(r1: StructuredOperator, r2: StructuredOperator,
                               k_op: StructuredOperator,
                               validation_columns: int = 64) -> ClosureRep:
    """Closure of the row (r1, r2) when r2 factors as r1 K with K bounded.

    The closure acts by (f, g) -> r1_closure(f + K g) on the pairs with
    f + K g in the domain of the closed r1.
    """
    _require_bounded(k_op)
    _require_injective_diagonal(r1)
    _validate_factor(r1, k_op, r2, validation_columns)
    return ClosureRep(base=r1, coupler=k_op, side=ClosureSide.ROW_CLOSURE,
                      domain=CoupledSumDomain(domain_of(r1), k_op))


def _descriptor_implies(stronger: DomainDescriptor, weaker: DomainDescriptor) -> bool:
    """Conservative sufficient test that one domain is inside another."""
    for atom in weaker.atoms:
        if atom in stronger.atoms:
            continue
        if isinstance(atom, WeightedL2):
            if any(isinstance(a, WeightedL2) and a.weight.degree >= atom.weight.degree
                   for a in stronger.atoms):
                continue
        return False
    return True


def col_adjoint_via_bounded_factor(c1: StructuredOperator, c2: StructuredOperator,
                                   k_op: StructuredOperator,
                                   validation_columns: int = 64
                                   ) -> tuple[ClosureRep, ClosureRep]:
    """Formal adjoint and true adjoint of the column (c1, c2) with c2 = K c1.

    Both act through the adjoint of c1: the formal adjoint sends (f, g) to
    c1*(f) + c1*(K* g) on pairs with f and K* g separately in the domain of
    c1*; the true adjoint sends (f, g) to c1*(f + K* g) on the larger set
    where only the sum needs to qualify.
    """
    _require_bounded(k_op)
    _validate_factor(k_op, c1, c2, validation_columns)
    if not _descriptor_implies(domain_of(c1), domain_of(c2)):
        raise HypothesisViolated(
            "entries must share their domain; the second entry is more restrictive")
    base = formal_adjoint_op(c1)
    coupler = formal_adjoint_op(k_op)
    base_domain = domain_of(base)
    formal = ClosureRep(
        base=base, coupler=coupler, side=ClosureSide.COL_FORMAL_ADJOINT,
        domain=BlockDomains((base_domain,
                             pullback_through_diagonal(base_domain, coupler))))
    adjoint = ClosureRep(
        base=base, coupler=coupler, side=ClosureSide.COL_ADJOINT,
        domain=CoupledSumDomain(base_domain, coupler))
    return formal, adjoint


@dataclass(frozen=True)
class CertifiedAdjoint:
    """Formal adjoint together with the reason it equals the true adjoint."""

    operator: Composite
    certificate: str


def adjoint_when_mostly_bounded(x: Composite) -> CertifiedAdjoint:
    """Adjoint shortcut when at most one entry is unbounded.

    For a column (or a matrix) with at most one unbounded entry the formal
    adjoint coincides with the true adjoint; for a row the formal adjoint is
    always the true adjoint, and the boundedness count additionally makes it
    densely defined.
    """
    if isinstance(x, RowOp):
        entries = x.entries
        limit = 1
        build = lambda: row_adjoint(x)
        reason = ("row adjoint is the column of entry adjoints; with at most one "
                  "unbounded entry it is densely defined")
    elif isinstance(x, ColOp):
        entries = x.entries
        limit = 1
        build = lambda: col_formal_adjoint(x)
        reason = ("column with at most one unbounded entry: formal adjoint "
                  "equals the true adjoint")
    elif isinstance(x, OpMatrix):
        entries = tuple(op for row in x.grid for op in row)
        limit = 1
        build = lambda: matrix_formal_adjoint(x)
        reason = ("matrix with at most one unbounded entry: formal adjoint "
                  "equals the true adjoint")
    else:
        raise ShapeMismatch(f"not a composite: {type(x).__name__}")
    unbounded = sum(1 for e in entries if not is_bounded(e).is_yes)
    if unbounded > limit:
        raise NotApplicable(f"{unbounded} unbounded entries; at most {limit} allowed")
    return CertifiedAdjoint(build(), reason)


# --- JSON --------------------------------------------------------------------

def composite_to_json(x: Composite) -> dict:
    if isinstance(x, RowOp):
        return {"kind": "row", "entries": [operator_to_json(e) for e in x.entries]}
    if isinstance(x, ColOp):
        return {"kind": "col", "entries": [operator_to_json(e) for e in x.entries]}
    if isinstance(x, OpMatrix):
        return {"grid": [[operator_to_json(op) if not op.is_zero_op else "zero"
                          for op in row] for row in x.grid]}
    raise InvalidDefinition(f"not a composite: {type(x).__name__}")


def composite_from_json(obj, path: str = "definition") -> Composite | StructuredOperator:
    if not isinstance(obj, dict):
        raise InvalidDefinition(f"{path}: expected an object")
    if "grid" in obj:
        grid = obj["grid"]
        if not isinstance(grid, list) or not grid:
            raise InvalidDefinition(f"{path}.grid: expected a non-empty list of rows")
        rows = []
        for i, row in enumerate(grid):
            if not isinstance(row, list) or not row:
                raise InvalidDefinition(f"{path}.grid[{i}]: expected a non-empty list")
            rows.append(tuple(operator_from_json(op, f"{path}.grid[{i}][{j}]")
                              for j, op in enumerate(row)))
        try:
            return OpMatrix(tuple(rows))
        except ShapeMismatch as exc:
            raise InvalidDefinition(f"{path}.grid: {exc}") from exc
    kind = obj.get("kind")
    if kind in ("row", "col"):
        entries = obj.get("entries")
        if not isinstance(entries, list) or not entries:
            raise InvalidDefinition(f"{path}.entries: expected a non-empty list")
        ops = tuple(operator_from_json(e, f"{path}.entries[{i}]")
                    for i, e in enumerate(entries))
        return RowOp(ops) if kind == "row" else ColOp(ops)
    if "diag" in obj:
        return operator_from_json(obj, path)
    raise InvalidDefinition(f"{path}: expected 'grid', 'kind', or an operator object")
