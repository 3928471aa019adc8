"""Row, column, and matrix composites with block-domain semantics.

Every composite is a grid of structured operators with one block calculus:
block column j acts on the intersection of the entry domains in column j,
and output block i is the sum along row i.  A row is the 1 x n matrix,
(f_1 + ... + f_n) -> sum_j R_j f_j on the direct sum of entry domains; a
column is the n x 1 matrix, f -> (C_1 f, ..., C_n f) on the intersection of
entry domains; a single operator is the 1 x 1 matrix (``as_matrix``).

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
    Entries,
    StructuredOperator,
    apply,
    compression,
    dense,
    domain_of,
    formal_adjoint_op,
    is_bounded,
    operator_from_json,
    operator_to_json,
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
    if len(ops) == 1:
        return domain_of(ops[0])
    return DomainDescriptor(atom for op in ops for atom in domain_of(op).atoms)


class _Blocks:
    """Block semantics over ``grid``, the one implementation every composite uses.

    Block column j acts on the intersection of the entry domains in column j,
    and output block i is the sum along row i.
    """

    _kind = "matrix"

    def __post_init__(self):
        if not self.grid or not self.grid[0]:
            raise ShapeMismatch(f"a {self._kind} needs at least one entry")
        if any(len(row) != len(self.grid[0]) for row in self.grid):
            raise ShapeMismatch("ragged operator grid")

    @property
    def shape(self) -> tuple[int, int]:
        return self.output_arity, self.input_arity

    @property
    def input_arity(self) -> int:
        return len(self.grid[0])

    @property
    def output_arity(self) -> int:
        return len(self.grid)

    @property
    def block_domains(self) -> tuple[DomainDescriptor, ...]:
        return cached(self, "_block_domains",
                      lambda a: tuple(_intersection(col) for col in zip(*a.grid)))

    @property
    def column_dense_flags(self) -> tuple[bool, ...]:
        """Recorded, not enforced: no provably forced coordinate per column."""
        return tuple(not forced_coordinates(d) for d in self.block_domains)

    @property
    def densely_defined(self) -> bool:
        return all(self.column_dense_flags)

    def member(self, blocks) -> Verdict:
        blocks = _as_blocks(blocks, self.input_arity)
        return conjunction(member(b, d) for b, d in zip(blocks, self.block_domains))

    def apply(self, blocks) -> tuple[AppliedVector, ...]:
        blocks = _as_blocks(blocks, self.input_arity)
        out = []
        for row in self.grid:
            acc = AppliedVector()
            for op, b in zip(row, blocks):
                acc = acc + apply(op, b)
            out.append(acc)
        return tuple(out)

    def compression(self, n: int) -> Entries:
        """Nonzero entries of the compression onto n coordinates per block."""
        return {(r * n + i, c * n + j): v
                for r, row in enumerate(self.grid) for c, op in enumerate(row)
                for (i, j), v in compression(op, n).items()}

    def truncation(self, t: Truncation):
        return dense(self.compression(t.n), tuple(m * t.n for m in self.shape))


@dataclass(frozen=True)
class RowOp(_Blocks):
    """The 1 x n matrix (f_1, ..., f_n) -> sum_j R_j f_j."""

    entries: tuple[StructuredOperator, ...]
    _kind = "row"

    @property
    def grid(self) -> tuple[tuple[StructuredOperator, ...], ...]:
        return (self.entries,)

    # opmxbench/spans.py reads these names from the class dict.
    block_domains = _Blocks.block_domains

    def apply(self, blocks) -> AppliedVector:
        (out,) = super().apply(blocks)
        return out


@dataclass(frozen=True)
class ColOp(_Blocks):
    """The n x 1 matrix f -> (C_1 f, ..., C_n f)."""

    entries: tuple[StructuredOperator, ...]
    _kind = "column"

    @property
    def grid(self) -> tuple[tuple[StructuredOperator, ...], ...]:
        return tuple((e,) for e in self.entries)

    @property
    def domain(self) -> DomainDescriptor:
        return self.block_domains[0]

    # opmxbench/spans.py reads these names from the class dict.
    apply = _Blocks.apply
    block_domains = _Blocks.block_domains


@dataclass(frozen=True)
class OpMatrix(_Blocks):
    grid: tuple[tuple[StructuredOperator, ...], ...]

    # opmxbench/spans.py reads these names from the class dict.
    apply = _Blocks.apply
    column_domains = block_domains = _Blocks.block_domains


Composite = RowOp | ColOp | OpMatrix


def as_matrix(x: Composite | StructuredOperator) -> OpMatrix:
    """The same map as a matrix: an operator is 1 x 1, a row 1 x n, a column n x 1."""
    if isinstance(x, StructuredOperator):
        return OpMatrix(((x,),))
    return x if isinstance(x, OpMatrix) else OpMatrix(x.grid)


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


def _adjoint_grid(x: Composite) -> tuple[tuple[StructuredOperator, ...], ...]:
    """The transposed grid of entry adjoints."""
    return tuple(tuple(formal_adjoint_op(op) for op in col) for col in zip(*x.grid))


def row_adjoint(r: RowOp) -> ColOp:
    """True adjoint of a densely defined row: the column of entry adjoints."""
    for op in r.entries:
        forced = forced_coordinates(domain_of(op))
        if forced:
            raise NotDenselyDefined(
                f"entry {op.name or 'operator'} forces coordinates {sorted(forced)}")
    return ColOp(tuple(e for (e,) in _adjoint_grid(r)))


def col_formal_adjoint(c: ColOp) -> RowOp:
    """Row of entry adjoints; contained in the true adjoint, possibly strictly."""
    (entries,) = _adjoint_grid(c)
    return RowOp(entries)


def matrix_formal_adjoint(a: OpMatrix) -> OpMatrix:
    """Transposed grid of entry adjoints; contained in the true adjoint."""
    return OpMatrix(_adjoint_grid(a))


def block_adjoint(x: Composite) -> Composite:
    """The true adjoint of a row, the formal adjoint of a column or matrix."""
    if isinstance(x, RowOp):
        return row_adjoint(x)
    if isinstance(x, ColOp):
        return col_formal_adjoint(x)
    if isinstance(x, OpMatrix):
        return matrix_formal_adjoint(x)
    raise ShapeMismatch(f"not a composite: {type(x).__name__}")


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


_SHORTCUT_REASONS = {
    RowOp: ("row adjoint is the column of entry adjoints; with at most one "
            "unbounded entry it is densely defined"),
    ColOp: ("column with at most one unbounded entry: formal adjoint "
            "equals the true adjoint"),
    OpMatrix: ("matrix with at most one unbounded entry: formal adjoint "
               "equals the true adjoint"),
}


def adjoint_when_mostly_bounded(x: Composite) -> CertifiedAdjoint:
    """Adjoint shortcut when at most one entry is unbounded.

    For a column (or a matrix) with at most one unbounded entry the formal
    adjoint coincides with the true adjoint; for a row the formal adjoint is
    always the true adjoint, and the boundedness count additionally makes it
    densely defined.
    """
    if type(x) not in _SHORTCUT_REASONS:
        raise ShapeMismatch(f"not a composite: {type(x).__name__}")
    unbounded = sum(1 for row in x.grid for e in row if not is_bounded(e).is_yes)
    if unbounded > 1:
        raise NotApplicable(f"{unbounded} unbounded entries; at most 1 allowed")
    return CertifiedAdjoint(block_adjoint(x), _SHORTCUT_REASONS[type(x)])


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
