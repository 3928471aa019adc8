"""Symbolic operator-domain descriptors over l2 and a decidable membership test.

A descriptor is a finite conjunction of atoms:

* ``All``                    -- no condition beyond membership in l2,
* ``WeightedL2(w)``          -- (w(k) gamma_k)_k in l2,
* ``SeriesConverges(c)``     -- sum_k c(k) gamma_k converges,
* ``ResidualL2(d, sources)`` -- (d(k) gamma_k + sum_j c_j(k) gamma_j)_k in l2,
* ``CoordinateZero(j)``      -- gamma_j = 0.

Weights are rational functions of k with rational coefficients and a
denominator that never vanishes at an integer k >= 0.  Membership is decided
for the supported family class (finite support, signed power laws, finite
linear combinations) by degree comparison against the classical p-series and
alternating-series thresholds; boundary exponents are definite No.  Sums whose
summand verdicts cannot be combined by linearity come back Unknown rather
than guessed.

The ResidualL2 atom combines per term: the diagonal part must be square
summable by the weighted rule and every source column that multiplies a
nonzero coordinate must itself be an l2 sequence.  Cancellation between the
diagonal and a source column is deliberately not modelled.

Weights, descriptors and the operators built on them are immutable, so
derived structure is computed once per value and stored on it (``cached``):
forced and excluded coordinates per descriptor here, the natural domain per
operator and the block domains per composite in the layers above.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .errors import InvalidDefinition
from .seqspace import (
    CoefficientFamily,
    PowerLaw,
    Scaled,
    Sum,
    decode_scalar,
    encode_scalar,
    eval_family,
)


class Verdict(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"

    @property
    def is_yes(self) -> bool:
        return self is Verdict.YES


def conjunction(verdicts: Iterable[Verdict]) -> Verdict:
    out = Verdict.YES
    for v in verdicts:
        if v is Verdict.NO:
            return Verdict.NO
        if v is Verdict.UNKNOWN:
            out = Verdict.UNKNOWN
    return out


def linear_combination(verdicts: list[Verdict]) -> Verdict:
    """Combine summand verdicts for membership in a linear subspace.

    All Yes gives Yes; exactly one No among Yeses gives No (a subspace plus a
    non-member leaves the subspace); anything else is undecided because
    several non-members may cancel.
    """
    if all(v is Verdict.YES for v in verdicts):
        return Verdict.YES
    nos = sum(1 for v in verdicts if v is Verdict.NO)
    unknowns = sum(1 for v in verdicts if v is Verdict.UNKNOWN)
    if nos == 1 and unknowns == 0:
        return Verdict.NO
    return Verdict.UNKNOWN


def cached(obj, attr: str, compute):
    """``compute(obj)``, stored on the immutable ``obj`` the first time.

    The attribute is private: equality and hashing never read it.
    """
    try:
        return getattr(obj, attr)
    except AttributeError:
        value = compute(obj)
        object.__setattr__(obj, attr, value)
        return value


# --- polynomial helpers (dense, Fraction coefficients) ---------------------

def _trim(coeffs: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return coeffs[:n]


def _as_poly(coeffs) -> tuple[Fraction, ...]:
    return _trim(tuple(Fraction(c) for c in coeffs))


def _poly_mul(a, b) -> tuple[Fraction, ...]:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _trim(tuple(out))


def _poly_add(a, b) -> tuple[Fraction, ...]:
    n = max(len(a), len(b))
    return _trim(tuple(
        (a[i] if i < len(a) else Fraction(0)) + (b[i] if i < len(b) else Fraction(0))
        for i in range(n)))


def _poly_scale(a, s: Fraction) -> tuple[Fraction, ...]:
    if s == 0:
        return ()
    return _trim(tuple(c * s for c in a))


def _integer_coeffs(coeffs, scale: int) -> tuple[int, ...]:
    return tuple(c.numerator * (scale // c.denominator) for c in coeffs)


def _horner(coeffs: tuple[int, ...], k: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * k + c
    return acc


def _poly_rem(a, b) -> tuple[Fraction, ...]:
    rem = [Fraction(c) for c in a]
    while len(rem) >= len(b):
        q = rem[-1] / b[-1]
        shift = len(rem) - len(b)
        for i, c in enumerate(b):
            rem[shift + i] -= q * c
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    return tuple(rem)


def _sturm_chain(p: tuple[int, ...]) -> list[tuple[int, ...]]:
    # Positive rescaling keeps every sign, so the chain stays integral.
    chain = [p, tuple(i * c for i, c in enumerate(p) if i)]
    while len(chain[-1]) > 1:
        rem = _poly_rem(chain[-2], chain[-1])
        if not rem:
            break
        neg = tuple(-c for c in rem)
        chain.append(_integer_coeffs(neg, math.lcm(*(c.denominator for c in neg))))
    return chain


def _sign_changes(chain: list[tuple[int, ...]], x: int) -> int:
    changes, last = 0, 0
    for p in chain:
        v = _horner(p, x)
        if v:
            if last and (v > 0) != (last > 0):
                changes += 1
            last = v
    return changes


def _has_nonneg_integer_root(coeffs: tuple[int, ...]) -> bool:
    """Whether an integer polynomial (ascending coefficients, no trailing
    zero) vanishes at some integer k >= 0.

    Exact root isolation: Descartes' rule of signs rules out positive roots
    when the coefficients never change sign, a linear polynomial is solved
    outright, and otherwise Sturm sequences bisect the integer interval up
    to the Cauchy bound.  The cost grows with the degree and with the
    logarithm of the coefficients.
    """
    if not coeffs or coeffs[0] == 0:
        return True  # the zero polynomial, or the root k = 0
    nonzero = [c > 0 for c in coeffs if c]
    if all(s is nonzero[0] for s in nonzero):
        return False
    if len(coeffs) == 2:
        return coeffs[0] % coeffs[1] == 0
    # Cauchy bound: every root has |x| <= 1 + max |c_i| / |c_lead|.
    bound = 1 - (-max(abs(c) for c in coeffs[:-1]) // abs(coeffs[-1]))
    if _horner(coeffs, bound) == 0:
        return True
    chain = _sturm_chain(coeffs)
    # (lo, hi) with neither end a root; Sturm counts the distinct roots
    # strictly between them as the drop in sign changes.
    todo = [(0, _sign_changes(chain, 0), bound, _sign_changes(chain, bound))]
    while todo:
        lo, v_lo, hi, v_hi = todo.pop()
        if v_lo == v_hi or hi - lo == 1:
            continue
        mid = (lo + hi) // 2
        if _horner(coeffs, mid) == 0:
            return True
        v_mid = _sign_changes(chain, mid)
        todo += [(lo, v_lo, mid, v_mid), (mid, v_mid, hi, v_hi)]
    return False


@dataclass(frozen=True)
class RationalWeight:
    """Rational function of k; the denominator never vanishes at k >= 0.

    Stored with a monic denominator so structurally equal weights compare
    equal; ``same_rational`` decides equality as rational functions.
    Evaluation runs on integer copies of both polynomials over a common
    multiplier, which ``__eq__`` and ``hash`` ignore.
    """

    num: tuple[Fraction, ...]
    den: tuple[Fraction, ...] = (Fraction(1),)

    def __post_init__(self):
        num = _as_poly(self.num)
        den = _as_poly(self.den)
        if not den:
            raise ValueError("denominator must not be the zero polynomial")
        lead = den[-1]
        num = _poly_scale(num, 1 / lead)
        den = _poly_scale(den, 1 / lead)
        scale = math.lcm(*(c.denominator for c in num + den))
        int_num = _integer_coeffs(num, scale)
        int_den = _integer_coeffs(den, scale)
        if _has_nonneg_integer_root(int_den):
            raise ValueError("denominator vanishes at some integer k >= 0")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_int_num", int_num)
        # None marks the scaled denominator 1: eval then returns an int.
        object.__setattr__(self, "_int_den", None if int_den == (1,) else int_den)

    @classmethod
    def poly(cls, *coeffs) -> "RationalWeight":
        """Polynomial weight c0 + c1 k + c2 k^2 + ..."""
        return cls(tuple(Fraction(c) for c in coeffs))

    @classmethod
    def constant(cls, c) -> "RationalWeight":
        return cls((Fraction(c),))

    @classmethod
    def ratio(cls, num, den) -> "RationalWeight":
        return cls(tuple(Fraction(c) for c in num), tuple(Fraction(c) for c in den))

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def degree(self) -> int | None:
        """Degree as a rational function; None for the zero weight."""
        if self.is_zero:
            return None
        return (len(self.num) - 1) - (len(self.den) - 1)

    @property
    def is_ell2(self) -> bool:
        """Whether (w(k))_k is an l2 sequence (zero or degree <= -1)."""
        return self.is_zero or self.degree <= -1

    @property
    def is_bounded_seq(self) -> bool:
        return self.is_zero or self.degree <= 0

    def eval(self, k: int):
        if k < 0:
            raise ValueError("index must be >= 0")
        acc = _horner(self._int_num, k)
        den = self._int_den
        return acc if den is None else Fraction(acc, _horner(den, k))

    def __add__(self, other: "RationalWeight") -> "RationalWeight":
        num = _poly_add(_poly_mul(self.num, other.den), _poly_mul(other.num, self.den))
        return RationalWeight(num, _poly_mul(self.den, other.den))

    def __neg__(self) -> "RationalWeight":
        return RationalWeight(_poly_scale(self.num, Fraction(-1)), self.den)

    def __sub__(self, other: "RationalWeight") -> "RationalWeight":
        return self + (-other)

    def __mul__(self, other: "RationalWeight") -> "RationalWeight":
        return RationalWeight(_poly_mul(self.num, other.num),
                              _poly_mul(self.den, other.den))

    def scale(self, s) -> "RationalWeight":
        return RationalWeight(_poly_scale(self.num, Fraction(s)), self.den)

    def same_rational(self, other: "RationalWeight") -> bool:
        return _poly_mul(self.num, other.den) == _poly_mul(other.num, self.den)

    def monic_in_numerator(self) -> "RationalWeight":
        """Scale so the numerator's leading coefficient is 1 (zero stays zero)."""
        if self.is_zero or self.num[-1] == 1:
            return self
        return self.scale(1 / self.num[-1])

    def vanishes_at_some_index(self) -> bool:
        """Whether the numerator has a zero at an integer k >= 0."""
        return _has_nonneg_integer_root(self._int_num)

    def to_json(self) -> dict:
        return {"num": [encode_scalar(c) for c in self.num],
                "den": [encode_scalar(c) for c in self.den]}

    @classmethod
    def from_json(cls, obj, path: str = "weight") -> "RationalWeight":
        if not isinstance(obj, dict) or "num" not in obj:
            raise InvalidDefinition(f"{path}: expected an object with 'num'")
        num = obj["num"]
        den = obj.get("den", [1])
        if not isinstance(num, list) or not isinstance(den, list):
            raise InvalidDefinition(f"{path}: 'num' and 'den' must be lists")
        try:
            return cls(
                tuple(Fraction(decode_scalar(c, f"{path}.num[{i}]"))
                      for i, c in enumerate(num)),
                tuple(Fraction(decode_scalar(c, f"{path}.den[{i}]"))
                      for i, c in enumerate(den)))
        except (ValueError, ArithmeticError) as exc:
            raise InvalidDefinition(f"{path}: {exc}") from exc


# --- atoms ------------------------------------------------------------------

@dataclass(frozen=True)
class All:
    pass


@dataclass(frozen=True)
class WeightedL2:
    weight: RationalWeight


@dataclass(frozen=True)
class SeriesConverges:
    coeff: RationalWeight


@dataclass(frozen=True)
class ResidualL2:
    diag: RationalWeight
    sources: tuple[tuple[int, RationalWeight], ...]

    def __post_init__(self):
        froms = [j for j, _ in self.sources]
        if len(set(froms)) != len(froms):
            raise ValueError("duplicate source coordinates in ResidualL2")


@dataclass(frozen=True)
class CoordinateZero:
    coord: int


Atom = Union[All, WeightedL2, SeriesConverges, ResidualL2, CoordinateZero]


def _normalize_atom(atom: Atom) -> list[Atom]:
    """Drop conditions that are vacuous on l2, split discharged residuals,
    and normalize weights up to the overall scale the condition ignores."""
    if isinstance(atom, All):
        return []
    if isinstance(atom, WeightedL2):
        # A bounded weight imposes nothing on an l2 vector.
        if atom.weight.is_bounded_seq:
            return []
        return [WeightedL2(atom.weight.monic_in_numerator())]
    if isinstance(atom, SeriesConverges):
        # An l2 coefficient sequence pairs absolutely with any l2 vector.
        if atom.coeff.is_ell2:
            return []
        return [SeriesConverges(atom.coeff.monic_in_numerator())]
    if isinstance(atom, ResidualL2):
        bad = tuple((j, w) for j, w in atom.sources if not w.is_ell2)
        if not bad:
            return _normalize_atom(WeightedL2(atom.diag))
        if atom.diag.is_bounded_seq:
            # The diagonal part is unconditionally l2, so each remaining
            # column forces its coordinate outright.
            return [CoordinateZero(j) for j, _ in bad]
        scale = 1 / atom.diag.num[-1]
        return [ResidualL2(atom.diag.scale(scale),
                           tuple((j, w.scale(scale)) for j, w in bad))]
    if isinstance(atom, CoordinateZero):
        if atom.coord < 0:
            raise ValueError("coordinate must be >= 0")
        return [atom]
    raise TypeError(f"not an atom: {atom!r}")


class DomainDescriptor:
    """Conjunction of atoms; order-insensitive for membership and equality."""

    __slots__ = ("atoms", "_forced", "_excluded")

    def __init__(self, atoms: Iterable[Atom] = ()):
        seen: list[Atom] = []
        for raw in atoms:
            for a in _normalize_atom(raw):
                if a not in seen:
                    seen.append(a)
        self.atoms = tuple(seen)

    @classmethod
    def all(cls) -> "DomainDescriptor":
        return cls()

    @property
    def is_all(self) -> bool:
        return not self.atoms

    def __eq__(self, other) -> bool:
        if not isinstance(other, DomainDescriptor):
            return NotImplemented
        return frozenset(self.atoms) == frozenset(other.atoms)

    def __hash__(self) -> int:
        return hash(frozenset(self.atoms))

    def __repr__(self) -> str:
        return f"DomainDescriptor({list(self.atoms)!r})"

    def member(self, f: CoefficientFamily) -> Verdict:
        return member(f, self)

    def to_json(self) -> list[dict]:
        return [_atom_to_json(a) for a in self.atoms]

    @classmethod
    def from_json(cls, obj, path: str = "domain") -> "DomainDescriptor":
        if not isinstance(obj, list):
            raise InvalidDefinition(f"{path}: expected a list of atoms")
        return cls(_atom_from_json(a, f"{path}[{i}]") for i, a in enumerate(obj))


def intersect(d1: DomainDescriptor, d2: DomainDescriptor) -> DomainDescriptor:
    return DomainDescriptor(d1.atoms + d2.atoms)


# --- membership -------------------------------------------------------------

def _weighted_l2_verdict(f: CoefficientFamily, w: RationalWeight) -> Verdict:
    """Is (w(k) f_k)_k an l2 sequence, for the supported family class."""
    if w.is_zero:
        return Verdict.YES
    sv = f.collapse()
    if sv is not None:
        return Verdict.YES
    if isinstance(f, PowerLaw):
        # |w(k)| ~ k^deg, so the terms are ~ k^(2(deg - p)).
        return Verdict.YES if 2 * (w.degree - f.exponent) < -1 else Verdict.NO
    if isinstance(f, Scaled):
        return _weighted_l2_verdict(f.of, w)
    if isinstance(f, Sum):
        parts = [t for t in f.terms if not t.is_structurally_zero]
        return linear_combination([_weighted_l2_verdict(t, w) for t in parts])
    return Verdict.UNKNOWN


def _series_verdict(f: CoefficientFamily, c: RationalWeight) -> Verdict:
    """Does sum_k c(k) f_k converge, for the supported family class."""
    if c.is_zero:
        return Verdict.YES
    sv = f.collapse()
    if sv is not None:
        return Verdict.YES
    if isinstance(f, PowerLaw):
        e = c.degree - f.exponent
        if f.sign == "alternating":
            # Terms are eventually monotone, so the alternating test is exact.
            return Verdict.YES if e < 0 else Verdict.NO
        return Verdict.YES if e < -1 else Verdict.NO
    if isinstance(f, Scaled):
        return _series_verdict(f.of, c)
    if isinstance(f, Sum):
        parts = [t for t in f.terms if not t.is_structurally_zero]
        return linear_combination([_series_verdict(t, c) for t in parts])
    return Verdict.UNKNOWN


def atom_verdict(f: CoefficientFamily, atom: Atom) -> Verdict:
    if isinstance(atom, All):
        return Verdict.YES
    if isinstance(atom, WeightedL2):
        return _weighted_l2_verdict(f, atom.weight)
    if isinstance(atom, SeriesConverges):
        return _series_verdict(f, atom.coeff)
    if isinstance(atom, CoordinateZero):
        return Verdict.YES if eval_family(f, atom.coord) == 0 else Verdict.NO
    if isinstance(atom, ResidualL2):
        parts = [_weighted_l2_verdict(f, atom.diag)]
        for j, w in atom.sources:
            if w.is_ell2 or eval_family(f, j) == 0:
                parts.append(Verdict.YES)
            else:
                parts.append(Verdict.NO)
        return conjunction(parts)
    raise TypeError(f"not an atom: {atom!r}")


def _ambient_l2_verdict(f: CoefficientFamily) -> Verdict:
    # Membership in the ambient space itself; constant weight 1 on purpose
    # bypasses the vacuous-atom normalization.
    return _weighted_l2_verdict(f, RationalWeight.constant(1))


def member(f: CoefficientFamily, d: DomainDescriptor) -> Verdict:
    """Three-valued membership of the family in the described domain."""
    sv = f.collapse()
    if sv is not None:
        # Finitely supported vectors satisfy every weighted and series
        # condition; only residual source columns and pinned coordinates bite.
        for a in d.atoms:
            if isinstance(a, CoordinateZero):
                if sv.get(a.coord) != 0:
                    return Verdict.NO
            elif isinstance(a, ResidualL2):
                for j, w in a.sources:
                    if not w.is_ell2 and sv.get(j) != 0:
                        return Verdict.NO
        return Verdict.YES
    verdicts = [_ambient_l2_verdict(f)]
    verdicts.extend(atom_verdict(f, a) for a in d.atoms)
    return conjunction(verdicts)


# --- forced coordinates ------------------------------------------------------

def _residual_view(atom: Atom) -> tuple[RationalWeight, dict[int, RationalWeight]] | None:
    if isinstance(atom, WeightedL2):
        return atom.weight, {}
    if isinstance(atom, ResidualL2):
        return atom.diag, dict(atom.sources)
    return None


def forced_coordinates(d: DomainDescriptor) -> frozenset[int]:
    """Coordinates provably zero for every member of the domain.

    Two inference rules, sound but incomplete:

    * pairwise rule: two residual conditions with the same diagonal differ by
      a combination of source columns; if exactly one column in the
      difference is not l2, it forces its coordinate;
    * domination rule: if another weighted condition dominates a residual's
      diagonal (degree at least as large), the source part of the residual is
      itself l2, which forces every coordinate with a non-l2 column.

    CoordinateZero atoms are forced directly.
    """
    return cached(d, "_forced", _forced_coordinates)


def _forced_coordinates(d: DomainDescriptor) -> frozenset[int]:
    forced: set[int] = set()
    residuals = []
    weighted_degrees = []
    for atom in d.atoms:
        if isinstance(atom, CoordinateZero):
            forced.add(atom.coord)
        view = _residual_view(atom)
        if view is not None:
            residuals.append(view)
        if isinstance(atom, WeightedL2):
            weighted_degrees.append(atom.weight.degree)

    for i in range(len(residuals)):
        for j in range(i + 1, len(residuals)):
            d1, s1 = residuals[i]
            d2, s2 = residuals[j]
            if not d1.same_rational(d2):
                continue
            zero = RationalWeight.constant(0)
            bad = [c for c in set(s1) | set(s2)
                   if not (s1.get(c, zero) - s2.get(c, zero)).is_ell2]
            if len(bad) == 1:
                forced.add(bad[0])

    for diag, sources in residuals:
        if not sources:
            continue
        dominated = diag.is_zero or any(
            deg is not None and deg >= diag.degree for deg in weighted_degrees)
        if dominated:
            forced.update(c for c, w in sources.items() if not w.is_ell2)

    return frozenset(forced)


def admits_all_finitely_supported(d: DomainDescriptor) -> bool:
    """True when every finitely supported vector is a member.

    Weighted and series atoms admit all finite sums; a residual atom rejects
    the basis vectors of its non-l2 source columns, and a CoordinateZero atom
    rejects its own basis vector.
    """
    for atom in d.atoms:
        if isinstance(atom, CoordinateZero):
            return False
        if isinstance(atom, ResidualL2):
            if any(not w.is_ell2 for _, w in atom.sources):
                return False
    return True


def excluded_coordinates(d: DomainDescriptor) -> frozenset[int]:
    """Coordinates a finitely supported member must avoid."""
    return cached(d, "_excluded", _excluded_coordinates)


def _excluded_coordinates(d: DomainDescriptor) -> frozenset[int]:
    out = set(forced_coordinates(d))
    for atom in d.atoms:
        if isinstance(atom, ResidualL2):
            out.update(j for j, w in atom.sources if not w.is_ell2)
        if isinstance(atom, CoordinateZero):
            out.add(atom.coord)
    return frozenset(out)


# --- JSON --------------------------------------------------------------------

def _atom_to_json(atom: Atom) -> dict:
    if isinstance(atom, All):
        return {"atom": "all"}
    if isinstance(atom, WeightedL2):
        return {"atom": "weighted_l2", "weight": atom.weight.to_json()}
    if isinstance(atom, SeriesConverges):
        return {"atom": "series_converges", "coeff": atom.coeff.to_json()}
    if isinstance(atom, ResidualL2):
        return {"atom": "residual_l2", "diag": atom.diag.to_json(),
                "sources": [{"coord": j, "weight": w.to_json()}
                            for j, w in atom.sources]}
    if isinstance(atom, CoordinateZero):
        return {"atom": "coordinate_zero", "coord": atom.coord}
    raise TypeError(f"not an atom: {atom!r}")


def _atom_from_json(obj, path: str) -> Atom:
    if not isinstance(obj, dict) or "atom" not in obj:
        raise InvalidDefinition(f"{path}: expected an object with 'atom'")
    kind = obj["atom"]
    if kind == "all":
        return All()
    if kind == "weighted_l2":
        return WeightedL2(RationalWeight.from_json(obj.get("weight"), f"{path}.weight"))
    if kind == "series_converges":
        return SeriesConverges(RationalWeight.from_json(obj.get("coeff"), f"{path}.coeff"))
    if kind == "residual_l2":
        sources = obj.get("sources", [])
        if not isinstance(sources, list):
            raise InvalidDefinition(f"{path}.sources: expected a list")
        parsed = []
        for i, s in enumerate(sources):
            if not isinstance(s, dict) or "coord" not in s:
                raise InvalidDefinition(f"{path}.sources[{i}]: expected coord + weight")
            parsed.append((s["coord"],
                           RationalWeight.from_json(s.get("weight"),
                                                    f"{path}.sources[{i}].weight")))
        return ResidualL2(RationalWeight.from_json(obj.get("diag"), f"{path}.diag"),
                          tuple(parsed))
    if kind == "coordinate_zero":
        coord = obj.get("coord")
        if not isinstance(coord, int) or coord < 0:
            raise InvalidDefinition(f"{path}.coord: expected integer >= 0")
        return CoordinateZero(coord)
    raise InvalidDefinition(f"{path}.atom: unknown atom {kind!r}")
