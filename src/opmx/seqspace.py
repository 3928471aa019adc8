"""Vectors and closed-form coefficient sequences on the real sequence space l2.

Finitely supported vectors carry exact scalars (int or Fraction, float
allowed), so pairing identities computed from rational data hold exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

from .errors import InvalidDefinition

Scalar = Union[int, float, Fraction]

ALL_PLUS = "all_plus"
ALTERNATING = "alternating"


def _canonical_entries(entries) -> tuple[tuple[int, Scalar], ...]:
    acc: dict[int, Scalar] = {}
    for k, v in entries:
        k = int(k)
        if k < 0:
            raise ValueError(f"negative index {k}")
        prev = acc.get(k)
        acc[k] = v if prev is None else prev + v
    return tuple((k, acc[k]) for k in sorted(acc) if acc[k] != 0)


@dataclass(frozen=True)
class SparseVector:
    """Finitely supported vector, canonical by construction: sorted indices,
    no zero values.

    ``SparseVector(entries)`` sorts the entries and sums duplicates.
    ``_canonical`` stores entries as given and is only for entries that are
    already canonical; the arithmetic below keeps them so.
    """

    entries: tuple[tuple[int, Scalar], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "entries", _canonical_entries(self.entries))

    @classmethod
    def _canonical(cls, entries: tuple[tuple[int, Scalar], ...]) -> "SparseVector":
        """Wrap entries with strictly increasing int indices >= 0 and no zero
        value, without checking them."""
        v = object.__new__(cls)
        object.__setattr__(v, "entries", entries)
        return v

    @classmethod
    def unit(cls, k: int) -> "SparseVector":
        k = int(k)
        if k < 0:
            raise ValueError(f"negative index {k}")
        return cls._canonical(((k, 1),))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(k for k, _ in self.entries)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def get(self, k: int) -> Scalar:
        for i, v in self.entries:
            if i == k:
                return v
        return 0

    def __add__(self, other: "SparseVector") -> "SparseVector":
        a, b = self.entries, other.entries
        if not a:
            return other
        if not b:
            return self
        # Merge the two sorted supports; a shared index keeps a nonzero sum.
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            ka, kb = a[i][0], b[j][0]
            if ka < kb:
                out.append(a[i])
                i += 1
            elif kb < ka:
                out.append(b[j])
                j += 1
            else:
                v = a[i][1] + b[j][1]
                if v != 0:
                    out.append((ka, v))
                i += 1
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return SparseVector._canonical(tuple(out))

    def __sub__(self, other: "SparseVector") -> "SparseVector":
        return self + (-other)

    def __neg__(self) -> "SparseVector":
        return SparseVector._canonical(tuple((k, -v) for k, v in self.entries))

    def scale(self, a: Scalar) -> "SparseVector":
        if a == 0:
            return SparseVector()
        return SparseVector(tuple((k, a * v) for k, v in self.entries))


def inner(u: SparseVector, v: SparseVector) -> Scalar:
    """l2 pairing over the shared support; exact on rational inputs."""
    if len(v.entries) < len(u.entries):
        u, v = v, u
    lookup = dict(v.entries)
    total: Scalar = 0
    for k, a in u.entries:
        b = lookup.get(k)
        if b is not None:
            total += a * b
    return total


def norm_squared(u: SparseVector) -> Scalar:
    return sum((v * v for _, v in u.entries), 0)


def norm(u: SparseVector) -> float:
    return math.sqrt(float(norm_squared(u)))


@dataclass(frozen=True)
class Truncation:
    """Compression onto span{e_0, ..., e_{n-1}}."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("truncation size must be >= 1")


class CoefficientFamily:
    """Closed-form sequence (gamma_k)_{k>=0}; see the concrete variants."""

    def eval(self, k: int) -> Scalar:
        raise NotImplementedError

    def collapse(self) -> SparseVector | None:
        """SparseVector equal to the family, or None if truly infinite."""
        return None

    @property
    def is_structurally_zero(self) -> bool:
        sv = self.collapse()
        return sv is not None and sv.is_zero


@dataclass(frozen=True)
class FiniteSupport(CoefficientFamily):
    vector: SparseVector

    def eval(self, k: int) -> Scalar:
        return self.vector.get(k)

    def collapse(self) -> SparseVector:
        return self.vector


@dataclass(frozen=True)
class PowerLaw(CoefficientFamily):
    """gamma_k = sigma_k (k + offset)^(-exponent), sigma from the sign mode.

    Alternating means sigma_k = (-1)^k with sigma_0 = +1.  Values are exact
    Fractions whenever the exponent is an integer.
    """

    exponent: Scalar
    sign: str = ALL_PLUS
    offset: int = 1

    def __post_init__(self):
        if self.sign not in (ALL_PLUS, ALTERNATING):
            raise ValueError(f"unknown sign mode {self.sign!r}")
        if self.offset < 1:
            raise ValueError("offset must be >= 1")

    def eval(self, k: int) -> Scalar:
        if k < 0:
            raise ValueError("index must be >= 0")
        base = k + self.offset
        p = self.exponent
        if isinstance(p, float) and p.is_integer():
            p = int(p)
        if isinstance(p, Fraction) and p.denominator == 1:
            p = int(p)
        if isinstance(p, int):
            value: Scalar = Fraction(1, base**p) if p >= 0 else Fraction(base ** (-p))
        else:
            value = float(base) ** (-float(p))
        if self.sign == ALTERNATING and k % 2 == 1:
            value = -value
        return value


@dataclass(frozen=True)
class Scaled(CoefficientFamily):
    by: Scalar
    of: CoefficientFamily

    def eval(self, k: int) -> Scalar:
        if self.by == 0:
            return 0
        return self.by * self.of.eval(k)

    def collapse(self) -> SparseVector | None:
        if self.by == 0:
            return SparseVector()
        inner_sv = self.of.collapse()
        return None if inner_sv is None else inner_sv.scale(self.by)


@dataclass(frozen=True)
class Sum(CoefficientFamily):
    terms: tuple[CoefficientFamily, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    def eval(self, k: int) -> Scalar:
        return sum((t.eval(k) for t in self.terms), 0)

    def collapse(self) -> SparseVector | None:
        total = SparseVector()
        for t in self.terms:
            sv = t.collapse()
            if sv is None:
                return None
            total = total + sv
        return total


def unit_family(k: int) -> FiniteSupport:
    return FiniteSupport(SparseVector.unit(k))


def eval_family(f: CoefficientFamily, k: int) -> Scalar:
    if k < 0:
        raise ValueError("index must be >= 0")
    return f.eval(k)


def truncate_family(f: CoefficientFamily, t: Truncation) -> SparseVector:
    return SparseVector(tuple((k, f.eval(k)) for k in range(t.n)))


# --- JSON codec -----------------------------------------------------------
#
# Scalars: ints stay ints, non-integral Fractions become "p/q" strings so the
# round trip is exact, floats stay floats.

def encode_scalar(v: Scalar):
    if isinstance(v, bool):
        raise InvalidDefinition("boolean is not a scalar")
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    return v


def decode_scalar(obj, path: str = "value") -> Scalar:
    if isinstance(obj, bool) or obj is None:
        raise InvalidDefinition(f"{path}: expected a number, got {obj!r}")
    if isinstance(obj, (int, float)):
        return obj
    if isinstance(obj, str):
        try:
            return Fraction(obj)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidDefinition(f"{path}: bad rational literal {obj!r}") from exc
    raise InvalidDefinition(f"{path}: expected a number, got {type(obj).__name__}")


def family_to_json(f: CoefficientFamily) -> dict:
    if isinstance(f, FiniteSupport):
        return {
            "kind": "finite",
            "entries": [[k, encode_scalar(v)] for k, v in f.vector.entries],
        }
    if isinstance(f, PowerLaw):
        return {
            "kind": "powerlaw",
            "p": encode_scalar(f.exponent),
            "sign": f.sign,
            "offset": f.offset,
        }
    if isinstance(f, Scaled):
        return {"kind": "scaled", "by": encode_scalar(f.by), "of": family_to_json(f.of)}
    if isinstance(f, Sum):
        return {"kind": "sum", "terms": [family_to_json(t) for t in f.terms]}
    raise InvalidDefinition(f"unknown family type {type(f).__name__}")


def family_from_json(obj, path: str = "family") -> CoefficientFamily:
    if not isinstance(obj, dict):
        raise InvalidDefinition(f"{path}: expected an object")
    kind = obj.get("kind")
    if kind == "finite":
        entries = obj.get("entries")
        if not isinstance(entries, list):
            raise InvalidDefinition(f"{path}.entries: expected a list")
        pairs = []
        for i, e in enumerate(entries):
            if not isinstance(e, list) or len(e) != 2 or not isinstance(e[0], int):
                raise InvalidDefinition(f"{path}.entries[{i}]: expected [index, value]")
            pairs.append((e[0], decode_scalar(e[1], f"{path}.entries[{i}][1]")))
        return FiniteSupport(SparseVector(tuple(pairs)))
    if kind == "powerlaw":
        if "p" not in obj:
            raise InvalidDefinition(f"{path}.p: missing")
        sign = obj.get("sign", ALL_PLUS)
        if sign not in (ALL_PLUS, ALTERNATING):
            raise InvalidDefinition(f"{path}.sign: expected all_plus or alternating")
        offset = obj.get("offset", 1)
        if not isinstance(offset, int) or offset < 1:
            raise InvalidDefinition(f"{path}.offset: expected integer >= 1")
        return PowerLaw(decode_scalar(obj["p"], f"{path}.p"), sign, offset)
    if kind == "scaled":
        if "by" not in obj or "of" not in obj:
            raise InvalidDefinition(f"{path}: scaled needs 'by' and 'of'")
        return Scaled(decode_scalar(obj["by"], f"{path}.by"),
                      family_from_json(obj["of"], f"{path}.of"))
    if kind == "sum":
        terms = obj.get("terms")
        if not isinstance(terms, list):
            raise InvalidDefinition(f"{path}.terms: expected a list")
        return Sum(tuple(family_from_json(t, f"{path}.terms[{i}]")
                         for i, t in enumerate(terms)))
    raise InvalidDefinition(f"{path}.kind: unknown kind {kind!r}")
