"""Seeded corpus of user definitions for the `define_corpus` workload.

Every definition is built from parameters this module picks itself, and its
expected reports are derived from those parameters alone: nothing here
imports opmx or reads a saved program output.

Weights are rational functions of k.  A polynomial has degree d; a
shifted-denominator weight is p(k) / (k + s)^m with degree deg p - m.  The
sequence (w(k))_k is l2 exactly when the degree is <= -1 and bounded when
it is <= 0.  The rules that make the ground truth decidable by construction:

* boundedness of an entry: diagonal degree <= 0 and every anchor weight of
  degree <= -1;
* only densely defined entries: a non-l2 source sits only on an unbounded
  diagonal;
* non-l2 sinks appear only as planted obstructions, so an adjoint block
  without one admits every finitely supported vector and is dense;
* a planted obstruction forces coordinate c in the adjoint block of its row:
  either the pair (D, D + sink(c, w)) with D an unbounded diagonal and w not
  in l2, or one entry B + sink(c, w) with B a bounded diagonal.

Adjoint block j of a matrix is built from row j of the definition; a column
(C_1, C_2) has one adjoint block per entry; an operator and a row have a
single adjoint block.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from math import comb

# Denominator shifts s of p(k) / (k + s)^m, m <= 2.  The denominator root
# test in RationalWeight scans up to the Cauchy bound, about s^m + 1, so this
# range sets how much of the run that test takes.
SHIFT_RANGE = (1, 12)
MAX_COORD = 5

# Shapes of one seeded round, and how many carry a planted obstruction.
# Obstructions are planted in adjoint block 0 only; see fixed_block1 for
# block >= 1.
ROUND_MAKEUP = (
    ("operator", 3, 1),
    ("row", 3, 0),
    ("col", 3, 1),
    ("matrix", 3, 2),
)


@dataclass
class Weight:
    num: list
    den: list
    degree: int

    @property
    def is_l2(self) -> bool:
        return self.degree <= -1

    def to_json(self) -> dict:
        return {"num": self.num, "den": self.den}


@dataclass
class Entry:
    diag: Weight | None  # None is the zero operator
    sinks: list = field(default_factory=list)    # [(coord, Weight)]
    sources: list = field(default_factory=list)  # [(coord, Weight)]

    @property
    def bounded(self) -> bool:
        diag_ok = self.diag is None or self.diag.degree <= 0
        return diag_ok and all(w.is_l2 for _, w in self.sinks + self.sources)

    def to_json(self, name: str):
        if self.diag is None and not self.sinks and not self.sources:
            return "zero"
        diag = self.diag.to_json() if self.diag is not None else {"num": [0]}
        out = {"name": name, "diag": diag}
        if self.sinks:
            out["sinks"] = [{"target": j, "weight": w.to_json()} for j, w in self.sinks]
        if self.sources:
            out["sources"] = [{"from": j, "weight": w.to_json()}
                              for j, w in self.sources]
        return out


@dataclass
class Definition:
    """A user definition plus what its reports must say."""

    label: str
    kind: str                    # operator | row | col | matrix
    payload: dict                # the JSON handed to --define
    bounded: list                # is_bounded per entry, row-major, "yes"/"no"
    forced: list                 # forced coordinates per adjoint block
    shape: tuple                 # (output blocks, input blocks) of the definition

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.payload, fh)


# --- weights -------------------------------------------------------------------

class Draw:
    """Two random streams: `shape` picks what sets the cost of a definition
    (degrees, anchor counts and kinds, denominator shifts, where an
    obstruction sits), `value` picks the rest (coefficients, coordinates).
    `shape` has a fixed seed, so every round costs about the same whatever
    the seed and however many rounds a run completes."""

    def __init__(self, seed: int, round_index: int):
        self.shape = random.Random("opmxbench:shape")
        self.value = random.Random(f"opmxbench:value:{seed}:{round_index}")

    def coeffs(self, degree: int) -> list:
        out = [self.value.randint(-4, 4) for _ in range(degree)]
        lead = self.value.randint(1, 5)
        if self.value.random() < 0.3:
            lead = f"{lead}/{self.value.randint(2, 7)}"
        return out + [lead]

    def anchor_weight(self, l2: bool) -> Weight:
        """An l2 (degree <= -1) or a non-l2 (degree 0 or 1) anchor weight."""
        shift = self.shape.randint(*SHIFT_RANGE)
        if l2:
            num_deg = self.shape.randint(0, 1)
            return shifted(self.coeffs(num_deg), shift,
                           self.shape.randint(num_deg + 1, 2))
        if self.shape.random() < 0.5:
            return poly(self.coeffs(self.shape.randint(0, 1)))
        num_deg = self.shape.randint(1, 2)
        return shifted(self.coeffs(num_deg), shift, num_deg)

    def unbounded_diag(self) -> Weight:
        degree = self.shape.randint(1, 2)
        return poly([self.value.randint(0, 4) for _ in range(degree)]
                    + [self.value.randint(1, 3)])

    def bounded_diag(self) -> Weight:
        return poly([self.value.randint(1, 4)])

    def anchors(self, count: int, l2_only: bool) -> list:
        coords = self.value.sample(range(MAX_COORD + 1), count)
        return [(c, self.anchor_weight(l2_only or self.shape.random() < 0.5))
                for c in coords]

    def entry(self, allow_zero: bool = False) -> Entry:
        """A densely defined entry without a non-l2 sink."""
        if allow_zero and self.shape.random() < 0.15:
            return Entry(None)
        unbounded = self.shape.random() < 0.6
        diag = self.unbounded_diag() if unbounded else self.bounded_diag()
        sinks = self.anchors(self.shape.randint(0, 2), l2_only=True)
        sources = self.anchors(self.shape.randint(0, 2), l2_only=not unbounded)
        return Entry(diag, sinks, sources)

    def bounded_sink(self, entry: Entry, coord: int) -> Entry:
        """B + sink(coord, w), w not in l2: forces coord in the adjoint block."""
        sinks = [(j, w) for j, w in entry.sinks if j != coord]
        sources = [(j, w) for j, w in entry.sources if w.is_l2]
        return Entry(self.bounded_diag(),
                     sinks + [(coord, self.anchor_weight(False))], sources)

    def pair(self, coord: int) -> tuple[Entry, Entry]:
        """(D, D + sink(coord, w)), D unbounded, w not in l2: forces coord."""
        diag = self.unbounded_diag()
        first = Entry(diag, [], self.anchors(self.shape.randint(0, 1), l2_only=False))
        extra = [(j, w) for j, w in self.anchors(self.shape.randint(0, 1), l2_only=True)
                 if j != coord]
        second = Entry(diag, extra + [(coord, self.anchor_weight(False))],
                       self.anchors(self.shape.randint(0, 1), l2_only=False))
        return (first, second) if self.shape.random() < 0.5 else (second, first)


def poly(coeffs: list) -> Weight:
    return Weight(coeffs, [1], len(coeffs) - 1)


def shifted(num: list, shift: int, power: int) -> Weight:
    den = [comb(power, i) * shift ** (power - i) for i in range(power + 1)]
    return Weight(num, den, (len(num) - 1) - power)


# --- definitions ----------------------------------------------------------------

def _definition(label: str, kind: str, entries: list, forced: list) -> Definition:
    names = [f"{label}_{i}" for i in range(len(entries))]
    if kind == "operator":
        payload = entries[0].to_json(names[0])
        shape = (1, 1)
    elif kind in ("row", "col"):
        payload = {"kind": kind,
                   "entries": [e.to_json(n) for e, n in zip(entries, names)]}
        shape = (1, len(entries)) if kind == "row" else (len(entries), 1)
    else:
        payload = {"grid": [[entries[0].to_json(names[0]), entries[1].to_json(names[1])],
                            [entries[2].to_json(names[2]), entries[3].to_json(names[3])]]}
        shape = (2, 2)
    bounded = ["yes" if e.bounded else "no" for e in entries]
    return Definition(label, kind, payload, bounded,
                      [sorted(f) for f in forced], shape)


def _seeded(draw: Draw, kind: str, planted: bool, label: str) -> Definition:
    coord = draw.value.randint(0, MAX_COORD)
    if kind == "operator":
        entry = draw.entry()
        if planted:
            entry = draw.bounded_sink(entry, coord)
        return _definition(label, kind, [entry], [{coord} if planted else set()])
    if kind == "row":
        return _definition(label, kind, [draw.entry(), draw.entry()], [set()])
    if kind == "col":
        entries = [draw.entry(), draw.entry()]
        if planted:
            entries[0] = draw.bounded_sink(entries[0], coord)
        return _definition(label, kind, entries,
                           [{coord} if planted else set(), set()])
    entries = [draw.entry(allow_zero=True) for _ in range(4)]
    if planted:
        if draw.shape.random() < 0.5:
            entries[0], entries[1] = draw.pair(coord)
        else:
            col = draw.shape.randint(0, 1)
            entries[col] = draw.bounded_sink(entries[col], coord)
    return _definition(label, kind, entries, [{coord} if planted else set(), set()])


def seeded_round(seed: int, round_index: int) -> list[Definition]:
    draw = Draw(seed, round_index)
    out = []
    for kind, count, planted in ROUND_MAKEUP:
        for i in range(count):
            out.append(_seeded(draw, kind, i < planted,
                               f"s{seed}r{round_index}_{kind}{i}"))
    return out


# --- fixed definitions with an obstruction in adjoint block >= 1 ----------------
#
# The CLI checks adjoint denseness on block 0 only, so these come back with a
# certificate that misses block >= 1.  They do not depend on the seed, so each
# round fails the same number of them.

def fixed_block1() -> list[Definition]:
    k2 = poly([0, 0, 1])
    k = poly([0, 1])
    return [
        # {"grid": [["zero", "zero"], [k^2, k^2 + sink(0, k)]]}
        _definition("fixed_grid_k2", "matrix",
                    [Entry(None), Entry(None), Entry(k2), Entry(k2, [(0, k)])],
                    [set(), {0}]),
        # column (k + 1, 2 + sink(3, k))
        _definition("fixed_col_k1", "col",
                    [Entry(poly([1, 1])), Entry(poly([2]), [(3, k)])],
                    [set(), {3}]),
        # both blocks obstructed: block 0 by 2 + sink(1, k), block 1 by a pair
        _definition("fixed_grid_both", "matrix",
                    [Entry(poly([2]), [(1, k)]), Entry(k2),
                     Entry(poly([0, 1, 1])), Entry(poly([0, 1, 1]), [(2, poly([1]))])],
                    [{1}, {2}]),
        # rational weights: block 1 forced by 1 + sink(2, (k + 1) / (k + 3))
        _definition("fixed_col_rational", "col",
                    [Entry(poly([1, 0, 1]), [(0, shifted([1], 2, 2))]),
                     Entry(poly([1]), [(2, shifted([1, 1], 3, 1))])],
                    [set(), {2}]),
    ]


def round_definitions(seed: int, round_index: int) -> list[Definition]:
    return fixed_block1() + seeded_round(seed, round_index)
