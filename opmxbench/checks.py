"""Expected reports, computed apart from the program.

The gallery table is transcribed from the paper's claims, not read from
opmx.gallery, and the numbers a certificate must carry are recomputed here in
floats.  The define checks compare each report with what the generator in
corpus.py planted.  Every check returns a list of problems; an empty list
means the reports are right.
"""

from __future__ import annotations

import math

PASS, FAIL, UNDECIDED = "pass", "fail", "undecided"

# Check -> verdict per gallery case; a trailing "@" repeats the check once per
# truncation N as "name@N".
GALLERY = {
    # a row of two closed unbounded entries is not closable; its adjoint
    # forces coordinate 0, so it is not densely defined
    "e1_row": {"witness": PASS, "adjoint_denseness": FAIL, "pairing": PASS,
               "transpose@": PASS},
    # case I: the matrix inherits the row's non-closability
    "case_I": {"witness": PASS, "pairing": PASS, "transpose@": PASS},
    # case II: closable, but the formal adjoint's first block forces e_0
    "case_II": {"adjoint_block1_denseness": FAIL, "pairing": PASS,
                "transpose@": PASS},
    # case III: the grid pair satisfies d0^T = -d1 exactly; strictness of the
    # closure inclusion has no finite certificate
    "case_III_discrete": {"grid_transpose@": PASS, "second_row_kills_diagonal@": PASS,
                          "pairing@": PASS, "closure_strictness": UNDECIDED},
    # case IV: A^xx = A, yet the true adjoint domain exceeds the formal one
    "case_IV": {"double_adjoint_identity": PASS, "strict_gap": PASS,
                "pairing": PASS, "transpose@": PASS},
    # the column (B, -B): (f, f) is in the true but not the formal adjoint domain
    "t1591": {"strict_gap": PASS, "pairing": PASS, "transpose@": PASS},
    # a closable column with a non-closable entry, witnessed by harmonic blocks
    "remark_col3": {"witness": PASS, "pairing": PASS, "transpose@": PASS},
}

# (output blocks, input blocks) of the object each case's transpose check
# compresses.
BLOCK_SHAPE = {"e1_row": (1, 2), "case_I": (2, 2), "case_II": (2, 2),
               "case_IV": (2, 2), "t1591": (2, 1), "remark_col3": (1, 1)}

# e_0 as the witness image of e1_row (one output block) and case_I (two).
WITNESS_IMAGE = {"e1_row": [[[0, 1]]], "case_I": [[[0, 1]], []]}
HARMONIC_NS = (64, 256, 1024)
FORCED_ZERO = {"e1_row": "adjoint_denseness", "case_II": "adjoint_block1_denseness"}


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def transposed_shape(shape: tuple[int, int], n: int) -> list[int]:
    rows, cols = shape
    return [cols * n, rows * n]


def _harmonic_block(n: int) -> float:
    """H(2n - 1) - H(n - 1), summed in floats."""
    return sum(1.0 / k for k in range(n, 2 * n))


def _pairing_problems(where: str, cert: dict, samples: int) -> list[str]:
    out = []
    if cert.get("exact") is not True:
        out.append(f"{where}: pairing not exact")
    if not isinstance(cert.get("pairs"), int) or cert["pairs"] < samples:
        out.append(f"{where}: pairing certified {cert.get('pairs')} pairs, "
                   f"fewer than {samples} samples")
    return out


def gallery_problems(reports: list[dict], truncations: tuple[int, ...],
                     samples: int, witness_nmax: int) -> list[str]:
    problems = []
    by_case: dict[str, dict[str, dict]] = {}
    for r in reports:
        by_case.setdefault(r["case"], {})[r["check"]] = r
    if set(by_case) != set(GALLERY):
        problems.append(f"cases {sorted(by_case)} differ from {sorted(GALLERY)}")
    nmax = max(2, witness_nmax)
    for case, table in GALLERY.items():
        got = by_case.get(case, {})
        want = {}
        for name, verdict in table.items():
            if name.endswith("@"):
                want.update({f"{name}{n}": verdict for n in truncations})
            else:
                want[name] = verdict
        if set(got) != set(want):
            problems.append(f"{case}: checks {sorted(got)} differ from {sorted(want)}")
        for name, verdict in want.items():
            rep = got.get(name)
            if rep is None:
                continue
            where = f"{case}/{name}"
            cert = rep["certificate"]
            if rep["verdict"] != verdict:
                problems.append(f"{where}: verdict {rep['verdict']}, paper says {verdict}")
            base, _, n = name.partition("@")
            if base == "pairing" and not n:
                problems += _pairing_problems(where, cert, samples)
            if base == "transpose":
                want_shape = transposed_shape(BLOCK_SHAPE[case], int(n))
                if cert.get("shape") != want_shape or cert.get("exact") is not True:
                    problems.append(f"{where}: shape {cert.get('shape')}, "
                                    f"expected exact {want_shape}")
            if base == "strict_gap" and cert.get("pairings_checked") != samples:
                problems.append(f"{where}: {cert.get('pairings_checked')} pairings "
                                f"checked, expected {samples}")
            if case == "case_III_discrete" and base == "pairing" and (
                    cert.get("exact") is not True or cert.get("residual") != 0):
                problems.append(f"{where}: grid pairing not exact with zero residual")
        dens = got.get(FORCED_ZERO.get(case, ""))
        if dens is not None and (dens["certificate"].get("forced") != [0]
                                 or dens["certificate"].get("dense") is not False):
            problems.append(f"{case}: forced {dens['certificate'].get('forced')}, "
                            f"expected [0]")
        witness = got.get("witness")
        if witness is None:
            continue
        cert = witness["certificate"]
        if case in WITNESS_IMAGE:
            if cert.get("image") != WITNESS_IMAGE[case] or cert.get("image_exact") is not True:
                problems.append(f"{case}: witness image {cert.get('image')} is not e_0")
            if cert.get("n_tested") != nmax or not _close(
                    cert.get("final_input_norm", -1.0), math.sqrt(2) / nmax, 1e-12):
                problems.append(f"{case}: final input norm "
                                f"{cert.get('final_input_norm')} != sqrt(2)/{nmax}")
        else:
            norms = cert.get("image_norms", [])
            want_norms = [_harmonic_block(n) for n in HARMONIC_NS]
            if len(norms) != len(want_norms) or not all(
                    abs(a - b) <= 1e-12 for a, b in zip(norms, want_norms)):
                problems.append(f"{case}: image norms {norms} are not the harmonic "
                                f"block sums {want_norms}")
    return problems


def _dense_claim(rep: dict) -> tuple[bool | None, list]:
    cert = rep["certificate"]
    return cert.get("dense"), sorted(cert.get("forced") or [])


def define_outcome(defn, reports: list[dict], code: int, truncations: tuple[int, ...],
                   samples: int) -> tuple[list[str], bool]:
    """(problems, failed) for one definition run through --define.

    `failed` marks the one known fault kept in the workload: a certificate
    that covers adjoint block 0 and misses an obstruction planted in a later
    block.  Everything else that disagrees with the generator is a problem.
    """
    where = defn.label
    problems = []
    if code != 0:
        problems.append(f"{where}: exit code {code}")
    got = {r["check"]: r for r in reports}
    for name in ["pairing", "boundedness"] + [f"transpose@{n}" for n in truncations]:
        if name not in got:
            problems.append(f"{where}: no {name} report")
        elif got[name]["verdict"] != PASS:
            problems.append(f"{where}: {name} {got[name]['verdict']}")
    if "pairing" in got:
        problems += _pairing_problems(where, got["pairing"]["certificate"], samples)
    for n in truncations:
        rep = got.get(f"transpose@{n}")
        want = transposed_shape(defn.shape, n)
        if rep is not None and rep["certificate"].get("shape") != want:
            problems.append(f"{where}: transpose@{n} shape "
                            f"{rep['certificate'].get('shape')}, expected {want}")
    if "boundedness" in got and got["boundedness"]["certificate"].get("entries") != defn.bounded:
        problems.append(f"{where}: boundedness {got['boundedness']['certificate']} "
                        f"expected {defn.bounded}")

    dens = [got[name] for name in sorted(got) if name.startswith("adjoint_denseness")]
    forced = defn.forced
    union = sorted(set().union(*map(set, forced)))
    later = any(forced[1:])
    if not dens:
        # Rows get no denseness report; the corpus plants none in rows.
        if defn.kind != "row" or union:
            problems.append(f"{where}: no adjoint_denseness report")
        return problems, False
    if len(dens) == len(forced) and len(dens) > 1:
        for block, (rep, want) in enumerate(zip(dens, forced)):
            if _dense_claim(rep) != (not want, want):
                problems.append(f"{where}: block {block} claims {_dense_claim(rep)}, "
                                f"planted {want}")
        return problems, False
    if len(dens) != 1:
        problems.append(f"{where}: {len(dens)} denseness reports for "
                        f"{len(forced)} adjoint blocks")
        return problems, False
    claim = _dense_claim(dens[0])
    if claim == (not union, union):
        return problems, False
    if later and claim == (not forced[0], forced[0]):
        return problems, True
    problems.append(f"{where}: denseness claims {claim}, planted {forced}")
    return problems, False
