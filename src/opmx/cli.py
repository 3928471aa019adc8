"""Command-line suite runner.

Replays gallery cases, or a user-supplied operator/matrix JSON definition,
at chosen truncations and emits one verification report per check.  Reports
stream as newline-delimited JSON (or aligned text), sorted by case and check
name, so two runs with the same configuration and seed are byte identical.

Exit codes: 0 when every report matches its expected verdict, 1 on any
mismatch, 2 on invalid input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import gallery
from .calculus import as_matrix, block_adjoint, composite_from_json
from .errors import InvalidDefinition, OpmxError
from .operators import StructuredOperator, is_bounded
from .verify import PASS, UNDECIDED, VerificationReport, denseness_obstruction

DEFAULT_SEED = 42


@dataclass
class SuiteConfig:
    cases: tuple[str, ...] = ("all",)
    truncations: tuple[int, ...] = (64,)
    samples: int = 200
    seed: int = DEFAULT_SEED
    fmt: str = "json"
    define_path: str | None = None
    expect_path: str | None = None
    witness_nmax: int = 10_000

    def validate(self) -> None:
        if not self.truncations or any(n < 1 for n in self.truncations):
            raise InvalidDefinition("truncation: every value must be >= 1")
        if self.samples < 0:
            raise InvalidDefinition("samples: must be >= 0")
        if self.fmt not in ("json", "text"):
            raise InvalidDefinition("format: expected json or text")
        if self.define_path and self.expect_path:
            raise InvalidDefinition("--expect cannot be combined with --define")


def _selected_cases(config: SuiteConfig) -> list[str]:
    if any(c == "all" for c in config.cases):
        return list(gallery.CASE_NAMES)
    return list(config.cases)


def _load_expectations(path: str) -> dict:
    """Expected-verdict overrides, case -> check -> verdict."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidDefinition(f"expect: cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, or an oversized integer
        raise InvalidDefinition(f"expect: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidDefinition("expect: expected an object of case -> check -> verdict")
    for case_name, checks in data.items():
        if case_name not in gallery.CASE_NAMES:
            raise InvalidDefinition(f"expect: unknown case {case_name!r}")
        if not isinstance(checks, dict):
            raise InvalidDefinition(f"expect.{case_name}: expected an object")
    return data


def _define_reports(path: str, params: gallery.RunParams) -> list[VerificationReport]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # bad JSON, bad UTF-8, or an oversized integer
            raise InvalidDefinition(f"definition: invalid JSON: {exc}") from exc
    target = composite_from_json(payload, "definition")
    if isinstance(target, StructuredOperator):
        target = as_matrix(target)
    adjoint = block_adjoint(target)

    reports = gallery.composite_checks(target, adjoint, params)
    bounded = [is_bounded(op).value for row in target.grid for op in row]
    reports.append(VerificationReport("boundedness", PASS,
                                      certificate={"entries": bounded}))
    blocks = adjoint.block_domains
    for i, d in enumerate(blocks):
        dens = denseness_obstruction(d)
        dens.check = "adjoint_denseness" if len(blocks) == 1 else f"adjoint_denseness@{i}"
        reports.append(dens)
    # Denseness and an undecided pairing are informational; the rest must pass.
    for rep in reports:
        informational = rep.verdict == UNDECIDED or "denseness" in rep.check
        rep.with_expected(rep.verdict if informational else PASS)
    return reports


def run_suite(config: SuiteConfig) -> tuple[int, list[dict]]:
    """Run the configured checks; returns (exit_code, report objects)."""
    config.validate()
    cases = [] if config.define_path else [gallery.build_case(name)
                                           for name in _selected_cases(config)]
    overrides = _load_expectations(config.expect_path) if config.expect_path else {}
    params = gallery.RunParams(truncations=tuple(config.truncations),
                               samples=config.samples, seed=config.seed,
                               witness_nmax=config.witness_nmax)
    tagged: list[tuple[str, VerificationReport]] = []
    if config.define_path:
        tagged.extend(("user", r) for r in _define_reports(config.define_path, params))
    for case in cases:
        tagged.extend((case.name, r) for r in case.run(params, overrides.get(case.name)))
    # Every override key must name a report of this run, in full or by the
    # name before its '@'.
    names = {(c, n) for c, r in tagged for n in (r.check, r.check.split("@", 1)[0])}
    for case_name, checks in overrides.items():
        for key in checks:
            if (case_name, key) not in names:
                raise InvalidDefinition(
                    f"expect.{case_name}: check {key!r} matches no report of this run")
    tagged.sort(key=lambda cr: (cr[0], cr[1].check))
    out = []
    for case_name, rep in tagged:
        obj = {"case": case_name}
        obj.update(rep.to_json())
        out.append(obj)
    ok = all(r["match"] for r in out)
    return (0 if ok else 1), out


def _emit(reports: list[dict], fmt: str, stream) -> None:
    if fmt == "json":
        for obj in reports:
            stream.write(json.dumps(obj, sort_keys=True, separators=(",", ":")))
            stream.write("\n")
        return
    width = max((len(f"{r['case']}/{r['check']}") for r in reports), default=0)
    for r in reports:
        tag = "MATCH" if r["match"] else "MISMATCH"
        name = f"{r['case']}/{r['check']}".ljust(width)
        stream.write(f"{name}  {r['verdict']:<9} expected={r['expected']:<9} {tag}\n")
    matched = sum(1 for r in reports if r["match"])
    stream.write(f"{matched}/{len(reports)} checks matched\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opmx",
        description="Replay operator-matrix verification cases and emit reports.")
    parser.add_argument("--case", default="all",
                        help="gallery case name, or 'all' (default)")
    parser.add_argument("--truncation", default="64",
                        help="comma-separated compression sizes, e.g. 4,64,256")
    parser.add_argument("--samples", type=int, default=200,
                        help="random sample count per pairing check")
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed (default 42; OPMX_SEED overrides the default)")
    parser.add_argument("--format", dest="fmt", default="json",
                        choices=("json", "text"), help="output format")
    parser.add_argument("--define", dest="define_path", default=None,
                        help="path to an operator/matrix JSON definition to check")
    parser.add_argument("--expect", dest="expect_path", default=None,
                        help="path to a JSON file overriding expected verdicts")
    parser.add_argument("--witness-nmax", type=int, default=10_000,
                        help="largest witness parameter for the vanishing families")
    return parser


def _resolve_seed(arg_seed: int | None) -> int:
    if arg_seed is not None:
        return arg_seed
    env = os.environ.get("OPMX_SEED")
    if env is None:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError as exc:
        raise InvalidDefinition(f"OPMX_SEED: not an integer: {env!r}") from exc


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        truncations = tuple(int(x) for x in str(args.truncation).split(","))
    except ValueError:
        print("error: truncation: expected comma-separated integers",
              file=sys.stderr)
        return 2
    try:
        config = SuiteConfig(
            cases=tuple(args.case.split(",")),
            truncations=truncations,
            samples=args.samples,
            seed=_resolve_seed(args.seed),
            fmt=args.fmt,
            define_path=args.define_path,
            expect_path=args.expect_path,
            witness_nmax=args.witness_nmax,
        )
        code, reports = run_suite(config)
    except (OpmxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(reports, config.fmt, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
