import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from opmx.cli import SuiteConfig, main, run_suite

FAST = dict(truncations=(6,), samples=20, witness_nmax=2000)


def _run_cli(args, env_extra=None):
    env = dict(os.environ)
    env.pop("OPMX_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "opmx.cli", *args],
                          capture_output=True, text=True, env=env)


def test_run_suite_all_matches():
    code, reports = run_suite(SuiteConfig(**FAST))
    assert code == 0
    assert all(r["match"] for r in reports)
    cases = {r["case"] for r in reports}
    assert len(cases) == 7


def test_exit_one_on_tampered_expectations(tmp_path):
    expect = tmp_path / "expect.json"
    for case, check in (("case_IV", "strict_gap"), ("case_III_discrete", "pairing@6")):
        expect.write_text(json.dumps({case: {check: "fail"}}))
        code, reports = run_suite(SuiteConfig(cases=(case,),
                                              expect_path=str(expect), **FAST))
        assert code == 1
        assert [r["check"] for r in reports if not r["match"]] == [check]


def test_exit_two_on_malformed_definition(tmp_path):
    bad = tmp_path / "op.json"
    bad.write_text(json.dumps({"diag": {"num": "oops"}}))
    result = _run_cli(["--define", str(bad)])
    assert result.returncode == 2
    assert "diag" in result.stderr


def test_exit_two_on_bad_flag_values():
    result = _run_cli(["--truncation", "0"])
    assert result.returncode == 2
    result = _run_cli(["--truncation", "abc"])
    assert result.returncode == 2


def test_define_runs_generic_checks(tmp_path):
    op = {"name": "scaled_shift", "diag": {"num": [1, 1], "den": [1]}}
    path = tmp_path / "op.json"
    path.write_text(json.dumps(op))
    result = _run_cli(["--define", str(path), "--truncation", "5",
                       "--samples", "10"])
    assert result.returncode == 0, result.stderr
    reports = [json.loads(line) for line in result.stdout.splitlines()]
    checks = {r["check"] for r in reports}
    assert "pairing" in checks and "transpose@5" in checks
    assert all(r["match"] for r in reports)


def test_json_output_is_deterministic():
    args = ["--case", "case_IV,e1_row", "--truncation", "6", "--samples", "15",
            "--witness-nmax", "2000"]
    first = _run_cli(args)
    second = _run_cli(args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.strip(), "expected NDJSON output"
    for line in first.stdout.splitlines():
        json.loads(line)


def test_reports_sorted_by_case_and_check():
    result = _run_cli(["--case", "all", "--truncation", "4", "--samples", "5",
                       "--witness-nmax", "1500"])
    assert result.returncode == 0
    keys = [(json.loads(line)["case"], json.loads(line)["check"])
            for line in result.stdout.splitlines()]
    assert keys == sorted(keys)


def test_env_seed_overrides_default_only():
    args = ["--case", "case_IV", "--truncation", "4", "--samples", "10"]
    default_run = _run_cli(args)
    env_run = _run_cli(args, env_extra={"OPMX_SEED": "7"})
    flag_run = _run_cli([*args, "--seed", "7"])
    flag_beats_env = _run_cli([*args, "--seed", "42"],
                              env_extra={"OPMX_SEED": "7"})
    assert env_run.stdout == flag_run.stdout
    assert flag_beats_env.stdout == default_run.stdout


def test_text_format_summarizes():
    result = _run_cli(["--case", "case_IV", "--truncation", "4", "--samples",
                       "5", "--format", "text"])
    assert result.returncode == 0
    assert "MATCH" in result.stdout
    assert "checks matched" in result.stdout.splitlines()[-1]


def test_invalid_config_rejected():
    with pytest.raises(Exception):
        run_suite(SuiteConfig(truncations=(), samples=5))


def _define(tmp_path, definition, **config):
    path = tmp_path / "definition.json"
    path.write_text(json.dumps(definition))
    code, reports = run_suite(SuiteConfig(define_path=str(path), truncations=(4,),
                                          samples=20, **config))
    return code, {r["check"]: r for r in reports}


K2 = {"num": [0, 0, 1]}
K = {"num": [0, 1]}


def test_define_reports_denseness_for_every_adjoint_block(tmp_path):
    grid = {"grid": [["zero", "zero"],
                     [{"diag": K2}, {"diag": K2, "sinks": [{"target": 0, "weight": K}]}]]}
    code, got = _define(tmp_path, grid)
    assert code == 0
    assert "adjoint_denseness" not in got
    assert got["adjoint_denseness@0"]["certificate"]["dense"] is True
    assert got["adjoint_denseness@1"]["verdict"] == "fail"
    assert got["adjoint_denseness@1"]["certificate"] == {"dense": False, "forced": [0]}


def test_define_single_block_adjoint_keeps_its_name_for_operators_and_rows(tmp_path):
    op = {"diag": {"num": [2]}, "sinks": [{"target": 3, "weight": K}]}
    code, got = _define(tmp_path, op)
    assert code == 0
    assert got["adjoint_denseness"]["certificate"] == {"dense": False, "forced": [3]}
    assert not any(c.startswith("adjoint_denseness@") for c in got)
    # The adjoint of a row is one column: one block, one report.  The e1 row's
    # forces coordinate 0.
    e1_row = {"kind": "row", "entries": [
        {"diag": K2}, {"diag": K2, "sinks": [{"target": 0, "weight": K}]}]}
    code, got = _define(tmp_path, e1_row)
    assert code == 0
    assert got["adjoint_denseness"]["certificate"] == {"dense": False, "forced": [0]}
    assert not any(c.startswith("adjoint_denseness@") for c in got)


@pytest.mark.parametrize("op", [
    {"diag": K2, "sinks": [{"target": 0, "weight": K}]},
    {"diag": K, "sources": [{"from": 1, "weight": {"num": [1], "den": [1, 1]}}]},
])
def test_define_treats_every_one_entry_shape_as_the_same_block(tmp_path, op):
    # An operator, a 1 x 1 grid, a one-entry row and a one-entry column are the
    # same 1 x 1 matrix.
    shapes = [op, {"grid": [[op]]}, {"kind": "row", "entries": [op]},
              {"kind": "col", "entries": [op]}]
    runs = [_define(tmp_path, shape) for shape in shapes]
    for code, got in runs:
        assert code == 0
        for check in ("pairing", "transpose@4", "adjoint_denseness"):
            assert got[check] == runs[0][1][check]
    assert runs[0][1]["pairing"]["certificate"]["pairs"] > 20


def test_define_grid_with_a_coordinate_forcing_entry_matches_the_bare_operator(tmp_path):
    # A formal adjoint needs no densely defined entries, so the 1 x 1 grid runs
    # every check like the bare operator instead of exiting 2.
    op = {"diag": {"num": [1]}, "sources": [{"from": 0, "weight": {"num": [1]}}]}
    bare = _define(tmp_path, op)
    grid = _define(tmp_path, {"grid": [[op]]})
    assert bare[0] == grid[0] == 0
    assert grid[1] == bare[1]
    assert set(grid[1]) == {"pairing", "transpose@4", "boundedness", "adjoint_denseness"}


def test_define_with_huge_shift_denominator_is_fast(tmp_path):
    op = {"diag": K2, "sinks": [{"target": 0, "weight": {"num": [1],
                                                         "den": [1000000000, 1]}}]}
    start = time.perf_counter()
    code, got = _define(tmp_path, op)
    assert code == 0
    assert time.perf_counter() - start < 1.0
    assert got["pairing"]["verdict"] == "pass"


@pytest.mark.parametrize("text", [
    # 1e400 parses as an infinite float
    '{"diag": {"num": [0, 0, 1]}, "sinks": [{"target": 0, '
    '"weight": {"num": [1], "den": [1e400, 1]}}]}',
    # past the interpreter's limit on integer literals
    '{"diag": {"num": [' + "1" * 5000 + ']}}',
])
def test_exit_two_without_traceback_on_unrepresentable_numbers(tmp_path, text):
    path = tmp_path / "op.json"
    path.write_text(text)
    result = _run_cli(["--define", str(path)])
    assert result.returncode == 2
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.stderr


def test_expect_together_with_define_exits_two(tmp_path, capsys):
    definition = tmp_path / "op.json"
    definition.write_text(json.dumps({"diag": K2}))
    expect = tmp_path / "expect.json"
    expect.write_text(json.dumps({"user": {"pairing": "fail"}}))
    code = main(["--define", str(definition), "--expect", str(expect)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "--expect" in captured.err and "--define" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("expectations, named", [
    ({"e1-row": {"witness": "fail"}}, "'e1-row'"),
    ({"e1_row": {"witnes": "fail"}}, "'witnes'"),
    ({"case_III_discrete": {"pairing@6": "pass", "pairng@6": "fail"}}, "'pairng@6'"),
])
def test_expect_with_an_unknown_key_exits_two(tmp_path, capsys, expectations, named):
    expect = tmp_path / "expect.json"
    expect.write_text(json.dumps(expectations))
    code = main(["--case", "e1_row,case_III_discrete", "--truncation", "6",
                 "--witness-nmax", "2000", "--expect", str(expect)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and named in captured.err


def test_expect_with_a_size_the_run_does_not_use_exits_two(tmp_path, capsys):
    expect = tmp_path / "expect.json"
    expect.write_text(json.dumps({"case_III_discrete": {"pairing@7": "fail"}}))
    code = main(["--case", "case_III_discrete", "--truncation", "4",
                 "--expect", str(expect)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "'pairing@7'" in captured.err


def test_expect_accepts_every_size_the_run_uses(tmp_path):
    expect = tmp_path / "expect.json"
    expect.write_text(json.dumps({"case_III_discrete": {
        "pairing@4": "pass", "grid_transpose@8": "fail"}}))
    code, reports = run_suite(SuiteConfig(
        cases=("case_III_discrete", "case_III_discrete(8)"), truncations=(4,),
        samples=5, expect_path=str(expect)))
    assert code == 1
    assert [r["check"] for r in reports if not r["match"]] == ["grid_transpose@8"]
    assert any(r["check"] == "pairing@4" and r["match"] for r in reports)


def test_sized_grid_case_below_one_exits_two():
    result = _run_cli(["--case", "case_III_discrete(0)"])
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error:") and "case_III_discrete(0)" in result.stderr
    assert "Traceback" not in result.stderr


def test_gallery_output_is_byte_identical_to_the_recorded_run(capsys, monkeypatch):
    # Recorded with `opmx --case all --truncation 4,64` at the default seed.  A
    # change that alters certificate bytes on purpose regenerates the file and
    # says so.
    monkeypatch.delenv("OPMX_SEED", raising=False)
    assert main(["--case", "all", "--truncation", "4,64"]) == 0
    recorded = (Path(__file__).parent / "data" / "gallery_seed42.ndjson").read_bytes()
    assert capsys.readouterr().out.encode() == recorded


def test_importing_the_cli_does_not_load_numpy():
    result = subprocess.run(
        [sys.executable, "-c", "import sys, opmx.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_expect_with_a_size_on_an_unsized_check_exits_two(tmp_path, capsys):
    # e1_row reports a plain `pairing`; only its transpose carries a size.
    expect = tmp_path / "expect.json"
    expect.write_text(json.dumps({"e1_row": {"pairing@4": "fail"}}))
    code = main(["--case", "e1_row", "--truncation", "4", "--witness-nmax", "2000",
                 "--expect", str(expect)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "'pairing@4'" in captured.err


def test_expect_for_a_case_the_run_does_not_select_exits_two(tmp_path, capsys):
    expect = tmp_path / "expect.json"
    expect.write_text(json.dumps({"case_IV": {"strict_gap": "pass"}}))
    code = main(["--case", "e1_row", "--truncation", "4", "--witness-nmax", "2000",
                 "--expect", str(expect)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "'strict_gap'" in captured.err


def test_define_output_is_byte_identical_to_the_recorded_run(tmp_path, monkeypatch):
    # One line per definition of the benchmark corpus at seed 1, round 0: the
    # definition, the exit code and the reports of `opmx --define` at
    # truncations 4,8 with 200 samples and the default seed.  The definitions
    # are stored here so the test does not depend on the benchmark's files.
    monkeypatch.delenv("OPMX_SEED", raising=False)
    recorded = (Path(__file__).parent / "data" / "define_corpus_seed1.ndjson").read_text()
    lines = recorded.splitlines()
    assert len(lines) == 16
    path = tmp_path / "definition.json"
    for line in lines:
        definition = json.loads(line)["definition"]
        path.write_text(json.dumps(definition))
        code, reports = run_suite(SuiteConfig(define_path=str(path), truncations=(4, 8),
                                              samples=200))
        replayed = json.dumps({"definition": definition, "exit": code, "reports": reports},
                              sort_keys=True, separators=(",", ":"))
        assert replayed == line
