#!/usr/bin/env python3
"""Compare a parent commit with the working tree on the opmx benchmark.

    python3 scripts/bench.py --parent HEAD~1 --label grid_integer --seed 7

The parent's files are extracted with `git archive` into a temporary
directory, removed again when the script ends.  The change is the repository's
working tree as it stands.  For each workload the script runs 10 pairs of

    opmxbench/run.py --workload W --seed S --seconds T --trace 0

with T the `run_seconds` of BENCHMARK.json, one run on each side, each side
with its own checkout's run.py; the parent goes first in odd pairs, the change
in even ones.  It refuses to run when the two `opmxbench/` trees differ, since
the comparison is only fair with the same benchmark code.  Then, in 10 more
pairs alternated the same way, each side runs the timed acceptance criteria 1,
2 and 10 (`pytest -s tests/test_acceptance.py`) and records each elapsed time
the test prints as a fraction of the test's bound; a gate that fails records
null.

It writes `BENCH_<label>.json` into the repository root: the machine, the
Python version, and per workload and end-to-end metric both sides' runs,
medians and quartiles, the pairs the change won (ties count for neither), and
two verdicts.  `gain` holds when the change won at least 9 of the 10 pairs,
the medians differ, in its favour, by more than the parent's interquartile
range, and the change failed no more operations than the parent.  `verdict`
is `unresolved` when either side's interquartile range, as a share of the
parent's median, is wider than the metric's bound in BENCHMARK.json, unless
every run of the change is better than every run of the parent; otherwise it
is `within_bound` when the change's median is no worse than the parent's by
more than that bound, and `out_of_bound` when it is.  Under `gates` it writes
both sides' fractions of each bound, their medians and quartiles, and the
pairs the change won.  Nothing under
`opmxbench/` is edited; run.py writes its own result files into each
checkout's `opmxbench/out/`.
"""

import argparse
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = "opmxbench"
PAIRS = 10
# The timed acceptance criteria and the bounds their tests assert, in seconds.
GATES = {"01": 1.0, "02": 5.0, "10": 60.0}
GATE_LINE = re.compile(r"ACCEPTANCE (\d+): PASS .*?([\d.]+)s[,)]")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def same_benchmark(parent: str) -> bool:
    """The working tree's opmxbench/ equals the parent's: no tracked file
    differs and no untracked, unignored file was added."""
    tracked = subprocess.run(["git", "diff", "--quiet", parent, "--", BENCH_DIR],
                             cwd=ROOT).returncode == 0
    return tracked and not git("ls-files", "--others", "--exclude-standard", BENCH_DIR)


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, os.path.join(checkout, BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {workload} in {checkout} exited with "
                         f"status {proc.returncode}")
    return json.loads(lines[-1])


def run_gates(checkout: str) -> dict:
    """Criteria 1, 2 and 10 in one pytest run: each printed elapsed time as a
    fraction of its bound, None for a gate that did not pass."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
           "tests/test_acceptance.py", "-k",
           " or ".join(f"test_criterion_{g}_" for g in GATES)]
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, env=env)
    fractions = dict.fromkeys(GATES)
    for line in proc.stdout.splitlines():
        m = GATE_LINE.search(line)
        gate = m and m.group(1).zfill(2)
        if gate in GATES:
            fractions[gate] = float(m.group(2)) / GATES[gate]
    return fractions


def alternate(label: str, run, show) -> dict[str, list]:
    """PAIRS pairs of run(side), the parent first in odd pairs."""
    runs = {"parent": [], "change": []}
    for i in range(PAIRS):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(run(side))
            print(f"{label} pair {i + 1}/{PAIRS} {side}: {show(runs[side][-1])}",
                  file=sys.stderr)
    return runs


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarise(metric: dict, parent: list[float], change: list[float],
              fails_more: bool) -> dict:
    sign = 1 if metric["better"] == "lower" else -1
    before, after = spread(parent), spread(change)
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    gain = sign * (before["median"] - after["median"])
    scale = abs(before["median"]) or 1.0
    worse_by = -gain / scale
    separated = all(sign * (p - c) > 0 for p in parent for c in change)
    if max(before["iqr"], after["iqr"]) / scale > metric["bound"] and not separated:
        verdict = "unresolved"
    else:
        verdict = "within_bound" if worse_by <= metric["bound"] else "out_of_bound"
    return {"unit": metric["unit"], "better": metric["better"],
            "parent": dict(before, runs=parent), "change": dict(after, runs=change),
            "change_won": wins, "pairs": PAIRS,
            "gain": 10 * wins >= 9 * PAIRS and gain > before["iqr"] and not fails_more,
            "verdict": verdict}


def summarise_gate(bound: float, parent: list, change: list) -> dict:
    def side(runs):
        passed = [r for r in runs if r is not None]
        return dict(spread(passed) if len(passed) > 1 else {}, runs=runs,
                    failed=len(runs) - len(passed))

    won = sum(p is not None and c is not None and c < p for p, c in zip(parent, change))
    return {"bound_s": bound, "unit": "fraction of bound", "parent": side(parent),
            "change": side(change), "change_won": won, "pairs": PAIRS}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--label", required=True, help="names BENCH_<label>.json")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    seconds = spec["run_seconds"]

    parent = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    if not same_benchmark(parent):
        raise SystemExit(f"error: {BENCH_DIR}/ differs between {parent[:12]} and "
                         "the working tree; compare only with the same benchmark")
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    scratch = tempfile.mkdtemp(prefix="opmx-bench-")
    parent_tree = os.path.join(scratch, "parent")
    try:
        archive = subprocess.run(["git", "archive", parent], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(parent_tree)
        sides = {"parent": parent_tree, "change": ROOT}
        workloads = {}
        for workload in (w["name"] for w in spec["workloads"]):
            runs = alternate(
                workload, lambda side: run_once(sides[side], workload, args.seed, seconds),
                lambda r: f"{r['metrics']['run_s']['value']:.3f} s run_s")
            failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
            workloads[workload] = {
                "correct": {side: all(r["correct"] for r in rs)
                            for side, rs in runs.items()},
                "failed": failed,
                "attempted": {side: sum(r["attempted"] for r in rs)
                              for side, rs in runs.items()},
                "metrics": {m["name"]: summarise(
                    m, [r["metrics"][m["name"]]["value"] for r in runs["parent"]],
                    [r["metrics"][m["name"]]["value"] for r in runs["change"]],
                    failed["change"] > failed["parent"])
                    for m in spec["end_to_end"]},
            }
        gate_runs = alternate("gates", lambda side: run_gates(sides[side]), str)
        gates = {f"criterion_{g}": summarise_gate(
            bound, [r[g] for r in gate_runs["parent"]],
            [r[g] for r in gate_runs["change"]]) for g, bound in GATES.items()}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    head = git("rev-parse", "HEAD")
    result = {
        "label": args.label,
        "started": started,
        "machine": {"platform": platform.platform(), "machine": platform.machine(),
                    "cpu_count": os.cpu_count()},
        "python": platform.python_version(),
        "parent": parent,
        "change": {"head": head, "dirty": bool(git("status", "--porcelain"))},
        "command": f"{BENCH_DIR}/run.py --workload W --seed {args.seed} "
                   f"--seconds {seconds:g} --trace 0",
        "pairs": PAIRS,
        "workloads": workloads,
        "gates": gates,
    }
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
