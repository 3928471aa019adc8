"""opmx benchmark: run one workload for a fixed time and print its metrics.

    python3 opmxbench/run.py --workload gallery_n256 --seed 1 --seconds 40 --trace 0

Each round runs in a fresh process (worker.py) that imports opmx from the
checkout's src/ and calls `opmx.cli.run_suite`, the path the `opmx` command
takes.  Rounds repeat while the next one, judged by the longest so far, still
ends within --seconds; there is always at least one.  Every round attempts
the same operations, so the share of failed operations is the same in every
run.

--trace 0 prints the end-to-end metrics:
  setup_s      cold interpreter start plus `import opmx.cli`, median over rounds
  run_s        wall time of a round's run_suite calls, the fastest round
  peak_rss_mb  peak resident set of a round's process, median over rounds
--trace 1 runs each round twice, untraced then traced, and prints the
per-layer metrics of spans.py, averaged per traced round, plus
trace.overhead_s, the median of traced minus untraced run_s.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  A run whose reports disagree with the expectations
in checks.py prints `"correct": false`; a run that cannot start a round
exits with status 1 and prints no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
WORKLOADS = ("gallery_n256", "define_corpus", "gallery_wide")
BUDGET_S = 170  # every run ends within 180 s
# A fixed hash seed gives every round's process the same string hashes, so
# rounds differ only in what they compute.
ENV = dict(os.environ, PYTHONHASHSEED="0")


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_round(workload: str, seed: int, index: int, trace: int, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--round", str(index), "--trace", str(trace),
           "--out", OUT]
    spawned = clock()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=ENV,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: round {index} of {workload} ran past the time budget")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: round {index} of {workload} exited with "
                         f"status {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready_s"] - spawned
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    os.makedirs(OUT, exist_ok=True)

    start = clock()
    deadline = start + BUDGET_S
    plain, traced = [], []
    longest = 0.0
    # Start another round only while it can still end within --seconds.
    while not plain or clock() - start + longest <= args.seconds:
        began = clock()
        plain.append(run_round(args.workload, args.seed, len(plain), 0, deadline))
        if args.trace:
            traced.append(run_round(args.workload, args.seed, len(traced), 1, deadline))
        longest = max(longest, clock() - began)

    rounds = plain + traced
    problems = [p for r in rounds for p in r["problems"]]
    if args.trace:
        names = traced[0]["layers"]
        metrics = {name: statistics.fmean(r["layers"][name] for r in traced)
                   for name in names}
        metrics["trace.overhead_s"] = statistics.median(
            t["run_s"] - p["run_s"] for p, t in zip(plain, traced))
        units = {name: _layer_unit(name) for name in metrics}
    else:
        # Other tenants of the host only ever add time to a round, in bursts of
        # seconds and slow spells of minutes; the fastest round is the
        # steadiest figure for the program's own cost.
        metrics = {"setup_s": statistics.median(r["setup_s"] for r in plain),
                   "run_s": min(r["run_s"] for r in plain),
                   "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain)}
        units = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
    summary = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    detail = dict(summary, workload=args.workload, seed=args.seed, trace=args.trace,
                  problems=problems, rounds=rounds)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("yes_share"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
