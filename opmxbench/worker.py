"""One round of one workload, in a fresh process.

run.py starts this script once per round and reads the JSON line it prints
last.  The first thing it does is import opmx.cli from the checkout's src/,
and the moment that import ends is reported as `ready_s` on the
CLOCK_MONOTONIC clock, which run.py shares: the set-up time is a cold
interpreter start plus a cold `import opmx.cli`.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import opmx.cli  # noqa: E402

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402

import checks  # noqa: E402
import corpus  # noqa: E402

# The operations of one round, per workload.
GALLERY = {
    # the CLI defaults at N = 256: the ROADMAP's headline run
    "gallery_n256": dict(truncations=(256,), samples=200, witness_nmax=10_000),
    # compressions dominate; witness_nmax just above the ~1415 the e1 witness needs
    "gallery_wide": dict(truncations=(512,), samples=20, witness_nmax=1500),
}
DEFINE = dict(truncations=(8,), samples=500)
WORKLOADS = (*GALLERY, "define_corpus")


def run_gallery(workload: str, seed: int) -> dict:
    params = GALLERY[workload]
    config = opmx.cli.SuiteConfig(seed=seed, **params)
    start = time.perf_counter()
    code, reports = opmx.cli.run_suite(config)
    run_s = time.perf_counter() - start
    problems = [] if code == 0 else [f"exit code {code}"]
    problems += checks.gallery_problems(reports, params["truncations"],
                                        params["samples"], params["witness_nmax"])
    return {"run_s": run_s, "attempted": len(checks.GALLERY), "failed": 0,
            "problems": problems, "reports": reports}


def run_define(seed: int, round_index: int, workdir: str) -> dict:
    definitions = corpus.round_definitions(seed, round_index)
    os.makedirs(workdir, exist_ok=True)
    paths = []
    for d in definitions:
        paths.append(os.path.join(workdir, f"{d.label}.json"))
        d.dump(paths[-1])
    run_s = 0.0
    outcomes = []
    for path in paths:
        config = opmx.cli.SuiteConfig(define_path=path, seed=seed, **DEFINE)
        start = time.perf_counter()
        outcomes.append(opmx.cli.run_suite(config))
        run_s += time.perf_counter() - start
    shutil.rmtree(workdir)
    problems, failed, reports = [], [], []
    for d, (code, reps) in zip(definitions, outcomes):
        found, missed = checks.define_outcome(d, reps, code, DEFINE["truncations"],
                                              DEFINE["samples"])
        problems += found
        if missed:
            failed.append(d.label)
        reports += reps
    return {"run_s": run_s, "attempted": len(definitions), "failed": len(failed),
            "failed_labels": failed, "problems": problems, "reports": reports}


# Each verify check against the reports it produces; a wrapper that missed a
# binding would count fewer calls than reports.
CHECK_REPORTS = {
    "verify.check_pairing": lambda c: c == "pairing",
    "verify.run_witness": lambda c: c == "witness",
    "verify.check_compression_transpose": lambda c: c.startswith("transpose@"),
    "verify.denseness_obstruction": lambda c: "denseness" in c,
    "verify.check_strict_gap": lambda c: c == "strict_gap",
}


def cross_check(layers: dict, reports: list[dict]) -> list[str]:
    problems = []
    for span, matches in CHECK_REPORTS.items():
        calls = layers[f"{span}.calls"]
        count = sum(1 for r in reports if matches(r["check"]))
        if span == "verify.check_strict_gap":
            # A run that reuses a strict-gap report for identical inputs may
            # call the check as few times as it has distinct inputs.
            ok = layers[f"{span}.distinct"] <= calls <= count
        else:
            ok = calls == count
        if not ok:
            problems.append(f"trace: {span} called {calls} times for {count} reports")
    return problems


def main() -> int:
    if os.path.dirname(os.path.abspath(opmx.cli.__file__)) != os.path.join(SRC, "opmx"):
        print(f"error: opmx imported from {opmx.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    tag = f"{args.workload}-seed{args.seed}-round{args.round}"
    if args.workload == "define_corpus":
        result = run_define(args.seed, args.round,
                            os.path.join(args.out, f"defs-{tag}-trace{args.trace}"))
    else:
        result = run_gallery(args.workload, args.seed)
    reports = result.pop("reports")
    result["ready_s"] = READY
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["verify.check_pairing.pairs"] = sum(
            r["certificate"].get("pairs", 0) for r in reports if r["check"] == "pairing")
        result["problems"] += cross_check(layers, reports)
        result["layers"] = layers
        with open(os.path.join(args.out, f"trace-{tag}.json"), "w", encoding="utf-8") as fh:
            json.dump({"layers": layers, "spans": tracer.span_records()}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
