#!/usr/bin/env python3
"""Host-time benchmark of the ysmart simulator.

Builds the library and the benchmark driver from source (CMake, Release,
into .bench_build/perfbench under the repository root), runs the
benchmark's self-tests, then runs one workload:

    python3 perfbench/run.py --workload tpch-ysmart --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ledger
(perfbench/layer_map.json names both). Human-readable lines come first;
the last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. At the default seed the simulated metrics of every
query must also equal perfbench/sim_reference.json; --write-sim-reference
rewrites that file (only for a deliberate, explained sim change).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
LAYER_MAP = HERE / "layer_map.json"
SIM_REFERENCE = HERE / "sim_reference.json"
WORKLOADS = ["tpch-ysmart", "tpch-hive", "clicks-agg"]
DEFAULT_SEED = 0
# Everything a run does must end within this many seconds (the build of a
# fresh checkout is allowed longer).
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 840


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_checked(cmd, timeout):
    """Run a build step with its output on stderr; raise on failure."""
    subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                   timeout=timeout)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"library sources not found under {ROOT / 'src'}")
    t0 = time.monotonic()
    if not (BUILD / "CMakeCache.txt").is_file():
        run_checked(["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_LIMIT_S)
    jobs = str(os.cpu_count() or 1)
    run_checked(["cmake", "--build", str(BUILD), "-j", jobs],
                BUILD_LIMIT_S - (time.monotonic() - t0))
    run_checked([str(BUILD / "perfbench_selftest")], 60)


def source_digest():
    """sha256 over every file under src/ (path and bytes), for checkouts
    that are not git repositories."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    # Only this checkout's own repository: git would otherwise search the
    # parent directories of a plain source tree.
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_driver(workload, seed, seconds, trace, timeout):
    cmd = [str(BUILD / "perfbench_driver"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--spans", str(BUILD / f"spans-{workload}-{seed}.jsonl")]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                         text=True, timeout=timeout, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def load_json(path):
    with open(path) as f:
        return json.load(f)


def check_sim_reference(report, seed):
    """Queries whose simulated metrics differ from the committed ones at
    the default seed count as failed; returns how many runs that adds."""
    if seed != DEFAULT_SEED:
        return 0
    expected = load_json(SIM_REFERENCE)["workloads"].get(report["workload"], {})
    extra = 0
    for q in report["queries"]:
        if q["ok"] and expected.get(q["id"]) != q["sim"]:
            log(f"perfbench: {report['workload']} {q['id']}: simulated metrics "
                f"differ from {SIM_REFERENCE.name}")
            q["ok"] = False
            extra += q["attempted"]
    return extra


def summarize(report, seed):
    """Human-readable lines plus the benchmark result object."""
    layer_map = load_json(LAYER_MAP)
    names = layer_map["per_layer"] if report["trace"] else [
        n for n in layer_map["end_to_end"] if n != "failed_frac"]
    failed = report["failed"] + check_sim_reference(report, seed)
    attempted = report["attempted"]
    metrics = {n: report["metrics"][n] for n in names}

    fp = dict(report["fingerprint"])
    fp["git_sha"] = git_sha() or "none"
    fp["src_sha256"] = source_digest()
    print(f"workload {report['workload']}  seed {seed}  "
          f"trace {int(report['trace'])}")
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    print(f"timed samples {report['samples']}  highest percentile with "
          f">=10 samples beyond it: p{report['highest_percentile']}")
    for q in report["queries"]:
        status = "ok" if q["ok"] else "FAILED " + (q["why"] or "sim reference")
        print(f"  {q['id']:6s} runs {q['attempted']:4d}  {status}")
    for n, m in metrics.items():
        print(f"  {n:30s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'failed_frac':30s} {failed / attempted:14.6g} ratio")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def write_sim_reference(seconds):
    ref = {"about": "Simulated metrics of every query at seed "
                    f"{DEFAULT_SEED}; the benchmark fails a query whose "
                    "simulated metrics differ from these.",
           "seed": DEFAULT_SEED, "workloads": {}}
    for w in WORKLOADS:
        report = run_driver(w, DEFAULT_SEED, seconds, False, RUN_LIMIT_S)
        if report["failed"]:
            raise RuntimeError(f"{w}: queries failed; not writing a reference")
        ref["workloads"][w] = {q["id"]: q["sim"] for q in report["queries"]}
    with open(SIM_REFERENCE, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"wrote {SIM_REFERENCE}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"], required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-sim-reference", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    try:
        build()
        if args.write_sim_reference:
            write_sim_reference(args.seconds)
            return 0
        if args.workload != "all":
            report = run_driver(args.workload, args.seed, args.seconds,
                                args.trace, RUN_LIMIT_S)
            print(json.dumps(summarize(report, args.seed)))
            return 0
        results = {}
        for w in WORKLOADS:
            results[w] = summarize(
                run_driver(w, args.seed, args.seconds, args.trace, RUN_LIMIT_S),
                args.seed)
            print()
        print(json.dumps(results))
        return 0
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
