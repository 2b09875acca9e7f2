#!/usr/bin/env python3
"""Exact gate on the figure benches' simulated output.

A figure bench's --json report holds no host-clock value: every field is
a pure function of the code, the data generators and the cost model.
BENCH_baseline.json pins each (bench, query, profile) run's record as
the report wrote it (jobs, failed, every sim.* and bytes.* field and
per_job), minus the optional "analyzer" and "plan" embeds, and this tool
compares fresh reports against it with ==. Any difference, faster or
slower, fails and names the run and the field. So does a run the
baseline does not know and a baseline run no report covers. A change to
simulated output is blessed on purpose, in its own commit that says why:

    for b in fig02_gap fig09_q21_breakdown fig10_small_cluster \\
             fig11_ec2_scaling fig12_facebook_q17 fig13_facebook_q18q21 \\
             ablation_tags; do
      ./build/bench/$b --json BENCH_$b.json
    done
    python3 tools/bench_diff.py BENCH_fig*.json BENCH_ablation_tags.json
    python3 tools/bench_diff.py --update BENCH_fig*.json BENCH_ablation_tags.json

Exact means bit-equal on one toolchain: the data generators and the
Facebook preset's contention draws go through libm. Each report names
the compiler and C library it was built with ("toolchain"), --update
writes that name into the baseline, and the gate refuses to compare
reports from any other toolchain, or to merge them with --only.

--update --only <run-id> re-blesses just the matching runs (run-id is
bench, bench/query or bench/query/profile; repeatable) and keeps every
other baseline entry.

Standard library only. Exit codes: 0 equal, 1 a difference, a new run or
a missing run, 2 usage error or toolchain mismatch (nothing compared).

Usage:
    tools/bench_diff.py [--baseline PATH] [--write-diff PATH]
                        [--update [--only RUN-ID]...] REPORT [REPORT...]
"""
import argparse
import json
import os
import sys

DEFAULT_BASELINE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_baseline.json",
)

# Optional --analyze / --explain views embedded in a record; not gated.
EMBEDS = ("analyzer", "plan")


def run_id(key):
    return "/".join(key)


def read_reports(paths):
    """(toolchain, {(bench, query, profile): record minus the embeds})."""
    toolchains, runs = set(), {}
    for path in paths:
        with open(path) as f:
            report = json.load(f)
        toolchains.add(report.get("toolchain"))
        for rec in report.get("records", []):
            key = (report["bench"], rec["query"], rec["profile"])
            if key in runs:
                raise ValueError(f"run {run_id(key)} appears twice")
            runs[key] = {k: v for k, v in rec.items() if k not in EMBEDS}
    if not runs:
        raise ValueError("the reports hold no records")
    if len(toolchains) != 1:
        raise ValueError("the reports come from different toolchains: "
                         f"{sorted(map(str, toolchains))}")
    return toolchains.pop(), runs


def read_baseline(path):
    """(toolchain, {(bench, query, profile): record})."""
    with open(path) as f:
        doc = json.load(f)
    runs = {(bench, rec["query"], rec["profile"]): rec
            for bench, recs in doc["benches"].items() for rec in recs}
    return doc["toolchain"], runs


def write_baseline(path, toolchain, runs):
    """One record per line, so a bless diff shows one line per moved run."""
    benches = {}
    for (bench, _, _), rec in sorted(runs.items()):
        benches.setdefault(bench, []).append(json.dumps(rec, sort_keys=True))
    body = ",\n".join(f"{json.dumps(bench)}: [\n" + ",\n".join(recs) + "\n]"
                      for bench, recs in benches.items())
    with open(path, "w") as f:
        f.write('{"schema_version": 2,\n"toolchain": ' + json.dumps(toolchain)
                + ',\n"benches": {\n' + body + "\n}}\n")


def differences(base, fresh, path=""):
    """(field path, baseline value, fresh value) for each leaf that differs."""
    if isinstance(base, dict) and isinstance(fresh, dict):
        return [d for k in sorted(base.keys() | fresh.keys())
                for d in differences(base.get(k), fresh.get(k),
                                     f"{path}.{k}" if path else k)]
    if (isinstance(base, list) and isinstance(fresh, list)
            and len(base) == len(fresh)):
        return [d for i, (b, f) in enumerate(zip(base, fresh))
                for d in differences(b, f, f"{path}[{i}]")]
    return [] if base == fresh else [(path, base, fresh)]


def main(argv):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--baseline", default=DEFAULT_BASELINE)
    ap.add_argument(
        "--write-diff", metavar="PATH",
        help="also write the comparison as JSON (CI uploads it as an artifact)",
    )
    ap.add_argument(
        "--update", action="store_true",
        help="bless: rewrite the baseline from the given reports",
    )
    ap.add_argument(
        "--only", action="append", metavar="RUN-ID",
        help="with --update: re-bless only the runs matching RUN-ID "
             "(bench, bench/query or bench/query/profile; repeatable) and "
             "keep every other baseline entry",
    )
    ap.add_argument("reports", nargs="+")
    args = ap.parse_args(argv[1:])

    if args.only and not args.update:
        print("error: --only requires --update", file=sys.stderr)
        return 2
    try:
        toolchain, fresh = read_reports(args.reports)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    if args.update and not args.only:
        write_baseline(args.baseline, toolchain, fresh)
        print(f"wrote {args.baseline} ({len(fresh)} runs, {toolchain})")
        return 0

    try:
        base_toolchain, base = read_baseline(args.baseline)
    except FileNotFoundError:
        print(f"error: baseline {args.baseline} not found; bless one with "
              "--update (see the module docstring)", file=sys.stderr)
        return 2
    if toolchain != base_toolchain:
        print(f"error: the reports were built with {toolchain!r}, the "
              f"baseline was blessed on {base_toolchain!r}; simulated values "
              "are bit-exact only on one toolchain, so nothing was compared",
              file=sys.stderr)
        return 2

    if args.only:
        picked = {k: v for k, v in fresh.items()
                  if any(run_id(k) == o or run_id(k).startswith(o + "/")
                         for o in args.only)}
        if not picked:
            print(f"error: --only {args.only} matched no run in the reports",
                  file=sys.stderr)
            return 2
        base.update(picked)
        write_baseline(args.baseline, toolchain, base)
        print(f"re-blessed {len(picked)} run(s) matching {args.only} in "
              f"{args.baseline}")
        return 0

    compared = sorted(base.keys() & fresh.keys())
    diffs = [{"run": run_id(key), "field": field, "baseline": b, "fresh": f}
             for key in compared
             for field, b, f in differences(base[key], fresh[key])]
    new = [run_id(key) for key in sorted(fresh.keys() - base.keys())]
    missing = [run_id(key) for key in sorted(base.keys() - fresh.keys())]

    if args.write_diff:
        with open(args.write_diff, "w") as f:
            json.dump({"toolchain": toolchain, "compared": len(compared),
                       "differences": diffs, "new_runs": new,
                       "missing_runs": missing}, f, indent=2)
            f.write("\n")

    for d in diffs:
        print(f"DIFF {d['run']} {d['field']}: {d['baseline']!r} -> "
              f"{d['fresh']!r}", file=sys.stderr)
    for name in new:
        print(f"NEW RUN {name}: not in the baseline; bless it with --update",
              file=sys.stderr)
    for name in missing:
        print(f"MISSING RUN {name}: in the baseline but in no report; pass "
              "its report, or re-bless with --update", file=sys.stderr)

    moved = len({d["run"] for d in diffs})
    print(f"bench_diff: {len(compared)} runs compared, {len(diffs)} "
          f"difference(s) in {moved} run(s), {len(new)} new run(s), "
          f"{len(missing)} missing run(s) ({toolchain})")
    return 0 if not diffs and not new and not missing else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
