#!/usr/bin/env python3
"""Append bench --json reports to a JSONL time series and report trends.

BENCH_history.jsonl holds one line per CI bench invocation: timestamp,
git sha, and for every (bench, query, profile) run the simulated total,
the host wall-clock, and a compact summary of the host_phases section
(process CPU plus per-phase CPU) when the report carries one. The
committed file gives the repo a queryable record of how both clocks move
over time without digging through CI artifact archives.

Two subcommands:

    tools/bench_history.py append --history BENCH_history.jsonl \
        [--ts ISO8601] BENCH_fig09.json BENCH_fig10.json ...
    tools/bench_history.py report --history BENCH_history.jsonl \
        [--host-threshold 0.30]

`append` writes exactly one JSONL line covering all given reports.
`report` prints, per run, the latest entry against the median of the
preceding entries. The two clocks are treated per the repo's two-clock
discipline (DESIGN.md): simulated drift is called out but NOT judged
here — tools/bench_diff.py gates it against BENCH_baseline.json; host
drift (wall_ms, host CPU) is inherently noisy across runners, so
anomalies beyond --host-threshold are flagged as informational only.
`report` always exits 0 unless the history itself is unreadable.

Standard library only. Exit codes: 0 ok, 2 usage/input error.
"""
import argparse
import datetime
import json
import statistics
import sys


def load_report(path):
    with open(path) as f:
        report = json.load(f)
    if "records" not in report:
        raise ValueError(f"{path}: not a bench --json report (no 'records')")
    return report


def summarize_host(host):
    """Compact host_phases: process CPU and per-phase CPU sums, or None
    when no phase was recorded (nothing was profiled, so there is no
    host point to keep)."""
    if not host.get("phases"):
        return None
    phases = {}
    for p in host["phases"]:
        key = p["phase"]
        phases[key] = round(phases.get(key, 0.0) + p["cpu_ms"], 3)
    return {
        "process_cpu_ms": round(host.get("process_cpu_ms", 0.0), 3),
        "phase_cpu_ms": phases,
    }


def entry_from_reports(paths, ts):
    runs = {}
    sha = "unknown"
    for path in paths:
        report = load_report(path)
        bench = report.get("bench", path)
        if report.get("git_sha", "unknown") != "unknown":
            sha = report["git_sha"]
        for rec in report.get("records", []):
            key = "/".join((bench, rec["query"], rec["profile"]))
            if key in runs:
                print(f"warning: duplicate run {key}", file=sys.stderr)
            run = {
                "sim_total_s": rec["sim"]["total_s"],
                "wall_ms": round(rec.get("wall_ms", 0.0), 3),
                "failed": rec.get("failed", False),
            }
            host = summarize_host(rec.get("host_phases", {}))
            if host is not None:
                run["host"] = host
            runs[key] = run
    if not runs:
        raise ValueError("reports contain no records")
    return {"schema_version": 1, "ts": ts, "git_sha": sha, "runs": runs}


def load_history(path):
    entries = []
    try:
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    entries.append(json.loads(line))
                except json.JSONDecodeError as e:
                    raise ValueError(f"{path}:{lineno}: invalid JSON: {e}")
    except FileNotFoundError:
        pass
    return entries


def cmd_append(args):
    ts = args.ts or datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds"
    )
    try:
        entry = entry_from_reports(args.reports, ts)
    except (ValueError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    with open(args.history, "a") as f:
        json.dump(entry, f, sort_keys=True)
        f.write("\n")
    print(
        f"appended {len(entry['runs'])} run(s) at {ts} "
        f"({entry['git_sha']}) to {args.history}"
    )
    return 0


def trend(latest, prior, threshold):
    """(ratio, flag) of latest vs the median of prior; None when no basis."""
    basis = [v for v in prior if v is not None and v > 0]
    if latest is None or latest <= 0 or not basis:
        return None, False
    ratio = latest / statistics.median(basis)
    return ratio, abs(ratio - 1.0) > threshold


def fmt_ratio(ratio):
    return "n/a" if ratio is None else f"{(ratio - 1) * 100:+.1f}%"


def cmd_report(args):
    try:
        entries = load_history(args.history)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if not entries:
        print(f"{args.history}: no history yet")
        return 0

    # Collect the series per run key, oldest first.
    keys = sorted({k for e in entries for k in e.get("runs", {})})
    print(
        f"bench history: {len(entries)} entrie(s), {len(keys)} run(s), "
        f"latest {entries[-1].get('ts', '?')} "
        f"({entries[-1].get('git_sha', '?')})"
    )
    anomalies = 0
    for key in keys:
        present = [e for e in entries if key in e.get("runs", {})]
        series = [e["runs"][key] for e in present]
        latest, prior = series[-1], series[:-1]
        # A key absent from the newest entry means the bench stopped
        # reporting it (renamed, removed, or the CI job failed); without
        # this marker its last recorded values would read as current.
        stale = key not in entries[-1].get("runs", {})

        sim_ratio, sim_moved = trend(
            latest.get("sim_total_s"),
            [r.get("sim_total_s") for r in prior],
            args.sim_threshold,
        )
        wall_ratio, wall_flag = trend(
            latest.get("wall_ms"),
            [r.get("wall_ms") for r in prior],
            args.host_threshold,
        )
        cpu = latest.get("host", {}).get("process_cpu_ms")
        cpu_ratio, cpu_flag = trend(
            cpu,
            [r.get("host", {}).get("process_cpu_ms") for r in prior],
            args.host_threshold,
        )

        line = (
            f"  {key}: sim {latest.get('sim_total_s', 0):.3f}s "
            f"({fmt_ratio(sim_ratio)} vs median), "
            f"wall {fmt_ratio(wall_ratio)}, host cpu {fmt_ratio(cpu_ratio)}"
        )
        notes = []
        if stale:
            notes.append(
                f"stale: last seen {present[-1].get('ts', '?')}"
            )
        if latest.get("failed"):
            notes.append("FAILED")
        if sim_moved:
            # Simulated drift is real (deterministic axis) but judged by
            # the bench_diff gate, not here.
            notes.append("sim drift — gated by bench_diff")
        if (wall_flag or cpu_flag) and not stale:
            # Stale runs have no new measurement to judge.
            anomalies += 1
            notes.append("host anomaly (informational)")
        if notes:
            line += "  [" + "; ".join(notes) + "]"
        print(line)
    if anomalies:
        print(
            f"{anomalies} host anomal(ies) beyond "
            f"{args.host_threshold * 100:.0f}% — informational; host time "
            "is not gated"
        )
    return 0


def main(argv):
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = ap.add_subparsers(dest="cmd", required=True)
    ap_append = sub.add_parser("append", help="append reports as one entry")
    ap_append.add_argument("--history", required=True)
    ap_append.add_argument(
        "--ts", help="ISO-8601 timestamp override (default: now, UTC)"
    )
    ap_append.add_argument("reports", nargs="+")
    ap_report = sub.add_parser("report", help="print a trend report")
    ap_report.add_argument("--history", required=True)
    ap_report.add_argument(
        "--host-threshold", type=float, default=0.30, dest="host_threshold",
        help="host-axis anomaly threshold (default 0.30 = 30%%)",
    )
    ap_report.add_argument(
        "--sim-threshold", type=float, default=0.001, dest="sim_threshold",
        help="simulated-axis drift note threshold (default 0.001)",
    )
    args = ap.parse_args(argv[1:])
    return cmd_append(args) if args.cmd == "append" else cmd_report(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
