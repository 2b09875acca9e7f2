#!/usr/bin/env python3
"""End-to-end scripted session of ysmart_shell with recorders active.

Drives the interactive shell through stdin with YSMART_TRACE and
YSMART_EVENTS set, runs two queries plus the flight-recorder and
plan-view commands, and asserts that

  - the shell exits cleanly and prints history/last/explain output,
  - the trace file is valid JSON with spans for both queries,
  - the events file passes tools/validate_events_jsonl.py and holds
    events from both queries.

Standard library only; invoked by ctest as
    python3 tests/shell_session_test.py <path-to-ysmart_shell>
"""
import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tools"))
from validate_events_jsonl import validate_file  # noqa: E402

QUERY1 = "SELECT count(*) AS n FROM lineitem"
QUERY2 = "SELECT cid, count(*) AS n FROM clicks GROUP BY cid"


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) != 2:
        fail("usage: shell_session_test.py <ysmart_shell binary>")
    shell = sys.argv[1]

    with tempfile.TemporaryDirectory() as tmp:
        trace = os.path.join(tmp, "session.trace.json")
        events = os.path.join(tmp, "session.events.jsonl")

        script = "\n".join([
            "\\profile on",
            QUERY1,
            QUERY2,
            "\\history",
            "\\last 1",
            f"\\explain {QUERY2}",
            "\\quit",
        ]) + "\n"

        env = dict(os.environ, YSMART_TRACE=trace, YSMART_EVENTS=events)
        proc = subprocess.run(
            [shell], input=script, env=env, text=True,
            capture_output=True, timeout=90,
        )
        if proc.returncode != 0:
            fail(f"shell exited {proc.returncode}\nstderr:\n{proc.stderr}")
        out = proc.stdout

        for needle, why in [
            ("history: 2 of 2 recorded", "\\history output"),
            ("query doctor", "\\last analyzer report"),
            ("== plan view", "\\explain plan view"),
        ]:
            if needle not in out:
                fail(f"missing {why} ({needle!r}) in shell output:\n{out}")

        # Trace: valid JSON, spans for two queries.
        with open(trace) as f:
            tr = json.load(f)
        tr_text = json.dumps(tr)
        if tr_text.count("query:ysmart") < 2:
            fail("trace does not contain spans for 2 queries")

        # Events: a valid journal, with both queries seen.
        count, errors = validate_file(events)
        if errors:
            fail("event journal invalid:\n" + "\n".join(errors))
        with open(events) as f:
            query_starts = sum(json.loads(line)["name"] == "query-start"
                               for line in f if line.strip())
        if query_starts < 2:
            fail(f"events contain {query_starts} query-start events, "
                 "expected >= 2")

    print(f"shell session e2e ok ({count} events)")


if __name__ == "__main__":
    main()
