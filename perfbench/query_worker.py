"""Query process for the untraced run: sets up a snapshot, then answers
commands one at a time (a closed loop, one client).

    python3 query_worker.py SNAPSHOT_DIR QUERIES_JSON

Set-up parses the snapshot and runs one untimed warm-up query, which builds
the snapshot's lazy index.  The process sets up once when it starts and
answers with one JSON line.  Then it reads commands from stdin, one a line,
and answers each with one JSON line:

- ``setup`` sets up again on a freshly parsed snapshot;
- ``batch`` runs every query once;
- ``quit`` (or anything else) ends the process.

Set-ups and queries are timed in wall time and in this process's CPU time.
"""

from __future__ import annotations

import json
import sys
import time

from queries import checked_query, load_snapshot


def main(argv) -> int:
    snapshot_dir, queries_path = argv
    with open(queries_path, encoding="utf-8") as fh:
        queries = json.load(fh)
    facts = None

    def setup() -> dict:
        nonlocal facts
        start, start_cpu = time.perf_counter_ns(), time.process_time_ns()
        facts = load_snapshot(snapshot_dir)
        checked_query(queries[0], facts)
        return {"wall_ns": time.perf_counter_ns() - start,
                "cpu_ns": time.process_time_ns() - start_cpu}

    print(json.dumps(setup()), flush=True)
    for line in sys.stdin:
        command = line.strip()
        if command == "setup":
            reply = setup()
        elif command == "batch":
            reply = {"wall_ns": [], "cpu_ns": [], "digests": [], "problems": []}
            for query in queries:
                start, start_cpu = time.perf_counter_ns(), time.process_time_ns()
                ranking, found = checked_query(query, facts)
                reply["wall_ns"].append(time.perf_counter_ns() - start)
                reply["cpu_ns"].append(time.process_time_ns() - start_cpu)
                reply["digests"].append(ranking)
                reply["problems"].append(found)
        else:
            break
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
