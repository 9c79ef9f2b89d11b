#!/usr/bin/env python3
"""Check or rewrite bench/figure_events.txt, the simulated event count
of each figure bench.

Each bench's BenchHarness records the events its simulators executed
in the JSON file HOWSIM_BENCH_JSON names. The count is deterministic at
any HOWSIM_JOBS, so a change that moves it changed the model's event
stream. Usage, after running the figure benches with one
HOWSIM_BENCH_JSON:

    python3 bench/figure_events.py BENCH_JSON          # exit 1 on a mismatch
    python3 bench/figure_events.py --write BENCH_JSON  # record the counts
"""

import json
import sys
from pathlib import Path

TABLE = Path(__file__).resolve().parent / "figure_events.txt"
HEADER = ("# Simulated events per figure bench (BenchHarness \"events\"),\n"
          "# checked by bench/figure_events.py.\n")


def main(argv):
    write = argv[:1] == ["--write"]
    if write:
        argv = argv[1:]
    if len(argv) != 1:
        sys.exit(__doc__)
    records = json.loads(Path(argv[0]).read_text())
    expected = {}
    for line in TABLE.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, events = line.split()
            expected[name] = int(events)
    if write:
        TABLE.write_text(HEADER + "".join(
            f"{name} {records[name]['events']}\n" for name in expected))
        return 0
    status = 0
    for name, events in expected.items():
        got = records.get(name, {}).get("events")
        if got != events:
            print(f"{name}: events {got}, expected {events}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
