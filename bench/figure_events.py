#!/usr/bin/env python3
"""Check or rewrite bench/figure_events.txt, the simulated event count
and coroutine frame count of each figure bench.

Each bench's BenchHarness records the events its simulators executed
and the frames their arenas allocated in the JSON file
HOWSIM_BENCH_JSON names. Both counts are deterministic at any
HOWSIM_JOBS, so a change that moves one changed the model's event
stream or its coroutine structure. Usage, after running the figure
benches with one HOWSIM_BENCH_JSON:

    python3 bench/figure_events.py BENCH_JSON          # exit 1 on a mismatch
    python3 bench/figure_events.py --write BENCH_JSON  # record the counts
"""

import json
import sys
from pathlib import Path

TABLE = Path(__file__).resolve().parent / "figure_events.txt"
FIELDS = ("events", "frames")
HEADER = ("# Simulated events and coroutine frames per figure bench\n"
          "# (BenchHarness \"events\" and \"frames\"), checked by\n"
          "# bench/figure_events.py.\n")


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
            name, *counts = line.split()
            expected[name] = dict(zip(FIELDS, map(int, counts)))
    if write:
        TABLE.write_text(HEADER + "".join(
            name + "".join(f" {records[name][f]}" for f in FIELDS) + "\n"
            for name in expected))
        return 0
    status = 0
    for name, counts in expected.items():
        for field in FIELDS:
            got = records.get(name, {}).get(field)
            if got != counts.get(field):
                print(f"{name}: {field} {got}, expected {counts.get(field)}")
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
