"""Regenerate the hot-path equivalence fixtures.

    PYTHONPATH=src python tests/golden_hotpath/capture.py [CELL ...]

With cell names, only those fixtures are (re)written; without, all are.

IMPORTANT: these fixtures are the pre-optimization reference. They must
only be regenerated when a change is *intended* to alter simulation
behavior (and says so in its changelog); a hot-path/performance PR must
leave every fixture byte-identical.
"""

from __future__ import annotations

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from matrix import BENCH_CELL, CELLS, run_bench_cell, run_cell  # noqa: E402


def main(names) -> None:
    unknown = set(names) - set(CELLS) - {BENCH_CELL}
    if unknown:
        raise SystemExit(f"unknown cells: {sorted(unknown)}")
    for name in CELLS:
        if names and name not in names:
            continue
        payload = run_cell(name)
        out = HERE / f"{name}.json"
        out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"captured {out.name}: {payload['result']['engine_events']} events, "
              f"{payload['n_spans']} spans, {payload['n_windows']} windows")
    if names and BENCH_CELL not in names:
        return
    payload = run_bench_cell()
    out = HERE / f"{BENCH_CELL}.json"
    out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"captured {out.name}: {payload['n_runs']} bench runs")


if __name__ == "__main__":
    main(sys.argv[1:])
