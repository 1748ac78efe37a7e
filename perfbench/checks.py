"""Correctness checks over the cell records of one benchmark run.

Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

from typing import Dict, List

from spec import MIN_FULL_EPOCHS


def lost_ops(cells: List[dict]) -> List[str]:
    """Every issued op completed, vanished, or failed typed — none lost."""
    out = []
    for c in cells:
        accounted = c["ops_completed"] + c["vanished_ops"] + c["fault_failed_ops"]
        if accounted != c["issued"]:
            out.append(
                f"lost ops on subseed {c['subseed']}: completed+vanished+fault_failed"
                f" = {accounted} != issued {c['issued']}"
            )
    return out


def same_outputs(cells: List[dict]) -> List[str]:
    """Cells of one sub-seed (traced or not, first or repeat) match exactly."""
    first: Dict[int, dict] = {}
    out = []
    for c in cells:
        ref = first.setdefault(c["subseed"], c)
        if c["digest"] != ref["digest"]:
            out.append(
                f"simulated outputs differ on subseed {c['subseed']}"
                f" (traced={ref['traced']} vs traced={c['traced']})"
            )
    return out


def same_loop(cells: List[dict], expected: bool) -> List[str]:
    """Every cell ran the op loop the workload is meant to exercise."""
    seen = {c["fastpath_engaged"] for c in cells}
    if seen != {expected}:
        return [f"fastpath_engaged was {sorted(seen)}, expected {expected}"]
    return []


def steady_state(cells: List[dict]) -> List[str]:
    """Refuse steady-state throughput from too few full epochs."""
    return [
        f"steady-state guard: subseed {c['subseed']} has {c['full_epochs']} full"
        f" epochs < {MIN_FULL_EPOCHS}; sim_throughput_ops_s refused"
        for c in cells
        if not c["steady_state_ok"]
    ]


def run_all(cells: List[dict], expected_fastpath: bool) -> List[str]:
    return (
        lost_ops(cells)
        + same_outputs(cells)
        + same_loop(cells, expected_fastpath)
        + steady_state(cells)
    )
