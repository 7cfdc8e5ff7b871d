"""The simulator-free runner smoke grid (``repro bench --grid smoke``).

Four CPU-bound :func:`repro.runner.cells.spin_cell` jobs: exercises
fan-out, caching and report plumbing in milliseconds.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.experiments.common import ExperimentSpec
from repro.runner import Job


def _grid(duration: float, seeds: Sequence[int]) -> List[Job]:
    return [
        Job(
            experiment="smoke",
            entry="repro.runner.cells:spin_cell",
            scheme=f"spin{i}",
            seed=i,
            params={"n": 50_000, "seed": i},
        )
        for i in range(4)
    ]


SPEC = ExperimentSpec(
    name="smoke",
    help="simulator-free runner smoke grid",
    build=_grid,
    duration=0.0,
    bench_duration=0.0,
)
