"""Diagnostic grid cells for runner tests.

These are module-level entry points (spawn workers import them by
name) with no simulator dependency, so runner mechanics — ordering,
caching, crash isolation, timeouts — can be exercised in milliseconds.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict


def echo_cell(value: Any = 0, sleep_s: float = 0.0, seed: int = 0) -> Dict[str, Any]:
    """Return its inputs; optionally sleeps to simulate work."""
    if sleep_s > 0:
        time.sleep(sleep_s)
    return {"value": value, "seed": seed, "sleep_s": sleep_s}


def failing_cell(message: str = "boom", seed: int = 0) -> Dict[str, Any]:
    """Always raises — exercises crash isolation in the runner."""
    raise RuntimeError(message)


def hanging_cell(sleep_s: float = 3600.0, seed: int = 0) -> Dict[str, Any]:
    """Sleeps (nominally) forever — exercises the per-job timeout."""
    time.sleep(sleep_s)
    return {"slept": sleep_s}


def pid_cell(seed: int = 0) -> Dict[str, Any]:
    """Report the executing PID — proves workers persist across jobs."""
    return {"pid": os.getpid(), "seed": seed}


def dying_cell(exit_code: int = 7, seed: int = 0) -> Dict[str, Any]:
    """Kill the worker process outright (no exception, no cleanup).

    ``os._exit`` bypasses the worker's try/except, simulating a
    segfault or OOM kill — exercises respawn-on-crash.
    """
    os._exit(exit_code)
    return {}  # pragma: no cover - unreachable

