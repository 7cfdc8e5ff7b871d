"""Shared experiment scaffolding and the experiment registry.

Besides the testbed and Figure-11 workload helpers (cells build their
fabric with :func:`repro.baselines.registry.build`), this module is the
experiments'
doorway into :mod:`repro.runner`.  Each grid experiment declares one
:class:`ExperimentSpec` (``SPEC``) next to its ``cell``: its
(scheme x parameter x seed) axes, default durations and result table.
:func:`build_grid` expands a registered spec into :class:`Job` cells and
:func:`run_grid` submits them, fanning out over processes when
``jobs > 1`` and otherwise running in-process (debugger- and
coverage-friendly), with results served from the on-disk cache when
the configuration and code are unchanged.  ``repro trace`` and every
figure subcommand are generated from the same specs, so adding an
experiment is one module plus one :data:`_EXPERIMENT_MODULES` line
(walkthrough: ``docs/API.md``).
"""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import math
import random
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.runner import Job, ParallelRunner, ResultCache
from repro.sim.host import VMPair
from repro.sim.network import Network
from repro.sim.topology import three_tier_testbed
from repro.workloads.synthetic import permutation_pairs

SCHEMES_WITH_PRIME = ("pwc", "es+clove", "ufab-prime", "ufab")

# The Figure-11 guarantee workload (classes x permutation endpoints),
# shared by every grid that replays it (fig11, resilience, ablations).
GUARANTEE_CLASSES_GBPS = (1.0, 2.0, 5.0)
SOURCES = ("S1", "S2", "S3", "S4")
DESTINATIONS = ("S5", "S6", "S7", "S8")


def testbed_network(
    link_capacity: float = 10e9,
    resolve_interval: float = 0.0,
) -> Network:
    """A fresh Figure-10 testbed network."""
    net = Network(three_tier_testbed(link_capacity=link_capacity))
    net.resolve_interval = resolve_interval
    return net


def guarantee_workload(
    unit_bandwidth: float = 1e6,
    shuffle_seed: Optional[int] = None,
) -> Tuple[List[VMPair], Dict[str, float]]:
    """The Figure-11 pairs and ``{pair_id: guarantee in bits/s}``.

    One pair per class per source, in class-major order, or in the join
    order ``random.Random(shuffle_seed)`` shuffles them into.
    """
    classes_tokens = [g * 1e9 / unit_bandwidth for g in GUARANTEE_CLASSES_GBPS]
    pairs = permutation_pairs(SOURCES, DESTINATIONS, classes_tokens)
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(pairs)
    return pairs, {p.pair_id: p.phi * unit_bandwidth for p in pairs}


# ----------------------------------------------------------------------
# Experiment specs and the registry
# ----------------------------------------------------------------------

class SpecError(ValueError):
    """An unknown experiment name, axis override or cell label, a grid
    left without cells, or a duration that is not positive and finite."""


@dataclasses.dataclass(frozen=True)
class Axis:
    """One swept dimension of a grid.

    ``name`` is the keyword :func:`build_grid` callers override and,
    dashed, the CLI flag (``loss_rates`` -> ``--loss-rates``); each
    value is passed to the cell as the keyword ``param``.
    """

    name: str
    param: str
    default: Tuple[Any, ...]
    type: Callable[[str], Any] = str
    help: str = ""
    choices: Optional[Tuple[Any, ...]] = None


Row = Mapping[str, Any]


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """One grid experiment, declared as ``SPEC`` next to its ``cell``.

    The grid is the product of ``axes`` (first axis outermost) with
    ``seeds`` innermost; each cell is a :class:`Job` calling ``entry``
    with the axis params, ``fixed``, ``duration`` and ``seed``.
    Irregular grids give ``build(duration, seeds, **axes)`` instead and
    assemble their own jobs.  ``duration`` is the default simulated
    seconds per cell.  An empty ``seeds`` means the cells take no seed;
    ``seed_flag`` (``"--seed"``) exposes it on the figure subcommand;
    ``first_seed_only`` keeps one seed of those requested.  ``experiment`` / ``scheme`` override the :class:`Job`
    labels (default: ``name`` / the cell's ``scheme`` param).

    The result table is ``title`` + ``columns`` (header, callable on
    the row); ``render(rows)`` replaces the table with free text.  A spec with neither is a
    trace-only grid, not a figure subcommand.
    """

    name: str
    help: str
    duration: float
    entry: str = ""
    axes: Tuple[Axis, ...] = ()
    seeds: Tuple[int, ...] = ()
    seed_flag: str = ""
    first_seed_only: bool = False
    experiment: str = ""
    scheme: str = ""
    fixed: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    build: Optional[Callable[..., List[Job]]] = None
    title: str = ""
    columns: Tuple[Tuple[str, Callable[[Row], Any]], ...] = ()
    render: Optional[Callable[[Sequence[Row]], str]] = None


#: experiment name -> module holding its ``SPEC``, in ``repro list``
#: order.  Lazy import paths, not specs: every module imports this one.
_EXPERIMENT_MODULES: Dict[str, str] = {
    "fig4": "repro.experiments.case1_incast",
    "case2": "repro.experiments.case2_migration",
    "fig11": "repro.experiments.fig11_guarantee",
    "fig12": "repro.experiments.fig12_incast",
    "fig16": "repro.experiments.fig16_dynamic",
    "resilience": "repro.experiments.fig_resilience",
    "scale": "repro.experiments.scale_sweep",
    "ablations": "repro.experiments.ablations",
}


def experiment_names() -> Tuple[str, ...]:
    """Registered experiment names, in registry order."""
    return tuple(_EXPERIMENT_MODULES)


def get_spec(name: str) -> ExperimentSpec:
    """The named experiment's spec (its module is imported on demand)."""
    module = _EXPERIMENT_MODULES.get(name)
    if module is None:
        raise SpecError(
            f"unknown grid {name!r}; choose from {sorted(_EXPERIMENT_MODULES)}")
    return importlib.import_module(module).SPEC


def build_grid(
    name: str,
    duration: Optional[float] = None,
    seeds: Optional[Sequence[int]] = None,
    **overrides: Sequence[Any],
) -> List[Job]:
    """The named experiment's cells, in table order.

    ``duration`` / ``seeds`` default to the spec's; ``overrides``
    replace axis values by axis name.  An unknown axis name, values
    that leave the grid without a cell (an empty axis or seed list), or
    a ``duration`` that is not a positive finite number is a
    :class:`SpecError`.  Specs whose cells take no seed ignore ``seeds``.
    """
    spec = get_spec(name)
    axes = {axis.name: axis.default for axis in spec.axes}
    unknown = sorted(set(overrides) - set(axes))
    if unknown:
        raise SpecError(
            f"grid {name!r} has no axis {unknown[0]!r} "
            f"(axes: {', '.join(axes) or 'none'})")
    axes.update((key, tuple(values)) for key, values in overrides.items())
    if duration is None:
        duration = spec.duration
    if not (math.isfinite(duration) and duration > 0):
        raise SpecError(f"grid {name!r}: duration must be a positive finite "
                        f"number of seconds, got {duration!r}")
    seeds = tuple(spec.seeds if seeds is None else seeds)
    if spec.first_seed_only:
        seeds = seeds[:1]
    if spec.build is not None:
        grid_jobs = spec.build(duration, seeds, **axes)
    else:
        keys = [axis.param for axis in spec.axes]
        grid_jobs = []
        for values in itertools.product(*axes.values()):
            cell = dict(zip(keys, values), **spec.fixed, duration=duration)
            for seed in seeds if spec.seeds else (None,):
                grid_jobs.append(Job(
                    experiment=spec.experiment or name,
                    entry=spec.entry,
                    scheme=cell.get("scheme", spec.scheme),
                    seed=seed or 0,
                    params=cell if seed is None else dict(cell, seed=seed),
                ))
    if not grid_jobs:
        empty = [key for key, values in axes.items() if not values]
        if spec.seeds and not seeds:
            empty.append("seeds")
        raise SpecError(
            f"grid {name!r} has no cells: no values for {', '.join(empty)}")
    return grid_jobs


# ----------------------------------------------------------------------
# Grid submission through repro.runner
# ----------------------------------------------------------------------

class GridError(RuntimeError):
    """One or more grid cells failed; the message lists each failure."""


def run_grid(
    grid_jobs: Sequence[Job],
    jobs: int = 1,
    timeout_s: Optional[float] = None,
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
    obs: Optional[Mapping[str, Any]] = None,
    faults: Optional[Mapping[str, Any]] = None,
) -> List[Dict[str, Any]]:
    """Submit a grid, return ordered payload rows; raise on failures.

    ``grid_jobs`` is usually ``build_grid(name, ...)``.  ``jobs=1``
    executes in-process through the same code path, so a serial run and
    an N-way run of the same grid return byte-identical rows.  Failed
    cells are collected (siblings still complete) and surfaced together
    in a :class:`GridError` whose message attributes each failure to its
    exact cell ``(experiment, scheme, seed, params)``.

    ``obs`` (an observability config mapping, see :mod:`repro.obs`)
    applies to every cell: each runs inside a capture and returns its
    trace/metrics under the payload key ``"_obs"``.  ``faults`` (a
    fault-schedule config, see :meth:`repro.schedule.Schedule.to_config`)
    likewise runs every cell under that one schedule,
    replacing any the grid built in (the resilience sweep's per-cell
    schedules; its rows keep their axis/level labels).  Both are part
    of each job's cache key, so traced/faulted results never alias
    clean ones.
    """
    submitted = list(grid_jobs)
    if obs:
        submitted = [dataclasses.replace(job, obs=dict(obs)) for job in submitted]
    if faults:
        submitted = [dataclasses.replace(job, faults=dict(faults))
                     for job in submitted]
    runner = ParallelRunner(
        jobs=jobs,
        timeout_s=timeout_s,
        cache=ResultCache(cache_dir) if use_cache else None,
    )
    results = runner.run(submitted)
    failed = [r for r in results if not r.ok]
    if failed:
        lines = []
        for r in failed:
            job = r.job
            cell = (
                f"experiment={job.experiment!r} scheme={job.scheme!r} "
                f"seed={job.seed} params={dict(job.params)!r}"
            )
            if job.faults:
                cell += f" faults={dict(job.faults)!r}"
            reason = (r.error or "unknown error").strip().splitlines()[-1]
            lines.append(f"{job.describe()} ({cell}): {reason}")
        raise GridError(
            f"{len(failed)}/{len(results)} grid jobs failed:\n  " + "\n  ".join(lines)
        )
    return [r.payload for r in results if r.payload is not None]
