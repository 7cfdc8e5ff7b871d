"""The experiment registry: every spec builds, resolves, and reaches the
CLI; cell identities are pinned.

A cell's identity is ``(experiment, entry, scheme, seed, params,
faults)`` — the inputs of ``Job.config_hash`` — so these goldens are
what keeps a warm result cache valid across refactors of the registry.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main
from repro.experiments.common import (
    SpecError,
    build_grid,
    experiment_names,
    get_spec,
)
from repro.runner.job import resolve_entry

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
PIN_SEEDS = (1, 2)


def _subparsers(parser):
    return next(a for a in parser._actions if a.dest == "command").choices


def _pinned_grid(name):
    """The grid whose cells ``PINNED[name]`` records: default axes,
    seeds 1 and 2, the duration the pin names."""
    duration = PINNED[name][1][3]["duration"]
    return build_grid(name, duration=duration, seeds=PIN_SEEDS)


def _identity(job):
    return (job.experiment, job.scheme, job.seed, dict(job.params))


# ----------------------------------------------------------------------
# (a) Every spec, one contract
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", experiment_names())
def test_spec_builds_resolves_and_reaches_the_cli(name, capsys):
    spec = get_spec(name)
    assert spec.name == name
    jobs = build_grid(name)
    assert jobs, "a spec must build at its defaults"
    for entry in {job.entry for job in jobs}:
        assert callable(resolve_entry(entry))
    assert len({job.config_hash() for job in jobs}) == len(jobs)

    commands = _subparsers(build_parser())
    trace_exp = next(a for a in commands["trace"]._actions
                     if a.dest == "experiment")
    assert name in trace_exp.choices
    has_table = bool(spec.columns or spec.render)
    assert (name in commands) == has_table
    assert main(["list"]) == 0
    assert name in capsys.readouterr().out.split()

    with pytest.raises(SpecError) as err:
        build_grid(name, no_such_axis=(1,))
    assert "no_such_axis" in str(err.value)
    for axis in spec.axes:
        assert axis.name in str(err.value)


def test_figure_flags_are_exactly_the_spec_axes():
    commands = _subparsers(build_parser())
    shared = {"help", "jobs", "no_cache", "cache_dir", "trace", "chrome_trace",
              "metrics", "faults", "duration"}
    for name in experiment_names():
        spec = get_spec(name)
        if name not in commands:
            continue
        flags = {a.dest for a in commands[name]._actions} - shared
        expected = {axis.name for axis in spec.axes}
        if spec.seed_flag:
            expected.add("seeds")
        assert flags == expected, name


def test_unknown_experiment_is_a_typed_error():
    with pytest.raises(SpecError, match="unknown grid 'nope'.*fig11"):
        get_spec("nope")
    assert issubclass(SpecError, ValueError)


# ----------------------------------------------------------------------
# (b) Cell-identity goldens
# ----------------------------------------------------------------------

FLAPS_5MS = {
    "events": [{"kind": "link_flaps", "mtbf_s": 0.005, "mttr_s": 0.00125,
                "prefix": "Agg", "time": 0.0, "until": 0.04}],
    "seed": 2,
}

PINNED = {
    # name: (count, first cell, last cell) at seeds 1 2 and the duration
    # named; fig11, fig4 and scale were recorded from the
    # reports the retired bench command had committed.
    "fig11": (6,
              ("fig11", "ufab", 1, {"scheme": "ufab", "duration": 0.05, "seed": 1}),
              ("fig11", "es+clove", 2,
               {"scheme": "es+clove", "duration": 0.05, "seed": 2})),
    "fig4": (16,
             ("fig4", "pwc", 1,
              {"scheme": "pwc", "degree": 2, "duration": 0.01, "seed": 1}),
             ("fig4", "ufab", 2,
              {"scheme": "ufab", "degree": 14, "duration": 0.01, "seed": 2})),
    "scale": (8,
              ("scale", "ufab", 1, {"scheme": "ufab", "k": 8, "churn": "low",
                                    "duration": 0.015, "seed": 1}),
              ("scale", "pwc", 1, {"scheme": "pwc", "k": 16, "churn": "high",
                                   "duration": 0.015, "seed": 1})),
    "fig12": (8,
              ("fig12", "pwc", 1, {"scheme": "pwc", "duration": 0.02, "seed": 1}),
              ("fig12", "ufab", 2, {"scheme": "ufab", "duration": 0.02, "seed": 2})),
    "fig16": (4,
              ("fig16", "pwc", 0,
               {"scheme": "pwc", "n_senders": 90, "duration": 0.02}),
              ("fig16", "ufab", 0,
               {"scheme": "ufab", "n_senders": 90, "duration": 0.02})),
    "case2": (3,
              ("case2", "pwc@200us", 0,
               {"scheme": "pwc", "flowlet_gap_s": 0.0002, "duration": 0.12}),
              ("case2", "ufab", 0,
               {"scheme": "ufab", "flowlet_gap_s": None, "duration": 0.12})),
    "ablations": (6,
                  ("ablations", "coverage=1", 1,
                   {"fraction": 1.0, "duration": 0.03, "seed": 1}),
                  ("ablations", "eta=0.99", 0, {"eta": 0.99, "duration": 0.03})),
    "resilience": (42,
                   ("resilience", "ufab", 1,
                    {"scheme": "ufab", "axis": "loss", "level": 0.0,
                     "duration": 0.04, "seed": 1}),
                   ("resilience", "es+clove", 2,
                    {"scheme": "es+clove", "axis": "mtbf", "level": 0.005,
                     "duration": 0.04, "seed": 2})),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_cell_identities(name):
    count, first, last = PINNED[name]
    jobs = _pinned_grid(name)
    assert len(jobs) == count
    assert _identity(jobs[0]) == first
    assert _identity(jobs[-1]) == last


def test_resilience_cells_carry_their_own_fault_schedules():
    jobs = _pinned_grid("resilience")
    assert dict(jobs[0].faults) == {}  # the loss=0 baseline: clean namespace
    assert json.loads(json.dumps(dict(jobs[-1].faults))) == FLAPS_5MS
    entries = {j.entry for j in jobs}
    assert entries == {"repro.experiments.fig_resilience:cell"}
    ablation_entries = [j.entry for j in _pinned_grid("ablations")]
    assert ablation_entries[0].endswith(":partial_deployment_cell")
    assert ablation_entries[-1].endswith(":headroom_cell")


def test_scale_keeps_the_first_seed_only():
    assert {j.seed for j in build_grid("scale", seeds=(4, 5))} == {4}


# ----------------------------------------------------------------------
# Import graph: specs are data, the registry resolves lazily
# ----------------------------------------------------------------------

_IMPORT_PROBE = """
import importlib, json, sys
from repro.experiments import common
out = {}
for name, path in common._EXPERIMENT_MODULES.items():
    for loaded in [m for m in sys.modules if m.startswith("repro.experiments.")
                   and m != "repro.experiments.common"]:
        del sys.modules[loaded]
    importlib.import_module(path)
    out[name] = sorted(m for m in sys.modules
                       if m.startswith("repro.experiments.")
                       and m not in ("repro.experiments.common", path))
out["_forbidden"] = [m for m in ("argparse", "repro.cli") if m in sys.modules]
print(json.dumps(out))
"""


def test_importing_an_experiment_imports_no_sibling_no_argparse_no_cli():
    env = dict(os.environ, PYTHONPATH=SRC_ROOT)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert loaded.pop("_forbidden") == []
    assert set(loaded) == set(experiment_names())
    assert all(siblings == [] for siblings in loaded.values()), loaded
