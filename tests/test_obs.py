"""Tests for the observability layer (repro.obs)."""

import dataclasses
import json
import os

import pytest

from repro.obs import OBS, ObsConfig
from repro.obs.docs import broken_links, check_docs, generated_markdown
from repro.obs.export import chrome_trace, trace_to_jsonl_lines, write_grid_outputs
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Trace
from repro.runner.job import execute_job

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _fig11_job():
    from repro.experiments.common import build_grid

    return build_grid("fig11", schemes=("ufab",), duration=0.004, seeds=(3,))[0]


# ----------------------------------------------------------------------
# Disabled mode
# ----------------------------------------------------------------------

def test_obs_disabled_by_default():
    assert OBS.enabled is False
    # The inert trace swallows stray records without storing anything.
    OBS.trace.record(0.0, "stray", {})
    assert len(OBS.trace) == 0


def test_traced_payload_is_byte_identical_to_untraced():
    """Observation must not perturb results: a traced cell's payload,
    minus the attached capture, matches the plain disabled-mode run."""
    plain = execute_job(_fig11_job())
    traced = execute_job(dataclasses.replace(
        _fig11_job(), obs={"trace": True, "metrics": True}))
    capture = traced.pop("_obs")
    assert capture["trace"]
    assert json.dumps(plain, sort_keys=True) == json.dumps(traced, sort_keys=True)


def test_plain_job_payload_has_no_obs_key():
    assert "_obs" not in execute_job(_fig11_job())


# ----------------------------------------------------------------------
# Ring buffer
# ----------------------------------------------------------------------

def test_ring_buffer_wraps_oldest_first():
    trace = Trace(4)
    for i in range(10):
        trace.record(float(i), "ev", {"i": i})
    assert trace.total == 10
    assert len(trace) == 4
    assert trace.dropped() == 6
    assert [f["i"] for _, _, f in trace.events()] == [6, 7, 8, 9]


def test_ring_buffer_below_capacity_keeps_order():
    trace = Trace(8)
    for i in range(3):
        trace.record(float(i), "ev", {"i": i})
    assert trace.dropped() == 0
    assert [f["i"] for _, _, f in trace.events()] == [0, 1, 2]


def test_zero_capacity_trace_is_inert():
    trace = Trace(0)
    trace.record(0.0, "ev")
    assert trace.total == 1 and len(trace) == 0 and trace.events() == []


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        Trace(-1)


# ----------------------------------------------------------------------
# Capture lifecycle
# ----------------------------------------------------------------------

def test_capture_scopes_enabled_flag_and_freezes_export():
    with OBS.capture({"trace": True}) as cap:
        assert OBS.enabled
        OBS.trace.record(1.0, "ev", {"x": 1})
    assert not OBS.enabled
    first = cap.export()
    assert first["trace"] == [[1.0, "ev", {"x": 1}]]
    # Post-capture records must not leak into the frozen export.
    OBS.trace.record(2.0, "ev", {"x": 2})
    assert cap.export() == first


def test_captures_do_not_nest():
    with OBS.capture({"trace": True}):
        with pytest.raises(RuntimeError):
            with OBS.capture({"trace": True}):
                pass


def test_unknown_config_key_rejected():
    with pytest.raises(ValueError):
        ObsConfig.from_mapping({"traec": True})


def test_metrics_reset_between_captures():
    # Use a real declared metric: test-only declarations would pollute
    # the process-global registry and desync the generated docs.
    import repro.core.edge  # noqa: F401  (declares edge.probes_sent)

    counter = OBS.metrics.get("edge.probes_sent")
    with OBS.capture({"metrics": True}):
        counter.inc(5)
    with OBS.capture({"metrics": True}) as cap:
        pass
    assert cap.export()["metrics"]["edge.probes_sent"]["value"] == 0.0


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------

def test_registry_declarations_are_idempotent():
    reg = MetricsRegistry()
    a = reg.counter("a", unit="x", site="s", desc="d")
    assert reg.counter("a", unit="x", site="s", desc="d") is a
    with pytest.raises(ValueError):
        reg.counter("a", unit="y", site="s", desc="d")
    with pytest.raises(ValueError):
        reg.gauge("a", unit="x", site="s", desc="d")


def test_event_declarations_are_idempotent():
    reg = MetricsRegistry()
    assert reg.event("ev", fields=("f",), site="s", desc="d") == "ev"
    assert reg.event("ev", fields=("f",), site="s", desc="d") == "ev"
    with pytest.raises(ValueError):
        reg.event("ev", fields=("g",), site="s", desc="d")


def test_series_bounded_with_drop_accounting():
    reg = MetricsRegistry()
    series = reg.series("s", unit="x", site="s", desc="d")
    series.capacity = 4
    for i in range(6):
        series.sample(float(i), float(i), key="k")
    assert len(series.points("k")) == 4
    assert series.dropped["k"] == 2


# ----------------------------------------------------------------------
# Cache keys
# ----------------------------------------------------------------------

def test_cache_key_differs_when_tracing_enabled():
    job = _fig11_job()
    traced = dataclasses.replace(job, obs={"trace": True})
    profiled = dataclasses.replace(job, obs={"profile": True})
    keys = {job.config_hash(), traced.config_hash(), profiled.config_hash()}
    assert len(keys) == 3
    assert traced.config_hash() == dataclasses.replace(
        job, obs={"trace": True}).config_hash()


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------

def _sample_events():
    return [
        (0.001, "pair.admit", {"pair": "p0", "phi": 2000.0, "n_candidates": 4}),
        (0.002, "link.queue", {"link": "L0", "q_bits": 100.0, "tx_bps": 1e9}),
        (0.003, "pair.rate", {"pair": "p0", "rate_bps": 5e9, "window_bits": 1e5}),
    ]


def test_jsonl_lines_parse_and_carry_job_label():
    lines = trace_to_jsonl_lines(_sample_events(), job="cell")
    assert len(lines) == 3
    for line, (t, kind, _) in zip(lines, _sample_events()):
        record = json.loads(line)
        assert record["t"] == t and record["ev"] == kind and record["job"] == "cell"


def test_chrome_trace_is_valid_and_typed():
    """The export must satisfy the Chrome/Perfetto JSON object format:
    a traceEvents list whose entries carry ph/pid/ts (metadata events
    excepted) with known phase codes."""
    document = json.loads(json.dumps(chrome_trace([("cell", _sample_events())])))
    events = document["traceEvents"]
    assert document["displayTimeUnit"] == "ms"
    assert events[0]["ph"] == "M" and events[0]["args"]["name"] == "cell"
    for entry in events:
        assert entry["ph"] in {"M", "i", "C"}
        assert isinstance(entry["pid"], int) and isinstance(entry["tid"], int)
        if entry["ph"] != "M":
            assert isinstance(entry["ts"], float)
    # Queue and rate samples become counter tracks with numeric args.
    counters = [e for e in events if e["ph"] == "C"]
    assert {e["name"] for e in counters} == {"link.queue L0", "pair.rate p0"}
    for entry in counters:
        assert all(isinstance(v, float) for v in entry["args"].values())


def test_write_grid_outputs(tmp_path):
    rows = [
        {"scheme": "ufab", "seed": 1,
         "_obs": {"trace": [list(e) for e in _sample_events()],
                  "trace_dropped": 2,
                  "metrics": {"edge.probes_sent": {"kind": "counter",
                                                   "unit": "probes", "value": 3.0}}}},
        {"scheme": "pwc", "seed": 1},  # untraced sibling: skipped
    ]
    trace = tmp_path / "t.jsonl"
    chrome = tmp_path / "c.json"
    metrics = tmp_path / "m.json"
    summary = write_grid_outputs(rows, trace_path=str(trace),
                                 chrome_path=str(chrome), metrics_path=str(metrics))
    assert summary["cells"] == ["ufab-s1"]
    assert summary["events"] == 3 and summary["dropped"] == 2
    assert len(trace.read_text().splitlines()) == 3
    assert json.loads(chrome.read_text())["traceEvents"]
    assert json.loads(metrics.read_text())["ufab-s1"]["edge.probes_sent"]["value"] == 3.0


# ----------------------------------------------------------------------
# Acceptance: fig11 tracing emits the per-RTT control loop
# ----------------------------------------------------------------------

def test_fig11_trace_contains_rate_and_queue_events():
    traced = execute_job(dataclasses.replace(_fig11_job(), obs={"trace": True}))
    kinds = {kind for _, kind, _ in traced["_obs"]["trace"]}
    assert {"pair.admit", "pair.join", "probe.send", "probe.echo",
            "pair.rate", "link.queue"} <= kinds


def test_profile_capture_reports_engine_rates():
    profiled = execute_job(dataclasses.replace(_fig11_job(), obs={"profile": True}))
    profile = profiled["_obs"]["profile"]
    assert profile["n_sims"] >= 1
    assert profile["events"] > 0
    assert profile["events_per_sec"] is None or profile["events_per_sec"] > 0
    assert profile["max_heap"] > 0


# ----------------------------------------------------------------------
# Documentation generation and link checking
# ----------------------------------------------------------------------

def test_metrics_docs_are_in_sync():
    assert check_docs(os.path.join(REPO_ROOT, "docs", "METRICS.md")) == []


def test_generated_docs_cover_every_declared_name():
    md = generated_markdown()
    for metric in OBS.metrics.metrics():
        assert f"`{metric.name}`" in md
    for event in OBS.metrics.events():
        assert f"`{event.name}`" in md


def test_repo_markdown_links_resolve():
    targets = [os.path.join(REPO_ROOT, "docs"),
               os.path.join(REPO_ROOT, "README.md")]
    assert broken_links(targets) == []


def test_broken_link_detected(tmp_path):
    bad = tmp_path / "bad.md"
    bad.write_text("see [missing](nope/missing.md) and [ok](bad.md)\n")
    problems = broken_links([str(tmp_path)])
    assert problems == [(str(bad), "nope/missing.md")]


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------

def test_cli_fig11_writes_trace_and_metrics(tmp_path, capsys):
    from repro.cli import main

    trace = tmp_path / "t.jsonl"
    metrics = tmp_path / "m.json"
    assert main(["fig11", "--duration", "0.004", "--schemes", "ufab",
                 "--no-cache", "--trace", str(trace),
                 "--metrics", str(metrics)]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    lines = [json.loads(line) for line in trace.read_text().splitlines()]
    assert any(record["ev"] == "pair.rate" for record in lines)
    assert json.loads(metrics.read_text())


def test_cli_trace_subcommand(tmp_path, capsys):
    from repro.cli import main

    out_path = tmp_path / "trace.jsonl"
    chrome = tmp_path / "chrome.json"
    assert main(["trace", "fig11", "--scheme", "ufab", "--duration", "0.004",
                 "--out", str(out_path), "--chrome", str(chrome)]) == 0
    out = capsys.readouterr().out
    assert "traced fig11" in out
    assert out_path.read_text().splitlines()
    assert json.loads(chrome.read_text())["traceEvents"]


def test_obs_main_check_and_dump(tmp_path, capsys):
    from repro.obs.__main__ import main as obs_main

    assert obs_main(["--dump-docs"]) == 0
    assert "# Metrics and trace events" in capsys.readouterr().out
    stale = tmp_path / "METRICS.md"
    stale.write_text("stale\n")
    assert obs_main(["--check-docs", str(stale)]) == 1
