"""Documentation generation and checks for the observability layer.

``docs/METRICS.md`` is *generated* from the :class:`MetricsRegistry`
declarations (``python -m repro.obs --write-docs docs/METRICS.md``) so
the reference can never drift from the code: CI regenerates it and
fails when the committed file differs (``--check-docs``).

The same module carries a dependency-free Markdown link checker
(``--check-links``) used by the CI docs job over ``docs/`` and the
top-level Markdown files: every relative link target must exist in the
repository (external ``http(s)``/``mailto`` links are skipped — CI must
not flake on the network).
"""

from __future__ import annotations

import os
import re
from typing import Iterable, List, Tuple

GENERATED_NOTE = (
    "<!-- GENERATED FILE - do not edit by hand.\n"
    "     Regenerate with: PYTHONPATH=src python -m repro.obs --write-docs docs/METRICS.md\n"
    "     CI checks this file is in sync (python -m repro.obs --check-docs). -->"
)

_INSTRUMENTED_MODULES = (
    "repro.sim.engine",
    "repro.sim.link",
    "repro.core.corenode",
    "repro.core.telemetry",
    "repro.core.pathsel",
    "repro.core.edge",
    "repro.schedule.injector",
    "repro.workloads.tenants",
    "repro.baselines.soze",
    "repro.baselines.queuebind",
    "repro.baselines.utas",
)


def import_instrumented() -> None:
    """Import every module that declares metrics or trace events."""
    import importlib

    for name in _INSTRUMENTED_MODULES:
        importlib.import_module(name)


def _md_escape(text: str) -> str:
    return text.replace("|", "\\|")


def generated_markdown() -> str:
    """The full, deterministic content of ``docs/METRICS.md``."""
    from repro.obs import OBS

    import_instrumented()
    lines: List[str] = [
        GENERATED_NOTE,
        "",
        "# Metrics and trace events",
        "",
        "Reference for every name the observability layer (`repro.obs`) can",
        "emit: metrics (counters / gauges / time-series sampled per control",
        "round) and structured trace events (ring-buffered, exported as JSONL",
        "or Chrome trace).  See [ARCHITECTURE.md](ARCHITECTURE.md) for where",
        "these sit in the probe round-trip, and the README's \"Tracing a run\"",
        "walkthrough for how to produce them.",
        "",
        "All simulated times are seconds; rates are bits/s; sizes are bits,",
        "matching the paper's `q_l` / `tx_l` / `W_l` units.",
        "",
        "## Metrics",
        "",
        "Declared at module import in a global `MetricsRegistry`; recorded",
        "only when a capture is active (`repro <fig> --metrics out.json`, or",
        "`OBS.capture({\"metrics\": True})`).  `gauge` and `series` metrics",
        "are keyed (per link or per VM-pair) where noted.",
        "",
        "| name | kind | unit | emitting site | description |",
        "|---|---|---|---|---|",
    ]
    for metric in OBS.metrics.metrics():
        lines.append(
            f"| `{metric.name}` | {metric.kind} | {_md_escape(metric.unit)} "
            f"| `{metric.site}` | {_md_escape(metric.desc)} |"
        )
    lines += [
        "",
        "## Trace events",
        "",
        "Ring-buffered structured events (`repro <fig> --trace out.jsonl`).",
        "Every JSONL line carries `t` (simulated seconds), `ev` (the kind",
        "below), `job` (the grid-cell label) plus the listed fields.  In the",
        "Chrome-trace export, `link.queue` and `pair.rate` become counter",
        "tracks; everything else is an instant event.",
        "",
        "| event | fields | emitting site | description |",
        "|---|---|---|---|",
    ]
    for event in OBS.metrics.events():
        fields = ", ".join(f"`{f}`" for f in event.fields)
        lines.append(
            f"| `{event.name}` | {fields} | `{event.site}` | {_md_escape(event.desc)} |"
        )
    lines += [
        "",
        "## Profiling",
        "",
        "`repro trace` (or an obs config with `profile: true`) attaches a",
        "`SimProfiler` to every `Simulator`, sampling the event loop every",
        "`profile_sample_every` events.  The per-cell summary lands in the",
        "payload under `_obs.profile`:",
        "",
        "| field | meaning |",
        "|---|---|",
        "| `events` | events processed by the simulator |",
        "| `wall_s` | wall-clock seconds inside `Simulator.run()` |",
        "| `sim_s` | simulated seconds advanced |",
        "| `events_per_sec` | `events / wall_s` |",
        "| `wall_per_sim_s` | wall seconds per simulated second |",
        "| `max_heap` | deepest event-heap depth observed |",
        "| `n_samples` / `sample_drops` | retained vs dropped loop samples |",
        "",
    ]
    return "\n".join(lines)


def check_docs(path: str) -> List[str]:
    """Problems that make ``path`` out of sync with the registry (empty = ok)."""
    expected = generated_markdown()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            actual = fh.read()
    except OSError as exc:
        return [f"{path}: cannot read ({exc})"]
    if actual != expected:
        return [
            f"{path}: out of sync with the MetricsRegistry declarations; "
            "regenerate with: PYTHONPATH=src python -m repro.obs "
            f"--write-docs {path}"
        ]
    return []


def check_schemes_doc(path: str) -> List[str]:
    """Problems that make the scheme doc drift from the registry.

    Every canonical scheme name registered in
    ``repro.baselines.registry`` must appear in ``path`` (inside
    backticks, the doc's convention for scheme names) — the CI docs job
    runs this as ``python -m repro.obs --check-schemes docs/SCHEMES.md``
    so adding a scheme without documenting it fails the build.
    """
    from repro.baselines import registry

    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        return [f"{path}: cannot read ({exc})"]
    problems = []
    for name in registry.scheme_names():
        if f"`{name}`" not in text:
            problems.append(
                f"{path}: registered scheme `{name}` is undocumented; "
                "add a section for it (see the 'Adding a new scheme' "
                "walkthrough in that file)"
            )
    return problems


# ----------------------------------------------------------------------
# Markdown link checking
# ----------------------------------------------------------------------

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_SKIP_SCHEMES = ("http://", "https://", "mailto:", "ftp://")


def md_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.md`` files."""
    out = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                for fname in sorted(filenames):
                    if fname.endswith(".md"):
                        out.append(os.path.join(dirpath, fname))
        else:
            out.append(path)
    return sorted(set(out))


def broken_links(paths: Iterable[str]) -> List[Tuple[str, str]]:
    """(file, target) for every relative link whose target is missing."""
    problems: List[Tuple[str, str]] = []
    for path in md_files(paths):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError:
            problems.append((path, "<unreadable>"))
            continue
        base = os.path.dirname(os.path.abspath(path))
        for target in _LINK_RE.findall(text):
            if target.startswith(_SKIP_SCHEMES) or target.startswith("#"):
                continue
            relative = target.split("#", 1)[0]
            if not relative:
                continue
            if not os.path.exists(os.path.join(base, relative)):
                problems.append((path, target))
    return problems
