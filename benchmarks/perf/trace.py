"""Outside-in layer tracer for the perf benchmark's traced rep.

Nothing under ``src/`` knows about this file.  :func:`install` patches
two kinds of boundary *before any network is built*:

* calls into a layer's public functions (``BOUNDARIES`` below), each
  replaced on its class or module by a wrapper that records a span;
* event callbacks dispatched by ``Simulator.run``: the four scheduling
  entry points are wrapped so every event fires through one shared
  :meth:`Tracer._dispatch`, which attributes the callback to the layer
  whose module defines it (no per-event closure).

A span is ``(id, parent id, layer, name, start, end, rep id)``.  The
tracer keeps per-(layer, name) aggregates plus the first ``MAX_SPANS``
raw spans in memory and writes them out once, at the end of the rep.  A
span's *self time* is its duration minus the part covered by its child
spans, so ``sim.engine`` self time is ``Simulator.run`` minus every
callback, and the layers' self times partition the traced wall up to
``trace.unattributed_pct`` (imports and experiment glue).

Span bookkeeping itself costs host time (about a microsecond a span),
charged to whichever span is open: shares skew toward layers with many
short spans.  ``trace.overhead_pct`` says how much; read shares with
that in mind and never compare a traced time with an untraced one.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

MAX_SPANS = 20_000

# Layers, named after this repo's modules, in report order.
LAYERS = (
    "sim.engine", "sim.network", "sim.link", "sim.fluid",
    "core.controller", "core.edge", "core.pathsel", "core.gp",
    "sim.topology", "sim.messages", "workloads", "baselines",
    "analysis.metrics",
)

# Which layer an event/probe callback belongs to: longest matching
# module prefix wins.  Modules not listed (repro.faults, repro.obs, ...)
# run unspanned, inside whatever span is open.
_MODULE_LAYERS = (
    ("repro.sim.engine", "sim.engine"),
    ("repro.sim.network", "sim.network"),
    ("repro.sim.host", "sim.network"),
    ("repro.sim.link", "sim.link"),
    ("repro.sim.fluid", "sim.fluid"),
    ("repro.sim.topology", "sim.topology"),
    ("repro.sim.messages", "sim.messages"),
    ("repro.core.pathsel", "core.pathsel"),
    ("repro.core.gp", "core.gp"),
    ("repro.core.token", "core.gp"),
    ("repro.core.corenode", "core.controller"),
    ("repro.core.veccore", "core.controller"),
    ("repro.core.p4pipe", "core.controller"),
    ("repro.core.controller", "core.controller"),
    ("repro.core.bloom", "core.controller"),
    ("repro.core", "core.edge"),
    ("repro.workloads", "workloads"),
    ("repro.experiments", "workloads"),
    ("repro.baselines", "baselines"),
    ("repro.analysis", "analysis.metrics"),
)

# Public functions wrapped with a plain span: (module, class or None,
# attribute, layer).  The SwitchController surface is added at install
# time for whatever ``backend_class()`` resolves.  Builders (topology
# factories, fabric construction, churn generation) are here so set-up
# time lands in a layer instead of in ``trace.unattributed_pct``.
BOUNDARIES = (
    ("repro.sim.engine", "Simulator", "run", "sim.engine"),
    ("repro.sim.network", "Network", "__init__", "sim.network"),
    ("repro.sim.network", "Network", "request_resolve", "sim.network"),
    ("repro.sim.network", "Network", "register_pair", "sim.network"),
    ("repro.sim.network", "Network", "unregister_pair", "sim.network"),
    ("repro.sim.network", "Network", "migrate_pair", "sim.network"),
    ("repro.sim.fluid", "FluidSolver", "solve", "sim.fluid"),
    ("repro.sim.link", "Link", "sync", "sim.link"),
    ("repro.sim.link", "Link", "set_inflow", "sim.link"),
    ("repro.sim.link", "Link", "flush_pending", "sim.link"),
    ("repro.core.edge", "EdgeAgent", "launch_probe", "core.edge"),
    ("repro.core.edge", "UFabFabric", "__init__", "core.edge"),
    ("repro.core.edge", "UFabFabric", "add_pair", "core.edge"),
    ("repro.core.edge", "UFabFabric", "remove_pair", "core.edge"),
    ("repro.core.edge", "UFabFabric", "set_demand", "core.edge"),
    ("repro.core.controller", None, "attach_core_agents", "core.controller"),
    ("repro.core.pathsel", None, "digest_hops", "core.pathsel"),
    ("repro.core.pathsel", "PathBook", "select_initial", "core.pathsel"),
    ("repro.core.pathsel", "PathBook", "select_for_work_conservation", "core.pathsel"),
    ("repro.sim.topology", "Topology", "shortest_paths", "sim.topology"),
    ("repro.sim.topology", None, "three_tier_testbed", "sim.topology"),
    ("repro.sim.topology", None, "fat_tree", "sim.topology"),
    ("repro.sim.messages", "MessageQueue", "enqueue", "sim.messages"),
    ("repro.sim.messages", "MessageQueue", "set_rate", "sim.messages"),
    ("repro.baselines.base", "BaselineFabric", "__init__", "baselines"),
    ("repro.baselines.base", "BaselineFabric", "add_pair", "baselines"),
    ("repro.baselines.base", "BaselineFabric", "remove_pair", "baselines"),
    ("repro.workloads.tenants", None, "generate_churn", "workloads"),
    ("repro.workloads.tenants", None, "install_churn", "workloads"),
    ("repro.workloads.apps", "EbsCluster", "__init__", "workloads"),
)
_CONTROLLER_SURFACE = ("on_probe", "stamp", "on_finish", "sweep")

# Modules imported before patching, so that every ``from x import f``
# alias of a wrapped module-level function exists and gets re-pointed.
_PRELOAD = (
    "repro.experiments.fig11_guarantee", "repro.experiments.fig12_incast",
    "repro.experiments.fig14_ebs", "repro.experiments.scale_sweep",
)

# Per-layer metrics besides ``.self_s`` / ``.share_pct``:
# suffix -> (unit, better, deterministic).  BENCHMARK.json lists the
# same names; ``run.py --selftest`` checks the two agree.
_COUNT = ("count", "lower", True)
LAYER_METRICS: Dict[str, Dict[str, Tuple[str, str, bool]]] = {
    "sim.engine": {
        "events": _COUNT, "scheduled": _COUNT,
        "us_per_event": ("us", "lower", False),
        "heap_compactions": _COUNT,
        "pool_reuse": ("count", "higher", True),
        "slice_ms_p50": ("ms", "lower", False),
        "slice_ms_p99": ("ms", "lower", False),
    },
    "sim.network": {
        "probes": _COUNT, "fast_legs": ("count", "higher", True),
        "fast_leg_pct": ("%", "higher", True),
        "callbacks": _COUNT, "resolves": _COUNT,
    },
    "sim.link": {"syncs": _COUNT, "inflow_updates": _COUNT,
                 "dropped_bits": ("bits", "lower", True)},
    "sim.fluid": {
        "solves": _COUNT, "full_solves": _COUNT,
        "vector_solves": ("count", "higher", True), "iterations": _COUNT,
        "mean_component_flows": ("flows", "lower", True),
        "notified_pairs": _COUNT,
        "solve_us_p50": ("us", "lower", False),
        "solve_us_p99": ("us", "lower", False),
    },
    "core.controller": {
        "stamps": _COUNT, "registrations": _COUNT, "finishes": _COUNT,
        "sweeps": _COUNT, "bloom_false_positives": _COUNT,
        "us_per_stamp": ("us", "lower", False),
    },
    "core.edge": {
        "probes_sent": _COUNT, "feedbacks": _COUNT, "rate_updates": _COUNT,
        "migrations": _COUNT, "probe_losses": _COUNT, "pairs_added": _COUNT,
        "pairs_removed": _COUNT, "us_per_feedback": ("us", "lower", False),
    },
    "core.pathsel": {"digests": _COUNT, "selections": _COUNT},
    "core.gp": {"ticks": _COUNT},
    "sim.topology": {"path_queries": _COUNT},
    "sim.messages": {"enqueues": _COUNT, "completions": _COUNT, "rate_updates": _COUNT},
    "workloads": {"callbacks": _COUNT, "tenant_arrivals": _COUNT,
                  "pairs_added": _COUNT, "flow_groups_peak": _COUNT},
    "baselines": {"feedbacks": _COUNT},
    "analysis.metrics": {"samples": _COUNT},
}


def metric_specs() -> Dict[str, Tuple[str, str, bool]]:
    """Every per-layer metric: full name -> (unit, better, deterministic)."""
    specs: Dict[str, Tuple[str, str, bool]] = {}
    for layer in LAYERS:
        specs[f"{layer}.self_s"] = ("s", "lower", False)
        specs[f"{layer}.share_pct"] = ("%", "lower", False)
        for suffix, spec in LAYER_METRICS[layer].items():
            specs[f"{layer}.{suffix}"] = spec
    # Filled in by run.py from the untraced reps' median cell_s.
    specs["obs.capture_overhead_pct"] = ("%", "lower", False)
    specs["trace.overhead_pct"] = ("%", "lower", False)
    specs["trace.unattributed_pct"] = ("%", "lower", False)
    return specs


def _layer_of(module: Optional[str]) -> Optional[str]:
    if module:
        for prefix, layer in _MODULE_LAYERS:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return None


class Tracer:
    """Span recorder for one rep.  Create, :func:`install`, run the cell,
    then :meth:`layer_metrics` / :meth:`write`."""

    def __init__(self, rep_id: str) -> None:
        self.rep_id = rep_id
        self.clock = time.perf_counter
        # (layer, name) -> [calls, inclusive seconds, self seconds]
        self.stats: Dict[Tuple[str, str], List[float]] = {}
        self.spans: List[Tuple[int, int, str, str, float, float]] = []
        # Open spans, innermost last: [child seconds, span id, layer].
        # The root frame (id 0, no layer) stands for the rep itself.
        self._stack: List[List[Any]] = [[0.0, 0, None]]
        self._ids = [0]
        self.scheduled = 0
        self.notified_pairs = 0
        self.solve_self_s: List[float] = []
        # (simulated millisecond, host time) at each crossing.
        self.slice_marks: List[Tuple[int, float]] = []
        self.network: Any = None    # the cell's Network, noted when it runs
        self.queues: List[Any] = []
        self.controller_name = ""   # class behind backend_class(), set by install()
        self._callback_enters: Dict[Any, Any] = {}
        self._dispatch = self._make_dispatch()

    # ------------------------------------------------------------------
    # Span machinery
    # ------------------------------------------------------------------
    def _make_enter(self, layer: str, name: str,
                    self_sink: Optional[List[float]] = None) -> Callable[..., Any]:
        """``enter(fn, *args, **kwargs)``: run ``fn`` inside a (layer, name) span.

        A call made directly from a span of the same layer (``stamp``
        inside ``on_probe``, ``sync`` inside ``set_inflow``) is counted
        but not timed: its time is its parent's self time either way,
        and the layer's self time is what the metrics report.
        """
        stat = self.stats.setdefault((layer, name), [0, 0.0, 0.0])
        stack, ids, spans, clock = self._stack, self._ids, self.spans, self.clock

        def enter(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
            parent = stack[-1]
            if parent[2] is layer:
                stat[0] += 1
                return fn(*args, **kwargs)
            ids[0] = span_id = ids[0] + 1
            frame = [0.0, span_id, layer]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[0] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if self_sink is not None:
                    self_sink.append(duration - frame[0])
                if len(spans) < MAX_SPANS:
                    spans.append((span_id, parent[1], layer, name, start, end))

        return enter

    def wrap(self, orig: Callable[..., Any], layer: str, name: str,
             after: Optional[Callable[[tuple, Any], None]] = None,
             self_sink: Optional[List[float]] = None) -> Callable[..., Any]:
        """``orig`` behind a span; ``after(args, result)`` runs outside it."""
        enter = self._make_enter(layer, name, self_sink)
        if after is None:
            def traced(*args: Any, **kwargs: Any) -> Any:
                return enter(orig, *args, **kwargs)
        else:
            def traced(*args: Any, **kwargs: Any) -> Any:
                result = enter(orig, *args, **kwargs)
                after(args, result)
                return result
        traced.__wrapped__ = orig   # how _callback_enter recognises a boundary
        return traced

    # ------------------------------------------------------------------
    # Event dispatch
    # ------------------------------------------------------------------
    def _callback_enter(self, fn: Callable[..., Any], role: Optional[str] = None) -> Any:
        """The span entry for a callback: an event when ``role`` is None
        (span name ``event:<qualname>``), else a probe callback named by
        its role.  Keyed by code object so per-call closures share one
        entry.  ``False`` means run it bare: a wrapped boundary opens
        its own span, and a module outside every layer has none."""
        func = getattr(fn, "__func__", fn)
        key = (getattr(func, "__code__", None) or type(fn), role)
        enter = self._callback_enters.get(key)
        if enter is None:
            layer = None
            if not hasattr(func, "__wrapped__"):
                layer = _layer_of(getattr(func, "__module__", type(fn).__module__))
            if layer is None:
                enter = False
            else:
                qualname = getattr(func, "__qualname__", type(fn).__qualname__)
                enter = self._make_enter(layer, role or f"event:{qualname}")
            self._callback_enters[key] = enter
        return enter

    def _make_dispatch(self) -> Callable[..., Any]:
        marks, clock = self.slice_marks, self.clock
        current = [-1]

        def dispatch(sim: Any, fn: Callable[..., Any], *args: Any) -> Any:
            ms = int(sim.now * 1e3)
            if ms != current[0]:
                current[0] = ms
                marks.append((ms, clock()))
            enter = self._callback_enter(fn)
            if enter is False:
                return fn(*args)
            return enter(fn, *args)

        return dispatch

    def _wrap_scheduler(self, orig: Callable[..., Any]) -> Callable[..., Any]:
        dispatch = self._dispatch

        def traced(sim: Any, when: float, fn: Callable[..., Any], *args: Any) -> Any:
            self.scheduled += 1
            return orig(sim, when, dispatch, sim, fn, *args)

        return traced

    def _wrap_send_probe(self, orig: Callable[..., Any]) -> Callable[..., Any]:
        enter = self._make_enter("sim.network", "Network.send_probe")

        def cb(fn: Any, role: str) -> Any:
            if fn is None:
                return None
            span = self._callback_enter(fn, role)
            return fn if span is False else functools.partial(span, fn)

        # Mirrors Network.send_probe's signature so the callbacks can be
        # picked out; a signature change fails here, loudly.
        def send_probe(network: Any, path: Any, payload: Any, on_hop: Any = None,
                       on_arrive: Any = None, on_drop: Any = None,
                       host_delay: float = 0.0, pure_hop: bool = False,
                       hop_filter: Any = None) -> Any:
            # A leg without hop work is a response carrying data back:
            # its arrival is the feedback the sender acts on.
            role = "send_probe.on_echo" if on_hop is None else "send_probe.on_arrive"
            return enter(orig, network, path, payload, on_hop, cb(on_arrive, role),
                         cb(on_drop, "send_probe.on_drop"), host_delay, pure_hop,
                         hop_filter)

        return send_probe

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def _calls(self, layer: str, name: str) -> int:
        return int(self.stats.get((layer, name), (0,))[0])

    def _prefixed(self, layer: str, prefix: str) -> int:
        return int(sum(stat[0] for (lay, name), stat in self.stats.items()
                       if lay == layer and name.startswith(prefix)))

    def layer_self_s(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for (layer, _), stat in self.stats.items():
            out[layer] += stat[2]
        return out

    def layer_metrics(self, cell_s: float, obs_metrics: Dict[str, Any],
                      flow_groups_peak: int = 0) -> Dict[str, float]:
        """Every per-layer metric of this rep except the two overheads
        that need the untraced reps (run.py adds those)."""
        def obs(name: str) -> float:
            return obs_metrics[name]["value"]

        def per(seconds: float, count: float) -> float:
            return 1e6 * seconds / count if count else 0.0

        calls, self_s = self._calls, self.layer_self_s()
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.share_pct"] = 100.0 * self_s[layer] / cell_s
        out["trace.unattributed_pct"] = 100.0 * (1.0 - sum(self_s.values()) / cell_s)

        from repro.analysis.metrics import percentile

        def quantile(values: List[float], p: float) -> float:
            return percentile(values, p) if values else 0.0

        net, sim, solver = self.network, self.network.sim, self.network.solver.stats
        events = sim.events_processed
        slices = [1e3 * (t1 - t0) / (ms1 - ms0) for (ms0, t0), (ms1, t1)
                  in zip(self.slice_marks, self.slice_marks[1:])]
        out.update({
            "sim.engine.events": events,
            "sim.engine.scheduled": self.scheduled,
            "sim.engine.us_per_event": per(self_s["sim.engine"], events),
            "sim.engine.heap_compactions": sim.compactions,
            "sim.engine.pool_reuse": sim.pool_reuse,
            "sim.engine.slice_ms_p50": quantile(slices, 50),
            "sim.engine.slice_ms_p99": quantile(slices, 99),
        })

        probes = calls("sim.network", "Network.send_probe")
        out.update({
            "sim.network.probes": probes,
            "sim.network.fast_legs": net.fastpath_legs,
            "sim.network.fast_leg_pct": 100.0 * net.fastpath_legs / probes if probes else 0.0,
            "sim.network.callbacks": self._prefixed("sim.network", "event:"),
            "sim.network.resolves": calls("sim.network", "Network.request_resolve"),
            "sim.link.syncs": calls("sim.link", "Link.sync"),
            "sim.link.inflow_updates": calls("sim.link", "Link.set_inflow"),
            "sim.link.dropped_bits": obs("link.dropped_bits"),
        })

        out.update({
            "sim.fluid.solves": solver.solves,
            "sim.fluid.full_solves": solver.full_solves,
            "sim.fluid.vector_solves": solver.vector_solves,
            "sim.fluid.iterations": solver.iterations,
            "sim.fluid.mean_component_flows": solver.mean_component_flows(),
            "sim.fluid.notified_pairs": self.notified_pairs,
            "sim.fluid.solve_us_p50": 1e6 * quantile(self.solve_self_s, 50),
            "sim.fluid.solve_us_p99": 1e6 * quantile(self.solve_self_s, 99),
        })

        agent = self.controller_name
        stamps = calls("core.controller", f"{agent}.stamp")
        feedbacks = calls("core.edge", "send_probe.on_echo")
        out.update({
            "core.controller.stamps": stamps,
            "core.controller.registrations": calls("core.controller", f"{agent}.on_probe"),
            "core.controller.finishes": calls("core.controller", f"{agent}.on_finish"),
            "core.controller.sweeps": calls("core.controller", f"{agent}.sweep"),
            "core.controller.bloom_false_positives": obs("core.bloom_false_positives"),
            "core.controller.us_per_stamp": per(self_s["core.controller"], stamps),
            "core.edge.probes_sent": obs("edge.probes_sent"),
            "core.edge.feedbacks": feedbacks,
            "core.edge.rate_updates": obs("edge.rate_updates"),
            "core.edge.migrations": obs("edge.migrations"),
            "core.edge.probe_losses": obs("edge.probe_losses"),
            "core.edge.pairs_added": calls("core.edge", "UFabFabric.add_pair"),
            "core.edge.pairs_removed": calls("core.edge", "UFabFabric.remove_pair"),
            "core.edge.us_per_feedback": per(self_s["core.edge"], feedbacks),
            "core.pathsel.digests": calls("core.pathsel", "digest_hops"),
            "core.pathsel.selections": self._prefixed("core.pathsel", "PathBook.select_"),
            "core.gp.ticks": self._prefixed("core.gp", "event:"),
            "sim.topology.path_queries": calls("sim.topology", "Topology.shortest_paths"),
            "sim.messages.enqueues": calls("sim.messages", "MessageQueue.enqueue"),
            "sim.messages.completions": sum(len(q.completed) for q in self.queues),
            "sim.messages.rate_updates": calls("sim.messages", "MessageQueue.set_rate"),
            "workloads.callbacks": self._prefixed("workloads", "event:"),
            "workloads.tenant_arrivals": obs("scale.tenant_arrivals"),
            "workloads.pairs_added": obs("scale.pairs_added"),
            "workloads.flow_groups_peak": flow_groups_peak,
            "baselines.feedbacks": calls("baselines", "send_probe.on_echo"),
            "analysis.metrics.samples": self._prefixed("analysis.metrics", "event:"),
        })
        return out

    def write(self, path: str, meta: Dict[str, Any]) -> None:
        """Dump aggregates and the retained raw spans as ``trace.json``."""
        doc = {
            "meta": dict(meta, rep_id=self.rep_id, max_spans=MAX_SPANS,
                         spans_recorded=self._ids[0], clock="time.perf_counter (s)"),
            "aggregates": [
                {"layer": layer, "name": name, "calls": int(stat[0]),
                 "inclusive_s": stat[1], "self_s": stat[2]}
                for (layer, name), stat in sorted(self.stats.items())
            ],
            "span_fields": ["id", "parent_id", "layer", "name", "start", "end", "rep_id"],
            "spans": [list(span) + [self.rep_id] for span in self.spans],
        }
        with open(path, "w") as handle:
            json.dump(doc, handle)


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------

def _repoint(orig: Any, traced: Any) -> None:
    """Replace every ``from module import orig`` alias inside repro."""
    name = orig.__name__
    for mod_name, module in list(sys.modules.items()):
        if module is not None and (mod_name == "repro" or mod_name.startswith("repro.")):
            if module.__dict__.get(name) is orig:
                setattr(module, name, traced)


def install(tracer: Tracer) -> None:
    """Patch every boundary.  Call once, before any network is built."""
    for name in _PRELOAD:
        importlib.import_module(name)

    def owner_of(module: str, cls: Optional[str]) -> Any:
        mod = importlib.import_module(module)
        return getattr(mod, cls) if cls else mod

    def patch(module: str, cls: Optional[str], attr: str, layer: str, **hooks: Any) -> None:
        owner = owner_of(module, cls)
        orig = getattr(owner, attr)
        traced = tracer.wrap(orig, layer, f"{cls}.{attr}" if cls else attr, **hooks)
        if cls:
            setattr(owner, attr, traced)
        else:
            _repoint(orig, traced)

    for module, cls, attr, layer in BOUNDARIES:
        patch(module, cls, attr, layer)

    from repro.core.controller import backend_class

    controller = backend_class()
    tracer.controller_name = controller.__name__
    for attr in _CONTROLLER_SURFACE:
        patch(controller.__module__, controller.__name__, attr, "core.controller")

    def solved(args: tuple, moved: List[str]) -> None:
        tracer.notified_pairs += len(moved)

    patch("repro.sim.fluid", "FluidSolver", "apply", "sim.fluid",
          after=solved, self_sink=tracer.solve_self_s)
    def ran(args: tuple, _: None) -> None:
        tracer.network = args[0]

    patch("repro.sim.network", "Network", "run", "sim.network", after=ran)
    patch("repro.sim.network", "Network", "attach_message_queue", "sim.network",
          after=lambda args, _: tracer.queues.append(args[1].message_queue))

    from repro.sim.engine import Simulator
    from repro.sim.network import Network

    for attr in ("schedule", "at", "schedule_transient", "at_transient"):
        setattr(Simulator, attr, tracer._wrap_scheduler(getattr(Simulator, attr)))
    Network.send_probe = tracer._wrap_send_probe(Network.send_probe)
