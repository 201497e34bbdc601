"""Per-layer timing of one simulator job, from outside the simulator.

Every layer is measured by replacing a public function or method of
``repro`` with a timing wrapper for the lifetime of a
:class:`LayerTimer`; nothing under ``src/`` knows it is being measured.

Two sets of targets exist:

* *phase* targets (``Network.start`` and ``Network.run``) are wrapped in
  every repetition: they give the end-to-end ``setup_s`` and ``run_s``.
* every other target is wrapped only in the traced repetition, so the
  untraced repetitions run the original hot-path functions.

Self time is inclusive time minus the inclusive time of wrapped calls
nested inside it (a stack of open frames).  Hot-path calls are
aggregated per ``(layer, parent layer)``; set-up calls are also kept as
spans ``(layer, target, start, end, parent)``.  A target that no longer
exists (renamed by a later refactor) is skipped and its metrics read
``None``.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.net.stats import FLUID_PROBE_CATEGORY
from repro.obs.profiler import KernelProfiler

__all__ = [
    "LAYER_METRICS",
    "TARGETS",
    "LayerTimer",
    "Target",
]

PHASE, SETUP, COUNT, HOT = "phase", "setup", "count", "hot"
RUN, BOOT = "sim.run", "net.boot"
RECOMPUTE_LABEL = "fluid.recompute"


def _message_layer(node: Any, packet: Any, iface: Any = None) -> Optional[str]:
    """``Node.dispatch_message`` is a PIM-DM or MLD control call by the
    module its payload class comes from; anything else is not timed."""
    return _MESSAGE_LAYERS.get(type(packet.payload).__module__)


_MESSAGE_LAYERS = {"repro.pimdm.messages": "pimdm.ctrl", "repro.mld.messages": "mld.ctrl"}


def _binding_layer(node: Any, packet: Any, iface: Any = None) -> Optional[str]:
    """``Node.local_deliver`` is Mobile IPv6 binding work when the packet
    carries a destination option from ``repro.mipv6.options``."""
    for option in packet.dest_options:
        if type(option).__module__ == "repro.mipv6.options":
            return "mipv6.binding"
    return None


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``path`` is ``"module:Qual.name"``."""

    layer: str
    path: str
    kind: str
    #: per-call layer chooser; ``None`` means the call is not timed
    classify: Optional[Callable[..., Optional[str]]] = None


TARGETS: Tuple[Target, ...] = (
    Target(RUN, "repro.net.topology:Network.run", PHASE),
    Target(BOOT, "repro.net.topology:Network.start", PHASE),
    Target("topogen.graph", "repro.net.topogen:topo_graph", SETUP),
    Target("net.build", "repro.net.topogen:build_network", SETUP),
    Target("net.build", "repro.net.topogen:GeneratedTopology.place_source", SETUP),
    Target("net.build", "repro.net.topogen:GeneratedTopology.place_receivers", SETUP),
    Target("net.build", "repro.core.scenario:build_paper_network", SETUP),
    Target("net.build", "repro.traffic.packet:PacketModel.attach", SETUP),
    Target("net.build", "repro.traffic.fluid:FluidModel.attach", SETUP),
    Target("routing.fib", "repro.net.topology:compute_router_fibs", SETUP),
    Target("stats.collect", "repro.net.topology:Network.collect_state", SETUP),
    Target("routing.install", "repro.net.routing:RoutingTable.install", COUNT),
    Target("routing.lookup", "repro.net.routing:RoutingTable.lookup", HOT),
    Target("link.transmit", "repro.net.link:Link.transmit", HOT),
    Target("node.receive", "repro.net.node:Node.receive", HOT),
    Target("host.deliver", "repro.net.node:Host.deliver_app_data", HOT),
    Target("pimdm.data", "repro.pimdm.router:PimDmEngine.on_multicast_data", HOT),
    Target("pimdm.ctrl", "repro.net.node:Node.dispatch_message", HOT, _message_layer),
    Target("mipv6.handover", "repro.mipv6.mobile_node:MobileNode.move_to", HOT),
    Target("mipv6.binding", "repro.net.node:Node.local_deliver", HOT, _binding_layer),
    Target("mipv6.tunnel", "repro.mipv6.home_agent:HomeAgent.intercept_deliver", HOT),
    Target("trace.record", "repro.sim.trace:Tracer.record", HOT),
)

#: Hot-path layers reported as ``<layer>_calls`` / ``<layer>_self_s``,
#: counted inside ``Network.run`` only.
HOT_LAYERS = (
    "routing.lookup",
    "link.transmit",
    "node.receive",
    "host.deliver",
    "pimdm.data",
    "pimdm.ctrl",
    "mld.ctrl",
    "mipv6.handover",
    "mipv6.binding",
    "mipv6.tunnel",
    "trace.record",
)

#: Every per-layer metric of the traced repetition:
#: name -> (unit, layers whose targets it is measured from).
LAYER_METRICS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "topogen.graph_s": ("s", ("topogen.graph",)),
    "net.build_s": ("s", ("net.build",)),
    "routing.fib_s": ("s", ("routing.fib",)),
    "routing.fib_installs": ("count", ("routing.install",)),
    "net.boot_s": ("s", (BOOT, "routing.fib")),
    "sim.events": ("count", (BOOT,)),
    "sim.us_per_event": ("us", (BOOT, RUN)),
    "sim.kernel_self_s": ("s", (BOOT, RUN)),
    **{
        f"{layer}_{suffix}": (unit, (layer,))
        for layer in HOT_LAYERS
        for suffix, unit in (("calls", "count"), ("self_s", "s"))
    },
    "fluid.recompute_calls": ("count", (BOOT,)),
    "fluid.recompute_self_s": ("s", (BOOT, RUN)),
    "fluid.probes": ("count", (BOOT,)),
    "trace.events_stored": ("count", (BOOT,)),
    "stats.collect_s": ("s", ("stats.collect",)),
    "other.self_s": ("s", (BOOT, RUN)),
    "bench.trace_overhead": ("ratio", ()),
}


def _resolve(path: str) -> Optional[Tuple[Any, str, Any]]:
    """``(owner, attribute, current value)`` or None when gone."""
    module_name, _, qualname = path.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = qualname.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    if not callable(original):
        return None
    return owner, attr, original


class _Profiler:
    """Kernel profiler that also splits each callback's time into the
    part hot-path wrappers covered and the part they did not."""

    def __init__(self, timer: "LayerTimer") -> None:
        self.kernel = KernelProfiler()
        self._timer = timer
        #: label -> callback seconds no hot-path wrapper covered
        self.uncovered: Dict[str, float] = {}

    def account(self, label: str, elapsed: float) -> None:
        self.kernel.account(label, elapsed)
        timer = self._timer
        self.uncovered[label] = self.uncovered.get(label, 0.0) + elapsed - timer.covered
        timer.covered = 0.0


class LayerTimer:
    """Installs the wrappers of one repetition and accounts their time.

    Use as a context manager around the job; ``traced=False`` wraps the
    phase targets only.  Times are ``perf_counter`` seconds relative to
    :attr:`t0`, which the caller sets when the job starts.
    """

    def __init__(self, traced: bool, targets: Tuple[Target, ...] = TARGETS) -> None:
        self.traced = traced
        self.targets = tuple(t for t in targets if traced or t.kind == PHASE)
        self.t0 = perf_counter()
        #: (layer, path, start, end, parent layer) of phase/set-up calls
        self.spans: List[Tuple[str, str, float, float, Optional[str]]] = []
        #: (layer, parent layer, in run) -> [calls, self seconds, inclusive seconds]
        self.stats: Dict[Tuple[str, Optional[str], bool], List[float]] = {}
        self.counts: Dict[str, int] = {}
        self.missing: List[str] = []
        self.nets: List[Any] = []
        #: hot-path self time finished since the kernel last accounted a callback
        self.covered = 0.0
        self.profiler = _Profiler(self) if traced else None
        self._stack: List[List[Any]] = []
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------------
    def __enter__(self) -> "LayerTimer":
        for target in self.targets:
            found = _resolve(target.path)
            if found is None:
                self.missing.append(target.path)
                continue
            owner, attr, original = found
            if target.kind == COUNT:
                wrapper = self._counted(target.layer, original)
            else:
                fn = self._boot_hook(original) if target.layer == BOOT else original
                wrapper = self._timed(target, fn)
            own = attr in vars(owner)
            self._patches.append((owner, attr, vars(owner).get(attr), own))
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc: Any) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()
        if self.profiler is not None:
            for net in self.nets:
                net.sim.set_profiler(None)

    # ------------------------------------------------------------------
    def _boot_hook(self, start: Callable[..., Any]) -> Callable[..., Any]:
        def boot(net: Any, *args: Any, **kwargs: Any) -> Any:
            if net not in self.nets:
                self.nets.append(net)
                if self.profiler is not None:
                    net.sim.set_profiler(self.profiler)
            return start(net, *args, **kwargs)

        return boot

    def _counted(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        counts = self.counts
        counts[layer] = 0

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, target: Target, fn: Callable[..., Any]) -> Callable[..., Any]:
        stack, stats, spans = self._stack, self.stats, self.spans
        clock = perf_counter
        fixed, classify, path = target.layer, target.classify, target.path
        hot = target.kind == HOT
        span = not hot
        timer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            layer = fixed if classify is None else classify(*args, **kwargs)
            if layer is None:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                inclusive = end - start
                own = inclusive - frame[1]
                parent = None
                if stack:
                    parent_frame = stack[-1]
                    parent_frame[1] += inclusive
                    parent = parent_frame[0]
                in_run = bool(stack) and stack[0][0] == RUN
                if hot and in_run:
                    timer.covered += own
                key = (layer, parent, in_run)
                row = stats.get(key)
                if row is None:
                    stats[key] = [1, own, inclusive]
                else:
                    row[0] += 1
                    row[1] += own
                    row[2] += inclusive
                if span:
                    spans.append((layer, path, start - timer.t0, end - timer.t0, parent))

        return wrapper

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def phases(self) -> Dict[str, float]:
        """``setup_s`` (job start to the last ``Network.start`` return,
        minus ``Network.run`` time before it) and ``run_s``."""
        runs = [(s[2], s[3]) for s in self.spans if s[0] == RUN]
        boot_ends = [s[3] for s in self.spans if s[0] == BOOT]
        last_boot = max(boot_ends, default=0.0)
        setup = last_boot - sum(end - start for start, end in runs if end <= last_boot)
        return {"setup_s": setup, "run_s": sum(end - start for start, end in runs)}

    def missing_layers(self) -> set:
        """Layers at least one of whose targets could not be wrapped."""
        layers = set()
        for target in self.targets:
            if target.path in self.missing:
                layers.add(target.layer)
                if target.classify is _message_layer:
                    layers.update(_MESSAGE_LAYERS.values())
        return layers

    def layer_metrics(self) -> Dict[str, Optional[float]]:
        """Per-layer metrics of a traced job, except the two the parent
        derives from untraced repetitions (``sim.us_per_event`` and
        ``bench.trace_overhead``)."""
        if not self.traced:
            raise ValueError("layer metrics need a traced job")
        inclusive: Dict[str, float] = {}
        hot: Dict[str, List[float]] = {}
        for (layer, _parent, in_run), (calls, own, incl) in self.stats.items():
            inclusive[layer] = inclusive.get(layer, 0.0) + incl
            if in_run:
                row = hot.setdefault(layer, [0, 0.0])
                row[0] += calls
                row[1] += own
        profile = self.profiler
        records = {e.label: e for e in profile.kernel.entries()}
        run_s = self.phases()["run_s"]
        recompute = records.get(RECOMPUTE_LABEL)
        uncovered = profile.uncovered
        out: Dict[str, Optional[float]] = {
            "topogen.graph_s": inclusive.get("topogen.graph", 0.0),
            "net.build_s": inclusive.get("net.build", 0.0),
            "routing.fib_s": inclusive.get("routing.fib", 0.0),
            "routing.fib_installs": self.counts.get("routing.install"),
            "net.boot_s": inclusive.get(BOOT, 0.0) - inclusive.get("routing.fib", 0.0),
            "sim.events": sum(net.sim.events_dispatched for net in self.nets),
            "sim.kernel_self_s": run_s - profile.kernel.total_time,
            "fluid.recompute_calls": recompute.count if recompute else 0,
            "fluid.recompute_self_s": uncovered.get(RECOMPUTE_LABEL, 0.0),
            "fluid.probes": sum(
                net.stats.total_packets(FLUID_PROBE_CATEGORY) for net in self.nets
            ),
            "trace.events_stored": sum(len(net.tracer.events) for net in self.nets),
            "stats.collect_s": inclusive.get("stats.collect", 0.0),
            "other.self_s": sum(
                v for label, v in uncovered.items() if label != RECOMPUTE_LABEL
            ),
        }
        for layer in HOT_LAYERS:
            calls, own = hot.get(layer, (0, 0.0))
            out[f"{layer}_calls"] = calls
            out[f"{layer}_self_s"] = own
        missing = self.missing_layers()
        for name, (_unit, sources) in LAYER_METRICS.items():
            if missing.intersection(sources):
                out[name] = None
        return out

    def breakdown(self) -> Dict[str, Any]:
        """The trace record: spans plus per-(layer, parent) aggregates."""
        return {
            "spans": [
                {"layer": l, "target": p, "start": s, "end": e, "parent": par}
                for l, p, s, e, par in self.spans
            ],
            "layers": [
                {
                    "layer": layer,
                    "parent": parent,
                    "in_run": in_run,
                    "calls": int(calls),
                    "self_s": own,
                    "inclusive_s": incl,
                }
                for (layer, parent, in_run), (calls, own, incl) in sorted(
                    self.stats.items(), key=lambda kv: (kv[0][0], str(kv[0][1]), kv[0][2])
                )
            ],
            "counts": dict(self.counts),
            "missing": list(self.missing),
            "kernel_labels": [
                {
                    "label": e.label,
                    "calls": e.count,
                    "total_s": e.total_time,
                    "uncovered_s": self.profiler.uncovered.get(e.label, 0.0),
                }
                for e in self.profiler.kernel.top(25)
            ],
        }
