"""Per-layer spans, recorded from outside the program.

:class:`Tracer` replaces public functions of each layer (and the event
callbacks the engine invokes) with timing wrappers, for the traced run
only, and puts every original back in :meth:`Tracer.restore`. A wrapper
opens a span on entry and closes it on exit. Spans nest on one stack, so

* a span's *self time* is its duration minus the durations of the spans
  opened inside it, and is added to the span's layer as the run goes;
* a call is *counted* only when its parent span is of another kind, so a
  subclass method that calls ``super()`` counts once.

The first ``RAW_SPAN_LIMIT`` spans are also kept whole -- span id, parent id,
kind, start, end and the ``uid`` of the packet the call carries, if
any -- and :meth:`Tracer.write_spans` writes them out after the run.

Event callbacks are timed by ``Simulator.callback_hook`` rather than
wrapped: the ``Simulator.run`` wrapper installs :meth:`Tracer.on_callback`
on the simulator, which charges each callback's self time to the layer
owning the callback (an ``OutputPort`` transmit-complete to ``port``, a
``Node`` arrival to ``node``, a source's emission timer to ``sources``).
The engine's own time is ``run`` time minus callback time minus the
event-queue operations ``run`` makes itself, plus the self time of the
``schedule`` calls. Spans opened by a callback name the ``run`` span as
their parent.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.core.packet import Packet

#: Layer of the ``Simulator.run`` span; merged into ``engine`` in
#: :meth:`Tracer.layer_self_s`.
RUN_LAYER = "engine.run"
RUN_KIND = "engine.run"
#: Spans kept whole for :meth:`Tracer.write_spans`.
RAW_SPAN_LIMIT = 100_000

Post = Callable[[tuple, Any], None]


class Tracer:
    """Span stack, per-layer self time and per-kind call counts."""

    def __init__(self) -> None:
        #: layer -> self seconds.
        self.self_s: Dict[str, float] = defaultdict(float)
        #: kind -> calls (outermost of that kind only).
        self.calls: Dict[str, int] = defaultdict(int)
        #: kind -> inclusive seconds of the counted calls.
        self.incl_s: Dict[str, float] = defaultdict(float)
        #: layer -> seconds spent in spans opened directly by ``run``.
        self.under_run_s: Dict[str, float] = defaultdict(float)
        #: Free-form counters the ``post`` hooks keep.
        self.counters: Dict[str, float] = defaultdict(float)
        self.callback_s = 0.0
        self.callbacks = 0
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        # Frames are [child seconds, kind, span id]; the root frame
        # collects the time of top-level spans.
        self._stack: List[list] = [[0.0, None, 0]]
        self._patches: List[tuple] = []
        #: (class, (layer, kind)) for event callbacks bound to instances
        #: of ``class``; see :meth:`on_callback`.
        self.callback_owners: List[tuple] = []
        self._callback_layers: Dict[type, tuple] = {}
        self._child_mark = 0.0
        self._queue_mark = 0.0

    # -- installing wrappers ---------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        kind: str,
        post: Optional[Post] = None,
        fn: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``owner`` is a class (only attributes in its own ``__dict__`` are
        wrapped, so inherited methods are wrapped once, on the class that
        defines them) or a module. ``fn`` overrides the function the
        wrapper calls; ``post(args, result)`` runs inside the span after
        a successful call.
        """
        if isinstance(owner, type):
            if attr not in owner.__dict__:
                return
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrapper(fn or original, layer, kind, post))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrapper(
        self, fn: Callable, layer: str, kind: str, post: Optional[Post]
    ) -> Callable:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        incl_s = self.incl_s
        under_run_s = self.under_run_s
        spans = self.spans
        limit = RAW_SPAN_LIMIT
        ids = self._ids
        clock = time.perf_counter
        push = stack.append
        pop = stack.pop

        def wrapper(*args, **kwargs):
            # The clock is read first on entry and as early as possible on
            # exit, so the wrapper's own bookkeeping mostly lands inside
            # the span (or its parent) rather than between spans.
            t0 = clock()
            frame = [0.0, kind, next(ids) if len(spans) < limit else 0]
            push(frame)
            try:
                result = fn(*args, **kwargs)
                if post is not None:
                    post(args, result)
                return result
            finally:
                pop()
                parent = stack[-1]
                t1 = clock()
                dur = t1 - t0
                self_s[layer] += dur - frame[0]
                parent[0] += dur
                if parent[1] != kind:
                    calls[kind] += 1
                    incl_s[kind] += dur
                    if parent[1] is RUN_KIND:
                        under_run_s[layer] += dur
                if frame[2] and len(spans) < limit:
                    uid = None
                    for arg in args:
                        if type(arg) is Packet:
                            uid = arg.uid
                            break
                    spans.append((frame[2], parent[2], kind, t0, t1, uid))

        wrapper.__wrapped__ = fn
        return wrapper

    def start_run(self) -> None:
        """Called on entry to ``Simulator.run``, inside its span."""
        self._child_mark = 0.0
        self._queue_mark = self.under_run_s["eventq"]

    def on_callback(self, event: Any, elapsed: float) -> None:
        """``Simulator.callback_hook``: attribute one event callback.

        No span is open while ``run`` calls a callback, so the spans the
        callback opens are children of the ``run`` span. Their time since
        the previous callback, less the queue operations ``run`` made in
        between, is the callback's child time; the rest of ``elapsed`` is
        the callback's self time, charged to the layer that owns it.
        """
        self.callback_s += elapsed
        self.callbacks += 1
        layer, kind = self.callback_layer(event.fn)
        run_frame = self._stack[-1]
        queue_s = self.under_run_s["eventq"]
        children = (run_frame[0] - self._child_mark) - (
            queue_s - self._queue_mark)
        self._child_mark = run_frame[0]
        self._queue_mark = queue_s
        self.self_s[layer] += elapsed - children
        self.calls[kind] += 1
        self.incl_s[kind] += elapsed
        if len(self.spans) < RAW_SPAN_LIMIT:
            end = time.perf_counter()
            uid = next((a.uid for a in event.args if type(a) is Packet), None)
            self.spans.append(
                (next(self._ids), run_frame[2], kind, end - elapsed, end, uid))

    def callback_layer(self, fn: Callable) -> tuple:
        """(layer, kind) of an event callback, by the class that owns it."""
        owner = type(getattr(fn, "__self__", None))
        found = self._callback_layers.get(owner)
        if found is None:
            found = ("engine", "engine.callback")
            for cls, layer_kind in self.callback_owners:
                if issubclass(owner, cls):
                    found = layer_kind
                    break
            self._callback_layers[owner] = found
        return found

    # -- results -----------------------------------------------------------

    def engine_self_s(self) -> float:
        """``run`` minus callbacks minus its own queue operations, plus the
        self time of ``schedule`` calls and of callbacks no layer owns."""
        run_s = self.incl_s.get(RUN_KIND, 0.0)
        loop = run_s - self.callback_s - self.under_run_s.get("eventq", 0.0)
        return max(loop, 0.0) + self.self_s.get("engine", 0.0)

    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds per layer, with ``engine`` taken from the hook."""
        layers = {
            layer: secs for layer, secs in self.self_s.items()
            if layer not in (RUN_LAYER, "engine")
        }
        layers["engine"] = self.engine_self_s()
        return layers

    def write_spans(self, path: Path) -> None:
        """Write the kept spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for sid, parent, kind, t0, t1, uid in self.spans:
                out.write(json.dumps({
                    "id": sid, "parent": parent, "kind": kind,
                    "start": t0, "end": t1, "uid": uid,
                }) + "\n")


def _subclasses(cls: type) -> List[type]:
    out: List[type] = []
    todo = [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer.

    Layers and what is wrapped:

    * ``eventq``: ``push``/``pop``/``peek``/``peek_time`` of both queues;
    * ``engine``: ``Simulator.run`` (which also installs the callback
      hook) and ``schedule``/``schedule_at``/``reschedule``;
    * ``port``: ``OutputPort.enqueue``, plus transmit-complete callbacks;
    * ``node``: ``Node.inject``/``forward``, plus arrival callbacks;
    * ``sources``: ``TrafficSource.emit`` and each source's ``start``,
      plus emission-timer callbacks;
    * ``sinks``: ``SinkRegistry.record``;
    * ``sched``: ``enqueue``/``dequeue`` of every scheduler class
      (``core.srr``, ``schedulers.*``, ``fastpath.*``, extensions);
    * ``build``: the ``Network`` construction methods;
    * ``conformance``: ``check_seed``, scenario generation, ``run_scenario``
      and each oracle family;
    * ``netcalc``: the public curve and bound functions.
    """
    from repro.analysis import netcalc
    from repro.conformance import cli, oracles, runner
    from repro.core.interfaces import PacketScheduler
    from repro.core.srr import SRRScheduler
    from repro.net import sources
    from repro.net.engine import Simulator
    from repro.net.eventq import CalendarQueue, HeapQueue
    from repro.net.node import Node
    from repro.net.port import OutputPort
    from repro.net.scenario import Network
    from repro.net.sinks import SinkRegistry
    from repro.schedulers import available_schedulers

    counters = tracer.counters
    wrap = tracer.wrap
    last_pop = [None]

    def pop_post(args: tuple, event: Any) -> None:
        t = event.time
        if t == last_pop[0]:
            counters["eventq.ties"] += 1
        last_pop[0] = t

    for queue in (CalendarQueue, HeapQueue):
        wrap(queue, "push", "eventq", "eventq.push")
        wrap(queue, "pop", "eventq", "eventq.pop", post=pop_post)
        wrap(queue, "peek", "eventq", "eventq.peek")
        wrap(queue, "peek_time", "eventq", "eventq.peek")

    original_run = Simulator.run
    hook = tracer.on_callback

    def run_with_hook(sim, *args, **kwargs):
        if sim.callback_hook is None:
            sim.callback_hook = hook
        tracer.start_run()
        resizes = sim.stats().get("queue_resizes", 0)
        try:
            return original_run(sim, *args, **kwargs)
        finally:
            stats = sim.stats()
            counters["eventq.resizes"] += (
                stats.get("queue_resizes", 0) - resizes)
            counters["eventq.max_depth"] = max(
                counters["eventq.max_depth"], stats["max_heap_depth"])

    wrap(Simulator, "run", RUN_LAYER, RUN_KIND, fn=run_with_hook)
    for attr in ("schedule", "schedule_at", "reschedule"):
        wrap(Simulator, attr, "engine", "engine.schedule")

    # Event callbacks (transmit-complete, link arrivals, emission
    # timers) are attributed by the hook; direct calls are wrapped.
    tracer.callback_owners = [
        (OutputPort, ("port", "port.tx")),
        (Node, ("node", "node.receive")),
        (sources.TrafficSource, ("sources", "sources.callback")),
    ]
    wrap(OutputPort, "enqueue", "port", "port.enqueue")
    wrap(Node, "inject", "node", "node.receive")
    wrap(Node, "forward", "node", "node.forward")
    wrap(SinkRegistry, "record", "sinks", "sinks.record")
    wrap(sources.TrafficSource, "emit", "sources", "sources.emit")
    for cls in _subclasses(sources.TrafficSource):
        wrap(cls, "start", "sources", "sources.start")

    for attr in ("add_node", "add_link", "compute_routes", "add_flow",
                 "attach_source"):
        wrap(Network, attr, "build", f"build.{attr}")

    def enqueue_post(args: tuple, accepted: Any) -> None:
        backlog = args[0].backlog
        if backlog > counters["sched.max_backlog"]:
            counters["sched.max_backlog"] = backlog

    def dequeue_post(args: tuple, packet: Any) -> None:
        if packet is None:
            counters["sched.empty"] += 1

    def srr_dequeue_post(args: tuple, packet: Any) -> None:
        counters["sched.srr_dequeue"] += 1
        if packet is None:
            counters["sched.empty"] += 1

    available_schedulers()  # loads the extension and fast-core classes
    for cls in _subclasses(PacketScheduler):
        wrap(cls, "enqueue", "sched", "sched.enqueue", post=enqueue_post)
        wrap(cls, "dequeue", "sched", "sched.dequeue",
             post=srr_dequeue_post if cls is SRRScheduler else dequeue_post)

    def run_post(args: tuple, run: Any) -> None:
        counters["conformance.ops"] += run.ops_used
        counters["conformance.departures"] += len(run.departures)

    wrap(cli, "check_seed", "conformance", "conformance.seed")
    wrap(cli, "generate_scenario", "conformance", "conformance.generate")
    # The base run (counted for ops per dequeue) goes through the cli
    # module; the metamorphic oracle's reruns through the oracles module.
    wrap(cli, "run_scenario", "conformance", "conformance.run", post=run_post)
    wrap(oracles, "run_scenario", "conformance", "conformance.run")
    wrap(runner, "run_scenario", "conformance", "conformance.run")
    for attr, kind in (
        ("check_scenario", "conformance.check"),
        ("check_conservation", "conformance.conservation"),
        ("check_fluid_lag", "conformance.lag"),
        ("check_metamorphic", "conformance.metamorphic"),
        ("check_bounds", "conformance.bounds"),
    ):
        wrap(oracles, attr, "conformance", kind)
    wrap(cli, "check_scenario", "conformance", "conformance.check")

    for attr in ("convolve", "deconvolve", "delay_bound", "backlog_bound",
                 "service_curve", "srr_service_curve", "drr_service_curve",
                 "wrr_service_curve", "iwrr_service_curve"):
        wrap(netcalc, attr, "netcalc", "netcalc")
