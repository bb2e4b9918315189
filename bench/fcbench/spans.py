"""Per-layer span recorder, attached to the program from outside.

:class:`Tracer` replaces the public functions listed in :data:`LAYERS`
with timing wrappers at run time and restores them afterwards; nothing
in ``src/`` knows it is being traced.  Each benchmark request (one
publish, one hook fire) is a root span.  A wrapped call made inside a
request opens a child span of whatever span is open; a call to a layer
that is already open on the stack (``cbor.encode`` recursing into its
items) is part of the open span and not a span of its own.

Per layer the tracer keeps the number of calls, the *self* time (the
span's duration minus the time its child spans cover) and, for layers
whose receiver owns a kernel clock, the modelled cycles that clock
advanced inside the span (child spans included).  Reading a clock never
charges it, so tracing leaves every modelled number unchanged.  Raw
spans are kept only for the first ``raw_requests`` requests; everything
else is aggregated as it happens.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

#: Layer name -> (module, attribute, receiver owns a kernel clock).
#: The names are the module path below ``repro`` plus the function.
LAYERS: dict[str, tuple[str, str, bool]] = {
    "rtos.kernel.run": ("repro.rtos.kernel", "Kernel.run", True),
    "rtos.ztimer.fire_due": ("repro.rtos.ztimer", "TimerWheel.fire_due",
                             False),
    "rtos.nvm.write": ("repro.rtos.nvm", "NvmStore.write", True),
    "net.link.transmit": ("repro.net.link", "Link.transmit", False),
    "net.udp.deliver": ("repro.net.udp", "UdpSocket.deliver", False),
    "net.coap.encode": ("repro.net.coap", "CoapMessage.encode", False),
    "net.coap.decode": ("repro.net.coap", "CoapMessage.decode", False),
    "net.gcoap.request": ("repro.net.gcoap", "CoapClient.request", False),
    "suit.cbor.encode": ("repro.suit.cbor", "encode", False),
    "suit.cbor.decode": ("repro.suit.cbor", "decode", False),
    "suit.manifest.create": ("repro.suit.manifest", "SuitEnvelope.create",
                             False),
    "suit.manifest.decode": ("repro.suit.manifest", "SuitEnvelope.decode",
                             False),
    "suit.cose.verify": ("repro.suit.cose", "CoseSign1.verify", False),
    "suit.ed25519.verify": ("repro.suit.ed25519", "verify", False),
    "suit.storage.install": ("repro.suit.storage", "StorageRegistry.install",
                             False),
    "deploy.spec.from_cbor": ("repro.deploy.spec", "DeploymentSpec.from_cbor",
                              False),
    "deploy.plan.plan": ("repro.deploy.plan", "plan", True),
    "deploy.plan.apply": ("repro.deploy.plan", "apply", True),
    "core.engine.attach": ("repro.core.engine", "HostingEngine.attach", True),
    "runtimes.rbpf.attach": ("repro.runtimes.rbpf",
                             "RbpfContainerRuntime.attach", False),
    "core.engine.fire_hook": ("repro.core.engine", "HostingEngine.fire_hook",
                              True),
    "core.engine.execute": ("repro.core.engine", "HostingEngine.execute",
                            True),
    "vm.supervisor.observe": ("repro.vm.supervisor",
                              "ContainerSupervisor.observe", False),
    "vm.interpreter.run": ("repro.vm.interpreter", "Interpreter.run", False),
}

#: ``Interpreter.run`` also runs every JIT container (the JIT subclasses
#: the interpreter and only swaps its dispatch loop), so its spans are
#: named after the receiver's engine.
SPLIT_BY_ENGINE = {"vm.interpreter.run": "vm.jit.run"}

#: Name of the root span every request opens.
ROOT = "request"


def span_names() -> list[str]:
    """Every span name a trace can report, root included."""
    return [ROOT, *LAYERS, *SPLIT_BY_ENGINE.values()]


def _clock_of(receiver):
    """The kernel clock a receiver owns directly or through ``.kernel``."""
    for owner in (receiver, getattr(receiver, "kernel", None)):
        clock = getattr(owner, "clock", None)
        if clock is not None and hasattr(clock, "cycles"):
            return clock
    return None


class Tracer:
    """Layer spans for the requests of one benchmark run."""

    def __init__(self, raw_requests: int = 0) -> None:
        self.raw_requests = raw_requests
        self.requests = 0
        #: Summed duration of every root span (seconds).
        self.total_s = 0.0
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.cycles: Counter[str] = Counter()
        #: (request, span, parent, start_s, end_s) for the first requests;
        #: times are relative to the start of their request.
        self.spans: list[tuple[int, str, str, float, float]] = []
        #: Open spans: [name, start, child seconds, clock, cycles at entry].
        self._stack: list[list] = []
        self._open: set[str] = set()
        self._request_start = 0.0
        self._patches: list[tuple[object, str, object]] = []

    # -- attaching to the program -------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every layer for the duration of the ``with`` block."""
        self._install()
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def _install(self) -> None:
        for name, (module_name, path, clocked) in LAYERS.items():
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = inspect.getattr_static(owner, attr)
            if isinstance(original, classmethod):
                wrapped = classmethod(
                    self._wrap(name, original.__func__, clocked))
            else:
                wrapped = self._wrap(name, original, clocked)
            self._patch(owner, attr, original, wrapped)
            if owner_name:
                continue
            # A module function may also be bound under other names by
            # ``from module import function``: rebind those too.
            for other in list(sys.modules.values()):
                if not getattr(other, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original and other is not module:
                        self._patch(other, key, original, wrapped)

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _wrap(self, name: str, fn, clocked: bool):
        split = SPLIT_BY_ENGINE.get(name)
        stack = self._stack
        is_open = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name
            if split is not None and args[0].implementation == "jit":
                span = split
            if not stack or span in is_open:
                return fn(*args, **kwargs)
            self._enter(span, _clock_of(args[0]) if clocked else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return traced

    # -- spans ----------------------------------------------------------------

    @contextmanager
    def request(self):
        """One root span: everything traced inside is this request's."""
        self._request_start = start = perf_counter()
        stack = self._stack
        stack.append([ROOT, start, 0.0, None, 0])
        try:
            yield
        finally:
            frame = stack.pop()
            end = perf_counter()
            duration = end - start
            self.self_s[ROOT] += duration - frame[2]
            self.calls[ROOT] += 1
            self.total_s += duration
            if self.requests < self.raw_requests:
                self.spans.append((self.requests, ROOT, "", 0.0,
                                   end - start))
            self.requests += 1

    def _enter(self, name: str, clock) -> None:
        self._stack.append([name, perf_counter(), 0.0, clock,
                            clock.cycles if clock is not None else 0])
        self._open.add(name)

    def _exit(self) -> None:
        name, start, child_s, clock, cycles = self._stack.pop()
        end = perf_counter()
        duration = end - start
        self._open.discard(name)
        self.calls[name] += 1
        self.self_s[name] += duration - child_s
        if clock is not None:
            self.cycles[name] += clock.cycles - cycles
        parent = self._stack[-1]
        parent[2] += duration
        if self.requests < self.raw_requests:
            origin = self._request_start
            self.spans.append((self.requests, name, parent[0],
                               start - origin, end - origin))

    # -- results --------------------------------------------------------------

    def self_time_gap(self) -> float:
        """|sum of self times - summed root durations| / summed roots.

        Every span's duration is its self time plus its children's
        durations, so the self times must add up to the root spans.
        """
        if self.total_s <= 0.0:
            return 0.0
        return abs(sum(self.self_s.values()) - self.total_s) / self.total_s

    def table(self) -> dict[str, dict[str, float]]:
        """Per span: calls, self seconds and cycles, summed over requests."""
        return {
            name: {"calls": self.calls[name], "self_s": self.self_s[name],
                   "cycles": self.cycles[name]}
            for name in span_names()
        }

    def layer_metrics(self, host_speed: float = 1.0) -> dict[str, float]:
        """Per-request calls, self seconds and cycles of every span.

        Self seconds are multiplied by ``host_speed``, the factor the
        run scaled its end-to-end host times by.
        """
        requests = max(1, self.requests)
        metrics: dict[str, float] = {}
        for name in span_names():
            metrics[f"{name}.calls"] = self.calls[name] / requests
            metrics[f"{name}.self_s"] = (host_speed * self.self_s[name]
                                         / requests)
            if name in LAYERS and LAYERS[name][2]:
                metrics[f"{name}.cycles"] = self.cycles[name] / requests
        return metrics
