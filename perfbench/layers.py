"""Host-time attribution by layer, from timing wrappers the benchmark installs.

:class:`LayerTracer` patches each ``repro`` layer package (``LAYERS``)
for the duration of a ``with`` block and restores the originals after:

- every function the package exports (its ``__all__``) and every public
  method of an exported class, or of a subclass of one the package
  defines, gets a span per call.  Internal helpers stay bare: they run
  inside their own layer's spans, where a wrapper would only add cost;
- every generator function, public or private, gets a span per resume:
  application workers and protocol servers are private generator
  methods, and left bare their time would be billed to the kernel that
  resumes them;
- the kernel's leaf ``schedule``/``schedule_nocancel`` queue each
  callback that is not already wrapped (private methods, closures)
  behind a runner that spans it in the layer whose module defined it.

A layer's self time is its spans' time minus the spans opened inside
them.  A call made from inside the same layer opens no new span (it
would only add to that layer's self time) but still counts as a call.
What remains as ``sim`` self time is the dispatch loop, the event queues
and the process stepping around each resume.  The wrappers' own cost
lands in the calling span, mostly ``sim``; ``trace.overhead`` reports
its size.

Wrappers pass every value, exception and ``close()`` through unchanged
and never touch simulated state, so a traced run executes the same
schedule as an untraced one; the benchmark asserts it on every run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import types
from time import perf_counter
from typing import Any, Callable

__all__ = ["LAYERS", "LayerTracer", "layer_of"]

#: The layers host time is split across, each a ``repro`` package.
LAYERS = ("apps", "machine", "sim", "net", "svm", "proc", "sync", "alloc", "api")

#: Kernel methods that queue a callback without delegating to another
#: scheduling method (``schedule_at*`` delegate to these).
_LEAF_SCHEDULERS = ("schedule", "schedule_nocancel")


def layer_of(module: str | None) -> str | None:
    """The layer that owns ``module`` (a dotted name), or None."""
    if not module or not module.startswith("repro."):
        return None
    part = module.split(".", 2)[1]
    return part if part in LAYERS else None


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


class LayerTracer:
    """Per-layer self time, calls and generator resumes over a ``with`` block."""

    def __init__(self) -> None:
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.resumes = dict.fromkeys(LAYERS, 0)
        #: [schedule calls, peak of the kernel's pending()].
        self.queue = [0, 0]
        # The open spans, innermost last, as two parallel stacks (layer,
        # seconds of spans opened inside it): a span allocates nothing the
        # cyclic GC tracks, so tracing adds no collections over the heap.
        self._layers: list[str] = []
        self._inner: list[float] = []
        self._patches: list[tuple[Any, str, Any]] = []
        #: id(original) -> (original, wrapper).
        self._wrappers: dict[int, tuple[Any, Any]] = {}
        #: Callback code object -> layer of its module; the wrappers' own
        #: code maps to None because a wrapped callable spans itself.
        self._callback_layers: dict[Any, str | None] = {
            self._span(len, "sim").__code__: None,
            self._generator_span(len, "sim").__code__: None,
        }
        self._run_callback = self._callback_runner()

    def totals(self) -> dict[str, float]:
        """Flat running totals: ``<layer>.self_s|calls|resumes`` and
        ``sim.schedule_calls`` (subtract two snapshots for an interval)."""
        out: dict[str, float] = {"sim.schedule_calls": self.queue[0]}
        for kind in ("self_s", "calls", "resumes"):
            for layer, value in getattr(self, kind).items():
                out[f"{layer}.{kind}"] = value
        return out

    @property
    def pending_peak(self) -> int:
        return self.queue[1]

    # ------------------------------------------------------------------
    # spans

    def _span(self, fn: Callable[..., Any], layer: str) -> Callable[..., Any]:
        """``fn`` timed as one span of ``layer`` per call."""
        layers, inner, calls, self_s = self._layers, self._inner, self.calls, self.self_s

        def traced(*args: Any, **kwargs: Any) -> Any:
            calls[layer] += 1
            if layers and layers[-1] == layer:
                return fn(*args, **kwargs)
            layers.append(layer)
            inner.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                layers.pop()
                self_s[layer] += elapsed - inner.pop()
                if inner:
                    inner[-1] += elapsed

        return traced

    def _callback_runner(self) -> Callable[..., None]:
        """``run(layer, fn, *args)``: ``fn(*args)`` as one span of ``layer``.
        Queued in place of a callback, it costs no allocation per event."""
        layers, inner, calls, self_s = self._layers, self._inner, self.calls, self.self_s

        def run(layer: str, fn: Callable[..., None], *args: Any) -> None:
            calls[layer] += 1
            if layers and layers[-1] == layer:
                fn(*args)
                return
            layers.append(layer)
            inner.append(0.0)
            start = perf_counter()
            try:
                fn(*args)
            finally:
                elapsed = perf_counter() - start
                layers.pop()
                self_s[layer] += elapsed - inner.pop()
                if inner:
                    inner[-1] += elapsed

        return run

    def _generator_span(self, fn: Callable[..., Any], layer: str) -> Callable[..., Any]:
        """Generator function ``fn`` timed as one span of ``layer`` per resume."""
        layers, inner, calls, self_s = self._layers, self._inner, self.calls, self.self_s
        resumes = self.resumes

        def traced(*args: Any, **kwargs: Any) -> Any:
            calls[layer] += 1
            gen = fn(*args, **kwargs)
            value: Any = None
            error: BaseException | None = None
            while True:
                resumes[layer] += 1
                if layers and layers[-1] == layer:
                    try:
                        item = gen.send(value) if error is None else gen.throw(error)
                    except StopIteration as stop:
                        return stop.value
                else:
                    layers.append(layer)
                    inner.append(0.0)
                    start = perf_counter()
                    try:
                        item = gen.send(value) if error is None else gen.throw(error)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        elapsed = perf_counter() - start
                        layers.pop()
                        self_s[layer] += elapsed - inner.pop()
                        if inner:
                            inner[-1] += elapsed
                error = None
                try:
                    value = yield item
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:
                    value, error = None, exc

        return traced

    def _scheduler_span(self, method: Callable[..., Any]) -> Callable[..., Any]:
        """A leaf kernel ``schedule*`` that gives each callback its own span."""
        queue, callback_layer, run = self.queue, self._callback_layer, self._run_callback
        #: Kernel class -> its unwrapped ``pending``.
        pending_of: dict[type, Callable[[Any], int]] = {}

        def schedule(sim: Any, delay: int, fn: Callable[..., Any], *args: Any, **kw: Any) -> Any:
            queue[0] += 1
            layer = callback_layer(fn)
            if layer is None:
                out = method(sim, delay, fn, *args, **kw)
            else:
                out = method(sim, delay, run, layer, fn, *args, **kw)
            pending = pending_of.get(type(sim))
            if pending is None:
                pending = type(sim).pending
                pending = pending_of[type(sim)] = getattr(pending, "__wrapped__", pending)
            depth = pending(sim)
            if depth > queue[1]:
                queue[1] = depth
            return out

        return self._span(schedule, "sim")

    def _callback_layer(self, fn: Callable[..., Any]) -> str | None:
        """The layer to bill callback ``fn`` to, or None to leave it bare:
        builtins, code outside every layer, and wrappers (which span
        themselves)."""
        target = getattr(fn, "__func__", fn)
        code = getattr(target, "__code__", None)
        if code is None:
            return None
        try:
            return self._callback_layers[code]
        except KeyError:
            layer = self._callback_layers[code] = layer_of(target.__module__)
            return layer

    # ------------------------------------------------------------------
    # install / uninstall

    def _wrapper_for(
        self, fn: types.FunctionType, layer: str, name: str, public: bool
    ) -> Any:
        """The wrapper for ``fn``, or None if it stays bare."""
        known = self._wrappers.get(id(fn))
        if known is not None:
            return known[1]
        if layer == "sim" and name in _LEAF_SCHEDULERS:
            wrapper = self._scheduler_span(fn)
        elif inspect.isgeneratorfunction(fn):
            wrapper = self._generator_span(fn, layer)
        elif public and not name.startswith("_"):
            wrapper = self._span(fn, layer)
        else:
            return None
        wrapper = functools.wraps(fn)(wrapper)
        self._wrappers[id(fn)] = (fn, wrapper)
        return wrapper

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _patch_class(self, cls: type, layer: str, public: bool) -> None:
        for name, member in list(vars(cls).items()):
            if _is_dunder(name):
                continue
            if isinstance(member, (staticmethod, classmethod)):
                fn, kind = member.__func__, type(member)
            elif isinstance(member, types.FunctionType):
                fn, kind = member, None
            else:
                continue
            if not isinstance(fn, types.FunctionType) or fn.__module__ != cls.__module__:
                continue
            wrapper = self._wrapper_for(fn, layer, name, public)
            if wrapper is not None:
                self._patch(cls, name, kind(wrapper) if kind else wrapper)

    def install(self) -> None:
        for layer in LAYERS:
            package = importlib.import_module(f"repro.{layer}")
            modules = [package] + [
                importlib.import_module(info.name)
                for info in pkgutil.walk_packages(package.__path__, f"{package.__name__}.")
            ]
            exported = [getattr(package, name) for name in package.__all__]
            exported_ids = {id(obj) for obj in exported}
            exported_classes = [obj for obj in exported if isinstance(obj, type)]
            for module in modules:
                for name, obj in list(vars(module).items()):
                    if _is_dunder(name) or getattr(obj, "__module__", None) != module.__name__:
                        continue
                    if isinstance(obj, type):
                        public = any(base in obj.__mro__ for base in exported_classes)
                        self._patch_class(obj, layer, public)
                    elif isinstance(obj, types.FunctionType):
                        public = id(obj) in exported_ids
                        wrapper = self._wrapper_for(obj, layer, name, public)
                        if wrapper is not None:
                            self._patch(module, name, wrapper)
        # Names bound by ``from ... import`` elsewhere still hold originals.
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for name, obj in list(vars(module).items()):
                known = self._wrappers.get(id(obj))
                if known is not None and known[0] is obj:
                    self._patch(module, name, known[1])

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        self._wrappers.clear()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()
