"""Per-layer busy-time tracer, installed from outside the program.

The benchmark measures the system without editing it, so its traced run
wraps the public entry points of each layer (module) in place: a
wrapper reads the calling thread's CPU clock around the call and charges
the difference to the layer, minus whatever nested wrapped calls took
(*self-time*).  Per-thread CPU time keeps the service's threads apart:
the apply thread and the event loop share one interpreter lock, so their
wall-clock intervals overlap while their CPU seconds do not.

Two kinds of wrapper exist.  A *layer* takes part in self-time
attribution (its self-time sums, across all layers, to the attributed
busy time that ``trace.coverage`` compares with the process CPU time).
A *probe* only records its own inclusive time and leaves attribution to
the enclosing layer; the ladder rung probes use that to find the slowest
rung of each batch and the duplicated-regime share.

Nothing here charges a cost model: the ladders' model work and depth are
read, never written, so a traced run must report the same totals as an
untraced one.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from typing import Any, Callable, Optional

_clock = time.thread_time


class LayerTracer:
    """Accumulates self-time, inclusive time and calls per layer."""

    def __init__(self) -> None:
        self._local = threading.local()
        # reentrant: a signal-driven dump may interrupt a wrapper holding it
        self._lock = threading.RLock()
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far; the CPU baseline restarts."""
        with self._lock:
            self.self_s: dict[str, float] = {}
            self.incl_s: dict[str, float] = {}
            self.calls: dict[str, int] = {}
            self.counts: dict[str, int] = {}
            self.probe_s: dict[str, float] = {}
            self.rung_ms_max: list[float] = []
            self.model_work = 0
            self.model_depth = 0
            self.cpu0 = time.process_time()

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, inc: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + inc

    def layer(self, fn: Callable, name: str,
              after: Optional[Callable[[Any, tuple], None]] = None) -> Callable:
        """Wrap ``fn`` as a self-time layer; ``after(result, args)`` runs
        outside the timed interval."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = [name, 0.0]
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                outermost = all(f[0] != name for f in stack)
                with tracer._lock:
                    tracer.self_s[name] = tracer.self_s.get(name, 0.0) + dt - frame[1]
                    tracer.calls[name] = tracer.calls.get(name, 0) + 1
                    if outermost:
                        tracer.incl_s[name] = tracer.incl_s.get(name, 0.0) + dt
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def probe(self, fn: Callable, name: str) -> Callable:
        """Wrap ``fn`` for inclusive time only (attribution unaffected)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                with tracer._lock:
                    tracer.probe_s[name] = tracer.probe_s.get(name, 0.0) + dt
                slowest = getattr(tracer._local, "rung_max", None)
                if name == "core.rung" and slowest is not None and dt > slowest:
                    tracer._local.rung_max = dt

        return wrapper

    def ladder(self, fn: Callable, name: str) -> Callable:
        """A ladder update: a layer that also reads the model cost delta
        and the slowest rung of this batch."""
        tracer = self
        inner = self.layer(fn, name)

        @functools.wraps(fn)
        def wrapper(st, *args, **kwargs):
            work0, depth0 = st.cm.work, st.cm.depth
            tracer._local.rung_max = 0.0
            try:
                return inner(st, *args, **kwargs)
            finally:
                slowest, tracer._local.rung_max = tracer._local.rung_max, None
                work, depth = st.cm.work - work0, st.cm.depth - depth0
                with tracer._lock:
                    tracer.model_work += work
                    tracer.model_depth += depth
                    tracer.rung_ms_max.append(1e3 * slowest)
                tracer.count(f"{name}.work", work)
                tracer.count(f"{name}.depth", depth)

        return wrapper

    # -- reporting -----------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A JSON-able copy of everything recorded so far."""
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "incl_s": dict(self.incl_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
                "probe_s": dict(self.probe_s),
                "rung_ms_max": list(self.rung_ms_max),
                "model_work": self.model_work,
                "model_depth": self.model_depth,
                "cpu_s": time.process_time() - self.cpu0,
            }

    def dump(self, path: str) -> None:
        """Write :meth:`snapshot` atomically (readers never see a torn file)."""
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.snapshot(), fh)
        os.replace(tmp, path)


def _patch(owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
    setattr(owner, attr, make(getattr(owner, attr)))


def install(tracer: LayerTracer) -> None:
    """Wrap every layer's public entry points (once per process)."""
    from repro.core import coreness, density, duplicated, ladder, tokens
    from repro.graphs import tracefile
    from repro.pram import executor
    from repro.resilience import checkpoint, guard, recovery
    from repro.service import server, state

    def layer(name, after=None):
        return lambda fn: tracer.layer(fn, name, after)

    # core ladders: updates (with model cost), rungs, queries
    for cls, name in ((coreness.CorenessDecomposition, "core.coreness"),
                      (density.DensityEstimator, "core.density")):
        for attr in ("insert_batch", "delete_batch"):
            _patch(cls, attr, lambda fn, name=name: tracer.ladder(fn, name))
    for attr in ("estimates", "estimate", "max_estimate"):
        _patch(coreness.CorenessDecomposition, attr, layer("core.query"))
    for attr in ("density_estimate", "arboricity_estimate", "max_outdegree",
                 "orientation_out"):
        _patch(density.DensityEstimator, attr, layer("core.query"))
    # every rung class inherits the one update funnel the executor calls
    _patch(ladder.RungOps, "apply_ops",
           lambda fn: tracer.probe(tracer.layer(fn, "core.rung"), "core.rung"))
    for attr in ("insert_batch", "delete_batch"):
        _patch(duplicated.DuplicatedBalanced, attr,
               lambda fn: tracer.probe(fn, "core.duplicated"))

    # token games (balanced.py imports them from the module at call time)
    _patch(tokens, "run_push_game", layer("tokens.push"))
    _patch(tokens, "run_drop_game", layer("tokens.drop"))

    # executor
    _patch(executor.SerialExecutor, "run_structures",
           layer("executor.dispatch",
                 after=lambda _r, args: tracer.count("executor.tasks", len(args[2]))))

    # recovery / guard (recovery.py and guard.py both bind capture/rollback)
    _patch(recovery.RecoveryManager, "apply",
           layer("recovery.apply",
                 after=lambda outcome, _a: tracer.count(
                     "recovery.escalations", int(outcome != "ok"))))
    _patch(recovery.RecoveryManager, "healthy", layer("recovery.audit"))
    for module in (guard, recovery):
        _patch(module, "capture", layer("recovery.guard"))
        _patch(module, "rollback", layer("recovery.guard"))

    # checkpoints (state.py calls them through the module)
    _patch(checkpoint, "checkpoint", layer("checkpoint.serialize"))
    _patch(checkpoint, "restore_checkpoint", layer("checkpoint.restore"))

    # WAL (state.py binds recover_trace by name)
    _patch(tracefile.TraceWriter, "append", layer("wal.append"))
    for module in (tracefile, state):
        _patch(module, "recover_trace", layer("wal.recover"))

    # service state and the synchronous parts of the request path
    shard = state.TenantShard
    _patch(shard, "__init__", layer("state.open"))
    _patch(shard, "validate", layer("state.validate"))
    _patch(shard, "accept", layer("state.accept"))
    _patch(shard, "apply", layer("state.apply"))
    _patch(shard, "write_checkpoint", layer("state.checkpoint"))
    _patch(server.CorenessService, "_op_query", layer("service.handler"))
    _patch(server, "_encode", layer("service.handler"))

    tracer.reset()
