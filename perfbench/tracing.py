"""The traced run's instruments: spans, profiler self time, counts.

Everything here measures the program from outside.  :class:`Tracer`
wraps public entry points of ``repro`` (module attributes and class
methods) with span recorders, runs a deterministic profiler around the
traced round and groups its self time by ``repro`` package.  Nothing
under ``src/`` is edited; :meth:`Tracer.uninstall` restores every
patched attribute.

Cells that the engine sends to a process pool are traced too: the
tracer swaps the driver's per-cell entry point for
:func:`traced_execute_cell`, which profiles the cell inside the worker
and ships its spans, self times and quorum latencies back on the
summary object (as an instance attribute outside the dataclass fields,
so ``RunSummary.canonical_json`` is unaffected).  Workers inherit the
installed tracer by ``fork``, the pool start method on Linux.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import math
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span name -> (module, attribute path) of the wrapped public entry point.
SPAN_TARGETS: Dict[str, Tuple[str, str]] = {
    "build_scenario": ("repro.workloads.registry", "build_scenario"),
    "Scenario.build": ("repro.workloads.scenarios", "Scenario.build"),
    "Run.execute": ("repro.core.runner", "Run.execute"),
    "summarize_run": ("repro.engine.summary", "summarize_run"),
    "check_properties": ("repro.props.report", "check_properties"),
    "RunResult.stabilization": ("repro.core.runner", "RunResult.stabilization"),
    "RunResult.audit_consistency": ("repro.core.runner", "RunResult.audit_consistency"),
    "ResultStore.append": ("repro.engine.store", "ResultStore.append"),
    "run_experiment": ("repro.engine.driver", "run_experiment"),
}

#: ``memory`` modules reported as layers of their own.
MEMORY_SPLITS = ("emulated", "membership", "linearizability")

#: Attribute carrying a pool worker's trace back on its RunSummary.
WORKER_TRACE_ATTR = "_perfbench_trace"

_ACTIVE: Optional["Tracer"] = None


def layer_of(filename: str, package_dir: str) -> Optional[str]:
    """``repro`` layer of a source file, or ``None`` outside the package.

    Layers are the packages under ``src/repro/`` (``sim``, ``netsim``,
    ...), with ``memory.emulated``, ``memory.membership`` and
    ``memory.linearizability`` split out of ``memory``.
    """
    if not filename.startswith(package_dir):
        return None
    parts = Path(filename[len(package_dir):].lstrip("/\\")).parts
    if len(parts) < 2:
        return "repro"
    if parts[0] == "memory" and parts[1][:-3] in MEMORY_SPLITS:
        return f"memory.{parts[1][:-3]}"
    return parts[0]


def self_time_by_layer(profile: cProfile.Profile, package_dir: str) -> Dict[str, float]:
    """Profiler self time grouped by layer.

    Self time of code outside ``repro`` (builtins such as ``heapq`` or
    ``list.append``, the standard library) is charged to the layer of
    each direct caller, using the profiler's per-caller inline time, so
    a layer's figure covers the native calls it makes.  What remains
    unattributable lands in ``other``.
    """
    profile.create_stats()
    out: Dict[str, float] = {}
    for (filename, _line, _name), (_cc, _nc, tottime, _ct, callers) in profile.stats.items():
        layer = layer_of(filename, package_dir)
        if layer is not None:
            out[layer] = out.get(layer, 0.0) + tottime
            continue
        for (caller_file, _l, _n), caller_stats in callers.items():
            owner = layer_of(caller_file, package_dir) or "other"
            out[owner] = out.get(owner, 0.0) + caller_stats[2]
    return out


def _merge(into: Dict[str, float], more: Dict[str, float]) -> None:
    for key, value in more.items():
        into[key] = into.get(key, 0.0) + value


def quorum_latencies(result: Any) -> List[float]:
    """Virtual-time latency of every completed quorum operation in a
    run's recorded emulated history (empty when nothing was recorded)."""
    memory = getattr(result, "memory", None)
    config = getattr(memory, "config", None)
    if not getattr(config, "record_history", False):
        return []
    return [
        op.resp - op.inv for op in memory.recorded_history() if math.isfinite(op.resp)
    ]


class Tracer:
    """Spans, self times and latencies of one traced round, in memory."""

    def __init__(self) -> None:
        import repro

        self.package_dir = str(Path(repro.__file__).resolve().parent)
        self.pid = os.getpid()
        #: ``[id, name, start, end, parent]`` rows; ids are ``"pid:n"``.
        self.spans: List[List[Any]] = []
        self.layer_self_s: Dict[str, float] = {}
        self.latencies: List[float] = []
        #: Per ``run_experiment`` call: its wall minus the cells' own
        #: wall divided by the workers that ran them.
        self.pool_overhead_s: List[float] = []
        self._stack: List[str] = []
        self._counter = 0
        self._patches: List[Tuple[Any, str, Any]] = []
        self._profile: Optional[cProfile.Profile] = None

    # -- spans ---------------------------------------------------------
    def _open(self, name: str) -> List[Any]:
        self._counter += 1
        row = [f"{os.getpid()}:{self._counter}", name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None]
        self.spans.append(row)
        self._stack.append(row[0])
        return row

    def _close(self, row: List[Any]) -> None:
        row[3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            row = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(row)
            if name == "summarize_run":
                self.latencies.extend(quorum_latencies(args[0]))
            elif name == "run_experiment":
                self._pool_overhead(out)
            return out

        return traced

    def _pool_overhead(self, report: Any) -> None:
        workers = min(report.jobs, report.executed) if report.executed > 1 else 1
        own = sum(row.wall_time_s for row in report.rows) / max(1, workers)
        self.pool_overhead_s.append(report.wall_time_s - own)
        for row in report.rows:
            shipped = row.__dict__.pop(WORKER_TRACE_ATTR, None)
            if shipped is not None:
                self.spans.extend(shipped["spans"])
                _merge(self.layer_self_s, shipped["layer_self_s"])
                self.latencies.extend(shipped["latencies"])

    def span_totals(self) -> Dict[str, float]:
        """Summed duration per span name."""
        out: Dict[str, float] = {}
        for _id, name, start, end, _parent in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    # -- install / uninstall -------------------------------------------
    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every span target and the pool's per-cell entry point."""
        global _ACTIVE
        for name, (module_name, path) in SPAN_TARGETS.items():
            owner: Any = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            if outer:  # a method: patch the class
                self._patch(owner, attr, wrapped)
                continue
            # A function: patch every repro module that imported it by name.
            for mod_name, module in list(sys.modules.items()):
                if mod_name.split(".")[0] == "repro" and getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapped)
        driver = importlib.import_module("repro.engine.driver")
        self._patch(driver, "execute_cell", traced_execute_cell)
        _ACTIVE = self

    def uninstall(self) -> None:
        """Restore every patched attribute (in reverse order)."""
        global _ACTIVE
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        _ACTIVE = None

    # -- profiler ------------------------------------------------------
    def start_profile(self) -> None:
        """Enable the deterministic profiler in this process."""
        self._profile = cProfile.Profile()
        self._profile.enable()

    def stop_profile(self) -> None:
        """Disable the profiler and add its self time per layer."""
        assert self._profile is not None
        self._profile.disable()
        _merge(self.layer_self_s, self_time_by_layer(self._profile, self.package_dir))
        self._profile = None


def traced_execute_cell(cell: Any, *args: Any, **kwargs: Any) -> Any:
    """The driver's per-cell entry point while a trace is installed.

    In the tracing process itself it only delegates (the round's
    profiler is already running there).  In a pool worker it profiles
    the cell and attaches the worker's spans, self times and quorum
    latencies to the returned summary for :class:`Tracer` to collect.
    """
    from repro.engine.worker import execute_cell

    tracer = _ACTIVE
    if tracer is None or os.getpid() == tracer.pid:
        return execute_cell(cell, *args, **kwargs)
    spans_mark, latency_mark = len(tracer.spans), len(tracer.latencies)
    profile = cProfile.Profile()
    profile.enable()
    try:
        outcome = execute_cell(cell, *args, **kwargs)
    finally:
        profile.disable()
    if outcome.summary is not None:
        setattr(outcome.summary, WORKER_TRACE_ATTR, {
            "spans": tracer.spans[spans_mark:],
            "layer_self_s": self_time_by_layer(profile, tracer.package_dir),
            "latencies": tracer.latencies[latency_mark:],
        })
    del tracer.spans[spans_mark:], tracer.latencies[latency_mark:]
    return outcome


__all__ = [
    "SPAN_TARGETS",
    "Tracer",
    "layer_of",
    "quorum_latencies",
    "self_time_by_layer",
    "traced_execute_cell",
]
