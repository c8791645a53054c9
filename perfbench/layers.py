"""Per-layer attribution for traced benchmark runs.

The benchmark measures layers from outside the program: :class:`Recorder`
wraps public entry points of each layer (and the three worker-side shard
functions of the campaign scheduler) with timing shims, keeps what they
record in memory, and turns it into self times that add up, together with
an explicit ``unattributed_s`` remainder, to the traced window's wall time.

How a run is attributed:

* Every wrapped call is a *span* on its thread's stack.  Its self time is
  its interval minus the intervals of the wrapped calls nested inside it.
* Scalar ``Waveform.__call__`` is far too hot for spans: it is only
  counted and timed into a per-thread accumulator; each span keeps the
  share of its self time spent there, and that share is credited to
  ``signals.waveform_s`` instead of the span's own layer.
* Forked pool workers inherit the shims.  They append their spans to a
  per-process file in the benchmark's work directory whenever a top-level
  span ends (a worker can be killed at any time after that), and the
  parent reads those files when the run ends.
* The wall window is then swept once: each instant is split evenly among
  the self segments active at that instant, in any process or thread, so
  concurrent workers never count one second twice.  Instants with nothing
  active are ``unattributed_s``.

Waiting is attributed from the program's own ``service.*`` spans, which a
``Session(obs=True)`` already records: ``service.job_wait_s`` is the gap
between a job's ``service.submit`` and its ``service.job`` span, and
``service.dispatch_s`` is each ``service.shard`` interval minus the
worker-side call that served it.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

_clock = time.perf_counter

#: ``(module, attribute, layer)`` of every timed function.  Functions are
#: patched in every loaded ``repro`` module that imported them by name.
TIMED_FUNCTIONS = (
    ("repro.signals.correlation", "normalized_cross_correlation",
     "signals.correlation"),
    ("repro.spice.transient", "transient", "spice.transient"),
    ("repro.spice.batched", "batched_transient", "spice.batched"),
    ("repro.faults.injector", "inject", "faults.inject"),
    ("repro.core.detection", "detection_instances", "core.detect"),
    # worker-side shard entry points: the roots that service.dispatch_s
    # is measured against; their self time is the campaign's per-fault
    # driver (technique post-processing, outcome packing)
    ("repro.service.scheduler", "_evaluate_shard", "faults.evaluate"),
    ("repro.faults.campaign", "_evaluate_fault_batch", "faults.evaluate"),
)

#: ``(module, class, method, layer)`` of every timed method.
TIMED_METHODS = (
    ("repro.faults.dictionary", "SignatureDetector", "__call__",
     "core.detect"),
    ("repro.core.bist", "BISTController", "run_analog", "core.bist.analog"),
    ("repro.core.bist", "BISTController", "run_digital",
     "core.bist.digital"),
    ("repro.core.bist", "BISTController", "run_compressed",
     "core.bist.compressed"),
    ("repro.adc.dual_slope", "DualSlopeADC", "test_peak_voltage",
     "adc.peak_voltage"),
    ("repro.process.batch", "Batch", "fabricate", "process.fabricate"),
    ("repro.session", "Session", "submit", "service.submit"),
    ("repro.service.queue", "PersistentJobQueue", "submit",
     "service.queue.append"),
    ("repro.service.queue", "PersistentJobQueue", "mark",
     "service.queue.append"),
    ("repro.service.cache", "ResultCache", "get", "service.cache.get"),
    ("repro.service.cache", "ResultCache", "put", "service.cache.put"),
)

#: timed call -> count name (counted on top of being timed).
COUNTED = {
    "repro.faults.injector.inject": "faults.inject_calls",
    "repro.service.queue.PersistentJobQueue.submit": "service.queue.appends",
    "repro.service.queue.PersistentJobQueue.mark": "service.queue.appends",
}

#: every self-time layer of the measured window, in report order (plus
#: the two waits).  ``process.fabricate`` runs in set-up, outside it.
SELF_LAYERS = (
    "signals.waveform", "signals.correlation", "spice.transient",
    "spice.batched", "faults.reference_self", "faults.evaluate",
    "faults.inject", "core.detect", "core.bist.analog", "core.bist.digital",
    "core.bist.compressed", "adc.peak_voltage", "service.submit", "service.queue.append", "service.cache.get",
    "service.cache.put", "service.job_wait", "service.dispatch",
    "bench.calibrate",
)

_REFERENCE = ("repro.service.scheduler", "_call_reference")


class _ThreadState:
    __slots__ = ("stack", "wf_s", "wf_n", "wf_rooted", "counts")

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.wf_s = 0.0        # time inside Waveform.__call__
        self.wf_n = 0
        self.wf_rooted = 0.0   # part of wf_s spent under some span
        self.counts: Counter = Counter()


class Recorder:
    """Timing shims over the program's layers, and their attribution.

    ``install()`` patches the layers; everything recorded afterwards by
    this process and by pool workers forked from it is attributed by
    :meth:`attribute`.  ``work_dir`` receives the workers' span files.
    """

    def __init__(self, work_dir: str) -> None:
        self.work_dir = work_dir
        self.main_pid = os.getpid()
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        #: self segments ``(t0, t1, layer, waveform_fraction)``
        self.segments: List[Tuple[float, float, str, float]] = []
        #: worker-side shard calls ``(t0, t1)``, matched to shards
        self.roots: List[Tuple[float, float]] = []
        #: inclusive durations of the fault-free reference measurements
        self.references: List[float] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording -----------------------------------------------------
    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
            return state

    def _after_fork(self) -> None:
        # a forked worker starts with empty books; the parent keeps its own
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self.segments = []
        self.roots = []
        self.references = []

    def _enter(self, state: _ThreadState) -> list:
        frame = [_clock(), state.wf_s, [], 0.0]
        state.stack.append(frame)
        return frame

    def _exit(self, state: _ThreadState, frame: list, layer: str,
              root: bool = False,
              inclusive: Optional[List[float]] = None) -> None:
        t1 = _clock()
        t0, wf0, children, children_wf = frame
        state.stack.pop()
        wf_delta = state.wf_s - wf0
        if inclusive is not None:
            inclusive.append(t1 - t0)
        cursor, self_s = t0, 0.0
        pieces = []
        for c0, c1 in children:
            if c0 > cursor:
                pieces.append((cursor, c0))
                self_s += c0 - cursor
            cursor = max(cursor, c1)
        if t1 > cursor:
            pieces.append((cursor, t1))
            self_s += t1 - cursor
        wf_self = wf_delta - children_wf
        frac = min(1.0, max(0.0, wf_self / self_s)) if self_s > 0 else 0.0
        self.segments.extend((a, b, layer, frac) for a, b in pieces)
        if state.stack:
            parent = state.stack[-1]
            parent[2].append((t0, t1))
            parent[3] += wf_delta
        else:
            state.wf_rooted += wf_delta
            if root and os.getpid() != self.main_pid:
                self.roots.append((t0, t1))
            if os.getpid() != self.main_pid:
                self._flush()

    def _timed(self, fn: Callable, layer: str, count: Optional[str],
               root: bool = False) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = self._state()
            if count is not None:
                state.counts[count] += 1
            frame = self._enter(state)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(state, frame, layer, root=root)
        return wrapper

    def _reference(self, fn: Callable) -> Callable:
        """The fault-free measurement runs as its own shard: time it
        inclusively, and keep the program counters it would otherwise
        lose (a reference shard ships no metrics back)."""
        from repro.obs.core import observe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = self._state()
            frame = self._enter(state)
            try:
                if os.getpid() == self.main_pid:
                    return fn(*args, **kwargs)
                with observe() as handle:
                    result = fn(*args, **kwargs)
                state.counts.update(handle.metrics.counter_values())
                return result
            finally:
                self._exit(state, frame, "faults.reference_self",
                           root=True, inclusive=self.references)
        return wrapper

    def _waveform(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(self_, t):
            state = self._state()
            t0 = _clock()
            try:
                return fn(self_, t)
            finally:
                state.wf_s += _clock() - t0
                state.wf_n += 1
        return wrapper

    def _counted(self, fn: Callable, count: str) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._state().counts[count] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _flush(self) -> None:
        """Append this worker's books to its span file and reset them."""
        counts: Counter = Counter()
        orphan_wf = 0.0
        for state in self._states:
            counts.update(state.counts)
            counts["signals.waveform_calls"] += state.wf_n
            orphan_wf += state.wf_s - state.wf_rooted
            state.counts = Counter()
            state.wf_n = 0
            state.wf_s = state.wf_rooted = 0.0
        line = json.dumps({"t": _clock(), "segments": self.segments,
                           "roots": self.roots,
                           "references": self.references,
                           "counts": counts, "orphan_wf_s": orphan_wf})
        path = os.path.join(self.work_dir, f"worker-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        self.segments, self.roots, self.references = [], [], []

    # -- patching ------------------------------------------------------
    def _patch_everywhere(self, original: Any, wrapper: Any) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")
                                      or name.startswith("perfbench")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        """Patch every layer.  Call before the pool that should inherit
        the shims is started."""
        import importlib

        from repro.adc.integrator import IntegratorModel
        from repro.signals.waveform import Waveform

        for module_name, attr, layer in TIMED_FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            root = layer == "faults.evaluate"
            wrapper = self._timed(original, layer,
                                  COUNTED.get(f"{module_name}.{attr}"),
                                  root=root)
            self._patch_everywhere(original, wrapper)
        module = importlib.import_module(_REFERENCE[0])
        original = getattr(module, _REFERENCE[1])
        self._patch_everywhere(original, self._reference(original))
        for module_name, cls_name, method, layer in TIMED_METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self._timed(
                original, layer,
                COUNTED.get(f"{module_name}.{cls_name}.{method}")))
        original = Waveform.__dict__["__call__"]
        self._patches.append((Waveform, "__call__", original))
        Waveform.__call__ = self._waveform(original)
        original = IntegratorModel.__dict__["integrate_cycle"]
        self._patches.append((IntegratorModel, "integrate_cycle", original))
        IntegratorModel.integrate_cycle = self._counted(
            original, "adc.integrate_cycles")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def reset(self) -> float:
        """Forget everything recorded so far (start of the window);
        returns the seconds spent fabricating devices before it."""
        fabricate = sum(b - a for a, b, layer, _ in self.segments
                        if layer == "process.fabricate")
        self.segments, self.roots, self.references = [], [], []
        for state in self._states:
            state.counts = Counter()
            state.wf_s = state.wf_rooted = 0.0
            state.wf_n = 0
        return fabricate

    # -- attribution ---------------------------------------------------
    def _collect(self, t0: float):
        """This process's books plus every worker file line written
        after ``t0`` (earlier lines belong to the warm-up)."""
        segments = list(self.segments)
        roots = list(self.roots)
        references = list(self.references)
        counts: Counter = Counter()
        orphan_wf = 0.0
        for state in self._states:
            counts.update(state.counts)
            counts["signals.waveform_calls"] += state.wf_n
            orphan_wf += state.wf_s - state.wf_rooted
        for path in sorted(glob.glob(os.path.join(self.work_dir,
                                                  "worker-*.jsonl"))):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    doc = json.loads(line)
                    if doc["t"] < t0:
                        continue
                    segments.extend(tuple(s) for s in doc["segments"])
                    roots.extend(tuple(r) for r in doc["roots"])
                    references.extend(doc["references"])
                    counts.update(doc["counts"])
                    orphan_wf += doc["orphan_wf_s"]
        return segments, roots, references, counts, orphan_wf

    def attribute(self, t0: float, t1: float, tracer: Any,
                  calibration: Iterable[Tuple[float, float]] = ()
                  ) -> Dict[str, float]:
        """Self seconds per layer over the window ``[t0, t1]`` plus
        ``unattributed_s``, ``wall_s``, the layer counts and every self
        segment recorded (``counts``, ``segments``).  ``tracer``
        is the traced Session's tracer (its ``service.*`` spans give the
        waits); ``calibration`` holds the benchmark's own host-speed
        samples taken in the window."""
        segments, roots, references, counts, orphan_wf = self._collect(t0)
        segments.extend(_wait_segments(tracer, roots, t0))
        segments.extend((a, b, "bench.calibrate", 0.0)
                        for a, b in calibration)
        seconds = _sweep(segments, t0, t1)
        wall = t1 - t0
        seconds["signals.waveform"] += min(orphan_wf,
                                           max(0.0, wall
                                               - sum(seconds.values())))
        out: Dict[str, float] = {f"{k}_s": seconds[k] for k in SELF_LAYERS}
        out["unattributed_s"] = wall - sum(seconds.values())
        out["wall_s"] = wall
        out["faults.reference_s"] = sum(references)
        out["counts"] = dict(counts)
        out["segments"] = segments
        return out


def _sweep(segments: Iterable[Tuple[float, float, str, float]],
           t0: float, t1: float) -> Dict[str, float]:
    """Split every instant of ``[t0, t1]`` evenly among the segments
    active then; each segment's share is divided between its layer and
    ``signals.waveform`` by its waveform fraction."""
    events: List[Tuple[float, int, int]] = []
    table = []
    for a, b, layer, frac in segments:
        a, b = max(a, t0), min(b, t1)
        if b <= a:
            continue
        idx = len(table)
        table.append((layer, frac))
        events.append((a, 1, idx))
        events.append((b, 0, idx))
    events.sort()
    seconds: Dict[str, float] = defaultdict(float)
    active: Dict[int, Tuple[str, float]] = {}
    last = t0
    for t, kind, idx in events:
        if active and t > last:
            share = (t - last) / len(active)
            for layer, frac in active.values():
                seconds[layer] += share * (1.0 - frac)
                seconds["signals.waveform"] += share * frac
        last = t
        if kind:
            active[idx] = table[idx]
        else:
            active.pop(idx, None)
    return seconds


def _walk(spans: Iterable[Any]):
    for span in spans:
        yield span
        yield from _walk(span.children)


def _wait_segments(tracer: Any, roots: List[Tuple[float, float]],
                   t0: float):
    """``service.job_wait`` and ``service.dispatch`` segments from the
    program's service spans.  The pool serves shards first in, first
    out, so the k-th shard dispatched is served by the k-th worker-side
    shard call to start."""
    submits: Dict[str, float] = {}
    starts: Dict[str, float] = {}
    shards = []
    for span in _walk(tracer.spans):
        job = span.attrs.get("job")
        if span.name == "service.submit" and span.t_end is not None:
            submits[job] = span.t_end
        elif span.name == "service.job":
            starts[job] = span.t_start
        elif (span.name == "service.shard" and span.t_end is not None
              and span.t_start >= t0):
            shards.append((span.t_start, span.t_end))
    for job, t_submit in submits.items():
        if job in starts and starts[job] > t_submit:
            yield (t_submit, starts[job], "service.job_wait", 0.0)
    roots = sorted(r for r in roots if r[0] >= t0)
    for (s0, s1), (r0, r1) in zip(sorted(shards), roots):
        if r0 > s0:
            yield (s0, min(r0, s1), "service.dispatch", 0.0)
        if s1 > r1:
            yield (max(r1, s0), s1, "service.dispatch", 0.0)
