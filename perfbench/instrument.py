"""Instrumentation installed from outside ``src/``.

:class:`HostSpeed` measures the host, not the program.  The other two
instruments are installed by replacing attributes of the package's
classes and modules, and are restored on exit:

- :class:`Probes` (always on) times the few coarse events every
  end-to-end metric needs: a VM being created, a VM reaching the
  harness's warm-up barrier, and one ``Compiler.compile`` call.  That is
  a handful of calls per program run, so it costs nothing measurable.
- :class:`Tracer` (``--trace 1`` only) wraps the public entry points of
  every layer.  Each call pushes a frame on one stack; on return the
  call's duration minus the time its instrumented callees took is the
  layer's *self time*.  Hot leaf calls (dispatch, compiled execution,
  allocation) are aggregated per (target, calling layer) as a count and
  seconds; only coarse calls (program run, compile) also keep a span
  record with a parent link.

Both must be installed before any VM exists: the plan backend binds
``heap.new_instance`` and ``vm._invoke_callback`` into its handler
closures when it binds a compiled method.
"""

from __future__ import annotations

import gc
import signal
import statistics
import sys
import time
import weakref
from typing import Callable, Dict, List, Optional, Tuple

perf_counter = time.perf_counter

# (owner, attribute, layer, coarse span kind or None).  Owners are
# "module:Class" or "module"; the layer is named after the ``src/repro``
# module the target belongs to.
TARGETS: List[Tuple[str, str, str, Optional[str]]] = []


def _target(owner: str, attribute: str, layer: str,
            span: Optional[str] = None) -> None:
    TARGETS.append((owner, attribute, layer, span))


_target("repro.lang", "compile_source", "lang.compile_source")
_target("repro.frontend.graph_builder", "build_graph", "frontend.build_graph")
_target("repro.opt.inlining:InliningPhase", "run", "opt.inlining")
_target("repro.opt.canonicalize:CanonicalizerPhase", "run",
        "opt.canonicalize")
_target("repro.opt.gvn:GlobalValueNumberingPhase", "run", "opt.gvn")
_target("repro.opt.conditional_elimination:ConditionalEliminationPhase",
        "run", "opt.conditional_elimination")
_target("repro.opt.dce:DeadCodeEliminationPhase", "run", "opt.dce")
_target("repro.opt.read_elimination:ReadEliminationPhase", "run",
        "opt.read_elimination")
_target("repro.opt.stack_allocation:StackAllocationPhase", "run",
        "opt.stack_allocation")
_target("repro.pea.partial_escape:PartialEscapePhase", "run",
        "pea.partial_escape")
_target("repro.pea.equi_escape:EquiEscapePhase", "run", "pea.equi_escape")
_target("repro.analysis.summaries", "summaries_for", "analysis.summaries")
_target("repro.analysis.summaries:SummaryDatabase", "summary",
        "analysis.summaries")
_target("repro.analysis.summaries:SummaryDatabase", "invoke_summary",
        "analysis.summaries")
_target("repro.analysis.summaries:SummaryDatabase", "digest",
        "analysis.summaries")
_target("repro.analysis.conngraph:ConnectionGraph", "__init__",
        "analysis.conngraph")
_target("repro.analysis.conngraph:ConnGraphLockElisionPhase", "run",
        "analysis.conngraph")
_target("repro.ir.graph:Graph", "verify", "ir.verify")
_target("repro.verify.verifier", "verify_graph", "ir.verify")
_target("repro.runtime.plan:ExecutionPlan", "__init__", "runtime.lower")
_target("repro.runtime.plan:ExecutionPlan", "from_payload", "runtime.lower")
_target("repro.runtime.codegen:CodegenPlan", "__init__", "runtime.lower")
_target("repro.runtime.codegen:CodegenPlan", "from_payload",
        "runtime.lower")
_target("repro.runtime.plan:ExecutionPlan", "bind", "runtime.bind")
_target("repro.runtime.codegen:CodegenPlan", "bind", "runtime.bind")
_target("repro.runtime.plan:BoundPlan", "execute", "runtime.exec")
_target("repro.runtime.graph_interpreter:GraphInterpreter", "execute",
        "runtime.exec")
_target("repro.jit.vm:VM", "call_method", "jit.dispatch")
_target("repro.jit.vm:VM", "_invoke_callback", "jit.dispatch")
_target("repro.bytecode.interpreter:Interpreter", "invoke",
        "bytecode.interp")
_target("repro.bytecode.interpreter:Interpreter", "execute_frame",
        "bytecode.interp")
_target("repro.bytecode.heap:Heap", "new_instance", "bytecode.heap_alloc")
_target("repro.bytecode.heap:Heap", "new_array", "bytecode.heap_alloc")
_target("repro.runtime.gcsim:GCSim", "on_allocate", "runtime.gcsim")
_target("repro.runtime.gcsim:GCSim", "collect_remaining", "runtime.gcsim")
_target("repro.runtime.gcsim:GCSim", "_minor_collection", "runtime.gcsim")
_target("repro.runtime.deopt:Deoptimizer", "deoptimize", "runtime.deopt")
_target("repro.jit.cache:CompilationCache", "lookup", "jit.cache_lookup")
_target("repro.jit.cache:CompilationCache", "load_harness_record",
        "jit.cache_lookup")
_target("repro.jit.cache:CompilationCache", "store", "jit.cache_store")
_target("repro.jit.cache:CompilationCache", "store_harness_record",
        "jit.cache_store")
_target("repro.jit.compiler:Compiler", "compile", "jit.compile", "compile")
_target("repro.jit.vm:VM", "__init__", "jit.vm")
_target("repro.benchsuite.harness", "run_workload", "benchsuite.harness",
        "run")
_target("repro.benchsuite.harness", "compare_workload",
        "benchsuite.harness")


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = sys.modules.get(module_name)
    if module is None:
        __import__(module_name)
        module = sys.modules[module_name]
    return getattr(module, class_name) if class_name else module


class _Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []

    def replace(self, owner, attribute: str, value) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def replace_function(self, original, value) -> None:
        """Replace a module-level function in every ``repro`` module
        that imported it by name."""
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for attribute, current in list(vars(module).items()):
                if current is original:
                    self.replace(module, attribute, value)

    def restore(self) -> None:
        while self._undo:
            owner, attribute, value = self._undo.pop()
            setattr(owner, attribute, value)


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value


class HostSpeed:
    """How fast the host runs a fixed pure-Python loop, sampled every
    50 ms from a ``SIGALRM`` handler during the whole run.

    Other tenants of a shared host slow every process on it, in bursts
    and in phases that last minutes; on a shared 2-core container that
    alone spreads raw wall-clock by 10-20% from run to run.  The loop
    touches nothing of the program under test, so ``factor(start,
    end)`` — the nominal loop time over its mean time in that interval —
    rescales a timing to what it would have been on a host where the
    loop takes ``NOMINAL_S``, and a change to the program still shows in
    full.  Sampling costs about 1% of the run.
    """

    NOMINAL_S = 500e-6
    INTERVAL_S = 0.05
    #: Objects and an index of a few megabytes, walked with a large
    #: stride.  Between two samples the program evicts them from the
    #: caches, so the loop measures the memory system the VM's heap
    #: walks depend on, not only the core.
    _SIZE = 1 << 15

    def __init__(self):
        #: (perf_counter at start, seconds) per sample.
        self.samples: List[Tuple[float, float]] = []
        self._previous = None
        self._objects = [_Cell(i) for i in range(self._SIZE)]
        self._index = {i: i for i in range(self._SIZE)}
        self._cursor = 0

    def _sample(self, signum, frame) -> None:
        objects, index = self._objects, self._index
        mask = self._SIZE - 1
        j = self._cursor
        started = perf_counter()
        x = 0
        for _ in range(1400):
            j = (j + 4099) & mask
            x ^= index[objects[j].value]
        self.samples.append((started, perf_counter() - started))
        self._cursor = j

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S,
                         self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """Nominal over measured loop time between *start* and *end*
        (1.0 when no sample fell in the interval)."""
        times = [t for at, t in self.samples if start <= at <= end]
        return self.NOMINAL_S / statistics.mean(times) if times else 1.0


class Probes:
    """The untraced run's only instrumentation: per-VM tier-up and
    per-compile latency.

    ``vms`` lists ``[weak reference to the vm, created_at, steady_at,
    (program fingerprint, config label)]`` (weak, so the probes never
    keep a VM alive); ``steady_at`` is the moment the harness reached
    its warm-up barrier (``VM.finish_pending_compiles``), ``None`` until
    then.
    ``compiles`` lists ``(seconds, cache_hit, node_count, label)``.
    """

    def __init__(self):
        self.vms: List[list] = []
        self.compiles: List[tuple] = []
        self._patches = _Patches()

    def __enter__(self) -> "Probes":
        from repro.jit.compiler import Compiler
        from repro.jit.vm import VM
        probes = self
        vm_init = VM.__init__
        barrier = VM.finish_pending_compiles
        compile_ = Compiler.compile

        def init(vm, *args, **kwargs):
            started = perf_counter()
            vm_init(vm, *args, **kwargs)
            probes.vms.append([weakref.ref(vm), started, None,
                               (vm.program.content_fingerprint(),
                                vm.config.label())])

        def finish_pending_compiles(vm, *args, **kwargs):
            barrier(vm, *args, **kwargs)
            now = perf_counter()
            for record in reversed(probes.vms):
                if record[0]() is vm:
                    if record[2] is None:
                        record[2] = now
                    break

        def compile(compiler, method, osr_bci=None):
            started = perf_counter()
            result = compile_(compiler, method, osr_bci)
            label = (compiler.program.content_fingerprint(),
                     str(compiler.config.tier_descriptor()),
                     method.qualified_name, repr(osr_bci))
            probes.compiles.append((perf_counter() - started,
                                    result.cache_hit, result.node_count,
                                    label))
            return result

        self._patches.replace(VM, "__init__", init)
        self._patches.replace(VM, "finish_pending_compiles",
                              finish_pending_compiles)
        self._patches.replace(Compiler, "compile", compile)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()

    def clear(self) -> None:
        self.vms.clear()
        self.compiles.clear()


class Tracer:
    """Self-time accounting per layer, plus coarse spans.

    ``calls[(target, calling layer)] = [count, seconds, self seconds]``
    where the calling layer of a top-level call is ``"bench"`` (the
    benchmark's own code).  ``spans`` holds one record per coarse call
    or benchmark span: ``(id, kind, name, parent id, start, end, self)``.
    """

    ROOT = "bench"

    def __init__(self):
        self.calls: Dict[Tuple[str, str], list] = {}
        self.spans: List[tuple] = []
        self.pygc_seconds = 0.0
        self.pygc_collections = [0, 0, 0]
        self._stack: List[list] = []
        self._patches = _Patches()
        self._gc_started = 0.0
        self._origin = 0.0

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self._origin = perf_counter()
        # frame = [layer, child seconds, id of the innermost span]
        self._stack = [[self.ROOT, 0.0, None]]
        for owner_name, attribute, layer, span in TARGETS:
            owner = _resolve(owner_name)
            original = owner.__dict__[attribute] \
                if isinstance(owner, type) else getattr(owner, attribute)
            if isinstance(owner, type):
                self._patches.replace(
                    owner, attribute,
                    self._wrap_descriptor(original, layer, span,
                                          f"{owner.__name__}.{attribute}"))
            else:
                self._patches.replace_function(
                    original, self._wrap(original, layer, span, attribute))
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)
        self._patches.restore()

    def _wrap_descriptor(self, original, layer, span, name):
        if isinstance(original, classmethod):
            return classmethod(self._wrap(original.__func__, layer, span,
                                          name))
        if isinstance(original, staticmethod):
            return staticmethod(self._wrap(original.__func__, layer, span,
                                           name))
        return self._wrap(original, layer, span, name)

    def _wrap(self, function: Callable, layer: str, span: Optional[str],
              name: str) -> Callable:
        stack = self._stack
        calls = self.calls
        spans = self.spans

        if span is None:
            # Hot leaf calls take this path: aggregates only, no span.
            def traced(*args, **kwargs):
                parent = stack[-1]
                frame = [layer, 0.0, parent[2]]
                stack.append(frame)
                started = perf_counter()
                try:
                    return function(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - started
                    stack.pop()
                    parent[1] += elapsed
                    key = (name, parent[0])
                    entry = calls.get(key)
                    if entry is None:
                        calls[key] = [1, elapsed, elapsed - frame[1]]
                    else:
                        entry[0] += 1
                        entry[1] += elapsed
                        entry[2] += elapsed - frame[1]
        else:
            origin = self._origin

            def traced(*args, **kwargs):
                parent = stack[-1]
                span_id = len(spans)
                spans.append(None)
                frame = [layer, 0.0, span_id]
                stack.append(frame)
                started = perf_counter()
                try:
                    return function(*args, **kwargs)
                finally:
                    ended = perf_counter()
                    elapsed = ended - started
                    stack.pop()
                    parent[1] += elapsed
                    spans[span_id] = (span_id, span, name, parent[2],
                                      started - origin, ended - origin,
                                      elapsed - frame[1])
                    key = (name, parent[0])
                    entry = calls.setdefault(key, [0, 0.0, 0.0])
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += elapsed - frame[1]

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        return traced

    def span(self, kind: str, name: str) -> "_BenchSpan":
        """A span of the benchmark's own (a pass, a round): its self
        time is benchmark overhead, not any layer's."""
        return _BenchSpan(self, kind, name)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
        else:
            self.pygc_seconds += perf_counter() - self._gc_started
            self.pygc_collections[info["generation"]] += 1

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> Dict[str, list]:
        """layer -> [calls, self seconds], targets folded into layers."""
        layers: Dict[str, list] = {}
        layer_of = {f"{_resolve(o).__name__}.{a}" if ":" in o else a: layer
                    for o, a, layer, _ in TARGETS}
        for (name, _), (count, _, self_seconds) in self.calls.items():
            entry = layers.setdefault(layer_of[name], [0, 0.0])
            entry[0] += count
            entry[1] += self_seconds
        return layers

    def count(self, *names: str) -> int:
        return sum(entry[0] for (name, _), entry in self.calls.items()
                   if name in names)

    def attributed_seconds(self) -> float:
        """Wall time covered by some layer's self time."""
        return sum(entry[2] for entry in self.calls.values())


class _BenchSpan:
    def __init__(self, tracer: Tracer, kind: str, name: str):
        self.tracer = tracer
        self.kind = kind
        self.name = name

    def __enter__(self):
        stack = self.tracer._stack
        spans = self.tracer.spans
        self.id = len(spans)
        spans.append(None)
        self.frame = [Tracer.ROOT, 0.0, self.id]
        self.parent = stack[-1]
        stack.append(self.frame)
        self.started = perf_counter()
        return self

    def __exit__(self, *exc):
        ended = perf_counter()
        elapsed = ended - self.started
        self.tracer._stack.pop()
        self.parent[1] += elapsed
        origin = self.tracer._origin
        self.tracer.spans[self.id] = (
            self.id, self.kind, self.name, self.parent[2],
            self.started - origin, ended - origin,
            elapsed - self.frame[1])
