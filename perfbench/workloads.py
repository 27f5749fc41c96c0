"""The three workloads: set-up and one pass each.

Every pass returns a :class:`Pass`.  The seed only permutes the order of
operations inside a pass; inputs (programs, iteration sizes, configs)
never depend on it.  All workloads drive the system with its shipped
defaults: ``CompilerConfig`` defaults and the ``table1 --quick``
warm-up cap.
"""

from __future__ import annotations

import contextlib
import copy
import gc
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.benchsuite import harness
from repro.benchsuite.workloads import SUITES
from repro.bytecode.interpreter import Interpreter, Profile
from repro.jit import CompilationCache, CompilerConfig
from repro.jit.compiler import Compiler
from repro.jit.vm import VM
import repro.lang as lang

perf_counter = time.perf_counter

#: ``table1 --quick`` caps warm-up at this many iterations.
QUICK_WARMUP = 25
#: The tiers compile-churn recompiles every method under.
CHURN_TIERS = ("none", "conngraph", "pea+summaries")
#: Warm-start sets per steady-warm pass (the rounds run on the last).
STEADY_WARM_STARTS = 2
#: Rounds per steady-warm pass: enough for 10 rounds beyond the p90.
STEADY_ROUNDS = 100


def corpus(table1_only: bool = False):
    """Copies of the corpus workloads with ``--quick`` settings (the
    registry objects are shared, so they are never mutated)."""
    suites = ("dacapo", "scaladacapo", "specjbb") if table1_only \
        else tuple(SUITES)
    workloads = []
    for suite in suites:
        for workload in SUITES[suite]:
            workload = copy.copy(workload)
            workload.warmup_iterations = min(workload.warmup_iterations,
                                             QUICK_WARMUP)
            workloads.append(workload)
    return workloads


def compile_program(workload):
    return lang.compile_source(workload.source,
                               natives=workload.natives or None)


def reference_checksums(workloads, programs) -> Dict[str, int]:
    """One iteration of every program on the bytecode interpreter
    alone: no JIT, no escape analysis.  Every operation is checked
    against these values."""
    references = {}
    for workload, program in zip(workloads, programs):
        interpreter = Interpreter(program)
        references[workload.name] = interpreter.call(
            workload.entry, workload.iteration_size)
        program.reset_statics()
    return references


@dataclass
class Pass:
    wall: float = 0.0
    #: Seconds inside ``Compiler.compile`` (hits and misses).
    compile_seconds: float = 0.0
    #: (milliseconds, operation id) of the workload's timed stream.
    latencies: List[Tuple[float, object]] = field(default_factory=list)
    #: Tier-up milliseconds per program run (key: what identifies the
    #: run across passes).
    tierups_ms: Dict[object, float] = field(default_factory=dict)
    code_nodes: int = 0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: Deterministic outputs that must repeat exactly in every pass.
    fingerprint: object = None
    #: Workload-specific facts for the report (simulated columns, cache).
    extra: dict = field(default_factory=dict)

    def fail(self, operation: str, problem: str) -> None:
        self.failed += 1
        self.errors.append(f"{operation}: {problem}")


class Workload:
    name = ""
    #: What the timed-latency stream consists of.
    latency_unit = ""
    #: Passes every run makes, however short ``--seconds`` is.
    min_passes = 1

    def __init__(self, scratch: str):
        self.scratch = scratch

    def setup(self):
        raise NotImplementedError

    def run_pass(self, state, rng: random.Random, probes,
                 tracer=None) -> Pass:
        raise NotImplementedError

    def fresh_dir(self, label: str) -> str:
        path = os.path.join(self.scratch,
                            f"{label}-{len(os.listdir(self.scratch))}")
        os.makedirs(path)
        return path


class CorpusCold(Workload):
    """``table1 --quick``: every corpus program under no-EA and PEA
    through ``compare_workload``, with an empty cache directory per
    pass.  One operation is one (program, config) run."""

    name = "corpus-cold"
    latency_unit = "compiles that missed the cache"
    # One pass gives 58 tier-ups spread from 20 ms to 1.3 s; a second
    # pass lets each run keep its faster time (see run.py).
    min_passes = 2

    def setup(self):
        workloads = corpus()
        programs = [compile_program(w) for w in workloads]
        return {"workloads": workloads,
                "references": reference_checksums(workloads, programs)}

    def run_pass(self, state, rng, probes, tracer=None) -> Pass:
        workloads = list(state["workloads"])
        rng.shuffle(workloads)
        cache_dir = self.fresh_dir("cold-cache")
        cache = CompilationCache(cache_dir)
        result = Pass()
        probes.clear()
        columns = {}
        started = perf_counter()
        for workload in workloads:
            result.attempted += 2
            try:
                comparison = harness.compare_workload(workload, cache=cache)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                result.fail(workload.name, f"{type(exc).__name__}: {exc}")
                result.fail(workload.name, "paired run failed")
                continue
            expected = state["references"][workload.name]
            for measurement in (comparison.without, comparison.with_pea):
                if measurement.checksum != expected:
                    result.fail(f"{workload.name}/{measurement.config}",
                                f"checksum {measurement.checksum} != "
                                f"reference {expected}")
                result.code_nodes += measurement.compiled_nodes
                result.extra["elided"] = result.extra.get("elided", 0) + \
                    measurement.warmup_iterations_elided
            columns[workload.name] = tuple(
                (m.cycles_per_iteration, m.allocations_per_iteration,
                 m.kb_per_iteration, m.monitor_ops_per_iteration,
                 m.compiled_nodes, m.deopts, m.checksum)
                for m in (comparison.without, comparison.with_pea))
        result.wall = perf_counter() - started
        _fold_probes(result, probes)
        result.fingerprint = tuple(sorted(columns.items()))
        result.extra["columns"] = columns
        result.extra["cache"] = cache.stats
        return result


class CompileChurn(Workload):
    """Recompile every program's compiled-method set, without a cache,
    under three escape tiers.  One operation is one compile."""

    name = "compile-churn"
    latency_unit = "compiles"

    def setup(self):
        workloads = corpus()
        programs = [compile_program(w) for w in workloads]
        references = reference_checksums(workloads, programs)
        prepared = []
        for workload, program in zip(workloads, programs):
            vm = VM(program, CompilerConfig())
            for _ in range(workload.warmup_iterations):
                checksum = vm.call(workload.entry, workload.iteration_size)
                program.reset_statics()
            if checksum != references[workload.name]:
                raise RuntimeError(
                    f"{workload.name}: warm-up checksum {checksum} != "
                    f"reference {references[workload.name]}")
            targets = sorted(
                [(m.qualified_name, None) for m in vm.compiled]
                + [(m.qualified_name, bci) for m, bci in vm.osr_compiled],
                key=lambda t: (t[0], -1 if t[1] is None else t[1]))
            prepared.append((workload, vm.profile.snapshot(), targets))
        return {"prepared": prepared, "node_counts": {}}

    def run_pass(self, state, rng, probes, tracer=None) -> Pass:
        result = Pass()
        probes.clear()
        node_counts = state["node_counts"]
        started = perf_counter()
        compilers = {}
        operations = []
        for index, (workload, snapshot, targets) in \
                enumerate(state["prepared"]):
            program = compile_program(workload)
            profile = Profile()
            profile.restore(program, snapshot)
            for tier in CHURN_TIERS:
                compilers[(index, tier)] = Compiler(
                    program, CompilerConfig(escape_tier=tier), profile)
                operations.extend((index, tier, qualified, bci)
                                  for qualified, bci in targets)
        rng.shuffle(operations)
        per_program: Dict[tuple, float] = {}
        counts = {}
        for index, tier, qualified, bci in operations:
            compiler = compilers[(index, tier)]
            name = state["prepared"][index][0].name
            key = (name, tier, qualified, repr(bci))
            result.attempted += 1
            begun = perf_counter()
            try:
                compiled = compiler.compile(
                    compiler.program.method(qualified), osr_bci=bci)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                result.fail(str(key), f"{type(exc).__name__}: {exc}")
                continue
            per_program[(index, tier)] = per_program.get((index, tier), 0.0) \
                + perf_counter() - begun
            result.code_nodes += compiled.node_count
            counts[key] = compiled.node_count
            known = node_counts.setdefault(key, compiled.node_count)
            if known != compiled.node_count:
                result.fail(str(key), f"{compiled.node_count} nodes, "
                            f"{known} in an earlier round")
        result.wall = perf_counter() - started
        _fold_probes(result, probes)
        # A program's compile-only tier-up: its whole compiled set under
        # one tier.
        result.tierups_ms = {key: seconds * 1000.0
                             for key, seconds in per_program.items()}
        result.fingerprint = tuple(sorted(counts.items()))
        return result


class SteadyWarm(Workload):
    """Warm-start every Table 1 program (PEA) from a cache directory
    filled in set-up, then run rounds of compiled iterations, one
    iteration of each program per round.  One operation is one
    round."""

    name = "steady-warm"
    latency_unit = "rounds"

    def setup(self):
        workloads = corpus(table1_only=True)
        programs = [compile_program(w) for w in workloads]
        references = reference_checksums(workloads, programs)
        cache_dir = self.fresh_dir("steady-cache")
        cache = CompilationCache(cache_dir)
        config = CompilerConfig.partial_escape()
        for workload, program in zip(workloads, programs):
            measurement = harness.run_workload(workload, config,
                                               program=program, cache=cache)
            if measurement.checksum != references[workload.name]:
                raise RuntimeError(
                    f"{workload.name}: cold checksum {measurement.checksum}"
                    f" != reference {references[workload.name]}")
        return {"workloads": workloads, "references": references,
                "cache_dir": cache_dir, "round": 0}

    def run_pass(self, state, rng, probes, tracer=None) -> Pass:
        result = Pass()
        copies = [self.fresh_dir("steady-cache")
                  for _ in range(STEADY_WARM_STARTS)]
        for copy_dir in copies:
            shutil.copytree(state["cache_dir"], copy_dir,
                            dirs_exist_ok=True)
        tierups: Dict[str, List[float]] = {}
        set_compile_seconds = []
        running = []
        for copy_dir in copies:
            running = []  # the previous set's VMs are garbage now
            running, measurements, cache = self._warm_start(
                state, rng, probes, copy_dir, result, tierups)
            set_compile_seconds.append(sum(c[0] for c in probes.compiles))
            fingerprint = tuple(sorted(
                (name, m.cycles_per_iteration, m.allocations_per_iteration,
                 m.kb_per_iteration, m.compiled_nodes, m.checksum)
                for name, m in measurements.items()))
            if result.fingerprint is None:
                result.fingerprint = fingerprint
            elif fingerprint != result.fingerprint:
                result.fail("warm-start set", "measurements differ from "
                            "the first set's")
        started = perf_counter()
        for _ in range(STEADY_ROUNDS):
            self._round(state, rng, running, result, tracer)
        result.wall += perf_counter() - started
        # Host contention only ever adds time to a warm start, so each
        # program's tier-up and each set's compile time keep the
        # fastest of the sets.
        result.tierups_ms = {name: min(values)
                             for name, values in tierups.items()}
        result.compile_seconds = min(set_compile_seconds)
        result.extra["elided"] = sum(m.warmup_iterations_elided
                                     for m in measurements.values())
        result.extra["cache"] = cache.stats
        result.code_nodes = sum(m.compiled_nodes
                                for m in measurements.values())
        return result

    def _warm_start(self, state, rng, probes, cache_dir, result, tierups):
        """Warm-start every program from *cache_dir*; returns the
        running (workload, vm, program) list, the harness measurements
        and the cache."""
        probes.clear()
        references = state["references"]
        config = CompilerConfig.partial_escape()
        order = list(state["workloads"])
        rng.shuffle(order)
        cache = CompilationCache(cache_dir)
        running = []
        measurements = {}
        for workload in order:
            result.attempted += 1
            first_vm = len(probes.vms)
            # Every warm start begins from a collected heap, as in a
            # fresh process, whatever the seed put before it; the
            # collection is not timed.
            gc.collect()
            started = perf_counter()
            try:
                measurement = harness.run_workload(workload, config,
                                                   cache=cache)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                result.fail(workload.name, f"{type(exc).__name__}: {exc}")
                continue
            finally:
                result.wall += perf_counter() - started
            created = probes.vms[first_vm:]
            steady = [r for r in created if r[2] is not None]
            if measurement.checksum != references[workload.name] or \
                    not steady:
                result.fail(workload.name,
                            f"warm start checksum {measurement.checksum} "
                            f"!= reference {references[workload.name]}")
                continue
            tierups.setdefault(workload.name, []).append(
                (steady[-1][2] - created[0][1]) * 1000.0)
            measurements[workload.name] = measurement
            vm = steady[-1][0]()
            running.append((workload, vm, vm.program))
        return running, measurements, cache

    def _round(self, state, rng, running, result, tracer) -> None:
        """One iteration of every running program, in seeded order."""
        references = state["references"]
        state["round"] += 1
        rng.shuffle(running)
        result.attempted += 1
        problems = []
        span = tracer.span("round", f"round {state['round']}") \
            if tracer is not None else contextlib.nullcontext()
        round_started = perf_counter()
        with span:
            for workload, vm, program in running:
                try:
                    value = vm.call(workload.entry, workload.iteration_size)
                except Exception as exc:  # noqa: BLE001
                    problems.append(f"{workload.name}: "
                                    f"{type(exc).__name__}: {exc}")
                    continue
                finally:
                    program.reset_statics()
                if value != references[workload.name]:
                    problems.append(f"{workload.name}: {value} != "
                                    f"reference {references[workload.name]}")
        elapsed = perf_counter() - round_started
        if problems:
            result.fail(f"round {state['round']}", "; ".join(problems))
        else:
            result.latencies.append((elapsed * 1000.0, state["round"]))


def _fold_probes(result: Pass, probes) -> None:
    """Compile latency and tier-up from the probes of one pass."""
    result.compile_seconds = sum(c[0] for c in probes.compiles)
    for seconds, hit, _, label in probes.compiles:
        if not hit:
            result.latencies.append((seconds * 1000.0, label))
    if not result.tierups_ms:
        result.tierups_ms = {key: (steady - created) * 1000.0
                             for _, created, steady, key in probes.vms
                             if steady is not None}


WORKLOADS = {w.name: w for w in (CorpusCold, CompileChurn, SteadyWarm)}
