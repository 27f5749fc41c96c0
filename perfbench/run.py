"""The repository benchmark: corpus-cold, compile-churn and steady-warm.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload corpus-cold --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` makes one
untraced and one traced pass and reports the per-layer metrics (see
``perfbench/README.md``).  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when the
run completed, whether or not every operation was correct.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Never start another pass once the run has taken this long, whatever
#: the sample counts say (the run must end within 180 s).
HARD_STOP_S = 110.0
#: A tail percentile needs this many distinct operations beyond it.
MIN_DISTINCT_BEYOND = 10

perf_counter = time.perf_counter


def percentile(values, q):
    """Nearest-rank percentile, the convention of
    ``repro.benchsuite.harness.percentile``."""
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(0, min(len(ordered), rank) - 1)]


def tail(samples, q):
    """(value, samples, distinct operations, distinct operations
    beyond the value) for a stream of ``(value, operation id)``."""
    value = percentile([v for v, _ in samples], q)
    beyond = {op for v, op in samples if v > value}
    return (value, len(samples), len({op for _, op in samples}),
            len(beyond))


def geomean_ratio_pct(pairs):
    """Geometric mean over programs of (PEA + 1) / (no-EA + 1), in
    percent.  Adding one unit on both sides keeps a program whose PEA
    count is 0 in the mean instead of collapsing it to 0."""
    logs = [math.log((pea + 1.0) / (base + 1.0)) for base, pea in pairs]
    return 100.0 * math.exp(sum(logs) / len(logs))


def src_lines() -> int:
    lines = 0
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix == ".py":
            with open(path, "rb") as handle:
                lines += sum(1 for _ in handle)
    return lines


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sim_ratios(columns) -> dict:
    """Table 1 ratios from one corpus-cold pass: per program, the
    measured-window cycles, allocations and KB per iteration."""
    rows = list(columns.values())
    return {
        "sim.cycles_ratio_pct": geomean_ratio_pct(
            [(base[0], pea[0]) for base, pea in rows]),
        "sim.alloc_ratio_pct": geomean_ratio_pct(
            [(base[1], pea[1]) for base, pea in rows]),
        "sim.kb_ratio_pct": geomean_ratio_pct(
            [(base[2], pea[2]) for base, pea in rows]),
    }


class Report:
    """Metrics plus the human-readable lines printed before the JSON."""

    def __init__(self):
        self.metrics = {}

    def add(self, name, value, unit, note=""):
        self.metrics[name] = {"value": value, "unit": unit}
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:34s} {shown:>14s} {unit:6s} {note}")

    def add_tail(self, name, samples, q, unit_label):
        value, count, distinct, beyond = tail(samples, q)
        if q > 50 and beyond < MIN_DISTINCT_BEYOND:
            print(f"  {name}: too few distinct operations beyond "
                  f"p{q} ({beyond} of {distinct} distinct, {count} "
                  f"samples); no value reported")
            return False
        self.add(name, value, "ms",
                 f"n={count} samples, {distinct} distinct {unit_label}, "
                 f"{beyond} distinct beyond")
        return True


def settle_heap() -> None:
    """Collect set-up garbage and move what survives out of the host
    collector's view, so that which set-up objects a pass's
    collections have to scan does not depend on the seed.  The
    collector stays on for everything a pass allocates."""
    gc.collect()
    gc.freeze()


def run_passes(workload, state, rng, probes, seconds, started):
    """Passes until ``seconds`` of measurement have elapsed and the
    latency tail has enough distinct operations beyond its p90.
    Returns ``(pass, began, ended)`` triples."""
    passes = []
    measuring = perf_counter()
    while True:
        began = perf_counter()
        result = workload.run_pass(state, rng, probes)
        passes.append((result, began, perf_counter()))
        samples = [s for p, _, _ in passes for s in p.latencies]
        enough = bool(samples) and \
            tail(samples, 90)[3] >= MIN_DISTINCT_BEYOND
        if perf_counter() - measuring >= seconds and enough and \
                len(passes) >= workload.min_passes:
            break
        if perf_counter() - started >= HARD_STOP_S:
            break
    return passes


def check_passes(passes) -> list:
    problems = []
    for index, result in enumerate(passes[1:], start=2):
        if result.fingerprint != passes[0].fingerprint:
            problems.append(f"pass {index}: deterministic outputs differ "
                            "from pass 1")
        if result.code_nodes != passes[0].code_nodes:
            problems.append(f"pass {index}: {result.code_nodes} code "
                            f"nodes, {passes[0].code_nodes} in pass 1")
    for result in passes:
        problems.extend(result.errors)
    return problems


def end_to_end(workload, args, probes, started) -> dict:
    from instrument import HostSpeed

    setups = []
    state = None
    with HostSpeed() as host:
        for _ in range(SETUPS):
            begun = perf_counter()
            state = workload.setup()
            setups.append((perf_counter() - begun, begun, perf_counter()))
            probes.clear()
        settle_heap()
        rng = random.Random(args.seed)
        timed = run_passes(workload, state, rng, probes, args.seconds,
                           started)
    passes = [p for p, _, _ in timed]
    problems = check_passes(passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    # Every timing is rescaled by the host speed sampled over the
    # set-up or pass it belongs to (see instrument.HostSpeed).
    setup_factors = [host.factor(b, e) for _, b, e in setups]
    factors = [host.factor(b, e) for _, b, e in timed]
    print(f"{workload.name}: seed {args.seed}, {len(passes)} passes, "
          f"{SETUPS} set-ups, {len(host.samples)} host-speed samples; "
          "host factor " + ", ".join(f"{f:.3f}"
                                     for f in setup_factors + factors))
    report = Report()
    report.add("setup_s", statistics.median(
        s * f for (s, _, _), f in zip(setups, setup_factors)), "s",
        "raw " + ", ".join(f"{s:.3f}" for s, _, _ in setups))
    report.add("wall_s", statistics.median(
        p.wall * f for p, f in zip(passes, factors)), "s",
        "raw " + ", ".join(f"{p.wall:.3f}" for p in passes))
    report.add("compile_s", statistics.median(
        p.compile_seconds * f for p, f in zip(passes, factors)), "s",
        "inside Compiler.compile; raw " + ", ".join(
            f"{p.compile_seconds:.3f}" for p in passes))
    latencies = [(ms * f, op) for p, f in zip(passes, factors)
                 for ms, op in p.latencies]
    unit_label = workload.latency_unit
    complete = bool(latencies)
    if complete:
        complete = report.add_tail("latency_ms_p50", latencies, 50,
                                   unit_label)
        complete = report.add_tail("latency_ms_p90", latencies, 90,
                                   unit_label) and complete
    # Host contention only ever adds time, so a program run that
    # recurs in several passes keeps its fastest tier-up.
    tierups = {}
    for result, factor in zip(passes, factors):
        for key, ms in result.tierups_ms.items():
            tierups[key] = min(tierups.get(key, math.inf), ms * factor)
    report.add("tierup_ms_p50", statistics.median(tierups.values()), "ms",
               f"n={len(tierups)} program runs, fastest of "
               f"{len(passes)} passes")
    report.add("peak_rss_mb", peak_rss_mb(), "MB")
    report.add("code_nodes", passes[0].code_nodes, "count")
    report.add("ok_pct", 100.0 * (attempted - failed) / attempted, "%",
               f"{attempted - failed} of {attempted} operations")
    digest = hashlib.sha256(
        repr(passes[0].fingerprint).encode()).hexdigest()[:16]
    print(f"  deterministic outputs digest {digest}")
    if "columns" in passes[0].extra:
        print("  " + ", ".join(
            f"{k} {v:.4f}"
            for k, v in sim_ratios(passes[0].extra["columns"]).items()))
    for problem in problems[:20]:
        print(f"  FAILED {problem}")
    return {"correct": not problems and complete,
            "attempted": attempted, "failed": failed,
            "metrics": report.metrics}


def per_layer(workload, args, probes) -> dict:
    from instrument import Tracer

    begun = perf_counter()
    state = workload.setup()
    setup_s = perf_counter() - begun
    probes.clear()
    settle_heap()
    rng = random.Random(args.seed)
    plain = workload.run_pass(state, rng, probes)
    with Tracer() as tracer:
        with tracer.span("pass", workload.name):
            traced = workload.run_pass(state, rng, probes, tracer)
    problems = check_passes([plain, traced])
    layers = tracer.layer_totals()

    def seconds(layer):
        return layers.get(layer, [0, 0.0])[1]

    def calls(layer):
        return layers.get(layer, [0, 0.0])[0]

    print(f"{workload.name}: seed {args.seed}, traced pass "
          f"{traced.wall:.3f} s, untraced pass {plain.wall:.3f} s, "
          f"set-up {setup_s:.3f} s")
    print("  self seconds by (target, calling layer):")
    ranked = sorted(tracer.calls.items(), key=lambda kv: -kv[1][2])
    for (name, caller), (count, total, self_s) in ranked[:25]:
        print(f"    {name:40s} <- {caller:22s} {count:9d} calls "
              f"{total:9.3f} s total {self_s:9.3f} s self")
    report = Report()
    report.add("frontend.build_graph_s", seconds("frontend.build_graph"), "s")
    report.add("frontend.graphs", calls("frontend.build_graph"), "count")
    for phase in ("inlining", "canonicalize", "gvn",
                  "conditional_elimination", "dce", "read_elimination",
                  "stack_allocation"):
        report.add(f"opt.{phase}_s", seconds(f"opt.{phase}"), "s")
        report.add(f"opt.{phase}_calls", calls(f"opt.{phase}"), "count")
    report.add("pea.partial_escape_s", seconds("pea.partial_escape"), "s")
    report.add("pea.equi_escape_s", seconds("pea.equi_escape"), "s")
    report.add("analysis.summaries_s", seconds("analysis.summaries"), "s")
    report.add("analysis.conngraph_s", seconds("analysis.conngraph"), "s")
    report.add("ir.verify_s", seconds("ir.verify"), "s")
    report.add("ir.verify_calls", calls("ir.verify"), "count")
    report.add("runtime.lower_s", seconds("runtime.lower"), "s")
    report.add("runtime.lowerings", calls("runtime.lower"), "count")
    report.add("runtime.bind_s", seconds("runtime.bind"), "s")
    report.add("runtime.exec_self_s", seconds("runtime.exec"), "s")
    report.add("jit.dispatch_self_s", seconds("jit.dispatch"), "s")
    report.add("jit.dispatches", tracer.count("VM.call_method"), "count")
    report.add("bytecode.heap_alloc_s", seconds("bytecode.heap_alloc"), "s")
    report.add("bytecode.heap_allocs", calls("bytecode.heap_alloc"), "count")
    report.add("runtime.gcsim_s", seconds("runtime.gcsim"), "s")
    report.add("runtime.gc_minor", tracer.count("GCSim._minor_collection"),
               "count")
    report.add("host.pygc_s", tracer.pygc_seconds, "s",
               "inside the layers above, not added to them")
    report.add("host.pygc_gen2", tracer.pygc_collections[2], "count")
    report.add("bytecode.interp_self_s", seconds("bytecode.interp"), "s")
    report.add("jit.cache_store_s", seconds("jit.cache_store"), "s")
    report.add("jit.cache_stores", tracer.count("CompilationCache.store"),
               "count")
    cache = traced.extra.get("cache")
    hits = cache.hits if cache is not None else 0
    lookups = hits + cache.misses if cache is not None else 0
    report.add("jit.cache_lookup_s", seconds("jit.cache_lookup"), "s")
    report.add("jit.cache_hits", hits, "count")
    report.add("jit.cache_hit_ratio", hits / lookups if lookups else 0.0,
               "ratio", f"{lookups} lookups")
    report.add("jit.warmup_elided", traced.extra.get("elided", 0), "count")
    report.add("runtime.deopts", tracer.count("Deoptimizer.deoptimize"),
               "count")
    report.add("runtime.deopt_s", seconds("runtime.deopt"), "s")
    report.add("lang.compile_source_s", seconds("lang.compile_source"), "s")
    report.add("jit.compile_self_s", seconds("jit.compile"), "s")
    report.add("jit.vm_init_s", seconds("jit.vm"), "s")
    report.add("benchsuite.harness_self_s", seconds("benchsuite.harness"),
               "s")
    unattributed = traced.wall - tracer.attributed_seconds()
    report.add("trace.unattributed_pct",
               100.0 * unattributed / traced.wall, "%",
               "timed pass time outside every layer's self time")
    report.add("trace.overhead_pct",
               100.0 * (traced.wall - plain.wall) / plain.wall, "%",
               "traced pass over untraced pass")
    report.add("src.lines", src_lines(), "lines")
    ratios = sim_ratios(traced.extra["columns"]) \
        if "columns" in traced.extra else {}
    for name in ("sim.cycles_ratio_pct", "sim.alloc_ratio_pct",
                 "sim.kb_ratio_pct"):
        report.add(name, ratios.get(name, 0.0), "%",
                   "" if ratios else "corpus-cold only")
    coarse = [s for s in tracer.spans if s is not None]
    print(f"  {len(coarse)} coarse spans recorded; slowest:")
    for span_record in sorted(coarse, key=lambda s: s[4] - s[5])[:5]:
        span_id, kind, name, parent, start, end, self_s = span_record
        print(f"    #{span_id} {kind} {name} (parent #{parent}) "
              f"{end - start:.3f} s, self {self_s:.3f} s")
    for problem in problems[:20]:
        print(f"  FAILED {problem}")
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": report.metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("corpus-cold", "compile-churn",
                                 "steady-warm"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # The shipped default: the full IR verifier only runs when asked.
    os.environ.pop("REPRO_VERIFY_IR", None)

    from instrument import Probes
    from workloads import WORKLOADS

    scratch = ROOT / ".perfbench-tmp" / str(os.getpid())
    scratch.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](str(scratch))
        with Probes() as probes:
            if args.trace:
                result = per_layer(workload, args, probes)
            else:
                result = end_to_end(workload, args, probes, started)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    print(f"  run took {perf_counter() - started:.1f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
