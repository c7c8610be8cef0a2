"""The traced run: per-layer metrics from spans the harness records around
its own calls into each layer's public functions.

    row > compile > frontend.parse | transformations.simplify | cache.key |
                    transformations.autoopt | ir.validate | codegen.generate
    row > call    > frontend.lookup | runtime.prepare | runtime.run
    row > dist    > distributed.commopt | distributed.compile | simmpi.sim

Spans stay in memory and are written to ``trace-<workload>.json`` when the
run ends; a layer's self time is its span minus the part its children cover.
Spans inside the program are a later change (ROADMAP item D).
"""

import contextlib
import json
import os
import statistics
import time
from collections import defaultdict
from typing import Any, Dict, List, Optional

import numpy as np

import repro
from repro import cache
from repro.autoopt import auto_optimize
from repro.codegen import compile_sdfg
from repro.config import Config
from repro.distributed.commopt import optimize_comm
from repro.runtime import parallel
from repro.runtime.executor import prepare_arguments

import harness
from distrows import DistUnit
from harness import Variant
from rows import ProgramUnit, make_units, optimized

#: decomposed compiles per unit (each layer's value = median)
COMPILE_TRACE_REPS = 3
#: timed blocks per row in the call-layer round
BLOCKS_PER_ROW = 5


class Tracer:
    """In-memory span recorder: ``{id, name, parent, row, start, end}``."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, row: Optional[str] = None):
        parent = self._open[-1] if self._open else None
        if row is None and parent is not None:
            row = self.spans[parent]["row"]
        record = {"id": len(self.spans), "name": name, "parent": parent,
                  "row": row, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str, row: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["row"] == row]

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per span name: duration minus child durations."""
        children = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]] += s["end"] - s["start"]
        totals: Dict[str, float] = defaultdict(float)
        for s in self.spans:
            totals[s["name"]] += s["end"] - s["start"] - children[s["id"]]
        return dict(totals)

    def write(self, path: str, **header) -> None:
        with open(path, "w") as fh:
            json.dump({**header, "self_s": self.self_seconds(),
                       "spans": self.spans}, fh)


class Layers:
    """Accumulates layer metrics: sums over rows, and per-call medians that
    are averaged over rows at the end (geometric mean unless noted)."""

    def __init__(self) -> None:
        self.sums: Dict[str, float] = defaultdict(float)
        self.per_call: Dict[str, List[float]] = defaultdict(list)

    def value(self, name: str) -> float:
        if name in self.per_call:
            values = self.per_call[name]
            # a difference of two medians: may be <= 0 within noise
            if name == "frontend.call_overhead_s":
                return statistics.fmean(values)
            return harness.geomean(values)
        return float(self.sums.get(name, 0.0))


def _median_span(tracer: Tracer, name: str, row: str) -> float:
    durations = tracer.durations(name, row)
    return statistics.median(durations) if durations else 0.0


def _count_nodes(sdfg) -> int:
    return sum(1 for _ in sdfg.all_nodes_recursive())


def _source_counts(layers: Layers, artifacts) -> None:
    for compiled in artifacts:
        layers.sums["codegen.source_bytes"] += len(compiled.source.encode())
        layers.sums["codegen.source_lines"] += compiled.source.count("\n")
        layers.sums["codegen.closure_nodes"] += len(compiled.closure_specs)
        layers.sums["transformations.sdfg_nodes_after"] += \
            _count_nodes(compiled.sdfg)


def _parsed_counts(layers: Layers, parsed) -> None:
    layers.sums["frontend.sdfg_states"] += parsed.number_of_states()
    layers.sums["frontend.sdfg_nodes"] += _count_nodes(parsed)
    layers.sums["library.nodes"] += len(parsed.library_nodes())


#: compile-layer spans whose per-unit medians become ``<name>_s`` metrics
COMPILE_SPANS = ("frontend.parse", "transformations.simplify", "cache.key",
                 "transformations.autoopt", "ir.validate")


def _compile_metrics(layers: Layers, tracer: Tracer, unit_name: str) -> None:
    for name in COMPILE_SPANS:
        layers.sums[f"{name}_s"] += _median_span(tracer, name, unit_name)
    # compile_sdfg(cache=False) validates before it generates
    reps = zip(tracer.durations("codegen.generate", unit_name),
               tracer.durations("ir.validate", unit_name))
    layers.sums["codegen.generate_s"] += statistics.median(
        generate - validate for generate, validate in reps)


# ---------------------------------------------------------------------------
# single-process units
# ---------------------------------------------------------------------------

def trace_program_compile(unit: ProgramUnit, tracer: Tracer,
                          layers: Layers, reps: int) -> None:
    """The compile pipeline of the row's first specialization, layer by
    layer, then the front door (miss, disk hit, memory hit)."""
    row = unit.rows[0]
    args = row.variants[0].args
    for rep in range(reps):
        with tracer.span("compile", row.name):
            program = optimized(unit.func)
            with tracer.span("frontend.parse"):
                sdfg = program.to_sdfg(**args, simplify=False)
            if rep == 0:
                _parsed_counts(layers, sdfg)
            with tracer.span("transformations.simplify"):
                sdfg.simplify()
            with tracer.span("cache.key"):
                cache.cache_key(sdfg, optimize="CPU")
            with tracer.span("transformations.autoopt"):
                opt = sdfg.clone()
                auto_optimize(opt, device="CPU")
            with tracer.span("ir.validate"):
                opt.validate()
            with tracer.span("codegen.generate"):
                compile_sdfg(opt, cache=False)
    _compile_metrics(layers, tracer, row.name)

    with tracer.span("compile.front_door", row.name):
        harness.timed_build(unit)
    program = row.op
    artifacts = {id(c): c for c in
                 (program.compile(**v.args) for v in row.variants)}
    _source_counts(layers, artifacts.values())
    sdfg = program.to_sdfg(**args)
    cache.get_store().clear_memory()
    for name in ("cache.disk_hit", "cache.memory_hit"):
        with tracer.span(name, row.name) as span:
            cache.cached_compile(sdfg, optimize="CPU")
        layers.sums[f"{name}_s"] += span["end"] - span["start"]


def trace_program_calls(unit: ProgramUnit, tracer: Tracer, layers: Layers,
                        block_s: float) -> int:
    row = unit.rows[0]
    program = row.op
    compiled = {id(v): program.compile(**v.args) for v in row.variants}
    prepared: Dict[int, Any] = {}

    def restore_and_prepare(v: Variant) -> None:
        v.restore()
        artifact = compiled[id(v)]
        prepared[id(v)] = prepare_arguments(artifact.sdfg, (), v.args)

    def traced_call(v: Variant) -> None:
        with tracer.span("call", row.name):
            with tracer.span("frontend.lookup"):
                artifact = program.compile(**v.args)
            with tracer.span("runtime.prepare"):
                containers, symbols = prepare_arguments(
                    artifact.sdfg, (), v.args)
            with tracer.span("runtime.run"):
                v.result = artifact.run_prepared(containers, symbols)

    def parallel_run(v: Variant) -> None:
        compiled[id(v)].run_prepared(*prepared[id(v)])

    untraced = harness.op_block(row, block_s)
    direct = harness.timed_block(lambda v: compiled[id(v)](**v.args),
                                 row.variants, Variant.restore, block_s)
    traced = harness.timed_block(traced_call, row.variants, Variant.restore,
                                 block_s)
    problems = harness.verify(row)
    if problems:
        raise RuntimeError(f"traced call diverged: {problems}")
    numpy_floor = harness.ref_block(row, block_s)
    with Config.override(device__cpu_threads=2):
        threaded = harness.timed_block(parallel_run, row.variants,
                                       restore_and_prepare, block_s)
        parallel.reset_stats()
        first = row.variants[0]
        restore_and_prepare(first)
        parallel_run(first)
    layers.sums["runtime.parallel_regions"] += \
        parallel.stats().parallel_regions
    layers.sums["runtime.state_visits"] += \
        sum(compiled[id(first)].last_state_visits.values())

    median = statistics.median
    layers.per_call["frontend.lookup_s"].append(
        _median_span(tracer, "frontend.lookup", row.name))
    layers.per_call["runtime.prepare_s"].append(
        _median_span(tracer, "runtime.prepare", row.name))
    layers.per_call["runtime.run_s"].append(
        _median_span(tracer, "runtime.run", row.name))
    layers.per_call["frontend.call_overhead_s"].append(
        median(untraced) - median(direct))
    layers.per_call["runtime.parallel_run_s"].append(median(threaded))
    layers.per_call["library.numpy_floor_s"].append(median(numpy_floor))
    layers.per_call["trace.overhead_ratio"].append(
        median(traced) / median(untraced))
    return (len(untraced) + len(direct) + len(traced) + len(threaded)) \
        * len(row.variants)


# ---------------------------------------------------------------------------
# distributed units
# ---------------------------------------------------------------------------

def trace_dist_compile(unit: DistUnit, tracer: Tracer, layers: Layers,
                       reps: int) -> None:
    for rep in range(reps):
        with tracer.span("compile", unit.name):
            program = repro.program(unit.func)
            with tracer.span("frontend.parse"):
                parsed = program.to_sdfg(simplify=False)
            if rep == 0:
                _parsed_counts(layers, parsed)
            with tracer.span("transformations.simplify"):
                parsed.simplify()
            with tracer.span("distributed.distribute"):
                sdfg = parsed.clone()
                if unit.distribute is not None:
                    unit.distribute(sdfg)
            with tracer.span("cache.key"):
                cache.cache_key(sdfg)
            with tracer.span("ir.validate"):
                sdfg.validate()
            with tracer.span("codegen.generate"):
                compile_sdfg(sdfg, cache=False)
    _compile_metrics(layers, tracer, unit.name)

    with tracer.span("compile.front_door", unit.name):
        harness.timed_build(unit)
    optimized_sdfg = unit.sdfg.clone()
    applied = optimize_comm(optimized_sdfg)
    layers.sums["distributed.overlap_applied"] += applied["overlap"]
    layers.sums["distributed.dedup_applied"] += applied["dedup"]
    cache.get_store().clear_memory()
    artifacts = []
    for graph in (unit.sdfg, optimized_sdfg):
        for name in ("cache.disk_hit", "cache.memory_hit"):
            with tracer.span(name, unit.name) as span:
                artifact = cache.cached_compile(graph)
            layers.sums[f"{name}_s"] += span["end"] - span["start"]
        artifacts.append(artifact)
    _source_counts(layers, artifacts)


def trace_dist_calls(unit: DistUnit, tracer: Tracer, layers: Layers,
                     block_s: float) -> int:
    sdfg = unit.sdfg
    attempted = 0
    for row, optimize in zip(unit.rows, (False, True)):
        results = []

        def traced_call(v: Variant) -> None:
            # what run_distributed does before it launches the ranks, timed
            # from outside on a clone, then the launch itself
            with tracer.span("dist", row.name):
                graph = sdfg
                if optimize:
                    with tracer.span("distributed.commopt"):
                        graph = sdfg.clone()
                        optimize_comm(graph)
                with tracer.span("distributed.compile"):
                    compile_sdfg(graph)
                with tracer.span("simmpi.sim"):
                    results.append(row.op(**v.args))

        untraced = harness.op_block(row, block_s)
        traced = harness.timed_block(traced_call, row.variants,
                                     Variant.restore, block_s)
        problems = harness.verify(row)
        if problems:
            raise RuntimeError(f"traced call diverged: {problems}")
        numpy_floor = harness.ref_block(row, block_s)
        attempted += len(untraced) + len(traced)

        commopt = _median_span(tracer, "distributed.commopt", row.name)
        compile_ = _median_span(tracer, "distributed.compile", row.name)
        sim = _median_span(tracer, "simmpi.sim", row.name)
        layers.sums["distributed.commopt_s"] += commopt
        layers.sums["distributed.compile_s"] += compile_
        layers.per_call["simmpi.sim_wall_s"].append(sim - commopt - compile_)
        layers.per_call["library.numpy_floor_s"].append(
            statistics.median(numpy_floor))
        layers.per_call["trace.overhead_ratio"].append(
            statistics.median(traced) / statistics.median(untraced))
        result = results[-1]
        layers.sums["simmpi.comm_bytes"] += result.comm_report.total_bytes
        layers.sums["simmpi.messages"] += result.comm_stats["messages"]
        layers.sums["simmpi.wait_model_s"] += result.comm_report.total_wait_s
        layers.sums["distributed.modeled_time_s"] += result.modeled_time
        layers.sums["runtime.state_visits"] += \
            sum(result.state_visits.values())
    return attempted


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------

TRACERS = {ProgramUnit: (trace_program_compile, trace_program_calls),
           DistUnit: (trace_dist_compile, trace_dist_calls)}


def run_traced(args, out_dir: str):
    """Returns the layer metrics, the ops attempted and the verification
    failures; writes ``trace-<workload>.json`` into *out_dir*."""
    tracer, layers = Tracer(), Layers()
    units = make_units(args.workload, args.seed)
    rows = [row for unit in units for row in unit.rows]
    reps = 1 if args.quick else COMPILE_TRACE_REPS
    block_s = (harness.QUICK_BLOCK_S if args.quick
               else args.seconds / (len(rows) * BLOCKS_PER_ROW))
    problems: List[str] = []
    for unit in units:
        trace_compile, _ = TRACERS[type(unit)]
        trace_compile(unit, tracer, layers, reps)
        for row in unit.rows:
            problems.extend(harness.prime(row))
    attempted = 0
    order = np.random.default_rng([args.seed, 1]).permutation(len(units))
    for unit in (units[i] for i in order):
        _, trace_calls = TRACERS[type(unit)]
        attempted += trace_calls(unit, tracer, layers, block_s)

    stats = cache.stats()
    layers.sums["cache.disk_hits"] = stats.disk_hits
    layers.sums["cache.misses"] = stats.misses
    layers.sums["cache.entry_bytes"] = cache.get_store().disk_stats()["bytes"]

    path = os.path.join(out_dir, f"trace-{args.workload}.json")
    tracer.write(path, workload=args.workload, seed=args.seed)
    print(f"\n{len(tracer.spans)} spans -> {os.path.relpath(path)}")
    print(f"{'span':<28}{'self_s':>12}")
    for name, seconds in sorted(tracer.self_seconds().items()):
        print(f"{name:<28}{seconds:>12.4f}")
    return layers, attempted, problems
