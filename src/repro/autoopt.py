"""Automatic optimization heuristics (§3.1, the -O3 analogue).

``auto_optimize`` runs, in order:

1. **Map scope cleanup** — remove degenerate (size-1) maps, repeatedly apply
   *LoopToMap*, and collapse nested maps into multidimensional maps.
2. **Greedy subgraph fusion** — fuse the largest contiguous map subgraphs
   sharing (a subset of) the same iteration space.
3. **Tile WCR maps** — tile parallel maps with write-conflicts to reduce
   atomic operations.
4. **Transient allocation mitigation** — move small constant-sized arrays to
   the stack and make input-sized temporaries persistent.

Device-specific passes follow: OpenMP-collapse for CPU, the
``{GPU,FPGA}TransformSDFG`` passes for accelerators, and finally library
nodes are specialized using the per-platform priority lists (§3.2).

Each step runs as one run of the pipeline's
:class:`repro.transformations.pipeline.PassTransaction`: a step that raises,
leaves an invalid graph behind, or introduces a provable race is rolled back
and recorded in the :class:`repro.resilience.FailureReport`, and
optimization continues with the remaining steps — an optimization failure
degrades the result, it does not corrupt it.
"""

from __future__ import annotations

from .config import Config

__all__ = ["auto_optimize", "AUTOOPT_STEPS"]

#: the named steps, in pipeline order — the one declaration: ``passes=``
#: keys, the step bodies below and the oracle's bisection all refer to it
AUTOOPT_STEPS = ("cleanup", "loop_to_map", "collapse", "fusion", "tile_wcr",
                 "transients", "device", "library", "commopt")


def auto_optimize(sdfg, device: str = "CPU", use_fast_library: bool = True,
                  passes: dict = None, report=None):
    """Auto-optimize *sdfg* in place for *device*; returns the SDFG.

    ``passes`` optionally disables individual steps (for the ablation
    benchmarks), e.g. ``passes={"fusion": False}``.  ``report`` optionally
    collects rolled-back steps in a :class:`repro.resilience.FailureReport`.
    """
    from .transformations.dataflow.cleanup import DegenerateMapRemoval
    from .transformations.dataflow.loop_to_map import LoopToMap
    from .transformations.dataflow.map_collapse import MapCollapse
    from .transformations.dataflow.map_fusion import GreedySubgraphFusion
    from .transformations.dataflow.map_tiling import TileWCRMaps
    from .transformations.dataflow.transient_alloc import TransientAllocationMitigation
    from .transformations.device import (CPUParallelize, FPGATransformSDFG,
                                         GPUTransformSDFG,
                                         StreamingComposition)
    from .transformations.pipeline import PassTransaction

    enabled = dict.fromkeys(AUTOOPT_STEPS, True)
    # distributed SDFGs only, opt-in — run_distributed applies the
    # communication optimizer (§13) independently of -O3
    enabled["commopt"] = Config.get("commopt.enabled")
    enabled.update(passes or {})

    device_passes = {"CPU": (CPUParallelize,),
                     "GPU": (GPUTransformSDFG,),
                     "FPGA": (FPGATransformSDFG, StreamingComposition)}
    if enabled["device"] and device not in device_passes:
        # a bad device name is a caller error, never a step failure to absorb
        raise ValueError(f"unknown device {device!r}")

    txn = PassTransaction(sdfg, report=report)

    # step bodies return their application count (0: nothing to check) and
    # make their own changes before a nested ``txn.simplify()``

    def loop_to_map() -> int:
        converted = 0
        while (not txn.exhausted(converted, ("LoopToMap",))
               and LoopToMap.apply_once(sdfg)):
            converted += 1
            txn.simplify()
        return converted

    def fusion() -> int:
        return GreedySubgraphFusion.apply_repeated(sdfg) + txn.simplify()

    def device_specific() -> int:
        return sum(t.apply_repeated(sdfg) for t in device_passes[device])

    def library() -> int:
        # library specialization (§3.2)
        if use_fast_library:
            applied = sdfg.expand_library_nodes(device=device)
        else:
            applied = sdfg.expand_library_nodes(implementation="native")
        # expansions may introduce WCR maps (native reductions): tile them too
        if enabled["tile_wcr"]:
            applied += TileWCRMaps.apply_repeated(sdfg)
        return applied

    def commopt() -> int:
        from .distributed.commopt import optimize_comm

        return sum(optimize_comm(sdfg).values())

    # a step that is one pass is skipped, snapshot and all, unless it matches
    steps = {
        "cleanup": DegenerateMapRemoval,                # (1) map scope cleanup
        "loop_to_map": loop_to_map,
        "collapse": MapCollapse,
        "fusion": fusion,                               # (2) subgraph fusion
        "tile_wcr": TileWCRMaps,                        # (3) tile WCR maps
        "transients": TransientAllocationMitigation,    # (4) allocation
        "device": device_specific,
        "library": library,
        "commopt": commopt,
    }
    for name in AUTOOPT_STEPS:
        if not enabled[name]:
            continue
        if isinstance(steps[name], type):
            txn.apply(steps[name], step=name)
        else:
            txn.run(name, steps[name])
    return sdfg
