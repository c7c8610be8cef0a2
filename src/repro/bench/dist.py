"""Distributed comm-volume benchmark & CI gate (``BENCH_dist.json``).

Runs the comm-optimizer corpus (jacobi / pgemm / pgemv) on 4 simulated
ranks, eager and optimized, and records per-kernel communication volume,
message counts, wait time, modeled wall time and the netmodel-predicted
benefit of each optimization under schema ``repro-bench-dist/1``; the
printed table is the planned-vs-eager comm report::

    python -m repro.bench.dist                                # measure
    python -m repro.bench.dist --check benchmarks/BENCH_dist_baseline.json
    python -m repro.bench.dist --update-baseline              # refresh

``messages`` is the simulator's own count
(``DistributedResult.comm_stats["messages"]``), the definition the
``benchmarks/e2e`` ``simmpi.messages`` metric reads.

The ``--check`` gate fails (exit 1) when any kernel's **optimized** comm
volume regresses more than ``--tolerance`` (default 10%) over the
committed baseline — the dedup/coalescing savings are deterministic under
the simulator, so growth means an optimization stopped firing.  It also
fails if an optimized run's outputs diverge bitwise from the eager run,
or if jacobi stops showing measured overlap (optimized wait must stay
below the eager exchange wait).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

import numpy as np

from ..config import Config
from ..distributed.commopt.corpus import KERNELS, run_kernel

__all__ = ["measure", "check", "main", "SCHEMA"]

SCHEMA = "repro-bench-dist/1"
DEFAULT_OUTPUT = "BENCH_dist.json"
DEFAULT_BASELINE = "benchmarks/BENCH_dist_baseline.json"

#: modeled stencil rate: slow enough that the interior credit exceeds the
#: message latency at the toy sizes, so the overlap is visible in the gate
STENCIL_GFLOPS = 1e-4


def _side(report, result) -> Dict[str, Any]:
    return {
        "comm_bytes": report.total_bytes,
        "messages": int(result.comm_stats.get("messages", 0)),
        "wait_s": report.total_wait_s,
        "halo_wait_s": report.wait_s("HaloExchange")
        + report.wait_s("HaloFinish"),
        "modeled_time_s": result.modeled_time,
        "applied": dict(report.applied),
        "commopt": {k: v for k, v in report.commopt.items() if v},
        "predicted_overlap_s": report.predicted_overlap_s,
        "predicted_dedup_s": report.predicted_dedup_s,
    }


def measure(ranks: int = 4, seed: int = 0) -> Dict[str, Any]:
    """Run every corpus kernel eager and optimized; returns the artifact."""
    kernels: Dict[str, Any] = {}
    for name in KERNELS:
        with Config.override(commopt__stencil_gflops=STENCIL_GFLOPS):
            out_e, r_e = run_kernel(name, size=ranks, optimize=False,
                                    seed=seed)
            out_o, r_o = run_kernel(name, size=ranks, optimize=True,
                                    seed=seed)
        bitwise = all(np.array_equal(out_e[k], out_o[k]) for k in out_e)
        eager = _side(r_e.comm_report, r_e)
        opt = _side(r_o.comm_report, r_o)
        saved = eager["comm_bytes"] - opt["comm_bytes"]
        kernels[name] = {
            "eager": eager,
            "optimized": opt,
            "bitwise_equal": bool(bitwise),
            "comm_bytes_saved": saved,
            "comm_bytes_saved_pct": (100.0 * saved / eager["comm_bytes"]
                                     if eager["comm_bytes"] else 0.0),
        }
    return {"schema": SCHEMA, "ranks": ranks, "seed": seed,
            "stencil_gflops": STENCIL_GFLOPS, "kernels": kernels}


def check(result: Dict[str, Any], baseline: Dict[str, Any],
          tolerance: float = 0.10) -> List[str]:
    """Gate *result* against *baseline*; returns failure messages."""
    failures: List[str] = []
    for name, cur in result["kernels"].items():
        if not cur["bitwise_equal"]:
            failures.append(f"{name}: optimized outputs diverge bitwise "
                            f"from the eager run")
        base = baseline.get("kernels", {}).get(name)
        if base is None:
            failures.append(f"{name}: missing from baseline "
                            f"(run --update-baseline)")
            continue
        cur_bytes = cur["optimized"]["comm_bytes"]
        base_bytes = base["optimized"]["comm_bytes"]
        if base_bytes and cur_bytes > base_bytes * (1.0 + tolerance):
            failures.append(
                f"{name}: optimized comm volume regressed "
                f"{cur_bytes} B vs baseline {base_bytes} B "
                f"(+{100.0 * (cur_bytes / base_bytes - 1.0):.1f}%, "
                f"tolerance {100.0 * tolerance:.0f}%)")
    jac = result["kernels"].get("jacobi")
    if jac is not None:
        eager_wait = jac["eager"]["halo_wait_s"]
        opt_wait = jac["optimized"]["halo_wait_s"]
        if eager_wait > 0.0 and opt_wait >= eager_wait:
            failures.append(
                f"jacobi: no measured overlap (optimized halo wait "
                f"{opt_wait * 1e6:.1f}us >= eager {eager_wait * 1e6:.1f}us)")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.dist",
        description="Distributed comm-volume benchmark (eager vs. "
                    "comm-optimized) and CI regression gate.")
    parser.add_argument("--ranks", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help=f"artifact path (default: {DEFAULT_OUTPUT})")
    parser.add_argument("--check", default="", metavar="BASELINE",
                        help="gate against a committed baseline; exit "
                             "non-zero on comm-volume regression, lost "
                             "overlap, or bitwise divergence")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed optimized comm-volume growth for "
                             "--check (default: 0.10)")
    parser.add_argument("--update-baseline", nargs="?",
                        const=DEFAULT_BASELINE, default="", metavar="PATH",
                        help=f"also write the artifact as the committed "
                             f"baseline (default path: {DEFAULT_BASELINE})")
    args = parser.parse_args(argv)

    result = measure(ranks=args.ranks, seed=args.seed)
    with open(args.output, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"planned vs. eager comm ({result['ranks']} simulated ranks)")
    print(f"{'kernel':<8} {'':<9} {'bytes':>8} {'msgs':>5} {'wait':>10} "
          f"{'halo wait':>10}  predicted benefit")
    for name, k in result["kernels"].items():
        for side in ("eager", "optimized"):
            s = k[side]
            print(f"{name if side == 'eager' else '':<8} {side:<9} "
                  f"{s['comm_bytes']:>8} {s['messages']:>5} "
                  f"{s['wait_s'] * 1e6:>8.1f}us "
                  f"{s['halo_wait_s'] * 1e6:>8.1f}us  "
                  f"overlap {s['predicted_overlap_s'] * 1e6:.1f}us, "
                  f"dedup {s['predicted_dedup_s'] * 1e6:.1f}us")
        applied = ", ".join(f"{p}={n}" for p, n
                            in k["optimized"]["applied"].items() if n)
        print(f"{'':<8} {applied or 'nothing applied'}; "
              f"saved {k['comm_bytes_saved_pct']:.1f}%; "
              f"bitwise={'ok' if k['bitwise_equal'] else 'DIVERGED'}")
    print(f"wrote {args.output}")

    if args.update_baseline:
        with open(args.update_baseline, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"updated baseline {args.update_baseline}")

    if args.check:
        with open(args.check) as fh:
            baseline = json.load(fh)
        failures = check(result, baseline, tolerance=args.tolerance)
        if failures:
            for msg in failures:
                print(f"GATE FAILURE: {msg}", file=sys.stderr)
            return 1
        print(f"comm-volume gate passed against {args.check} "
              f"(tolerance {100.0 * args.tolerance:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
