"""Chaos sweep: randomized rank-crash plans over the distributed corpus.

``python -m repro.resilience chaos`` runs each comm-optimizer corpus kernel
(:mod:`repro.distributed.commopt.corpus`: the paper's explicit jacobi_2d,
the iterated pgemm pipeline, and the pgemv-based atax) once fault-free,
then under seeded single-crash :class:`~repro.simmpi.netmodel.FaultPlan`\\ s
with checkpointing enabled.
Every trial must (a) recover — the supervisor replays from the last
consistent checkpoint and the run completes — and (b) produce outputs
tolerance-equal to the fault-free run: replay from a consistent cut is
deterministic, so divergence indicates a broken snapshot/restore path.

Results are written to ``CHAOS.json`` (schema ``repro-chaos/1``); the
sweep exits non-zero if any recoverable plan goes unrecovered or any
recovered run diverges.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..config import Config
from ..distributed.commopt.corpus import KERNELS, run_kernel
from ..simmpi.netmodel import FaultPlan

__all__ = ["ChaosCase", "CASES", "chaos_sweep", "SCHEMA"]

SCHEMA = "repro-chaos/1"

# tolerance for faulted-vs-fault-free comparison: replay is deterministic,
# so anything beyond accumulated float noise is a real divergence
RTOL, ATOL = 1e-10, 1e-12


@dataclass
class ChaosCase:
    """One corpus kernel on *size* simulated ranks."""

    name: str
    size: int = 4

    def run(self, fault_plan: Optional[FaultPlan], ckpt: Dict):
        """Run on fresh inputs; returns output arrays + the
        :class:`~repro.distributed.runner.DistributedResult`.  The ambient
        comm-optimizer setting decides whether the run is optimized."""
        return run_kernel(self.name, size=self.size, seed=0,
                          fault_plan=fault_plan,
                          optimize=bool(Config.get("commopt.enabled")),
                          **ckpt)


CASES: List[ChaosCase] = [ChaosCase(name) for name in KERNELS]


# -- the sweep ---------------------------------------------------------------


def _crash_plan(seed: int, size: int, op_counts: List[int]) -> FaultPlan:
    """A seeded single-crash plan guaranteed to fire: the crash site is
    drawn within the rank's fault-free communication-op count."""
    rng = random.Random(seed)
    rank = rng.randrange(size)
    after_ops = rng.randint(1, max(1, op_counts[rank] - 1))
    return FaultPlan(seed=seed, crashes=[(rank, after_ops)])


def chaos_sweep(seeds: int = 8, ckpt_interval: int = 2,
                ckpt_comm_ops: int = 0, max_restarts: int = 3,
                timeout_s: float = 30.0, out: str = "CHAOS.json",
                case_names: Optional[List[str]] = None,
                verbose: bool = True) -> Dict:
    """Run the corpus under seeded crash plans; write *out*; return report."""
    from ..simmpi.comm import SimMPIError

    cases = [c for c in CASES
             if case_names is None or c.name in case_names]
    ckpt = {"ckpt_interval": ckpt_interval, "ckpt_comm_ops": ckpt_comm_ops,
            "max_restarts": max_restarts, "timeout_s": timeout_s}
    report_cases = []
    totals = {"trials": 0, "recovered": 0, "unrecovered": 0, "diverged": 0,
              "vacuous": 0}
    for case in cases:
        baseline_out, baseline = case.run(None, {"timeout_s": timeout_s})
        trials = []
        for seed in range(seeds):
            plan = _crash_plan(seed, case.size, baseline.op_counts)
            (crash_rank, crash_after), = plan.crash_sites
            trial = {"seed": seed, "crash_rank": crash_rank,
                     "crash_after_ops": crash_after, "crashes_fired": 0,
                     "recovered": False, "restarts": 0, "checkpoints": 0,
                     "max_abs_err": None, "within_tolerance": False,
                     "error": None}
            totals["trials"] += 1
            try:
                outs, result = case.run(plan, ckpt)
            except SimMPIError as exc:
                trial["error"] = f"{type(exc).__name__}: {exc}"
                totals["unrecovered"] += 1
            else:
                trial["recovered"] = True
                trial["restarts"] = len([e for e in result.recovery_events
                                         if e.kind.startswith("restart")])
                trial["failed_ranks"] = result.failed_ranks
                err = max(float(np.abs(outs[k] - baseline_out[k]).max())
                          for k in baseline_out)
                trial["max_abs_err"] = err
                trial["within_tolerance"] = all(
                    np.allclose(outs[k], baseline_out[k],
                                rtol=RTOL, atol=ATOL)
                    for k in baseline_out)
                if trial["within_tolerance"]:
                    totals["recovered"] += 1
                else:
                    totals["diverged"] += 1
            trial["crashes_fired"] = plan.injected["crashes"]
            if trial["crashes_fired"] == 0:
                # the plan never fired: the trial proves nothing
                totals["vacuous"] += 1
            if verbose:
                status = ("ok" if trial["recovered"]
                          and trial["within_tolerance"] else "FAIL")
                print(f"  {case.name} seed={seed} crash=(rank {crash_rank}, "
                      f"op {crash_after}) fired={trial['crashes_fired']} "
                      f"restarts={trial['restarts']} "
                      f"err={trial['max_abs_err']} -> {status}")
            trials.append(trial)
        report_cases.append({
            "name": case.name, "size": case.size,
            "baseline_op_counts": list(baseline.op_counts),
            "trials": trials,
        })
    report = {
        "schema": SCHEMA,
        "seeds": seeds,
        "ckpt_interval": ckpt_interval,
        "ckpt_comm_ops": ckpt_comm_ops,
        "max_restarts": max_restarts,
        "cases": report_cases,
        "summary": totals,
    }
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
    if verbose:
        print(f"chaos: {totals['trials']} trials, "
              f"{totals['recovered']} recovered, "
              f"{totals['unrecovered']} unrecovered, "
              f"{totals['diverged']} diverged, "
              f"{totals['vacuous']} vacuous -> {out}")
    return report
