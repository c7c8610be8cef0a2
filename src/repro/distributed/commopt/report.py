"""Comm accounting report (schema ``repro-comm/1``).

Builds a :class:`CommReport` from the simulator's per-op counters
(:attr:`~repro.simmpi.comm._World.op_stats`) and the optimizer effect
counters (``commopt_stats``), plus a :class:`~repro.simmpi.netmodel.NetModel`
prediction of what the optimizations are worth:

* ``predicted_overlap_s`` — the eager exchange wait the overlap rewrite
  can hide (bounded by the interior compute credit actually banked);
* ``predicted_dedup_s`` — wire time of the bytes the dedup memo elided.

Attached to :class:`~repro.distributed.runner.DistributedResult` as
``comm_report``; ``python -m repro.bench.dist`` prints it planned vs. eager.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

__all__ = ["CommReport", "build_report", "SCHEMA"]

SCHEMA = "repro-comm/1"


@dataclass
class CommReport:
    """Per-operation communication accounting for one distributed run."""

    #: op name -> {"count": int, "bytes": int, "wait_s": float}
    ops: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: optimizer effect counters (dedup_hits, dedup_bytes_saved,
    #: coalesced_messages, overlap_credit_s)
    commopt: Dict[str, float] = field(default_factory=dict)
    #: was optimize_comm applied to the executed SDFG?
    optimized: bool = False
    #: per-pass application counts ({"overlap": n, "dedup": m})
    applied: Dict[str, int] = field(default_factory=dict)
    #: netmodel predictions (seconds)
    predicted_overlap_s: float = 0.0
    predicted_dedup_s: float = 0.0

    # ------------------------------------------------------------- queries
    @property
    def total_bytes(self) -> int:
        return int(sum(st.get("bytes", 0) for st in self.ops.values()))

    @property
    def total_wait_s(self) -> float:
        return float(sum(st.get("wait_s", 0.0) for st in self.ops.values()))

    def wait_s(self, op: str) -> float:
        return float(self.ops.get(op, {}).get("wait_s", 0.0))

    def count(self, op: str) -> int:
        return int(self.ops.get(op, {}).get("count", 0))

    # ------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA,
            "ops": {op: dict(st) for op, st in sorted(self.ops.items())},
            "commopt": dict(self.commopt),
            "optimized": self.optimized,
            "applied": dict(self.applied),
            "predicted_overlap_s": self.predicted_overlap_s,
            "predicted_dedup_s": self.predicted_dedup_s,
            "total_bytes": self.total_bytes,
            "total_wait_s": self.total_wait_s,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "CommReport":
        return cls(
            ops={op: dict(st) for op, st in d.get("ops", {}).items()},
            commopt=dict(d.get("commopt", {})),
            optimized=bool(d.get("optimized", False)),
            applied=dict(d.get("applied", {})),
            predicted_overlap_s=float(d.get("predicted_overlap_s", 0.0)),
            predicted_dedup_s=float(d.get("predicted_dedup_s", 0.0)),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def summary(self) -> str:
        lines = [f"comm report ({'optimized' if self.optimized else 'eager'}"
                 f", {self.total_bytes} bytes on the wire, "
                 f"{self.total_wait_s * 1e6:.1f} us total wait)"]
        for op, st in sorted(self.ops.items()):
            lines.append(f"  {op:<16} x{int(st.get('count', 0)):<5} "
                         f"{int(st.get('bytes', 0)):>10} B "
                         f"{st.get('wait_s', 0.0) * 1e6:>10.1f} us wait")
        if self.commopt:
            interesting = {k: v for k, v in sorted(self.commopt.items()) if v}
            if interesting:
                lines.append("  optimizer: " + ", ".join(
                    f"{k}={v:g}" for k, v in interesting.items()))
        if self.predicted_overlap_s or self.predicted_dedup_s:
            lines.append(
                f"  predicted benefit: overlap "
                f"{self.predicted_overlap_s * 1e6:.1f} us, dedup "
                f"{self.predicted_dedup_s * 1e6:.1f} us")
        return "\n".join(lines)


def build_report(op_stats: Dict[str, Dict[str, float]],
                 commopt_stats: Dict[str, float],
                 optimized: bool = False,
                 applied: Optional[Dict[str, int]] = None,
                 net=None, size: int = 1) -> CommReport:
    """Assemble a :class:`CommReport` from the world counters.

    *net* (a :class:`~repro.simmpi.netmodel.NetModel`; defaults to the
    configured one) prices the predictions: the overlap prediction is the
    halo wait the rewrite targets (capped by the banked compute credit),
    the dedup prediction is the wire time of the saved bytes.
    """
    if net is None:
        from ...simmpi.netmodel import NetModel

        net = NetModel.from_config()
    report = CommReport(
        ops={op: dict(st) for op, st in (op_stats or {}).items()},
        commopt=dict(commopt_stats or {}),
        optimized=optimized,
        applied=dict(applied or {}),
    )
    # overlap: the eager wait (or, in an optimized run, the wait that is
    # left plus what the credit already hid) bounded by the banked credit
    halo_wait = report.wait_s("HaloExchange") + report.wait_s("HaloFinish")
    credit = float(report.commopt.get("overlap_credit_s", 0.0))
    if optimized:
        # benefit realized: compute time banked against the message flight
        report.predicted_overlap_s = credit
    else:
        # an eager run: everything the rewrite could hide, assuming enough
        # interior work — the whole measured exchange wait
        report.predicted_overlap_s = halo_wait
    saved = float(report.commopt.get("dedup_bytes_saved", 0.0))
    if saved:
        hits = max(1, int(report.commopt.get("dedup_hits", 1)))
        per_hit = saved / hits
        report.predicted_dedup_s = hits * net.scatter(int(per_hit),
                                                      max(2, size))
    return report
