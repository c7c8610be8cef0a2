"""Static memory admission control (DESIGN.md §12).

The SDFG model makes every allocation statically visible: data descriptors
carry symbolic shapes, and the multicore backend's extra buffers (per-chunk
WCR accumulators, privatized scope transients — see
:mod:`repro.runtime.parallel`) are derivable from the schedule.  The
admission planner walks those descriptors with the run's concrete symbol
bindings and produces an itemized :class:`MemoryPlan` *before* anything is
allocated; runs whose peak estimate exceeds ``Budget.max_bytes`` are
rejected with a structured :class:`MemoryBudgetExceeded` carrying the plan,
or — when ``governor.admission = "degrade"`` and a single-threaded plan
fits — auto-degraded to the serial tier (multicore dispatch disabled, which
drops the per-chunk accumulator/privatization overhead; the interpreter
tier has the same footprint).

The estimate is conservative-by-summation: all containers are counted as
live at once (transients with disjoint lifetimes are not overlapped), which
errs on the safe side for a budget check.  Shapes that cannot be evaluated
under the provided bindings (data-dependent bounds) are itemized with
``bytes = 0`` and a note, never silently dropped.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from .budget import ArmedBudget, Budget, GovernorError, armed

__all__ = [
    "PlanItem", "MemoryPlan", "MemoryBudgetExceeded", "AdmissionDecision",
    "plan_memory", "admit", "governed",
]


@dataclass
class PlanItem:
    """One planned allocation: a container, or a parallel-backend extra."""

    name: str
    kind: str          # "argument" | "transient" | "stream" |
                       # "wcr-accumulator" | "privatized-transient"
    bytes: int
    note: str = ""

    def to_dict(self) -> Dict[str, Any]:
        d = {"name": self.name, "kind": self.kind, "bytes": self.bytes}
        if self.note:
            d["note"] = self.note
        return d


@dataclass
class MemoryPlan:
    """Itemized peak-memory estimate for one SDFG under concrete symbols."""

    program: str
    threads: int
    items: List[PlanItem] = field(default_factory=list)

    @property
    def peak_bytes(self) -> int:
        return sum(item.bytes for item in self.items)

    def by_kind(self, kind: str) -> List[PlanItem]:
        return [i for i in self.items if i.kind == kind]

    def to_dict(self) -> Dict[str, Any]:
        return {"program": self.program, "threads": self.threads,
                "peak_bytes": self.peak_bytes,
                "items": [i.to_dict() for i in self.items]}

    def summary(self, limit: int = 8) -> str:
        ranked = sorted(self.items, key=lambda i: -i.bytes)
        lines = [f"{self.program or '<sdfg>'}: estimated peak "
                 f"{self.peak_bytes} bytes across {len(self.items)} "
                 f"container(s) at {self.threads} thread(s)"]
        for item in ranked[:limit]:
            note = f" ({item.note})" if item.note else ""
            lines.append(f"  {item.bytes:>12}  {item.kind:<20} "
                         f"{item.name}{note}")
        if len(ranked) > limit:
            lines.append(f"  ... and {len(ranked) - limit} more")
        return "\n".join(lines)


class MemoryBudgetExceeded(GovernorError):
    """Admission control rejected the run before allocation."""

    def __init__(self, program: str, plan: MemoryPlan, max_bytes: int,
                 serial_plan: Optional[MemoryPlan] = None):
        self.program = program
        self.plan = plan
        self.max_bytes = max_bytes
        self.serial_plan = serial_plan
        super().__init__(
            f"admission control rejected {program or '<sdfg>'}: planned "
            f"peak {plan.peak_bytes} bytes exceeds governor budget of "
            f"{max_bytes} bytes\n{plan.summary()}")

    def to_dict(self) -> Dict[str, Any]:
        d = {"error": "MemoryBudgetExceeded", "program": self.program,
             "max_bytes": self.max_bytes, "plan": self.plan.to_dict()}
        if self.serial_plan is not None:
            d["serial_plan"] = self.serial_plan.to_dict()
        return d


@dataclass
class AdmissionDecision:
    """Outcome of a successful admission check.

    ``action`` is ``"admit"`` (the full plan fits) or ``"degrade-serial"``
    (only the single-threaded plan fits: run with multicore dispatch
    disabled).  ``rejected`` keeps the over-budget plan for reporting when
    a degrade happened.
    """

    action: str
    plan: MemoryPlan
    rejected: Optional[MemoryPlan] = None

    def to_dict(self) -> Dict[str, Any]:
        d = {"action": self.action, "plan": self.plan.to_dict()}
        if self.rejected is not None:
            d["rejected"] = self.rejected.to_dict()
        return d


# ---------------------------------------------------------------------------
# the planner
# ---------------------------------------------------------------------------

def _eval_bytes(desc, env: Dict[str, int]) -> Optional[int]:
    """Evaluate a descriptor's symbolic byte size; None when unbound
    symbols (data-dependent shapes) make it unevaluable here."""
    try:
        return int(desc.size_bytes().evaluate(env))
    except Exception:
        return None


def _symbol_env(symbols: Dict[str, Any]) -> Dict[str, int]:
    env = {}
    for name, value in symbols.items():
        try:
            env[name] = int(value)
        except (TypeError, ValueError):
            continue
    return env


def plan_memory(sdfg, symbols: Dict[str, Any],
                threads: Optional[int] = None,
                _prefix: str = "") -> MemoryPlan:
    """Walk *sdfg*'s data descriptors (recursing into nested SDFGs) and the
    multicore schedule to produce an itemized peak-bytes plan.

    *threads* defaults to the resolved worker count
    (:func:`repro.runtime.parallel.configured_threads`); pass 1 to price the
    serial tier (no per-chunk accumulators or privatized copies).
    """
    from ..ir.data import Stream
    from ..ir.nodes import AccessNode, MapEntry, NestedSDFG, ScheduleType

    if threads is None:
        from ..runtime.parallel import configured_threads

        threads = configured_threads()
    threads = max(1, int(threads))

    env = _symbol_env(symbols)
    plan = MemoryPlan(program=_prefix + getattr(sdfg, "name", ""),
                      threads=threads)

    for name, desc in sdfg.arrays.items():
        if isinstance(desc, Stream):
            plan.items.append(PlanItem(_prefix + name, "stream", 0,
                                       note="unbounded stream (not priced)"))
            continue
        kind = "transient" if desc.transient else "argument"
        nbytes = _eval_bytes(desc, env)
        if nbytes is None:
            plan.items.append(PlanItem(
                _prefix + name, kind, 0,
                note=f"unevaluated shape {tuple(str(s) for s in desc.shape)}"))
        else:
            plan.items.append(PlanItem(_prefix + name, kind, nbytes))

    # parallel-backend extras: per-chunk WCR accumulators are full-size
    # identity copies of the conflicted output (one per chunk, chunks ==
    # threads), and the interpreter path privatizes scope transients per
    # chunk (see runtime/parallel.py); both vanish on the serial tier
    for state in sdfg.states():
        try:
            scope = state.scope_dict()
        except Exception:
            scope = {}
        for node in state.nodes():
            if isinstance(node, NestedSDFG):
                nested = plan_memory(node.sdfg, symbols, threads=threads,
                                     _prefix=_prefix + node.sdfg.name + ".")
                plan.items.extend(i for i in nested.items
                                  if i.kind != "argument")
                continue
            if not isinstance(node, MapEntry) or scope.get(node) is not None:
                continue
            if node.map.schedule != ScheduleType.CPU_Multicore or threads <= 1:
                continue
            label = node.map.label or ",".join(node.map.params)
            exit_node = node.exit_node
            seen_wcr = set()
            for edge in state.in_edges(exit_node):
                memlet = edge.memlet
                if memlet.is_empty() or memlet.wcr is None \
                        or memlet.data in seen_wcr:
                    continue
                seen_wcr.add(memlet.data)
                desc = sdfg.arrays.get(memlet.data)
                if desc is None or isinstance(desc, Stream):
                    continue
                nbytes = _eval_bytes(desc, env)
                plan.items.append(PlanItem(
                    f"{_prefix}{memlet.data}@{label}", "wcr-accumulator",
                    (nbytes or 0) * threads,
                    note=f"{threads} per-chunk identity copies"
                         + ("" if nbytes is not None else "; unevaluated")))
            for inner in state.scope_subgraph_nodes(node):
                if inner is node or inner is exit_node:
                    continue
                if not isinstance(inner, AccessNode):
                    continue
                desc = sdfg.arrays.get(inner.data)
                if desc is None or not desc.transient \
                        or isinstance(desc, Stream):
                    continue
                nbytes = _eval_bytes(desc, env)
                plan.items.append(PlanItem(
                    f"{_prefix}{inner.data}@{label}", "privatized-transient",
                    (nbytes or 0) * threads,
                    note=f"{threads} chunk-private copies"
                         + ("" if nbytes is not None else "; unevaluated")))
    return plan


def admit(sdfg, symbols: Dict[str, Any], budget: Budget,
          program: str = "", allow_degrade: Optional[bool] = None
          ) -> AdmissionDecision:
    """Check *sdfg* against ``budget.max_bytes`` before allocation.

    Returns an :class:`AdmissionDecision`; raises
    :class:`MemoryBudgetExceeded` (with the itemized plan) when no tier
    fits.  With ``governor.admission = "degrade"`` (the default) an
    over-budget multicore plan falls back to the serial tier when that
    fits; ``"strict"`` always rejects.
    """
    from .. import instrumentation
    from ..config import Config

    program = program or getattr(sdfg, "name", "")
    plan = plan_memory(sdfg, symbols)
    max_bytes = budget.max_bytes
    if not max_bytes or plan.peak_bytes <= max_bytes:
        return AdmissionDecision("admit", plan)
    if allow_degrade is None:
        allow_degrade = Config.get("governor.admission") == "degrade"
    coll = instrumentation._ACTIVE
    if allow_degrade and plan.threads > 1:
        serial = plan_memory(sdfg, symbols, threads=1)
        if serial.peak_bytes <= max_bytes:
            if coll is not None:
                coll.add("governor", f"degrade-serial:{program}", 0.0)
            return AdmissionDecision("degrade-serial", serial, rejected=plan)
    if coll is not None:
        coll.add("governor", f"admission-reject:{program}", 0.0)
    raise MemoryBudgetExceeded(program, plan, max_bytes)


@contextlib.contextmanager
def governed(budget: Budget, sdfg, symbols: Optional[Dict[str, Any]],
             program: str = "") -> Iterator[Optional[ArmedBudget]]:
    """Run the block under *budget*: the prologue every governed execution
    shares (``run_sdfg``, ``DaceProgram.__call__``).

    The memory plan of *sdfg* under *symbols* is admission-checked before
    anything is allocated (skipped when *sdfg* is None or the budget has no
    ``max_bytes``), then the deadline is armed for the block.  When only
    the serial tier's plan was admitted, the worker count is pinned to 1 so
    no per-chunk accumulators or privatized copies materialize.
    """
    from ..config import Config

    decision = (admit(sdfg, symbols, budget, program=program)
                if sdfg is not None and budget.max_bytes else None)
    with contextlib.ExitStack() as stack:
        if decision is not None and decision.action == "degrade-serial":
            stack.enter_context(Config.override(device__cpu_threads=1))
        yield stack.enter_context(armed(budget, program=program))
