"""Transformation pipelines and the one transaction every pass runs under.

``simplify_pass`` is the paper's dataflow-coarsening pass (§2.4, the -O1
analogue): a fixed set of transformations that only modify or remove graph
elements, so the pass terminates.  ``auto_optimize`` (§3.1) lives in
:mod:`repro.autoopt` and builds on these.

Both drivers touch the graph only through a :class:`PassTransaction`
(DESIGN.md §7): skip if quarantined or nothing matches → snapshot → apply →
validate → static race/bounds gate → on any exception restore the snapshot,
count toward quarantine, record the failure and warn.  The fixed-point loop
is guarded by the transaction's application cap plus an oscillation
detector, so a buggy pass (or a buggy pair of passes undoing each other)
degrades the pipeline instead of corrupting the graph or looping forever.
"""

from __future__ import annotations

import warnings
from typing import Callable, Optional, Sequence

from .. import instrumentation
from ..config import Config
from ..resilience.core import (
    FailureReport,
    OscillationDetector,
    Quarantine,
    ResilienceWarning,
    SDFGSnapshot,
)
from ..sanitizer import SanitizerError, static_issue_keys
from .dataflow.cleanup import (
    DeadDataflowElimination,
    DegenerateMapRemoval,
    EmptyStateRemoval,
)
from .dataflow.inline_nested import InlineNestedSDFG
from .dataflow.redundant_copy import RedundantReadCopy, RedundantWriteCopy
from .dataflow.state_fusion import StateFusion

__all__ = ["simplify_pass", "SIMPLIFY_TRANSFORMATIONS", "PassTransaction",
           "transformation_name"]

#: the coarsening pass members, in application order
SIMPLIFY_TRANSFORMATIONS = [
    EmptyStateRemoval,
    StateFusion,
    InlineNestedSDFG,
    RedundantReadCopy,
    RedundantWriteCopy,
    DegenerateMapRemoval,
    DeadDataflowElimination,
]


def transformation_name(transformation) -> str:
    cls = (transformation if isinstance(transformation, type)
           else type(transformation))
    return getattr(transformation, "name", "") or cls.__name__


class PassTransaction:
    """Everything one driver call (``simplify_pass`` / ``auto_optimize``)
    does to one SDFG: each pass or step is a :meth:`run`, and a run that
    raises, leaves an invalid graph, or introduces a provable race or
    out-of-bounds access is rolled back and recorded instead of propagating.

    It remembers the provable-issue set of the graph as of its last check
    (refreshed by a run's after-check, reinstated by a rollback, kept by a
    run that applied nothing), so the whole-graph analysis — the dominant
    cost of a cold compile — runs once per driver call plus once per run
    that changed something, never to recompute a baseline it already has.
    """

    def __init__(self, sdfg, report: Optional[FailureReport] = None,
                 quarantine: Optional[Quarantine] = None):
        self.sdfg = sdfg
        self.report = report if report is not None else FailureReport()
        self.quarantine = quarantine if quarantine is not None else Quarantine()
        self.cap = Config.get("resilience.max_pass_applications")
        #: surviving pass applications so far, counted against ``cap``
        self.applications = 0
        #: provable-issue set of the graph as it is now; None while unknown
        #: (before the first check, and while a run's body — which may
        #: change the graph — executes)
        self._issues: Optional[frozenset] = None

    def issues(self) -> frozenset:
        """Provable race / out-of-bounds issue keys of the graph as it is
        now (analysed only when the remembered set is out of date)."""
        if self._issues is None:
            self._issues = static_issue_keys(self.sdfg)
        return self._issues

    def run(self, name: str, body: Callable[[], Optional[int]], *,
            kind: str = "optimization",
            matches: Optional[Callable[[], bool]] = None) -> int:
        """Run *body* as one transaction; returns what it returned (its
        application count), or 0 when skipped or rolled back.

        ``matches`` is a cheap probe: when it says there is nothing to do
        the run is skipped before the snapshot.  A body returning ``None``
        (it does not count its changes) is assumed to have changed the
        graph.  Nested runs share the remembered issue set, and an outer run
        whose last inner run already checked the final graph reuses that
        result — so a body makes its own (unchecked) changes *before* a
        nested :meth:`simplify`, never after its last nested run.
        """
        if self.quarantine.is_quarantined(name):
            return 0
        sdfg = self.sdfg
        label = name if kind == "transformation" else f"autoopt.{name}"
        snapshot: Optional[SDFGSnapshot] = None
        with instrumentation.record_region("pass", label):
            try:
                if matches is not None and not matches():
                    return 0
                baseline = self.issues()
                snapshot = SDFGSnapshot.capture(sdfg)
                self._issues = None
                applied = body()
                if applied is None:
                    applied = 1
                if applied:
                    # apply_once validates per application; thunks that
                    # bypass it (library expansion, the comm optimizer) are
                    # validated here, inside their rollback window
                    sdfg.validate()
                    fresh = self.issues() - baseline
                    if fresh:
                        raise SanitizerError(
                            "static", sdfg.name,
                            "transformation introduced provable issue(s): "
                            + "; ".join(sorted(fresh)), issues=sorted(fresh))
                else:
                    self._issues = baseline
                return applied
            except Exception as exc:
                if snapshot is not None:
                    snapshot.restore(sdfg)
                    self._issues = baseline
                count = self.quarantine.record_failure(name)
                action = ("quarantined" if self.quarantine.is_quarantined(name)
                          else "rolled-back")
                self.report.record(kind, name, exc, action,
                                   failure_count=count)
                warnings.warn(
                    f"{kind} {name} failed ({type(exc).__name__}: {exc}); "
                    f"SDFG {sdfg.name!r} {action}",
                    ResilienceWarning, stacklevel=3)
                return 0

    def apply(self, transformation, *, step: Optional[str] = None,
              max_applications: Optional[int] = None, **options) -> int:
        """Apply *transformation* to a fixed point (within the application
        cap) as one run; returns the applications that survived.  *step*
        names the ``auto_optimize`` step the pass constitutes, when it is
        one."""
        sdfg = self.sdfg
        budget = max(0, self.cap - self.applications)
        if max_applications is not None:
            budget = min(budget, max_applications)
        applied = self.run(
            step or transformation_name(transformation),
            lambda: transformation.apply_repeated(
                sdfg, max_applications=budget, **options),
            kind="optimization" if step else "transformation",
            # snapshotting is the expensive part of the transaction; skip it
            # when there is nothing to apply (the common case in
            # fixed-point sweeps)
            matches=lambda: any(
                True for _ in transformation.matches(sdfg, **options)))
        self.applications += applied
        return applied

    def exhausted(self, pending: int = 0, culprits: Sequence[str] = ()) -> bool:
        """True, with a warning naming *culprits*, once the applications so
        far (plus *pending* ones a step body made on its own) reach the
        cap."""
        if self.applications + pending < self.cap:
            return False
        warnings.warn(
            f"pass pipeline on {self.sdfg.name!r} hit the application cap "
            f"({self.cap}); likely non-terminating transformation(s): "
            f"{', '.join(culprits) or 'unknown'}",
            ResilienceWarning, stacklevel=3)
        return True

    def simplify(self) -> int:
        """Run the coarsening transformations to a fixed point; returns the
        number of applications."""
        from ..ir.nodes import NestedSDFG

        sdfg = self.sdfg
        start = self.applications
        # a step body calls this right after changing the graph on its own
        # (LoopToMap, fusion), so whatever set is remembered describes an
        # older graph; the top-level call starts with none anyway
        self._issues = None
        # nested SDFGs coarsen first (each graph is its own transaction),
        # so single-state callees become inlinable
        nested = 0
        for state in sdfg.states():
            for node in state.nodes():
                if isinstance(node, NestedSDFG):
                    nested += simplify_pass(node.sdfg, report=self.report)

        detector = OscillationDetector()
        detector.observe(sdfg)
        while True:
            active = [transformation_name(t) for t in SIMPLIFY_TRANSFORMATIONS
                      if self.apply(t)]
            if not active or self.exhausted(culprits=active):
                break
            if detector.observe(sdfg):
                warnings.warn(
                    f"simplify_pass on {sdfg.name!r} is oscillating: "
                    f"transformation(s) {', '.join(active)} returned the "
                    f"graph to a previously-seen state; stopping the "
                    f"fixed-point loop", ResilienceWarning, stacklevel=2)
                break
        return nested + self.applications - start


def simplify_pass(sdfg, report: Optional[FailureReport] = None) -> int:
    """Run the coarsening transformations to a fixed point; returns the
    total number of applications.

    ``report`` optionally receives a :class:`repro.resilience.FailureReport`
    that collects every rolled-back pass instead of crashing the pipeline.
    """
    return PassTransaction(sdfg, report=report).simplify()
