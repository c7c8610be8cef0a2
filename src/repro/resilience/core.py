"""Cross-cutting resilience subsystem.

Three concerns live here (motivated by the paper's §2.4/§3.1 workflow of
chaining dozens of automatic graph transformations, and by DaCe's practice of
validating between passes because transformation bugs are the dominant
failure mode of such compilers):

1. **Transactional transformation application** — the primitives of the
   pass transaction in :mod:`repro.transformations.pipeline` (snapshot →
   apply → validate → static gate → rollback-on-failure), so one buggy pass
   cannot corrupt an SDFG.  Snapshots are the graph's canonical JSON text
   when it serializes, a ``copy.deepcopy`` otherwise.
2. **Quarantine + oscillation control** — passes that repeatedly fail on a
   given SDFG are quarantined instead of retried forever, and fixed-point
   drivers can detect A/B oscillations through graph fingerprints.
3. **Structured failure reporting** — every rollback or degradation is
   recorded in a :class:`FailureReport` instead of crashing (or worse,
   silently continuing), so callers can inspect what went wrong and what the
   system did about it.

The graceful-degradation execution chain (optimized SDFG → unoptimized SDFG
→ pure-Python reference) is driven from :class:`repro.frontend.decorator
.DaceProgram` using these primitives, controlled by the ``resilience.*``
configuration keys.
"""

from __future__ import annotations

import copy
import json
from typing import Any, Dict, List, Optional

from ..config import Config

__all__ = [
    "FailureRecord",
    "FailureReport",
    "SDFGSnapshot",
    "Quarantine",
    "OscillationDetector",
    "ResilienceWarning",
    "transactional_apply",
]


class ResilienceWarning(RuntimeWarning):
    """Emitted whenever the resilience layer absorbs a failure."""


def _json_safe(value: Any) -> Any:
    """Recursively coerce a value into JSON-serializable form.

    Exception args and detail payloads routinely carry NumPy scalars and
    arrays (e.g. a guard naming the offending value); ``json.dumps`` chokes
    on those.  Scalars collapse to their Python equivalent, small arrays to
    nested lists, and large arrays to a shape/dtype summary."""
    import numpy as np

    if isinstance(value, (int, float, bool, str, type(None))):
        return value
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        if value.size <= 16:
            return value.tolist()
        return {"ndarray": {"shape": list(value.shape),
                            "dtype": str(value.dtype)}}
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return str(value)


class FailureRecord:
    """One absorbed failure: what failed, at which phase, and the response."""

    __slots__ = ("kind", "subject", "error", "action", "detail")

    def __init__(self, kind: str, subject: str, error: BaseException,
                 action: str, **detail: Any):
        self.kind = kind            # "transformation" | "optimization" | "degradation"
        self.subject = subject      # pass name or program name
        self.error = error
        self.action = action        # "rolled-back" | "quarantined" | "fell-back:<stage>"
        self.detail = detail

    def __repr__(self) -> str:
        extra = f", {self.detail}" if self.detail else ""
        return (f"FailureRecord({self.kind}:{self.subject} -> {self.action}; "
                f"{type(self.error).__name__}: {self.error}{extra})")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (errors and details are sanitized —
        NumPy scalars/arrays in exception args must not break dumps)."""
        return {
            "kind": self.kind,
            "subject": self.subject,
            "error": f"{type(self.error).__name__}: {self.error}",
            "error_args": [_json_safe(a) for a in self.error.args],
            "action": self.action,
            "detail": {k: _json_safe(v) for k, v in self.detail.items()},
        }


class FailureReport:
    """Structured collection of absorbed failures for one pipeline/program."""

    def __init__(self):
        self.records: List[FailureRecord] = []

    def record(self, kind: str, subject: str, error: BaseException,
               action: str, **detail: Any) -> FailureRecord:
        rec = FailureRecord(kind, subject, error, action, **detail)
        self.records.append(rec)
        return rec

    def by_kind(self, kind: str) -> List[FailureRecord]:
        return [r for r in self.records if r.kind == kind]

    @property
    def transformation_failures(self) -> List[FailureRecord]:
        return self.by_kind("transformation")

    @property
    def degradations(self) -> List[FailureRecord]:
        return self.by_kind("degradation")

    def clear(self) -> None:
        self.records.clear()

    def to_dict(self) -> List[Dict[str, Any]]:
        return [rec.to_dict() for rec in self.records]

    def summary(self) -> str:
        if not self.records:
            return "no failures recorded"
        lines = [f"{len(self.records)} failure(s) absorbed:"]
        for rec in self.records:
            lines.append(f"  - {rec!r}")
        return "\n".join(lines)

    def __bool__(self) -> bool:
        return bool(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return f"FailureReport({len(self.records)} records)"


# --------------------------------------------------------------------------
# snapshots
# --------------------------------------------------------------------------

class SDFGSnapshot:
    """A restorable point-in-time copy of an SDFG.

    Capture prefers the canonical JSON text (cheap, and exercises the same
    round-trip the on-disk format uses); graphs that cannot serialize fall
    back to a deep copy.  ``restore`` reinstates the captured contents *in
    place* on the original object, so callers holding a reference to the
    SDFG see the rollback.
    """

    __slots__ = ("_json", "_clone", "_constants")

    def __init__(self, json_text: Optional[str], clone: Optional[Any],
                 constants: Optional[Dict[str, Any]] = None):
        self._json = json_text
        self._clone = clone
        self._constants = constants

    @classmethod
    def capture(cls, sdfg) -> "SDFGSnapshot":
        from ..ir.serialize import canonical_json

        try:
            # constants (e.g. module objects) are not part of the JSON
            # format; carry them alongside the serialized graph
            return cls(canonical_json(sdfg), None, dict(sdfg.constants))
        except Exception:
            return cls(None, copy.deepcopy(sdfg))

    def restore(self, sdfg) -> None:
        if self._json is not None:
            from ..ir.serialize import sdfg_from_json

            source = sdfg_from_json(json.loads(self._json))
            source.constants = dict(self._constants or {})
        else:
            # a snapshot may be restored more than once: keep ours pristine
            source = copy.deepcopy(self._clone)
        preserved_parent = sdfg.parent
        sdfg.__dict__.clear()
        sdfg.__dict__.update(source.__dict__)
        sdfg.parent = preserved_parent
        # state back-references must point at the restored object, not at the
        # throwaway deserialized/cloned instance
        for state in sdfg.states():
            state.sdfg = sdfg


class OscillationDetector:
    """Detects fixed-point loops that revisit a previous graph state.

    Feed the SDFG after every sweep; :meth:`observe` returns True when the
    current fingerprint was already seen, i.e. the last sweep's
    transformations undid each other (classic A/B oscillation).
    """

    def __init__(self):
        self._seen: Dict[str, int] = {}
        self._sweep = 0

    def observe(self, sdfg) -> bool:
        from ..cache.fingerprint import fingerprint

        self._sweep += 1
        try:
            fp = fingerprint(sdfg)
        except Exception:
            # a graph that cannot serialize cannot be told apart: no verdict
            return False
        if fp in self._seen:
            return True
        self._seen[fp] = self._sweep
        return False


# --------------------------------------------------------------------------
# quarantine
# --------------------------------------------------------------------------

class Quarantine:
    """Tracks per-transformation failure counts on one SDFG; passes whose
    count reaches ``resilience.quarantine_threshold`` are skipped."""

    def __init__(self, threshold: Optional[int] = None):
        self.threshold = (threshold if threshold is not None
                          else Config.get("resilience.quarantine_threshold"))
        self.failures: Dict[str, int] = {}

    def record_failure(self, name: str) -> int:
        self.failures[name] = self.failures.get(name, 0) + 1
        return self.failures[name]

    def is_quarantined(self, name: str) -> bool:
        return self.failures.get(name, 0) >= self.threshold

    @property
    def quarantined(self) -> List[str]:
        return sorted(n for n in self.failures if self.is_quarantined(n))


# --------------------------------------------------------------------------
# transactional application
# --------------------------------------------------------------------------

def transactional_apply(sdfg, transformation, *,
                        report: Optional[FailureReport] = None,
                        quarantine: Optional[Quarantine] = None,
                        max_applications: Optional[int] = None,
                        **options) -> int:
    """Apply *transformation* repeatedly under a transaction.

    The one-pass spelling of :class:`repro.transformations.pipeline
    .PassTransaction`: snapshot → apply-to-fixed-point → validate → static
    race/bounds gate → on any exception (including a validation failure of
    the transformed graph) roll the SDFG back to the snapshot, record the
    failure, and bump the quarantine counter.  Returns the number of
    applications that *survived* (0 after a rollback).
    """
    from ..transformations.pipeline import PassTransaction

    return PassTransaction(sdfg, report=report, quarantine=quarantine).apply(
        transformation, max_applications=max_applications, **options)
