"""Instrumentation & profiling subsystem (the measurement substrate).

The paper's evaluation is an instrumentation story: Fig. 6 reports
compile-time distributions and Fig. 7 reports CPU runtimes and geomean
speedups over NumPy.  DaCe itself ships per-scope timers and counters
(Ben-Nun et al., SC'19 §"Instrumentation"); this module is the analogous
layer for the reproduction:

* **Region timers** attach to SDFG states, map scopes and library nodes in
  both the reference interpreter (:mod:`repro.runtime.executor`) and the
  generated Python backend (:mod:`repro.codegen.pygen`).
* **Pass timers** decompose total compilation time per transformation pass
  (:mod:`repro.transformations.pipeline`, :mod:`repro.autoopt`) — the
  Fig. 6 analogue.
* **Attempt records** from the resilience degradation chain state which
  fallback tier ran and how long each attempt took.

Zero overhead when off: the hot paths test a single module-level global
(``_ACTIVE is None``) and the code generator only emits timing hooks when a
module is compiled with ``instrument=True``.  Activation is either explicit
(:func:`profile` context manager), per-program
(``@repro.program(instrument="timers")``), or global (configuration key
``instrument.mode``).

Everything measured lands in a :class:`ProfileReport` dataclass
(``to_dict`` gives its ``repro-profile/1`` JSON form).  Corpus-wide
numbers — compile time, speedup over NumPy, per-layer splits — come from
``benchmarks/e2e/run.py``, not from this module.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "RegionStat",
    "AttemptRecord",
    "ProfileReport",
    "ProfileCollector",
    "profile",
    "current",
    "enabled",
    "record_region",
]

#: known region categories (free-form strings are accepted; these are the
#: ones the built-in hooks emit)
CATEGORIES = ("state", "map", "library", "pass", "phase", "cache", "attempt",
              "recovery", "parallel", "governor", "comm")

#: the active collector; ``None`` means instrumentation is off (the single
#: check every hot path performs)
_ACTIVE: Optional["ProfileCollector"] = None

#: every live :func:`profile` activation, oldest first; ``_ACTIVE`` is the
#: last one.  Blocks in different threads may exit out of order, so each
#: exit removes its own entry instead of restoring a saved predecessor.
_LIVE: List["ProfileCollector"] = []
_LIVE_LOCK = threading.Lock()


# ---------------------------------------------------------------------------
# report dataclasses
# ---------------------------------------------------------------------------

@dataclass
class RegionStat:
    """Aggregated timings of one named region (state, map scope, pass...)."""

    category: str
    name: str
    count: int = 0
    total_s: float = 0.0
    min_s: float = float("inf")
    max_s: float = 0.0

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total_s += seconds
        if seconds < self.min_s:
            self.min_s = seconds
        if seconds > self.max_s:
            self.max_s = seconds

    def to_dict(self) -> Dict[str, Any]:
        d = asdict(self)
        if self.count == 0:
            d["min_s"] = 0.0
        return d


@dataclass
class AttemptRecord:
    """One execution attempt in the graceful-degradation chain."""

    stage: str                 # "compiled" | "interpreter" | "python"
    ok: bool
    seconds: float
    error: str = ""            # "TypeName: message" when ok is False

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass
class ProfileReport:
    """Structured result of one instrumented run, serializable to JSON."""

    program: str = ""
    mode: str = "timers"
    regions: List[RegionStat] = field(default_factory=list)
    attempts: List[AttemptRecord] = field(default_factory=list)
    meta: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------- queries
    def by_category(self, category: str) -> List[RegionStat]:
        return [r for r in self.regions if r.category == category]

    def total(self, category: str) -> float:
        return sum(r.total_s for r in self.by_category(category))

    def get(self, category: str, name: str) -> Optional[RegionStat]:
        for r in self.regions:
            if r.category == category and r.name == name:
                return r
        return None

    # ------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": "repro-profile/1",
            "program": self.program,
            "mode": self.mode,
            "regions": [r.to_dict() for r in self.regions],
            "attempts": [a.to_dict() for a in self.attempts],
            "meta": self.meta,
        }

    def summary(self) -> str:
        lines = [f"profile of {self.program or '<anonymous>'} "
                 f"(mode={self.mode})"]
        for category in CATEGORIES:
            stats = self.by_category(category)
            if not stats:
                continue
            lines.append(f"  {category}: {self.total(category) * 1e3:.3f} ms")
            for r in sorted(stats, key=lambda r: -r.total_s):
                lines.append(f"    {r.name:<32} {r.total_s * 1e3:10.3f} ms "
                             f"x{r.count}")
        for a in self.attempts:
            status = "ok" if a.ok else f"failed ({a.error})"
            lines.append(f"  attempt {a.stage}: {a.seconds * 1e3:.3f} ms "
                         f"{status}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the collector
# ---------------------------------------------------------------------------

class ProfileCollector:
    """Accumulates region timings and attempt records for one run."""

    def __init__(self, program: str = "", mode: str = "timers"):
        self.program = program
        self.mode = mode
        self._regions: Dict[Tuple[str, str], RegionStat] = {}
        self._attempts: List[AttemptRecord] = []
        self.meta: Dict[str, Any] = {}
        # per-worker timers from parallel map chunks land concurrently; the
        # dict get/create and the RegionStat field updates must be atomic or
        # regions are dropped and counts corrupted
        self._lock = threading.Lock()

    # -------------------------------------------------------------- timers
    def add(self, category: str, name: str, seconds: float) -> None:
        key = (category, name)
        with self._lock:
            stat = self._regions.get(key)
            if stat is None:
                stat = self._regions[key] = RegionStat(category, name)
            stat.add(seconds)

    @contextlib.contextmanager
    def region(self, category: str, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(category, name, time.perf_counter() - start)

    def attempt(self, stage: str, ok: bool, seconds: float,
                error: str = "") -> AttemptRecord:
        rec = AttemptRecord(stage, ok, seconds, error)
        with self._lock:
            self._attempts.append(rec)
        return rec

    # ------------------------------------------------------------- results
    @property
    def empty(self) -> bool:
        return not self._regions and not self._attempts

    def report(self, **meta: Any) -> ProfileReport:
        merged = dict(self.meta)
        merged.update(meta)
        with self._lock:
            regions = list(self._regions.values())
            attempts = list(self._attempts)
        return ProfileReport(
            program=self.program,
            mode=self.mode,
            regions=regions,
            attempts=attempts,
            meta=merged,
        )


# ---------------------------------------------------------------------------
# activation
# ---------------------------------------------------------------------------

def current() -> Optional[ProfileCollector]:
    """The active collector, or None when instrumentation is off."""
    return _ACTIVE


def enabled() -> bool:
    return _ACTIVE is not None


@contextlib.contextmanager
def profile(program: str = "", mode: str = "timers",
            collector: Optional[ProfileCollector] = None
            ) -> Iterator[ProfileCollector]:
    """Activate instrumentation for the dynamic extent of the block.

    Nested activations stack: the innermost live collector receives the
    events.  On exit a block withdraws only its own collector, so blocks in
    different threads that overlap may exit in any order and
    instrumentation is off again once all of them have.

    >>> with profile("my_program") as prof:
    ...     my_program(A, B)
    >>> report = prof.report()
    """
    global _ACTIVE
    coll = collector if collector is not None else ProfileCollector(
        program=program, mode=mode)
    with _LIVE_LOCK:
        _LIVE.append(coll)
        _ACTIVE = coll
    try:
        yield coll
    finally:
        with _LIVE_LOCK:
            # the newest occurrence: a collector may be activated twice
            del _LIVE[max(i for i, c in enumerate(_LIVE) if c is coll)]
            _ACTIVE = _LIVE[-1] if _LIVE else None


@contextlib.contextmanager
def record_region(category: str, name: str) -> Iterator[None]:
    """Time a region against the active collector (no-op when off)."""
    coll = _ACTIVE
    if coll is None:
        yield
        return
    with coll.region(category, name):
        yield
