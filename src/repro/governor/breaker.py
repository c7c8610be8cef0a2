"""Per-program circuit breakers (DESIGN.md §12).

A serving process that recompiles and re-crashes the same program on every
request burns its capacity on known-bad work.  The breaker memoizes
terminal failures per program — keyed by the content-addressed cache
fingerprint (:func:`repro.cache.fingerprint`), so structurally identical
graphs share a circuit while any edit to the program closes it naturally
under a fresh key.

State machine (classic three-state):

* **closed** — calls flow; consecutive terminal failures are counted.
* **open** — after ``governor.breaker_threshold`` consecutive failures:
  calls fast-fail with :class:`CircuitOpenError` carrying the cached
  failure history (no re-parse, no recompile, no re-crash) until
  ``governor.cooldown_s`` has elapsed.
* **half-open** — one probe call is let through after the cooldown; success
  closes the circuit (counter reset), failure re-opens it and restarts the
  cooldown.

Transitions emit ``governor``-category instrumentation events.  The
registry is process-wide and thread-safe; only governed calls (an armed or
explicit :class:`~repro.governor.budget.Budget`) consult it, preserving the
zero-overhead-when-off guarantee for ungoverned callers.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from .budget import GovernorError

__all__ = ["CircuitOpenError", "BreakerState", "BreakerRegistry",
           "registry", "reset_breakers"]

#: cap on the failure history cached per circuit (the fast-fail payload)
_HISTORY_LIMIT = 8


class CircuitOpenError(GovernorError):
    """Fast-fail: the program's circuit is open from prior failures."""

    def __init__(self, key: str, program: str, failures: int,
                 retry_in_s: float, history: List[Dict[str, Any]]):
        self.key = key
        self.program = program
        self.failures = failures
        self.retry_in_s = retry_in_s
        #: cached failure records (most recent last) — the report callers
        #: would have gotten from re-running, without the re-run
        self.history = history
        super().__init__(
            f"circuit open for {program or key[:12]}: {failures} "
            f"consecutive failure(s), probe allowed in {retry_in_s:.2f}s; "
            f"last error: {history[-1]['error'] if history else '<none>'}")

    def to_dict(self) -> Dict[str, Any]:
        return {"error": "CircuitOpenError", "program": self.program,
                "key": self.key, "failures": self.failures,
                "retry_in_s": self.retry_in_s, "history": self.history}


@dataclass
class BreakerState:
    """One program's circuit."""

    key: str
    program: str = ""
    state: str = "closed"            # "closed" | "open" | "half-open"
    failures: int = 0                # consecutive failures
    opened_at: float = 0.0           # monotonic time of the last open
    opens: int = 0                   # lifetime open transitions
    history: List[Dict[str, Any]] = field(default_factory=list)

    def snapshot(self) -> Dict[str, Any]:
        return {"key": self.key, "program": self.program,
                "state": self.state, "failures": self.failures,
                "opens": self.opens, "history": list(self.history)}


class BreakerRegistry:
    """Process-wide circuit registry (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._circuits: Dict[str, BreakerState] = {}

    def _get(self, key: str, program: str) -> BreakerState:
        st = self._circuits.get(key)
        if st is None:
            st = self._circuits[key] = BreakerState(key=key, program=program)
        elif program and not st.program:
            st.program = program
        return st

    def _emit(self, name: str) -> None:
        from .. import instrumentation

        coll = instrumentation._ACTIVE
        if coll is not None:
            coll.add("governor", name, 0.0)

    # ------------------------------------------------------------- protocol
    def before_call(self, key: str, program: str = "") -> None:
        """Gate a call: raises :class:`CircuitOpenError` while open, lets a
        half-open probe through after the cooldown."""
        from ..config import Config

        with self._lock:
            st = self._get(key, program)
            if st.state != "open":
                return
            cooldown = float(Config.get("governor.cooldown_s"))
            elapsed = time.monotonic() - st.opened_at
            if elapsed >= cooldown:
                st.state = "half-open"
                self._emit(f"breaker-probe:{st.program or key[:12]}")
                return
            err = CircuitOpenError(key, st.program, st.failures,
                                   cooldown - elapsed, list(st.history))
        self._emit(f"breaker-fast-fail:{program or key[:12]}")
        raise err

    def record_success(self, key: str, program: str = "") -> None:
        with self._lock:
            st = self._get(key, program)
            recovered = st.state != "closed"
            st.state = "closed"
            st.failures = 0
            st.history.clear()
        if recovered:
            self._emit(f"breaker-close:{program or key[:12]}")

    def record_failure(self, key: str, exc: BaseException,
                       program: str = "", elapsed_s: float = 0.0) -> bool:
        """Count a terminal failure; returns True when this opened (or
        re-opened) the circuit."""
        from ..config import Config

        threshold = int(Config.get("governor.breaker_threshold"))
        with self._lock:
            st = self._get(key, program)
            st.failures += 1
            st.history.append({
                "error": f"{type(exc).__name__}: {exc}",
                "elapsed_s": elapsed_s,
                "detail": exc.to_dict() if isinstance(exc, GovernorError)
                          else None,
            })
            del st.history[:-_HISTORY_LIMIT]
            opened = (st.state == "half-open"
                      or (threshold > 0 and st.failures >= threshold))
            if opened:
                st.state = "open"
                st.opened_at = time.monotonic()
                st.opens += 1
        if opened:
            self._emit(f"breaker-open:{program or key[:12]}")
        return opened

    @contextlib.contextmanager
    def guard(self, key: str, program: str = "",
              report=None) -> Iterator[None]:
        """Gate the block through circuit *key* and feed its outcome back.

        An open circuit fast-fails on entry.  A terminal failure of the
        block counts toward opening the circuit and is recorded in *report*
        (a :class:`~repro.resilience.FailureReport`) with its duration;
        a nested program's fast-fail passing through does not count.
        """
        self.before_call(key, program)
        start = time.perf_counter()
        try:
            yield
        except CircuitOpenError:
            raise
        except Exception as exc:
            elapsed = time.perf_counter() - start
            self.record_failure(key, exc, program=program, elapsed_s=elapsed)
            if report is not None:
                report.record("governor", program, exc, "terminal-failure",
                              seconds=elapsed)
            raise
        self.record_success(key, program)

    # ------------------------------------------------------------ inspection
    def state(self, key: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            st = self._circuits.get(key)
            return st.snapshot() if st is not None else None

    def circuits(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [st.snapshot() for st in self._circuits.values()]

    def reset(self) -> None:
        with self._lock:
            self._circuits.clear()


_REGISTRY = BreakerRegistry()


def registry() -> BreakerRegistry:
    return _REGISTRY


def reset_breakers() -> None:
    """Clear every circuit (tests)."""
    _REGISTRY.reset()
