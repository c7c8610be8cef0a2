"""Governed-execution sweep over the bench corpus (``python -m
repro.governor sweep``).

The robustness analogue of the chaos sweep (:mod:`repro.resilience.chaos`):
run every corpus program under deliberately hostile budgets and check that
each run ends in a *structured* governor outcome — the program completes, or
raises :class:`~repro.governor.ExecutionTimeout` /
:class:`~repro.governor.MemoryBudgetExceeded` with its diagnostic payload —
never a hang and never an unstructured crash.  A final trial drives one
program's circuit breaker through its full open → half-open → closed cycle.

Writes ``GOVERNOR.json`` (schema ``repro-governor/1``) for the CI artifact.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional

from ..config import Config
from .admission import MemoryBudgetExceeded
from .breaker import CircuitOpenError, registry, reset_breakers
from .budget import Budget, ExecutionTimeout, GovernorError

__all__ = ["governor_sweep"]

#: budgets per trial: generous (must complete), deadline-starved (must
#: raise ExecutionTimeout), memory-starved (must raise MemoryBudgetExceeded)
_TRIALS = (
    ("baseline", Budget(deadline_s=120.0, max_bytes=1 << 34), (None,)),
    ("deadline", Budget(deadline_s=1e-9), (ExecutionTimeout,)),
    ("memory", Budget(max_bytes=16), (MemoryBudgetExceeded,)),
)


def _run_trial(bench, trial: str, budget: Budget,
               expected: tuple) -> Dict[str, Any]:
    args = bench.arguments("test")
    start = time.perf_counter()
    outcome: Dict[str, Any] = {"trial": trial, "budget": {
        "deadline_s": budget.deadline_s, "max_bytes": budget.max_bytes}}
    try:
        bench.program(**args, __budget=budget)
    except GovernorError as exc:
        outcome["outcome"] = type(exc).__name__
        outcome["ok"] = any(e is not None and isinstance(exc, e)
                            for e in expected)
        outcome["detail"] = exc.to_dict()
    except Exception as exc:  # noqa: BLE001 - the sweep's whole point
        outcome["outcome"] = "unstructured"
        outcome["ok"] = False
        outcome["error"] = f"{type(exc).__name__}: {exc}"
    else:
        outcome["outcome"] = "completed"
        outcome["ok"] = None in expected
    outcome["elapsed_s"] = round(time.perf_counter() - start, 4)
    return outcome


def _breaker_demo(bench) -> Dict[str, Any]:
    """Drive one program's circuit through open → fast-fail → half-open
    probe → closed, at a tight threshold and cooldown."""
    demo: Dict[str, Any] = {"program": bench.name, "steps": []}
    args = bench.arguments("test")
    starve = Budget(max_bytes=8)
    generous = Budget(max_bytes=1 << 34)
    reset_breakers()
    with Config.override(governor__breaker_threshold=3,
                         governor__cooldown_s=0.05):
        for k in range(3):
            try:
                bench.program(**args, __budget=starve)
                demo["steps"].append({"step": f"fail{k}", "ok": False})
            except MemoryBudgetExceeded:
                demo["steps"].append({"step": f"fail{k}", "ok": True})
        try:
            bench.program(**args, __budget=generous)
            demo["steps"].append({"step": "fast-fail", "ok": False})
        except CircuitOpenError as exc:
            demo["steps"].append({"step": "fast-fail", "ok": True,
                                  "failures": exc.failures,
                                  "history": len(exc.history)})
        time.sleep(0.06)
        try:
            bench.program(**args, __budget=generous)
            state = registry().circuits()
            closed = any(c["state"] == "closed" for c in state)
            demo["steps"].append({"step": "probe-recover", "ok": closed})
        except Exception as exc:  # noqa: BLE001
            demo["steps"].append({"step": "probe-recover", "ok": False,
                                  "error": f"{type(exc).__name__}: {exc}"})
    reset_breakers()
    demo["ok"] = all(s["ok"] for s in demo["steps"])
    return demo


def governor_sweep(case_names: Optional[List[str]] = None,
                   out: Optional[str] = "GOVERNOR.json",
                   verbose: bool = True) -> Dict[str, Any]:
    """Run the sweep; returns (and optionally writes) the report dict."""
    from ..bench import registry as bench_registry

    names = list(case_names or bench_registry.SWEEP_CORPUS)
    programs: List[Dict[str, Any]] = []
    # a high threshold keeps the deliberate per-trial failures from opening
    # circuits mid-sweep; the breaker demo below overrides it back down
    with Config.override(governor__breaker_threshold=100):
        for name in names:
            bench = bench_registry.get(name)
            reset_breakers()
            trials = [_run_trial(bench, trial, budget, expected)
                      for trial, budget, expected in _TRIALS]
            programs.append({"name": name, "trials": trials})
            if verbose:
                flat = ", ".join(f"{t['trial']}={t['outcome']}"
                                 for t in trials)
                print(f"  {name:<12} {flat}")
        demo = _breaker_demo(bench_registry.get(names[0]))
        if verbose:
            print(f"  breaker demo on {demo['program']}: "
                  f"{'ok' if demo['ok'] else 'FAILED'}")

    all_trials = [t for p in programs for t in p["trials"]]
    summary = {
        "programs": len(programs),
        "trials": len(all_trials),
        "ok": sum(1 for t in all_trials if t["ok"]) ,
        "failed": sum(1 for t in all_trials if not t["ok"]),
        "unstructured": sum(1 for t in all_trials
                            if t["outcome"] == "unstructured"),
        "breaker_demo_ok": demo["ok"],
    }
    report = {
        "schema": "repro-governor/1",
        "corpus": names,
        "programs": programs,
        "breaker_demo": demo,
        "summary": summary,
    }
    if out:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        if verbose:
            print(f"wrote {out}")
    if verbose:
        print(f"summary: {summary['ok']}/{summary['trials']} trials ok, "
              f"{summary['unstructured']} unstructured")
    return report
