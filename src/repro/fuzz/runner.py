"""Differential runner: execute one fuzz case across every pipeline tier.

Tiers mirror the sanitizer oracle (python reference -> reference
interpreter -> compiled module -> auto-optimized/parallel module) and reuse
its dtype-aware comparison helpers.  The paired reference function rendered
by :mod:`repro.fuzz.gen` is the ground truth; the runner compares the
return value *and* every mutated argument array, shape-strict.

A case whose reference runs but whose frontend/interpreter/compiled/
parallel stage errors or disagrees is a **divergence** — the generator only
emits constructs the frontend supports, so "unsupported" is not a
permissible verdict for a generated program.  Known-but-unfixed findings
can be suppressed via an explanation list (substring match against the
failure detail); anything unexplained fails the campaign.
"""

from __future__ import annotations

import contextlib
import importlib.util
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..autoopt import auto_optimize
from ..codegen import compile_sdfg
from ..config import Config
from ..runtime.executor import run_sdfg
from ..sanitizer.oracle import (compare_outputs, fresh_inputs,
                                harvest_outputs)
from .gen import GenCase, generate_case, render_module
from .mutate import DEFAULT_VARIANT, variant_overrides

__all__ = ["CaseResult", "CampaignReport", "run_source_case", "run_gen_case",
           "run_campaign", "failure_detail"]

SCHEMA = "repro-fuzz/1"
REPORT_SCHEMA = "repro-fuzz-report/1"


@dataclass
class CaseResult:
    index: int
    seed: int
    verdict: str = "ok"               # ok | divergence | invalid
    stages: Dict[str, str] = field(default_factory=dict)
    mismatches: List[str] = field(default_factory=list)
    variant: Dict[str, object] = field(default_factory=dict)
    explained: Optional[str] = None

    def to_dict(self) -> dict:
        return {"index": self.index, "seed": self.seed,
                "verdict": self.verdict, "stages": dict(self.stages),
                "mismatches": list(self.mismatches),
                "variant": dict(self.variant), "explained": self.explained}


@dataclass
class CampaignReport:
    seed: int
    cases: int
    completed: int = 0
    elapsed_s: float = 0.0
    budget_s: Optional[float] = None
    counts: Dict[str, int] = field(default_factory=lambda: {
        "ok": 0, "divergence": 0, "explained": 0, "invalid": 0})
    findings: List[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"schema": REPORT_SCHEMA, "seed": self.seed,
                "cases": self.cases, "completed": self.completed,
                "elapsed_s": round(self.elapsed_s, 3),
                "budget_s": self.budget_s, "counts": dict(self.counts),
                "findings": self.findings}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


# ---------------------------------------------------------------------------
# Module materialization
# ---------------------------------------------------------------------------

_MODULE_COUNTER = [0]


def _load_module(source: str, workdir: str):
    """Write *source* to a real file and import it (the frontend retrieves
    program source via ``inspect.getsource``, so exec()'d code is not
    enough)."""
    _MODULE_COUNTER[0] += 1
    name = f"repro_fuzz_case_{os.getpid()}_{_MODULE_COUNTER[0]}"
    path = os.path.join(workdir, f"{name}.py")
    with open(path, "w") as fh:
        fh.write(source)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except Exception:
        sys.modules.pop(name, None)
        raise
    return module


def _make_inputs(arrays: Dict[str, dict], scalars: Sequence[str],
                 seed: int) -> Dict[str, object]:
    rng = np.random.default_rng(seed)
    out: Dict[str, object] = {}
    for name in sorted(arrays):
        spec = arrays[name]
        out[name] = rng.random(tuple(spec["shape"])).astype(spec["dtype"])
    for name in sorted(scalars):
        out[name] = float(rng.random())
    return out


# ---------------------------------------------------------------------------
# One case across the tiers
# ---------------------------------------------------------------------------

def run_source_case(source: str, arrays: Dict[str, dict],
                    scalars: Sequence[str], seed: int, *,
                    variant: Optional[Dict[str, object]] = None,
                    workdir: Optional[str] = None,
                    index: int = 0,
                    explanations: Sequence[Tuple[str, str]] = ()) -> CaseResult:
    """Run a rendered case module across all tiers under *variant* config."""
    import repro

    variant = dict(DEFAULT_VARIANT, **(variant or {}))
    result = CaseResult(index=index, seed=seed, variant=dict(variant))
    owns_workdir = workdir is None
    if owns_workdir:
        workdir = tempfile.mkdtemp(prefix="repro-fuzz-")

    def explain(detail: str) -> Optional[str]:
        for needle, reason in explanations:
            if needle in detail:
                return reason
        return None

    def fail(stage: str, detail: str) -> CaseResult:
        result.stages[stage] = detail
        reason = explain(detail)
        if reason is not None:
            result.verdict = "ok"
            result.explained = reason
        else:
            result.verdict = "divergence"
            result.mismatches.append(f"{stage}: {detail}")
        return result

    with contextlib.ExitStack() as stack:
        overrides = variant_overrides(variant, workdir)
        if overrides:
            stack.enter_context(Config.override(**overrides))

        try:
            module = _load_module(source, workdir)
        except Exception as exc:
            result.verdict = "invalid"
            result.stages["module"] = f"error: {exc}"
            return result

        inputs = _make_inputs(arrays, scalars, seed)

        # --- reference tier ------------------------------------------------
        try:
            args = fresh_inputs(inputs)
            expected = harvest_outputs(args, module.fuzz_ref(**args))
            result.stages["python"] = "ok"
        except Exception as exc:
            result.verdict = "invalid"
            result.stages["python"] = f"error: {exc}"
            return result

        # --- frontend ------------------------------------------------------
        try:
            program = repro.program(module.fuzz_prog)
            base = program.to_sdfg().clone()
            result.stages["frontend"] = "ok"
        except Exception as exc:
            return fail("frontend", f"error: {type(exc).__name__}: {exc}")

        def run_stage(stage: str, runner) -> bool:
            try:
                args = fresh_inputs(inputs)
                got = harvest_outputs(args, runner(args))
            except Exception as exc:
                fail(stage, f"error: {type(exc).__name__}: {exc}")
                return False
            mismatches = compare_outputs(expected, got, inputs)
            if mismatches:
                fail(stage, "mismatch: " + "; ".join(mismatches[:3]))
                return False
            result.stages[stage] = "ok"
            return True

        run_stage("interpreter", lambda a: run_sdfg(base.clone(), **a))
        run_stage("compiled", lambda a: compile_sdfg(base.clone())(**a))
        if variant.get("cache") == "warm":
            # second compile of the identical SDFG hits the persistent
            # cache; results must be bitwise identical to the cold run
            try:
                cold = fresh_inputs(inputs)
                got_cold = harvest_outputs(cold, compile_sdfg(base.clone())(**cold))
                warm = fresh_inputs(inputs)
                got_warm = harvest_outputs(warm, compile_sdfg(base.clone())(**warm))
                for name in sorted(got_cold):
                    if not np.array_equal(np.asarray(got_cold[name]),
                                          np.asarray(got_warm.get(name))):
                        fail("cache-warm", f"bitwise mismatch on {name}")
                        break
                else:
                    result.stages["cache-warm"] = "ok"
            except Exception as exc:
                fail("cache-warm", f"error: {type(exc).__name__}: {exc}")

        def parallel_runner(a):
            opt = auto_optimize(base.clone(), device="CPU")
            return compile_sdfg(opt)(**a)

        run_stage("parallel", parallel_runner)

    return result


def run_gen_case(case: GenCase, *, variant: Optional[Dict[str, object]] = None,
                 workdir: Optional[str] = None, index: int = 0,
                 explanations: Sequence[Tuple[str, str]] = ()) -> CaseResult:
    source = render_module(case)
    arrays = {a.name: {"shape": list(a.shape(case.sizes)), "dtype": a.dtype}
              for a in case.args if a.dims}
    scalars = [a.name for a in case.args if not a.dims]
    return run_source_case(source, arrays, scalars, case.seed,
                           variant=variant, workdir=workdir, index=index,
                           explanations=explanations)


def failure_detail(case: GenCase,
                   variant: Optional[Dict[str, object]] = None,
                   workdir: Optional[str] = None) -> Optional[str]:
    """Shrinker predicate helper: the first failing stage's detail, or
    ``None`` when the case passes (``invalid`` cases count as passing so the
    shrinker never walks out of the valid-program space)."""
    result = run_gen_case(case, variant=variant, workdir=workdir)
    if result.verdict != "divergence":
        return None
    return result.mismatches[0] if result.mismatches else "divergence"


# ---------------------------------------------------------------------------
# Campaign loop
# ---------------------------------------------------------------------------

def run_campaign(seed: int, cases: int, *, budget_s: Optional[float] = None,
                 mutate: bool = True,
                 explanations: Sequence[Tuple[str, str]] = (),
                 shrink_failures: bool = False,
                 corpus_dir: Optional[str] = None,
                 verbose: bool = False) -> CampaignReport:
    """Generate and differentially execute *cases* cases; optionally shrink
    each failure and write the minimal repro into *corpus_dir*."""
    from .mutate import mutate_case, variant_for
    from .shrink import save_corpus_entry, shrink_case

    report = CampaignReport(seed=seed, cases=cases, budget_s=budget_s)
    start = time.monotonic()
    workdir = tempfile.mkdtemp(prefix="repro-fuzz-")
    import random as _random

    for index in range(cases):
        if budget_s is not None and time.monotonic() - start > budget_s:
            break
        case_seed = seed * 1_000_003 + index
        case = generate_case(case_seed)
        rng = _random.Random(f"repro-fuzz-mutate-{case_seed}")
        if mutate and rng.random() < 0.3:
            case = mutate_case(case, rng)
        variant = variant_for(index, rng)
        result = run_gen_case(case, variant=variant, workdir=workdir,
                              index=index, explanations=explanations)
        report.completed += 1
        if result.explained is not None:
            report.counts["explained"] += 1
        report.counts[result.verdict] = report.counts.get(result.verdict, 0) + 1
        if result.verdict == "divergence":
            finding = result.to_dict()
            if shrink_failures and corpus_dir is not None:
                target = result.mismatches[0].split(":", 1)[0] \
                    if result.mismatches else ""
                shrunk = shrink_case(
                    case,
                    lambda c: failure_detail(c, variant, workdir) is not None,
                    )
                path = save_corpus_entry(
                    shrunk, corpus_dir, variant=variant,
                    note=f"campaign seed={seed} case={index} stage={target}")
                finding["shrunk_file"] = path
            report.findings.append(finding)
            if verbose:
                print(f"[fuzz] case {index} seed={case_seed} DIVERGENCE: "
                      f"{result.mismatches[:1]}", file=sys.stderr)
        elif result.verdict == "invalid":
            report.findings.append(result.to_dict())
        if verbose and index % 25 == 24:
            print(f"[fuzz] {index + 1}/{cases} done "
                  f"({report.counts})", file=sys.stderr)
    report.elapsed_s = time.monotonic() - start
    return report
