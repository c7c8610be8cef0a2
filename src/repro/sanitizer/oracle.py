"""Differential-testing oracle with pass-pipeline bisection.

Runs the same program through every execution tier the system offers —
pure Python/NumPy, the reference interpreter, the compiled (untransformed)
module, and the auto-optimized module — on identical seeded inputs, and
compares the outputs under dtype-aware tolerances.  A mismatch that appears
only after optimization is delta-debugged: the applied-pass list is bisected
(prefix enable/disable) to name the first semantics-breaking transformation.

The oracle is the dynamic complement of the static analyses: it catches
*miscompiles* — transformations whose result is structurally valid, passes
the race/bounds checks, and still computes the wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..autoopt import AUTOOPT_STEPS, auto_optimize
from ..codegen import compile_sdfg
from ..runtime.executor import run_sdfg

__all__ = ["AUTOOPT_STEPS", "tolerance_for", "generate_inputs",
           "compare_values", "fresh_inputs", "harvest_outputs",
           "compare_outputs", "OracleReport", "run_oracle", "bisect_passes"]


def tolerance_for(dtype) -> Tuple[float, float]:
    """(rtol, atol) for comparing values of *dtype*; exact for non-floats."""
    dt = np.dtype(dtype)
    if dt.kind == "f" or dt.kind == "c":
        if dt.itemsize <= 2:
            return (1e-2, 1e-4)
        if dt.itemsize <= 4 or (dt.kind == "c" and dt.itemsize <= 8):
            return (1e-4, 1e-7)
        return (1e-7, 1e-10)
    return (0.0, 0.0)


def compare_values(expected, actual, name: str = "value",
                   inputs: Sequence[object] = ()) -> Optional[str]:
    """``None`` when *actual* matches *expected*; a human-readable
    description of the first discrepancy otherwise.  A floating result is
    held to the tolerance of the narrowest floating dtype among itself and
    the *inputs* it was computed from (float32 rounding survives in a
    float64 container, DESIGN.md §14); anything else compares exactly."""
    exp = np.asarray(expected)
    act = np.asarray(actual)
    if exp.shape != act.shape:
        return f"{name}: shape {act.shape} != expected {exp.shape}"
    rtol, atol = tolerance_for(exp.dtype)
    if rtol == 0.0 and atol == 0.0:
        if not np.array_equal(exp, act):
            bad = int(np.count_nonzero(exp != act))
            return f"{name}: {bad} element(s) differ (exact comparison)"
        return None
    rtol, atol = max([(rtol, atol)] + [
        tolerance_for(dt) for dt in (np.asarray(v).dtype for v in inputs)
        if dt.kind in "fc"])
    if not np.allclose(act, exp, rtol=rtol, atol=atol, equal_nan=True):
        with np.errstate(invalid="ignore"):
            err = np.abs(act.astype(np.float64, copy=False)
                         - exp.astype(np.float64, copy=False))
        return (f"{name}: max abs error {np.nanmax(err):.3e} exceeds "
                f"rtol={rtol} atol={atol}")
    return None


def generate_inputs(sdfg, symbols: Optional[Dict[str, int]] = None,
                    seed: int = 0) -> Dict[str, object]:
    """Seeded random arguments for every non-transient container of *sdfg*.

    Floats are drawn from ``[0, 1)``, integers from ``[0, min(shape, 8))``
    so they remain usable as (small) indices, booleans uniformly.
    """
    from ..ir.data import Array, Scalar

    rng = np.random.default_rng(seed)
    symbols = dict(symbols or {})
    out: Dict[str, object] = {}
    for name, desc in sdfg.arrays.items():
        if desc.transient:
            continue
        dt = desc.dtype.nptype
        if isinstance(desc, Scalar):
            shape: Tuple[int, ...] = ()
        elif isinstance(desc, Array):
            shape = tuple(int(s.evaluate(symbols)) for s in desc.shape)
        else:
            continue
        kind = dt.kind
        if kind == "f":
            value = np.asarray(rng.random(shape), dtype=dt)
        elif kind == "c":
            value = np.asarray(rng.random(shape) + 1j * rng.random(shape),
                               dtype=dt)
        elif kind == "b":
            value = np.asarray(rng.integers(0, 2, size=shape), dtype=dt)
        else:
            high = max(2, min([8] + [s for s in shape if s > 0]))
            value = np.asarray(rng.integers(0, high, size=shape), dtype=dt)
        out[name] = value if shape != () else dt.type(value.item())
    out.update(symbols)
    return out


def fresh_inputs(inputs: Dict[str, object]) -> Dict[str, object]:
    """Per-tier copy of *inputs*: arrays are mutated in place by a run."""
    return {k: (np.array(v, copy=True) if isinstance(v, np.ndarray) else v)
            for k, v in inputs.items()}


def harvest_outputs(call_args: Dict[str, object], returned,
                    outputs: Optional[Sequence[str]] = None
                    ) -> Dict[str, object]:
    """What one tier produced: the *outputs* arguments after the call
    (default: every array argument) plus the return value."""
    if outputs is None:
        outputs = [k for k, v in call_args.items()
                   if isinstance(v, np.ndarray)]
    got: Dict[str, object] = {name: call_args[name] for name in outputs
                              if name in call_args}
    if returned is not None:
        got["__return"] = returned
    return got


def compare_outputs(expected: Dict[str, object], actual: Dict[str, object],
                    inputs: Dict[str, object]) -> List[str]:
    """Discrepancies between two :func:`harvest_outputs` results of a case
    run on *inputs* (whose dtypes bound the tolerance, see
    :func:`compare_values`)."""
    mismatches = []
    for name in sorted(expected):
        if name not in actual:
            mismatches.append(f"{name}: missing from outputs")
            continue
        msg = compare_values(expected[name], actual[name], name,
                             inputs.values())
        if msg:
            mismatches.append(msg)
    return mismatches


@dataclass
class OracleReport:
    """Differential-testing result for one program."""

    program: str
    seed: int
    stages: Dict[str, str] = field(default_factory=dict)  # name -> "ok"|msg
    verdict: str = "ok"                                   # ok|mismatch|error
    culprit: Optional[str] = None
    mismatches: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"program": self.program, "seed": self.seed,
                "stages": dict(self.stages), "verdict": self.verdict,
                "culprit": self.culprit, "mismatches": list(self.mismatches)}


def _prefix_search(ok: Callable[[int], bool], n: int) -> int:
    """Smallest ``k`` in ``[1, n]`` with ``ok(k)`` False, assuming ``ok(0)``
    holds and ``ok(n)`` fails; monotonicity is the usual delta-debugging
    assumption."""
    lo, hi = 0, n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return hi


def bisect_passes(make_sdfg: Callable[[], object],
                  steps: Sequence[Tuple[str, Callable]],
                  evaluate: Callable[[object], bool]) -> Optional[str]:
    """Name the first step of *steps* whose application makes *evaluate*
    fail.

    ``make_sdfg`` builds a fresh baseline SDFG; each step is ``(name, fn)``
    with ``fn(sdfg)`` mutating in place; ``evaluate(sdfg)`` returns True when
    the SDFG still computes the right answer.  Returns ``None`` when the full
    pipeline evaluates fine, ``"<base>"`` when even the untransformed SDFG
    fails.
    """
    def ok(k: int) -> bool:
        sdfg = make_sdfg()
        for _name, fn in steps[:k]:
            fn(sdfg)
        return evaluate(sdfg)

    n = len(steps)
    if ok(n):
        return None
    if not ok(0):
        return "<base>"
    return steps[_prefix_search(ok, n) - 1][0]


def run_oracle(program, *, inputs: Optional[Dict[str, object]] = None,
               symbols: Optional[Dict[str, int]] = None, seed: int = 0,
               device: str = "CPU", outputs: Sequence[str] = (),
               reference: Optional[Callable] = None,
               steps: Optional[Sequence[Tuple[str, Callable]]] = None,
               name: str = "") -> OracleReport:
    """Differential-test *program* (a ``DaceProgram``) across all tiers.

    ``inputs`` defaults to :func:`generate_inputs` output (descriptor-driven,
    seeded); ``reference`` defaults to the undecorated Python function (when
    it is executable as plain Python); ``steps`` replaces the auto_optimize
    pipeline for the optimized stage — used to test externally supplied
    transformation lists (and by the bisection regression tests).
    """
    report = OracleReport(program=name or getattr(program, "name", "program"),
                          seed=seed)

    try:
        if getattr(program, "_annotation_descs", lambda: None)() is not None:
            base = program.to_sdfg().clone()
        else:
            probe = inputs if inputs is not None else {}
            base = program.to_sdfg(**fresh_inputs(probe)).clone()
    except Exception as exc:  # frontend failure: nothing to compare
        report.verdict = "error"
        report.stages["frontend"] = f"error: {exc}"
        return report

    if inputs is None:
        inputs = generate_inputs(base, symbols, seed)
    out_names = list(outputs) or \
        [n for n, d in base.arrays.items()
         if not d.transient and n in inputs
         and isinstance(inputs[n], np.ndarray)]

    # --- reference tier ---------------------------------------------------
    expected: Optional[Dict[str, object]] = None
    ref_fn = reference if reference is not None else getattr(program, "func", None)
    if ref_fn is not None:
        try:
            args = fresh_inputs(inputs)
            ret = ref_fn(**args)
            expected = harvest_outputs(args, ret, out_names)
            report.stages["python"] = "ok"
        except Exception as exc:
            # e.g. programs using repro.map are not executable as plain
            # Python; the interpreter then serves as the reference tier.
            report.stages["python"] = f"skipped: {exc}"
            expected = None

    def run_stage(stage: str, runner: Callable[[Dict[str, object]], object]) -> Optional[Dict[str, object]]:
        nonlocal expected
        try:
            args = fresh_inputs(inputs)
            ret = runner(args)
            got = harvest_outputs(args, ret, out_names)
        except Exception as exc:
            report.stages[stage] = f"error: {exc}"
            report.verdict = "error"
            return None
        if expected is None:
            expected = got
            report.stages[stage] = "ok (reference)"
            return got
        mismatches = compare_outputs(expected, got, inputs)
        if mismatches:
            report.stages[stage] = "mismatch: " + "; ".join(mismatches[:3])
            report.mismatches.extend(f"{stage}: {m}" for m in mismatches)
            if report.verdict == "ok":
                report.verdict = "mismatch"
            return None
        report.stages[stage] = "ok"
        return got

    run_stage("interpreter", lambda args: run_sdfg(base.clone(), **args))

    compiled_ok = run_stage(
        "compiled",
        lambda args: compile_sdfg(base.clone(), device=device)(**args)) is not None

    def optimize(sdfg, enabled_prefix: Optional[int] = None):
        if steps is not None:
            for _n, fn in steps[:enabled_prefix]:
                fn(sdfg)
        else:
            # switch the suffix off; the prefix keeps its defaults
            off = () if enabled_prefix is None else AUTOOPT_STEPS[enabled_prefix:]
            auto_optimize(sdfg, device=device,
                          passes=dict.fromkeys(off, False))
        return sdfg

    optimized_ok = run_stage(
        "optimized",
        lambda args: compile_sdfg(optimize(base.clone()), device=device)(**args)
    ) is not None

    # --- bisection --------------------------------------------------------
    if compiled_ok and not optimized_ok and report.verdict == "mismatch":
        step_names = [s[0] for s in steps] if steps is not None else AUTOOPT_STEPS

        def prefix_ok(k: int) -> bool:
            try:
                args = fresh_inputs(inputs)
                ret = compile_sdfg(optimize(base.clone(), k), device=device)(**args)
                got = harvest_outputs(args, ret, out_names)
            except Exception:
                return False
            return not compare_outputs(expected, got, inputs)

        if not prefix_ok(len(step_names)):
            report.culprit = step_names[_prefix_search(prefix_ok, len(step_names)) - 1]
            report.stages["bisection"] = f"culprit: {report.culprit}"

    return report
