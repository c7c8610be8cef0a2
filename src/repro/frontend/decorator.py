"""The ``@repro.program`` decorator (the paper's ``@dace.program``).

Decorated functions are parsed on demand into SDFGs.  Type-annotated
functions support ahead-of-time compilation (§3.3); unannotated functions
are JIT-specialized per argument signature.  ``auto_optimize=True`` with a
``device`` runs the §3.1 heuristics before compilation.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
import warnings
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from .. import instrumentation
from ..config import Config
from ..dtypes import ArrayAnnotation, dtype_of, typeclass
from ..governor import Budget, GovernorError, breaker_registry, governed
from ..ir.data import Array, Data, Scalar
from ..ir.sdfg import SDFG
from ..resilience import FailureReport, ResilienceWarning
from ..runtime.executor import CallingConvention, run_sdfg
from ..sanitizer import guards
from ..symbolic import Symbol
from .astutils import UnsupportedFeature, function_ast

__all__ = ["DaceProgram", "program", "MapMarker", "map_marker"]


class MapMarker:
    """The ``repro.map[...]`` parametric-parallelism iterator (§2.2)."""

    __is_map_marker__ = True

    def __getitem__(self, ranges):
        raise TypeError(
            "repro.map[...] can only be iterated inside an @repro.program "
            "function (it is parsed, not executed)")

    def __repr__(self) -> str:
        return "repro.map"


map_marker = MapMarker()


class DaceProgram:
    """A parsed-on-demand data-centric program."""

    def __init__(self, func: Callable, auto_optimize: bool = False,
                 device: str = "CPU", fallback: Optional[bool] = None,
                 instrument: Optional[str] = None,
                 sanitize: Optional[str] = None,
                 budget=None):
        functools.update_wrapper(self, func)
        self.func = func
        self.name = func.__name__
        self.auto_optimize = auto_optimize
        self.device = device
        self.fallback = fallback
        #: per-program instrumentation mode; None defers to the
        #: ``instrument.mode`` configuration key
        self.instrument = instrument
        #: per-program sanitizer mode ("bounds,nan" etc.); None defers to
        #: the ``sanitize.mode`` configuration key
        self.sanitize = sanitize
        #: per-program execution budget (repro.governor.Budget); None defers
        #: to the ``governor.*`` configuration keys (off by default)
        self.budget = budget
        #: ProfileReport of the most recent instrumented call
        self.last_profile = None
        #: degradation-chain attempts of the most recent degrade-mode call
        self.last_attempts: list = []
        self._sdfg_cache: Dict[Tuple, SDFG] = {}
        self._compiled_cache: Dict[Tuple, Any] = {}
        #: desc-key -> content fingerprint, memoized for the circuit breaker
        self._breaker_keys: Dict[Tuple, str] = {}
        #: absorbed failures (rollbacks, degradations) across all calls
        self.failure_report = FailureReport()
        self._signature = inspect.signature(func)
        self._defaults = {
            name: param.default
            for name, param in self._signature.parameters.items()
            if param.default is not inspect.Parameter.empty
        }
        #: descriptors of the annotated parameters, built once; an
        #: unsupported annotation is reported when the program is first
        #: used, not when it is decorated
        self._annotated: Dict[str, Any] = {}
        self._annotation_error: Optional[UnsupportedFeature] = None
        try:
            for name, param in self._signature.parameters.items():
                if param.annotation is not inspect.Parameter.empty:
                    self._annotated[name] = _annotation_to_desc(
                        param.annotation)
        except UnsupportedFeature as exc:
            self._annotation_error = exc
        #: memo key of the annotation descriptors; None when some parameter
        #: is unannotated and calls specialize per argument signature (JIT)
        self._annotated_key: Optional[Tuple] = None
        self._annotated_parts = dict(zip(self._annotated,
                                         self._desc_key(self._annotated)))
        if self._annotation_error is None \
                and len(self._annotated) == len(self._signature.parameters):
            self._annotated_key = tuple(self._annotated_parts.values())

    # -------------------------------------------------------------- descriptors
    def _global_env(self) -> Dict[str, Any]:
        env = dict(getattr(self.func, "__globals__", {}))
        closure = getattr(self.func, "__closure__", None)
        if closure:
            for name, cell in zip(self.func.__code__.co_freevars, closure):
                try:
                    env[name] = cell.cell_contents
                except ValueError:
                    pass
        return env

    def _annotation_descs(self) -> Optional[Dict[str, Any]]:
        """Descriptors from type annotations, or None if unannotated."""
        if self._annotation_error is not None:
            raise self._annotation_error
        return self._annotated if self._annotated_key is not None else None

    def _bind(self, args, kwargs) -> Dict[str, Any]:
        bound = self._signature.bind_partial(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def _key_for(self, arguments: Optional[Dict[str, Any]]) -> Tuple:
        """Memo key of one call: the annotations' own for a fully annotated
        program, else read straight off the bound *arguments* (JIT
        specialization) — no descriptor is built for a key."""
        if self._annotation_error is not None:
            raise self._annotation_error
        if self._annotated_key is not None:
            return self._annotated_key
        parts = []
        for name in self._signature.parameters:
            part = self._annotated_parts.get(name)
            if part is None:
                if name not in arguments:
                    raise TypeError(
                        f"missing argument {name!r} for {self.name}")
                part = _value_key(name, arguments[name])
            parts.append(part)
        return tuple(parts)

    def _descs_for(self, arguments: Optional[Dict[str, Any]]
                   ) -> Tuple[Dict[str, Any], Tuple]:
        """``(descriptors, memo key)`` of one call: annotations plus
        descriptors inferred from the bound *arguments*."""
        key = self._key_for(arguments)
        if self._annotated_key is not None:
            return self._annotated, key
        return {name: (self._annotated[name] if name in self._annotated
                       else _value_to_desc(arguments[name]))
                for name in self._signature.parameters}, key

    def _example(self, args, kwargs) -> Optional[Dict[str, Any]]:
        """Bound example arguments of ``to_sdfg``/``compile``; None when
        the annotations say everything and nothing needs binding."""
        if self._annotated_key is not None or self._annotation_error:
            return None
        if not args and not kwargs:
            raise UnsupportedFeature(
                f"{self.name} has unannotated parameters; pass example "
                f"arguments to to_sdfg() for JIT specialization")
        return self._bind(args, kwargs)

    @staticmethod
    def _desc_key(descs: Dict[str, Any]) -> Tuple:
        parts = []
        for name, desc in descs.items():
            if isinstance(desc, Data):
                parts.append((name, type(desc).__name__, desc.dtype.name,
                              tuple(str(s) for s in desc.shape)))
            else:
                parts.append((name, "symbol"))
        return tuple(parts)

    # ------------------------------------------------------------------ parsing
    def parse_for_descs(self, arg_descs: Dict[str, Any],
                        extra_globals: Optional[Dict[str, Any]] = None) -> SDFG:
        return self._parse(arg_descs, self._desc_key(arg_descs), extra_globals)

    def _parse(self, descs: Dict[str, Any], key: Tuple,
               extra_globals: Optional[Dict[str, Any]] = None,
               simplify: Optional[bool] = None) -> SDFG:
        """Parse for *descs* (memoized under *key*).  An explicit *simplify*
        overrides ``optimizer.simplify`` for this parse and is memoized
        apart from the configured default."""
        from .parser import parse_program

        if simplify is not None:
            key += (simplify,)
        sdfg = self._sdfg_cache.get(key)
        if sdfg is not None:
            return sdfg
        env = self._global_env()
        if extra_globals:
            for name, value in extra_globals.items():
                env.setdefault(name, value)
        cloned = {name: (desc.clone() if isinstance(desc, Data) else desc)
                  for name, desc in descs.items()}
        with (Config.override(optimizer__simplify=simplify)
              if simplify is not None else contextlib.nullcontext()):
            sdfg = parse_program(self.func, cloned, env, name=self.name,
                                 defaults=self._defaults)
            if Config.get("optimizer.simplify"):
                sdfg.simplify(report=self.failure_report)
        self._sdfg_cache[key] = sdfg
        return sdfg

    def to_sdfg(self, *args, simplify: Optional[bool] = None, **kwargs) -> SDFG:
        """Parse to an SDFG.  Annotated programs need no arguments (AOT);
        unannotated programs specialize to the given example arguments."""
        return self._parse(*self._descs_for(self._example(args, kwargs)),
                           simplify=simplify)

    # ---------------------------------------------------------------- execution
    def compile(self, *args, device: Optional[str] = None,
                instrument: bool = False,
                sanitize: Optional[bool] = None, **kwargs):
        """Ahead-of-time compile; returns a CompiledSDFG.

        ``instrument=True`` compiles a module with timing hooks (cached
        separately from the plain module); ``sanitize=True`` one with
        bounds/NaN guard calls (``sanitize=None`` defers to the program's
        resolved sanitizer mode).  Governed and checkpointed runs use the
        same module as plain ones.  When a profile collector is active,
        the compile phases (parse, autoopt, validate, codegen) report their
        wall time to it — the Fig. 6 decomposition.

        Compilation is keyed through the persistent content-addressed cache
        (:mod:`repro.cache`): a hit — even in a fresh process — rehydrates
        the generated module and skips optimization, validation, and code
        generation.
        """
        if sanitize is None:
            sanitize = bool(self._sanitize_mode())
        return self._compile(self._example(args, kwargs),
                             device or self.device, instrument, sanitize)

    def _compile(self, arguments: Optional[Dict[str, Any]], device: str,
                 instrument: bool, sanitize: bool):
        memo = (self._key_for(arguments), device, self.auto_optimize,
                instrument, sanitize)
        compiled = self._compiled_cache.get(memo)
        if compiled is not None:
            return compiled
        from ..cache import cached_compile

        with instrumentation.record_region("phase", "parse"):
            sdfg = self._parse(*self._descs_for(arguments))
        compiled = cached_compile(
            sdfg, device=device, instrument=instrument, sanitize=sanitize,
            optimize=device if self.auto_optimize else None,
            report=self.failure_report)
        self._compiled_cache[memo] = compiled
        return compiled

    def _sanitize_mode(self) -> str:
        """Resolved sanitizer mode: a comma-joined guard set, "" when off."""
        mode = self.sanitize
        if mode is None:
            mode = Config.get("sanitize.mode")
        return ",".join(sorted(guards.parse_modes(mode)))

    def _instrument_mode(self) -> str:
        mode = self.instrument
        if mode is None:
            mode = Config.get("instrument.mode")
        if mode in (None, False, "off", ""):
            return "off"
        return "timers" if mode is True else str(mode)

    def _breaker_key(self, arguments: Dict[str, Any]) -> str:
        """Circuit key: the content-addressed fingerprint of the parsed
        graph (structurally identical programs share a circuit; any edit
        gets a fresh, closed one).  Memoized per argument-descriptor
        signature; falls back to the program name when parsing fails."""
        try:
            dkey = self._key_for(arguments)
        except Exception:
            return f"program:{self.name}"
        key = self._breaker_keys.get(dkey)
        if key is None:
            try:
                from ..cache import fingerprint

                key = fingerprint(self._parse(*self._descs_for(arguments)))
            except Exception:
                key = f"program:{self.name}"
            self._breaker_keys[dkey] = key
        return key

    def __call__(self, *args, **kwargs):
        """Bind the arguments and resolve the sanitizer, instrumentation and
        governor modes once, enter whichever of them is on, and dispatch.

        A governed call (non-null budget, see DESIGN.md §12) goes through
        the program's circuit breaker, compiles *before* the deadline is
        armed — the deadline bounds execution, not the cached one-time
        compile — and is admission-checked against ``max_bytes`` under the
        symbols its artifact's calling convention binds; an open circuit
        fast-fails before any parse or compile.  An instrumented
        call reports into the enclosing profile collector if there is one,
        else into a fresh one whose report lands on ``last_profile``.
        """
        # reserved keyword: a per-call governor budget (never a program arg)
        budget = kwargs.pop("__budget", None)
        arguments = self._bind(args, kwargs)
        sanitize = self._sanitize_mode()
        mode = self._instrument_mode()
        instrument = mode != "off"
        budget = Budget.resolve(budget if budget is not None else self.budget)
        if not sanitize and not instrument and budget.is_null:
            return self._dispatch(args, kwargs, arguments, False, False)

        own = None
        with contextlib.ExitStack() as modes:
            if sanitize:
                modes.enter_context(
                    guards.sanitize(sanitize, program=self.name))
            if instrument and instrumentation.current() is None:
                own = modes.enter_context(
                    instrumentation.profile(self.name, mode=mode))
            if not budget.is_null:
                modes.enter_context(breaker_registry().guard(
                    self._breaker_key(arguments), self.name,
                    self.failure_report))
                compiled = None
                # errors resurface, with full context, from the dispatch
                with contextlib.suppress(Exception):
                    compiled = self._compile(arguments, self.device,
                                             instrument, bool(sanitize))
                sdfg = symbols = None
                if budget.max_bytes:
                    # the dispatch fallback owns unparseable programs
                    with contextlib.suppress(UnsupportedFeature):
                        sdfg = self._parse(*self._descs_for(arguments))
                        # no artifact: the fallback tiers run this graph
                        convention = (CallingConvention(sdfg)
                                      if compiled is None
                                      else compiled.convention)
                        symbols = convention.bind(
                            (), _call_kwargs(arguments))[1]
                modes.enter_context(
                    governed(budget, sdfg, symbols, program=self.name))
            result = self._dispatch(args, kwargs, arguments, bool(sanitize),
                                    instrument)
        if own is not None:
            self.last_profile = own.report(device=self.device)
        return result

    def _dispatch(self, args, kwargs, arguments: Dict[str, Any],
                  sanitize: bool, instrument: bool):
        """Run the call down its tier list and return the first result.

        The list is ``[compiled]``; ``fallback=True`` appends the original
        Python function for programs the frontend cannot parse
        (``UnsupportedFeature``), and ``resilience.mode = "degrade"`` makes
        it compiled → unoptimized SDFG on the reference interpreter →
        Python function, advancing on any failure.  The first two tiers
        modify arrays in place, so in degrade mode their input contents are
        checkpointed and restored between attempts — a stage that dies
        halfway must not poison the next stage's inputs — and every attempt
        is timed into ``last_attempts``, ``failure_report`` and the active
        profile collector.  Governor errors never advance: a timeout
        retried on a slower tier times out again.
        """
        call_kwargs = _call_kwargs(arguments)
        degrade = Config.get("resilience.mode") == "degrade"
        coll = instrumentation.current()

        def phase(name: str):
            return (coll.region("phase", name) if instrument
                    else contextlib.nullcontext())

        def compiled_tier():
            with phase("compile"):
                compiled = self._compile(
                    arguments, self.device,
                    instrument or (degrade and coll is not None), sanitize)
            with phase("execute"):
                return compiled(**call_kwargs)

        def python_tier():
            with phase("execute"):
                return self.func(*args, **kwargs)

        def note(stage: str, ok: bool, seconds: float, error: str = ""):
            self.last_attempts.append({"stage": stage, "ok": ok,
                                       "seconds": seconds, "error": error})
            if coll is not None:
                coll.attempt(stage, ok, seconds, error)

        tiers = [("compiled", compiled_tier)]
        advance_on: Any = ()
        if degrade:
            tiers += [("interpreter", lambda: run_sdfg(
                          self._parse(*self._descs_for(arguments)),
                          **call_kwargs)),
                      ("python", python_tier)]
            advance_on = Exception
            self.last_attempts = []
            checkpoints = [(value, np.copy(value))
                           for value in arguments.values()
                           if isinstance(value, np.ndarray)]
        elif self.fallback:
            tiers.append(("python", python_tier))
            advance_on = UnsupportedFeature

        for position, (stage, run) in enumerate(tiers):
            start = time.perf_counter()
            try:
                result = run()
            except GovernorError:
                raise
            except advance_on as exc:
                if position == len(tiers) - 1:
                    raise
                following = tiers[position + 1][0]
                if not degrade:
                    warnings.warn(
                        f"{self.name}: falling back to the Python "
                        f"interpreter ({exc})", RuntimeWarning, stacklevel=3)
                    continue
                seconds = time.perf_counter() - start
                error = f"{type(exc).__name__}: {exc}"
                note(stage, False, seconds, error)
                self.failure_report.record(
                    "degradation", self.name, exc, f"fell-back:{following}",
                    stage=stage, seconds=seconds)
                warnings.warn(
                    f"{self.name}: {stage} execution failed ({error}); "
                    f"degrading to {following}", ResilienceWarning,
                    stacklevel=3)
                for live, saved in checkpoints:
                    np.copyto(live, saved)
            else:
                if degrade:
                    note(stage, True, time.perf_counter() - start)
                return result

    def __repr__(self) -> str:
        return f"DaceProgram({self.name})"


#: argument values the generated module accepts; anything else (e.g. a
#: nested program passed as a default) is resolved by the parser
_ARG_TYPES = (np.ndarray, np.generic, int, float, complex, bool)


def _call_kwargs(arguments: Dict[str, Any]) -> Dict[str, Any]:
    return {name: value for name, value in arguments.items()
            if isinstance(value, _ARG_TYPES)}


def _annotation_to_desc(annotation) -> Any:
    if isinstance(annotation, ArrayAnnotation):
        return Array(annotation.dtype, annotation.shape)
    if isinstance(annotation, typeclass):
        return Scalar(annotation)
    if isinstance(annotation, Symbol):
        return annotation
    raise UnsupportedFeature(
        f"unsupported annotation {annotation!r}; use repro dtypes "
        f"(e.g. repro.float64[N, N])")


def _value_kind(value) -> Tuple[type, typeclass, Tuple]:
    """``(descriptor class, dtype, shape)`` a JIT argument specializes to."""
    if isinstance(value, np.ndarray):
        return Array, dtype_of(value.dtype), value.shape
    if isinstance(value, (np.generic, int, float, complex, bool)):
        return Scalar, dtype_of(value), (1,)
    raise UnsupportedFeature(f"cannot infer descriptor for argument {value!r}")


def _value_to_desc(value) -> Data:
    cls, dtype, shape = _value_kind(value)
    return Scalar(dtype) if cls is Scalar else Array(dtype, shape)


def _value_key(name: str, value) -> Tuple:
    """The ``DaceProgram._desc_key`` part of ``_value_to_desc(value)``,
    without building the descriptor."""
    cls, dtype, shape = _value_kind(value)
    return (name, cls.__name__, dtype.name, tuple(map(str, shape)))


def program(func: Optional[Callable] = None, *, auto_optimize: bool = False,
            device: str = "CPU", fallback: Optional[bool] = None,
            instrument: Optional[str] = None,
            sanitize: Optional[str] = None, budget=None):
    """Decorator marking a function as a data-centric program.

    Usable bare (``@repro.program``), with options
    (``@repro.program(auto_optimize=True, device="GPU")``), or as a plain
    call (``repro.program(func, auto_optimize=True)``).
    ``instrument="timers"`` forces profiling for this program;
    ``sanitize="bounds,nan"`` enables runtime guards (bounds/NaN checks in
    both the interpreter and the generated module);
    ``budget=repro.Budget(deadline_s=..., max_bytes=...)`` governs every
    call of this program (deadline + memory admission; DESIGN.md §12).
    Each ``None`` (default) defers to the matching configuration keys
    (``instrument.mode`` / ``sanitize.mode`` / ``governor.*``).  A single
    call can also be governed via the reserved ``__budget`` keyword.
    """
    def wrapper(f: Callable) -> DaceProgram:
        return DaceProgram(f, auto_optimize=auto_optimize, device=device,
                           fallback=fallback, instrument=instrument,
                           sanitize=sanitize, budget=budget)

    return wrapper if func is None else wrapper(func)
